"""Fidelity-estimation strategies for finite ensembles of equatorial qubits.

Closed-form strategy probabilities, exact measurement simulation and seeded
Monte Carlo validation for comparing how well the fidelity between two
ensembles of identically prepared equatorial qubit states can be
reconstructed.
"""

from .cloning import (
    ShrinkingFactor,
    eqcm_fidelity,
    gcnot_fidelity,
    mean_fidelity_closed,
    shrinking_factor,
)
from .montecarlo import (
    ANALYTIC_FACTOR,
    FULL_MIXED,
    MEASUREMENT,
    UNIFIED_COLLECTIVE,
    UNIFIED_PAIR,
    TrialConfig,
    TrialReport,
    mixed_ensemble_distribution,
    simulate,
)
from .numerics import (
    as_phase,
    sqrt_binom_sum,
    sqrt_binom_sum_scaled,
)
from .povm import (
    estimate_phase,
    mean_fidelity_numeric,
    outcome_distribution,
    povm_basis,
)
from .strategies import (
    StrategyCurvePoint,
    curve_table,
    p_cloning,
    p_measurement,
    p_unified_collective,
    p_unified_collective_unequal,
    p_unified_pair,
)
from .symmetric import dicke_embedding, symmetric_state
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC_FACTOR",
    "CheckResult",
    "FULL_MIXED",
    "MEASUREMENT",
    "ShrinkingFactor",
    "StrategyCurvePoint",
    "TrialConfig",
    "TrialReport",
    "UNIFIED_COLLECTIVE",
    "UNIFIED_PAIR",
    "as_phase",
    "curve_table",
    "dicke_embedding",
    "eqcm_fidelity",
    "estimate_phase",
    "gcnot_fidelity",
    "mean_fidelity_closed",
    "mean_fidelity_numeric",
    "mixed_ensemble_distribution",
    "outcome_distribution",
    "p_cloning",
    "p_measurement",
    "p_unified_collective",
    "p_unified_collective_unequal",
    "p_unified_pair",
    "povm_basis",
    "run_checks",
    "shrinking_factor",
    "simulate",
    "sqrt_binom_sum",
    "sqrt_binom_sum_scaled",
    "symmetric_state",
]
