"""Fidelity-estimation strategies for finite ensembles of equatorial qubits.

Closed-form strategy probabilities, exact measurement simulation and seeded
Monte Carlo validation for comparing how well the fidelity between two
ensembles of identically prepared equatorial qubit states can be
reconstructed.
"""

from types import ModuleType as _Module

from .cloning import (
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
from .numerics import as_phase, sqrt_binom_sum_scaled
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
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

# Every name imported above, less the submodules that the imports also bind.
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _Module))
