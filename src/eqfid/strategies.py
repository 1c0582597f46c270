"""Closed-form success probabilities of the three fidelity-estimation
strategies and their comparison curves."""

from dataclasses import dataclass

from .cloning import cnot_fidelity, eqcm_fidelity, gcnot_fidelity, shrinking_factor
from .povm import mean_fidelity_closed

# Curve tables and verify stop at the N range the comparison curves cover;
# the closed forms themselves are finite and accurate at every N.
CURVE_N_CAP = 60

EQUIVALENCE_TOL = 1e-12


def p_measurement(n_copies: int) -> float:
    """Estimate both ensemble phases independently; fbar(N)^2."""
    return mean_fidelity_closed(n_copies) ** 2


def p_cloning(n_copies: int) -> float:
    """Clone each ensemble asymptotically, then estimate; f_eqcm(N)^2."""
    return eqcm_fidelity(n_copies) ** 2


def p_unified_pair(n_copies: int) -> float:
    """Pairwise difference gate, then phase estimation; fbar(N) * f_cnot."""
    return mean_fidelity_closed(n_copies) * cnot_fidelity()


def p_unified_collective(n_copies: int) -> float:
    """Collective difference gate, then phase estimation; fbar(N) * f_gcnot(N)."""
    return mean_fidelity_closed(n_copies) * gcnot_fidelity(n_copies)


def p_unified_collective_unequal(n_a: int, n_b: int) -> float:
    """Collective strategy for ensembles of different sizes.

    Convention: the smaller ensemble drives both stages. The gate is the
    generalized min(N_a, N_b) -> N_a + N_b transformation, and the difference
    ensemble is credited with min(N_a, N_b) usable copies, so the estimation
    factor is fbar(min) and the gate factor uses eta(min, N_a + N_b). The
    symmetric case reduces exactly to p_unified_collective.
    """
    if n_a < 1 or n_b < 1:
        raise ValueError("ensemble sizes must be >= 1")
    n = min(n_a, n_b)
    gate = (1.0 + shrinking_factor(n, n_a + n_b).value) / 2.0
    return mean_fidelity_closed(n) * gate


@dataclass(frozen=True)
class PhaseInfoTradeoff:
    """What the collective gate costs on the control-side ensemble."""

    p_phase_a_after_gcnot: float
    p_phase_a_direct: float


def other_ensemble_tradeoff(n_copies: int) -> PhaseInfoTradeoff:
    """Probability of recovering the control phase from the gate's control
    output (fbar * f_gcnot) versus from the untouched ensemble (fbar).

    The first is strictly smaller: the gate trades single-phase information
    for phase-difference information.
    """
    fbar = mean_fidelity_closed(n_copies)
    return PhaseInfoTradeoff(fbar * gcnot_fidelity(n_copies), fbar)


@dataclass(frozen=True)
class StrategyCurvePoint:
    """All per-N quantities behind the strategy comparison curves."""

    n_copies: int
    f_bar: float
    f_eqcm: float
    f_cnot: float
    f_gcnot: float
    p_measurement: float
    p_cloning: float
    p_unified_pair: float
    p_unified_collective: float

    def validate(self) -> None:
        probs = (
            self.p_measurement,
            self.p_cloning,
            self.p_unified_pair,
            self.p_unified_collective,
        )
        if not all(0.0 < p <= 1.0 for p in probs):
            raise ValueError(f"probabilities out of (0, 1] at N={self.n_copies}")
        if abs(self.p_measurement - self.p_cloning) > EQUIVALENCE_TOL:
            raise ValueError(f"measurement/cloning equivalence broken at N={self.n_copies}")
        if not self.p_unified_collective > self.p_measurement:
            raise ValueError(f"collective strategy not superior at N={self.n_copies}")


def curve_point(n_copies: int) -> StrategyCurvePoint:
    point = StrategyCurvePoint(
        n_copies=n_copies,
        f_bar=mean_fidelity_closed(n_copies),
        f_eqcm=eqcm_fidelity(n_copies),
        f_cnot=cnot_fidelity(),
        f_gcnot=gcnot_fidelity(n_copies),
        p_measurement=p_measurement(n_copies),
        p_cloning=p_cloning(n_copies),
        p_unified_pair=p_unified_pair(n_copies),
        p_unified_collective=p_unified_collective(n_copies),
    )
    point.validate()
    return point


def curve_table(n_min: int, n_max: int) -> list[StrategyCurvePoint]:
    """One StrategyCurvePoint per N in [n_min, n_max], validated."""
    if not 1 <= n_min <= n_max <= CURVE_N_CAP:
        raise ValueError(
            f"need 1 <= n_min <= n_max <= {CURVE_N_CAP}, got ({n_min}, {n_max})"
        )
    return [curve_point(n) for n in range(n_min, n_max + 1)]
