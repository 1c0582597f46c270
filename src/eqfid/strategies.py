"""Closed-form success probabilities of the three fidelity-estimation
strategies and their comparison curves, from cloning, with each count
checked by numerics.check_int: no numpy.

Every closed form reads S_n / 2^n through numerics, which keeps it per n up
to BASIS_CAP: a curve table of 60 rows computes the 90 distinct S_n it reads
(S_N and S_2N) once each.
"""

from dataclasses import dataclass

from .cloning import _eta, eqcm_fidelity, gcnot_fidelity, mean_fidelity_closed
from .numerics import check_int

# Curve tables and verify stop at the N range the comparison curves cover;
# the closed forms themselves are finite and accurate at every N.
CURVE_N_CAP = 60


def p_measurement(n_copies: int) -> float:
    """Estimate both ensemble phases independently; fbar(N)^2."""
    return mean_fidelity_closed(n_copies) ** 2


def p_cloning(n_copies: int) -> float:
    """Clone each ensemble asymptotically, then estimate; f_eqcm(N)^2."""
    return eqcm_fidelity(n_copies) ** 2


def p_unified_pair(n_copies: int) -> float:
    """Pairwise difference gate, then phase estimation; fbar(N) * f_gcnot(1)."""
    return mean_fidelity_closed(n_copies) * gcnot_fidelity(1)


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
    n_a, n_b = check_int(n_a, "n_a", 1), check_int(n_b, "n_b", 1)
    n = min(n_a, n_b)
    gate = (1.0 + _eta(n, n_a + n_b)) / 2.0
    return mean_fidelity_closed(n) * gate


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


def curve_point(n_copies: int) -> StrategyCurvePoint:
    return StrategyCurvePoint(
        n_copies=n_copies,
        f_bar=mean_fidelity_closed(n_copies),
        f_eqcm=eqcm_fidelity(n_copies),
        f_cnot=gcnot_fidelity(1),
        f_gcnot=gcnot_fidelity(n_copies),
        p_measurement=p_measurement(n_copies),
        p_cloning=p_cloning(n_copies),
        p_unified_pair=p_unified_pair(n_copies),
        p_unified_collective=p_unified_collective(n_copies),
    )


def curve_table(n_min: int, n_max: int) -> list[StrategyCurvePoint]:
    """One StrategyCurvePoint per N in [n_min, n_max]; verify checks the
    paper's claims on these rows. The bounds are integers: a float is a
    TypeError, whatever its value."""
    n_min = check_int(n_min, "n_min", 1, CURVE_N_CAP)
    n_max = check_int(n_max, "n_max", n_min, CURVE_N_CAP)
    return [curve_point(n) for n in range(n_min, n_max + 1)]
