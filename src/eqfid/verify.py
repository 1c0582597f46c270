"""Cross-module invariant suite backing the `verify` CLI command."""

from dataclasses import dataclass

import numpy as np

from .cloning import shrinking_factor, shrinking_factor_limit
from .povm import mean_fidelity_closed, mean_fidelity_numeric, outcome_distribution, povm_basis
from .strategies import (
    CURVE_N_CAP,
    EQUIVALENCE_TOL,
    p_cloning,
    p_measurement,
    p_unified_collective,
    p_unified_pair,
)

STRUCTURE_TOL = 1e-12
AGREEMENT_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_checks(n_max: int) -> list[CheckResult]:
    """Run all named invariant checks up to ensemble size n_max."""
    if not 1 <= n_max <= CURVE_N_CAP:
        raise ValueError(f"n_max must lie in 1..{CURVE_N_CAP}, got {n_max}")
    return [
        _check_povm_structure(n_max),
        _check_mean_fidelity_agreement(n_max),
        _check_strategy_equivalence(n_max),
        _check_shrinking_monotonicity(n_max),
        _check_collective_ordering(n_max),
        _check_pairwise_crossover(n_max),
        _check_shrinking_bound(n_max),
    ]


def _check_povm_structure(n_max: int) -> CheckResult:
    worst = 0.0
    for n in range(1, n_max + 1):
        basis = povm_basis(n)
        eye = np.eye(n + 1)
        worst = max(
            worst,
            float(np.max(np.abs(basis.conj().T @ basis - eye))),
            float(np.max(np.abs(basis @ basis.conj().T - eye))),
        )
    return CheckResult(
        "povm-orthonormality-completeness",
        worst <= STRUCTURE_TOL,
        f"max deviation {worst:.3e} over N=1..{n_max}",
    )


def _check_mean_fidelity_agreement(n_max: int) -> CheckResult:
    worst = max(
        abs(mean_fidelity_numeric(n) - mean_fidelity_closed(n)) for n in range(1, n_max + 1)
    )
    return CheckResult(
        "mean-fidelity-closed-vs-numeric",
        worst <= AGREEMENT_TOL,
        f"max |numeric - closed| {worst:.3e} over N=1..{n_max}",
    )


def _check_strategy_equivalence(n_max: int) -> CheckResult:
    worst = max(abs(p_measurement(n) - p_cloning(n)) for n in range(1, n_max + 1))
    return CheckResult(
        "measurement-cloning-equivalence",
        worst <= EQUIVALENCE_TOL,
        f"max |p_measurement - p_cloning| {worst:.3e} over N=1..{n_max}",
    )


def _check_shrinking_monotonicity(n_max: int) -> CheckResult:
    ok = all(
        shrinking_factor(n, m).value > shrinking_factor(n, m + 1).value
        for n in range(1, min(n_max, 10) + 1)
        for m in range(n, 4 * n)
    )
    return CheckResult(
        "shrinking-factor-monotone-in-m",
        ok,
        f"strict decrease over N=1..{min(n_max, 10)}, M=N..4N",
    )


def _check_collective_ordering(n_max: int) -> CheckResult:
    meas = [p_measurement(n) for n in range(1, n_max + 1)]
    coll = [p_unified_collective(n) for n in range(1, n_max + 1)]
    ok = all(c > m for c, m in zip(coll, meas))
    ok = ok and all(meas[i + 1] > meas[i] for i in range(len(meas) - 1))
    ok = ok and all(coll[i + 1] > coll[i] for i in range(len(coll) - 1))
    detail = f"collective above measurement, both increasing, N=1..{n_max}"
    if n_max > 5:
        gap_small, gap_large = coll[4] - meas[4], coll[-1] - meas[-1]
        ok = ok and gap_large < gap_small
        detail += f"; gap {gap_small:.3e} -> {gap_large:.3e}"
    return CheckResult("collective-strategy-ordering", ok, detail)


def _check_pairwise_crossover(n_max: int) -> CheckResult:
    ok = p_unified_pair(1) > p_measurement(1)
    if n_max >= 2:
        ok = ok and abs(p_unified_pair(2) - p_measurement(2)) <= EQUIVALENCE_TOL
    ok = ok and all(p_unified_pair(n) < p_measurement(n) for n in range(3, n_max + 1))
    return CheckResult(
        "pairwise-crossover",
        ok,
        f"advantage at N=1, tie at N=2, reversal for N=3..{n_max}",
    )


def _check_shrinking_bound(n_max: int) -> CheckResult:
    ok = all(
        shrinking_factor(n, 2 * n).value > shrinking_factor_limit(n).value
        for n in range(1, n_max + 1)
    )
    return CheckResult(
        "collective-shrinking-above-limit",
        ok,
        f"eta(N, 2N) > eta(N, inf) over N=1..{n_max}",
    )
