"""Cross-module invariant suite backing the `verify` CLI command; the one
owner of the paper's claims, read off one curve_table."""

from dataclasses import dataclass

import numpy as np

from .cloning import _eta, mean_fidelity_closed
from .numerics import check_int, sqrt_binom_sum_scaled
from .povm import _fidelity_quadrature, povm_basis
from .strategies import CURVE_N_CAP, StrategyCurvePoint, curve_table
from .symmetric import _dicke_weights

STRUCTURE_TOL = 1e-12
AGREEMENT_TOL = 1e-10
# Phases at which the outcome law is held to the basis, up to 2 pi.
LAW_PHASES = (0.0, 0.3, 2.0, 5.97)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_checks(n_max: int) -> list[CheckResult]:
    """Run all named invariant checks up to ensemble size n_max, an
    integer: a float is a TypeError, whatever its value."""
    n_max = check_int(n_max, "n_max", 1, CURVE_N_CAP)
    table = curve_table(1, n_max)
    structure, numeric = _check_povm_structure(n_max)
    return [
        structure,
        _check_mean_fidelity_agreement(numeric),
        _check_strategy_equivalence(table, numeric),
        _check_shrinking_monotonicity(n_max),
        _check_collective_ordering(table),
        _check_pairwise_crossover(table),
        _check_shrinking_bound(n_max),
        _check_probabilities_in_range(table),
    ]


def _check_povm_structure(n_max: int) -> tuple[CheckResult, list[float]]:
    """The basis B is the unitary DFT matrix F, so orthonormal and complete,
    and outcome_rows, built from Fourier coefficients, equals
    |B^dagger Phi(phi)|^2. Also returns mean_fidelity_numeric(N) for
    N = 1..n_max, from the same outcome_rows call as the law at LAW_PHASES.

    F B^dagger and F^dagger B are held to the identity by one FFT: that of
    the rows of B, over sqrt(N + 1), is B F^dagger, the conjugate transpose
    of F B^dagger and, as povm_basis gathers roots at k n mod (N + 1) and so
    is symmetric, the transpose of F^dagger B. An FFT takes no BLAS thread
    pool: the threaded products B^dagger B and B B^dagger stalled verify for
    up to 0.7 s after the host had been idle.
    """
    worst, numeric = 0.0, []
    phasors = np.exp(1j * np.outer(LAW_PHASES, np.arange(n_max + 1)))
    for n in range(1, n_max + 1):
        basis = povm_basis(n)
        gram = np.fft.fft(basis, norm="ortho")
        gram.flat[:: n + 2] -= 1.0  # the diagonal: minus the identity
        rows, fidelity = _fidelity_quadrature(n, LAW_PHASES)
        rows -= np.abs((_dicke_weights(n) * phasors[:, : n + 1]) @ basis.conj()) ** 2
        worst = max(worst, np.abs(gram).max(), np.abs(rows).max())
        numeric.append(fidelity)
    worst = float(worst)
    return CheckResult(
        "povm-orthonormality-completeness",
        worst <= STRUCTURE_TOL,
        f"max deviation {worst:.3e} of basis and outcome law over N=1..{n_max}",
    ), numeric


def _check_mean_fidelity_agreement(numeric: list[float]) -> CheckResult:
    """numeric[N - 1] is mean_fidelity_numeric(N)."""
    worst = max(abs(f - mean_fidelity_closed(n)) for n, f in enumerate(numeric, 1))
    return CheckResult(
        "mean-fidelity-closed-vs-numeric",
        worst <= AGREEMENT_TOL,
        f"max |numeric - closed| {worst:.3e} over N=1..{len(numeric)}",
    )


def _check_strategy_equivalence(table: list[StrategyCurvePoint],
                                numeric: list[float]) -> CheckResult:
    """Cloning does as well as measuring: p_cloning(N) is the square of the
    measurement's mean fidelity, here from the outcome-law quadrature, whose
    square moves by at most twice the quadrature's own tolerance."""
    worst = max(abs(p.p_cloning - f * f) for p, f in zip(table, numeric))
    return CheckResult(
        "measurement-cloning-equivalence",
        worst <= 2.0 * AGREEMENT_TOL,
        f"max |p_cloning - numeric^2| {worst:.3e} over N=1..{len(table)}",
    )


def _check_shrinking_monotonicity(n_max: int) -> CheckResult:
    ok = all(
        _eta(n, m) > _eta(n, m + 1)
        for n in range(1, min(n_max, 10) + 1)
        for m in range(n, 4 * n)
    )
    return CheckResult(
        "shrinking-factor-monotone-in-m",
        ok,
        f"strict decrease over N=1..{min(n_max, 10)}, M=N..4N",
    )


def _check_collective_ordering(table: list[StrategyCurvePoint]) -> CheckResult:
    meas = [p.p_measurement for p in table]
    coll = [p.p_unified_collective for p in table]
    ok = all(c > m for c, m in zip(coll, meas))
    ok = ok and all(meas[i + 1] > meas[i] for i in range(len(meas) - 1))
    ok = ok and all(coll[i + 1] > coll[i] for i in range(len(coll) - 1))
    detail = f"collective above measurement, both increasing, N=1..{len(table)}"
    if len(table) > 5:
        gap_small, gap_large = coll[4] - meas[4], coll[-1] - meas[-1]
        ok = ok and gap_large < gap_small
        detail += f"; gap {gap_small:.3e} -> {gap_large:.3e}"
    return CheckResult("collective-strategy-ordering", ok, detail)


def _check_pairwise_crossover(table: list[StrategyCurvePoint]) -> CheckResult:
    ok = table[0].p_unified_pair > table[0].p_measurement
    if len(table) >= 2:
        # fbar(2) and f_gcnot(1) are the same float, so the tie is exact.
        ok = ok and table[1].p_unified_pair == table[1].p_measurement
    ok = ok and all(p.p_unified_pair < p.p_measurement for p in table[2:])
    n = len(table)
    # Name only the N the table reaches.
    claims = ["advantage at N=1", "tie at N=2", f"reversal for N=3..{n}" if n > 3 else "reversal at N=3"]
    return CheckResult("pairwise-crossover", ok, ", ".join(claims[:n]))


def _check_shrinking_bound(n_max: int) -> CheckResult:
    ok = all(
        # S_N / 2^N is eta(N, inf).
        _eta(n, 2 * n) > sqrt_binom_sum_scaled(n)
        for n in range(1, n_max + 1)
    )
    return CheckResult(
        "collective-shrinking-above-limit",
        ok,
        f"eta(N, 2N) > eta(N, inf) over N=1..{n_max}",
    )


def _check_probabilities_in_range(table: list[StrategyCurvePoint]) -> CheckResult:
    probs = [v for p in table for k, v in vars(p).items() if k.startswith("p_")]
    return CheckResult(
        "strategy-probabilities-in-range",
        all(0.0 < v <= 1.0 for v in probs),
        f"success probabilities in [{min(probs):.3e}, {max(probs):.3e}], "
        f"need (0, 1], over N=1..{len(table)}",
    )
