"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import json
import math
import time
from dataclasses import asdict

import numpy as np

from eqfid.cloning import gcnot_fidelity, mean_fidelity_closed, shrinking_factor
from eqfid.montecarlo import (
    MEASUREMENT,
    UNIFIED_COLLECTIVE,
    TrialConfig,
    mixed_ensemble_distribution,
    simulate,
)
from eqfid.numerics import sqrt_binom_sum_scaled
from eqfid.povm import mean_fidelity_numeric, outcome_distribution, povm_basis
from eqfid.strategies import (
    p_cloning,
    p_measurement,
    p_unified_collective,
    p_unified_pair,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_mean_fidelity_reproduction():
    start = time.perf_counter()
    worst = max(
        abs(mean_fidelity_numeric(n) - mean_fidelity_closed(n)) for n in range(1, 31)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and mean_fidelity_closed(1) == 0.75 and elapsed < 5.0
    report(
        1,
        "closed vs numeric mean estimation fidelity, N=1..30",
        ok,
        f"max dev {worst:.2e}, N=1 value {mean_fidelity_closed(1)}, {elapsed:.2f}s",
    )


def test_criterion_2_pairwise_gate_fidelity_value():
    # The pairwise gate is the collective N -> 2N gate at N = 1.
    f = gcnot_fidelity(1)
    # independent route: explicit binomial sums for eta(1, 2)
    s1 = math.sqrt(math.comb(1, 0) * math.comb(1, 1))
    s2 = math.sqrt(math.comb(2, 0) * math.comb(2, 1)) + math.sqrt(
        math.comb(2, 1) * math.comb(2, 2)
    )
    eta12 = 2.0 * s1 / s2
    ok = (
        abs(f - 0.8535533905932738) <= 1e-12
        and abs(f - (0.5 + 1.0 / math.sqrt(8.0))) <= 1e-15
        and abs(f - (1.0 + eta12) / 2.0) <= 1e-15
    )
    report(2, "pairwise gate fidelity equals 1/2 + 1/sqrt(8)", ok, f"value {f!r}")


def test_criterion_3_strategy_equivalence():
    start = time.perf_counter()
    worst = max(abs(p_measurement(n) - p_cloning(n)) for n in range(1, 51))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(
        3,
        "measurement and cloning strategies equivalent, N=1..50",
        ok,
        f"max dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_collective_ordering():
    meas = [p_measurement(n) for n in range(1, 51)]
    coll = [p_unified_collective(n) for n in range(1, 51)]
    ok = all(c > m for c, m in zip(coll, meas))
    ok = ok and all(b > a for a, b in zip(meas, meas[1:]))
    ok = ok and all(b > a for a, b in zip(coll, coll[1:]))
    gap5, gap50 = coll[4] - meas[4], coll[49] - meas[49]
    ok = ok and gap50 < gap5
    report(
        4,
        "collective strategy strictly superior and both curves increasing",
        ok,
        f"gap N=5 {gap5:.3e} -> N=50 {gap50:.3e}",
    )


def test_criterion_5_pairwise_crossover():
    gain = p_unified_pair(1) - p_measurement(1)
    tie = abs(p_unified_pair(2) - p_measurement(2))
    ok = abs(gain - 0.0776650429) <= 1e-9
    ok = ok and tie <= 1e-12
    ok = ok and all(p_unified_pair(n) < p_measurement(n) for n in range(3, 51))
    report(
        5,
        "pairwise gate helps only single-particle ensembles",
        ok,
        f"N=1 gain {gain!r}, N=2 tie {tie:.2e}",
    )


def test_criterion_6_monte_carlo_validation():
    cases = [
        (MEASUREMENT, 1),
        (MEASUREMENT, 2),
        (UNIFIED_COLLECTIVE, 2),
    ]
    ok = True
    details = []
    for strategy, n in cases:
        config = TrialConfig(
            n_copies=n, trials=10**6, seed=42, strategy=strategy
        )
        start = time.perf_counter()
        first = simulate(config)
        elapsed = time.perf_counter() - start
        second = simulate(config)
        identical = json.dumps(asdict(first)) == json.dumps(asdict(second))
        dev = abs(first.mean_overlap_product - first.analytic_probability)
        within = dev <= 3.0 * first.overlap_product_se
        ok = ok and identical and within and elapsed < 30.0
        details.append(
            f"{strategy}/N={n}: dev {dev:.1e} vs 3se {3 * first.overlap_product_se:.1e}, "
            f"{elapsed:.1f}s, rerun identical {identical}"
        )
    report(6, "Monte Carlo within 3 standard errors and byte-reproducible", ok,
           "; ".join(details))


def test_criterion_7_povm_structural_suite():
    worst_structure = 0.0
    for n in range(1, 31):
        basis = povm_basis(n)
        eye = np.eye(n + 1)
        worst_structure = max(
            worst_structure,
            float(np.max(np.abs(basis.conj().T @ basis - eye))),
            float(np.max(np.abs(basis @ basis.conj().T - eye))),
        )
    worst_sum = 0.0
    for n in range(1, 31):
        for phi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            worst_sum = max(
                worst_sum, abs(outcome_distribution(n, float(phi)).sum() - 1.0)
            )
    ok = worst_structure <= 1e-12 and worst_sum <= 1e-10
    report(
        7,
        "measurement basis orthonormal, complete, normalized outcomes",
        ok,
        f"structure dev {worst_structure:.2e}, sum dev {worst_sum:.2e}",
    )


def test_criterion_8_mixed_ensemble_sanity():
    start = time.perf_counter()
    ok = True
    # eta = 1 reduces to the pure outcome law with no weight outside the
    # symmetric subspace
    for n in (1, 2, 4, 6):
        for phi in (0.0, 1.2, 4.0):
            p = mixed_ensemble_distribution(n, phi, 1.0)
            ok = ok and np.max(np.abs(p[: n + 1] - outcome_distribution(n, phi))) <= 1e-10
            ok = ok and p[n + 1] <= 1e-10
    # fully depolarized pair: one quarter of the weight is antisymmetric
    perp = mixed_ensemble_distribution(2, 0.0, 0.0)[3]
    ok = ok and abs(perp - 0.25) <= 1e-10
    # total probability one across an eta x delta grid
    worst = 0.0
    for n in range(1, 7):
        for eta in np.linspace(0.0, 1.0, 11):
            for delta in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                worst = max(
                    worst,
                    abs(mixed_ensemble_distribution(n, float(delta), float(eta)).sum() - 1.0),
                )
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-10 and elapsed < 60.0
    report(
        8,
        "mixed-ensemble outcome law sanity",
        ok,
        f"perp(eta=0,N=2) {perp!r}, worst sum dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_9_shrinking_factor_properties():
    ok = all(shrinking_factor(n, n).value == 1.0 for n in range(1, 51))
    ok = ok and all(
        shrinking_factor(n, m).value > shrinking_factor(n, m + 1).value
        for n in range(1, 11)
        for m in range(n, 4 * n)
    )
    ok = ok and all(
        # S_N / 2^N is eta(N, inf).
        shrinking_factor(n, 2 * n).value > sqrt_binom_sum_scaled(n)
        for n in range(1, 51)
    )
    report(
        9,
        "shrinking factor identity, monotonicity and doubled-output bound",
        ok,
    )
