"""Closed forms against an independent mpmath oracle at 40 digits.

The oracle sums exact integer products for small n; for large n it starts
from the central term and walks outward with the exact term ratio until the
terms fall below 1e-20 of the central one, and bounds the tails it drops.
"""

import functools
import math

import pytest

from eqfid import numerics
from eqfid.cloning import mean_fidelity_closed, shrinking_factor
from eqfid.montecarlo import FULL_MIXED, UNIFIED_COLLECTIVE, TrialConfig, simulate
from eqfid.numerics import DEFICIT_SERIES, sqrt_binom_sum_scaled
from eqfid.povm import mixed_coefficients, outcome_distribution, outcome_rows
from eqfid.strategies import curve_table, p_unified_collective, p_unified_collective_unequal

mpmath = pytest.importorskip("mpmath")

REL_TOL = 1e-15
# oracle_scaled_sum stops its walks below FLOOR of the central term and
# bounds what they drop by TAIL, relative.
FLOOR = 1e-20
TAIL = 1e-20


@pytest.fixture(autouse=True)
def forty_digits():
    """Every oracle value and comparison is computed at 40 digits."""
    with mpmath.workdps(40):
        yield


@functools.cache
def oracle_scaled_sum(n):
    """S_n / 2^n with S_n = sum_i sqrt(C(n,i) C(n,i+1)), i = 0 .. n-1.

    Past n = 2000 two walks leave the central term by the exact term ratio
    and stop once a term falls below FLOOR of it. The terms are log-concave
    in i (each is a geometric mean of two log-concave binomials), so the
    ratios shrink outward: with t the last term a walk adds and r the ratio
    of the next one to it, its dropped tail is at most t r / (1 - r). Each
    sum asserts that its two tails together stay below TAIL of it, 5e-5 of
    the 2e-16 that test_sqrt_binom_sum_scaled_matches_oracle allows.
    """
    if n <= 2000:
        total = mpmath.fsum(mpmath.sqrt(math.comb(n, i) * math.comb(n, i + 1)) for i in range(n))
        return total / mpmath.mpf(2) ** n
    c = (n - 1) // 2
    first = mpmath.sqrt(mpmath.binomial(n, c) * mpmath.binomial(n, c + 1)) / mpmath.mpf(2) ** n

    def up(i):  # term(i+1) / term(i), 0 past the last term
        if i + 1 == n:
            return 0
        return mpmath.sqrt(mpmath.mpf((n - i) * (n - i - 1)) / ((i + 1) * (i + 2)))

    def down(i):  # term(i-1) / term(i), 0 past the first term
        if i == 0:
            return 0
        return mpmath.sqrt(mpmath.mpf(i * (i + 1)) / ((n - i + 1) * (n - i)))

    total, tails, floor = first, 0, first * FLOOR
    for ratio, step in ((up, 1), (down, -1)):
        term, i = first, c
        while term > floor and (r := ratio(i)):
            term *= r
            i += step
            total += term
        r = ratio(i)
        tails += term * r / (1 - r)
    assert tails <= TAIL * total, (n, tails / total)
    return total


def rel_err(value, exact):
    return float(abs(mpmath.mpf(value) - exact) / abs(exact))


def f_bar(n):
    return (1 + oracle_scaled_sum(n)) / 2


def eta(n, m):
    return oracle_scaled_sum(n) / oracle_scaled_sum(m)


def test_sqrt_binom_sum_scaled_matches_oracle():
    # Up to BASIS_CAP, S_n / 2^n is correctly rounded from an exact integer
    # sum; above, it is 1 - d_n from the deficit series. Hold both to 2e-16,
    # never looser. At 6281617 and 78881935 a centre term rounded to one
    # float once put S past 1e-15.
    grid = [round(10 ** (k / 2)) for k in range(7, 17)]
    ns = [*range(1, 71), 1000, 1023, 1100, 999736, 3 * 10**6, 6281617, 78881935, *grid]
    worst = max((rel_err(sqrt_binom_sum_scaled(n), oracle_scaled_sum(n)), n) for n in ns)
    assert worst[0] <= 2e-16, worst


def test_sqrt_binom_series_needs_no_walk(monkeypatch):
    # Above BASIS_CAP, S_n / 2^n is O(1): at n = 10^12 the integer route
    # would need C(n, i) of 10^12 bits. The value is the series' 50-digit
    # value to 1 ulp.
    s_1 = sqrt_binom_sum_scaled(1)

    def refuse(n, k):
        raise AssertionError(f"integer route at n = {n}")

    monkeypatch.setattr(numerics, "_window_sum", refuse)
    n = 10**12
    value = sqrt_binom_sum_scaled(n)
    with mpmath.workdps(50):
        series = 1 - sum(mpmath.mpf(a) / mpmath.mpf(n) ** k for k, a in enumerate(DEFICIT_SERIES, 1))
        assert abs(mpmath.mpf(value) - series) <= math.ulp(value)
    p = p_unified_collective_unequal(1, n)
    assert math.isfinite(p) and p == (0.5 + s_1 / 2.0) * (1.0 + s_1 / sqrt_binom_sum_scaled(n + 1)) / 2.0


def test_curve_table_matches_oracle():
    f_cnot = (1 + eta(1, 2)) / 2
    for point in curve_table(1, 60):
        n = point.n_copies
        fb = f_bar(n)
        f_gcnot = (1 + eta(n, 2 * n)) / 2
        exact = {
            "f_bar": fb,
            "f_eqcm": fb,
            "f_cnot": f_cnot,
            "f_gcnot": f_gcnot,
            "p_measurement": fb**2,
            "p_cloning": fb**2,
            "p_unified_pair": fb * f_cnot,
            "p_unified_collective": fb * f_gcnot,
        }
        for name, exact_value in exact.items():
            value = getattr(point, name)
            assert abs(mpmath.mpf(value) - exact_value) <= 3 * math.ulp(value), (n, name)


def test_closed_forms_finite_and_exact_past_float_range():
    # S_N itself leaves float range from N = 1025; the closed forms must not,
    # and must keep full precision for output ensembles of millions.
    cases = [
        (mean_fidelity_closed(10**6), f_bar(10**6)),
        (p_unified_collective(5000), f_bar(5000) * (1 + eta(5000, 10000)) / 2),
        (shrinking_factor(3, 2 * 10**6).value, eta(3, 2 * 10**6)),
    ]
    for value, exact in cases:
        assert math.isfinite(value)
        assert rel_err(value, exact) <= REL_TOL


def oracle_outcome_row(n, phi):
    """p_k(phi) = |sum_m sqrt(C(n,m) / 2^n) e^{i m (phi - 2 pi k/(n+1))}|^2 / (n+1),
    each sum by Horner's rule in the phase factor."""
    weights = [mpmath.sqrt(mpmath.mpf(math.comb(n, m)) / 2**n) for m in range(n + 1)]
    row = []
    for k in range(n + 1):
        z = mpmath.expj(mpmath.mpf(phi) - 2 * mpmath.pi * k / (n + 1))
        amplitude = mpmath.mpc(0)
        for w in reversed(weights):
            amplitude = amplitude * z + w
        row.append(abs(amplitude) ** 2 / (n + 1))
    return row


@pytest.mark.parametrize("n", [1, 2, 12, 60, 200])
def test_outcome_rows_match_oracle(n):
    phases = [0.0, 0.3, 2.0, math.pi, 5.97, 6.2]
    rows = outcome_rows(n, phases)
    assert rows.shape == (len(phases), n + 1)
    # A one-phase product may round differently from a batched one (BLAS
    # sums them in different orders), so each is held to the oracle alone.
    for phi, row in zip(phases, rows):
        exact = oracle_outcome_row(n, phi)
        for law in (row, outcome_distribution(n, phi)):
            worst = max(abs(float(p - q)) for p, q in zip(law, exact))
            assert worst <= 5e-16, (n, phi, worst)


@functools.cache
def oracle_mixed_coefficients(n, eta_value):
    """c_0 = tr R / (n+1) and c_m = 2 tr_m R / (n+1), with R the Dicke-basis
    block of rho(0)^{(x) n}, rho(0) = [[1, eta], [eta, 1]] / 2:
    R_{a,b} = 2^-n sum_c n! / ((a-c)! (b-c)! c! (n-a-b+c)!) eta^{a+b-2c}
    / sqrt(C(n,a) C(n,b)), c counting the ones two strings share."""
    eta = mpmath.mpf(eta_value)
    coeffs = []
    for m in range(n + 1):
        total = mpmath.mpf(0)
        for a in range(n + 1 - m):
            b = a + m
            pairs = mpmath.fsum(
                math.factorial(n)
                // (math.factorial(a - c) * math.factorial(b - c) * math.factorial(c)
                    * math.factorial(n - a - b + c))
                * eta ** (a + b - 2 * c)
                for c in range(max(0, a + b - n), a + 1)
            )
            total += pairs / mpmath.sqrt(math.comb(n, a) * math.comb(n, b))
        coeffs.append(total / mpmath.mpf(2) ** n / (n + 1) * (1 if m == 0 else 2))
    return coeffs


@pytest.mark.parametrize("n", [1, 3, 12, 30, 60])
def test_mixed_coefficients_match_oracle(n):
    for eta in (0.0, 0.37, 0.93):
        worst = max(
            abs(float(c - exact))
            for c, exact in zip(mixed_coefficients(n, eta), oracle_mixed_coefficients(n, eta))
        )
        assert worst <= 1e-16, (n, eta, worst)


@pytest.mark.parametrize("n", [30, 60])
def test_full_mixed_simulate_matches_oracle_past_full_space(n):
    # Uniform phases: the mean is 1/2 + (N+1) c_1 / 4 and the perp frequency
    # 1 - (N+1) c_0; no 2^N reference exists at these N.
    trials = 20_000
    eta = shrinking_factor(n, 2 * n).value
    c = oracle_mixed_coefficients(n, eta)
    report = simulate(
        TrialConfig(n_copies=n, trials=trials, seed=n,
                    strategy=UNIFIED_COLLECTIVE, mixed_mode=FULL_MIXED)
    )
    mean = float(mpmath.mpf(1) / 2 + (n + 1) * c[1] / 4)
    assert abs(report.mean_overlap_product - mean) <= 5 * report.overlap_product_se
    perp = float(1 - (n + 1) * c[0])
    assert abs(report.perp_probability - perp) <= 5 * math.sqrt(perp * (1 - perp) / trials)
