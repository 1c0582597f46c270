"""Closed forms against an independent mpmath oracle at 40 digits.

The oracle sums exact integer products for small n; for large n it starts
from the central term and walks outward with the exact term ratio until the
terms fall below 1e-45 of the central one.
"""

import functools
import math

import pytest

from eqfid.cloning import shrinking_factor
from eqfid.numerics import sqrt_binom_sum_scaled
from eqfid.povm import mean_fidelity_closed
from eqfid.strategies import curve_table, p_unified_collective

mpmath = pytest.importorskip("mpmath")

REL_TOL = 1e-15


@pytest.fixture(autouse=True)
def forty_digits():
    """Every oracle value and comparison is computed at 40 digits."""
    with mpmath.workdps(40):
        yield


@functools.cache
def oracle_scaled_sum(n):
    """S_n / 2^n with S_n = sum_i sqrt(C(n,i) C(n,i+1)), i = 0 .. n-1."""
    if n <= 2000:
        total = mpmath.fsum(mpmath.sqrt(math.comb(n, i) * math.comb(n, i + 1)) for i in range(n))
        return total / mpmath.mpf(2) ** n
    c = (n - 1) // 2
    first = mpmath.sqrt(mpmath.binomial(n, c) * mpmath.binomial(n, c + 1)) / mpmath.mpf(2) ** n
    floor = first * mpmath.mpf(10) ** -45
    total = first
    term, i = first, c
    while i + 1 < n and term > floor:  # term(i+1) / term(i)
        term *= mpmath.sqrt(mpmath.mpf((n - i) * (n - i - 1)) / ((i + 1) * (i + 2)))
        i += 1
        total += term
    term, i = first, c
    while i > 0 and term > floor:  # term(i-1) / term(i)
        term *= mpmath.sqrt(mpmath.mpf(i * (i + 1)) / ((n - i + 1) * (n - i)))
        i -= 1
        total += term
    return total


def rel_err(value, exact):
    return float(abs(mpmath.mpf(value) - exact) / abs(exact))


def f_bar(n):
    return (1 + oracle_scaled_sum(n)) / 2


def eta(n, m):
    return oracle_scaled_sum(n) / oracle_scaled_sum(m)


def test_sqrt_binom_sum_scaled_matches_oracle():
    ns = [*range(1, 71), 1000, 1023, 1100, 10**4, 10**5, 10**6]
    worst = max((rel_err(sqrt_binom_sum_scaled(n), oracle_scaled_sum(n)), n) for n in ns)
    assert worst[0] <= REL_TOL, worst


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
        for name, value in exact.items():
            assert rel_err(getattr(point, name), value) <= REL_TOL, (n, name)


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
