import inspect
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eqfid import numerics
from eqfid.numerics import (
    SUM_DENOMINATOR,
    as_phase,
    binomial_log_ratios,
    sqrt_binom_sum,
    sqrt_binom_sum_scaled,
)
from eqfid.strategies import curve_table
from eqfid.verify import run_checks


def test_sqrt_binom_sum_values():
    assert sqrt_binom_sum(1) == 1.0
    assert abs(sqrt_binom_sum(2) - 2.0 * math.sqrt(2.0)) < 1e-12
    assert abs(sqrt_binom_sum(4) - (4.0 + 4.0 * math.sqrt(6.0))) < 1e-11


def test_sqrt_binom_sum_domain_error():
    with pytest.raises(ValueError):
        sqrt_binom_sum(0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 60, 1500, 1501, 1600, 10**5, 2 * 10**6 + 1])
def test_binomial_log_pmf_window(n):
    lo, logs, total = binomial_log_ratios(n)
    hi = lo + len(logs) - 1
    ratios = np.exp(logs)
    assert logs[n // 2 - lo] == 0.0
    # D = 2^n / C(n, n // 2); math.comb is too slow to check it past 10^5.
    if n <= 10**5:
        pmf_centre = math.comb(n, n // 2) / 2**n
        assert abs(total / SUM_DENOMINATOR * pmf_centre - 1.0) <= 4e-16
    # The row decreases away from its centre, so once the cut-off ends round
    # to zero every dropped index would add exactly zero.
    assert lo == 0 or ratios[0] == 0.0
    assert hi == n or ratios[-1] == 0.0


def test_binomial_log_pmf_small_rows_exact():
    for n in range(0, 61):
        lo, logs, total = binomial_log_ratios(n)
        assert (lo, len(logs)) == (0, n + 1)
        centre = math.comb(n, n // 2)
        for i, value in enumerate(logs):
            exact = math.log(math.comb(n, i) / centre)
            assert abs(value - exact) <= 4e-15 * max(1.0, abs(exact))
        assert abs(total / SUM_DENOMINATOR * centre / 2**n - 1.0) <= 4e-16


def test_binomial_log_pmf_domain_error():
    with pytest.raises(ValueError):
        binomial_log_ratios(-1)


@settings(deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 5000),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_exact_sum_is_the_exact_sum(values):
    # hypothesis draws both signs, subnormals and the whole exponent range.
    assert numerics._exact_sum(values) == SUM_DENOMINATOR * sum(map(Fraction, values.tolist()))


def test_exact_sum_slices_long_inputs(monkeypatch):
    # Inputs longer than _SLICE are binned a slice at a time; a short slice
    # length makes every case below take several, ragged ones included.
    rng = np.random.default_rng(7)
    values = rng.standard_normal(1001) * 10.0 ** rng.integers(-300, 300, 1001)
    values[::5] = 2.0**1023
    values[1::7] = 5e-324
    expected = SUM_DENOMINATOR * sum(map(Fraction, values.tolist()))
    for length in (1, 7, 64, 1000, 1001):
        monkeypatch.setattr(numerics, "_SLICE", length)
        assert numerics._exact_sum(values) == expected, length
        # Caller scratch of only the slice length is enough.
        floats, ints = np.empty((3, length)), np.empty((1, length), dtype=np.intp)
        assert numerics._exact_sum(values, floats, ints) == expected, length


def test_sqrt_binom_sum_scaled_is_computed_once_per_n(monkeypatch):
    numerics._sqrt_binom_sum_scaled.cache_clear()
    seen = Counter()
    log_ratios = numerics.binomial_log_ratios

    def counting(n):
        seen[n] += 1
        return log_ratios(n)

    monkeypatch.setattr(numerics, "binomial_log_ratios", counting)
    curve_table(1, 60)
    run_checks(60)
    # Integer-like n share the memo entry of the int.
    sqrt_binom_sum_scaled(np.int64(60))
    assert set(range(1, 61)) <= set(seen)
    assert max(seen.values()) == 1
    # The public function stays a plain function, so tracers can wrap it.
    assert inspect.isfunction(numerics.sqrt_binom_sum_scaled)
    for _ in range(3):
        with pytest.raises(ValueError):
            sqrt_binom_sum_scaled(0)
    sqrt_binom_sum_scaled(2)
    with pytest.raises(TypeError):
        sqrt_binom_sum_scaled(2.0)


def test_phase_normalization():
    assert as_phase(0.0) == 0.0
    assert abs(as_phase(7.0 * math.pi) - math.pi) < 1e-12
    assert abs(as_phase(-math.pi / 2) - 3.0 * math.pi / 2) < 1e-12
    assert as_phase(-1e-18) == 0.0  # must not round up to 2*pi
    for x in np.linspace(-20.0, 20.0, 101):
        v = as_phase(x)
        assert type(v) is float
        assert 0.0 <= v < 2.0 * math.pi
        assert as_phase(v) == v  # idempotent


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_phase_rejects_non_finite(value):
    with pytest.raises(ValueError):
        as_phase(value)


def test_as_phase_passthrough():
    p = as_phase(1.25)
    assert p == 1.25
    assert as_phase(p) == p
