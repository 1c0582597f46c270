import inspect
import math
from collections import Counter

import numpy as np
import pytest

from eqfid import numerics
from eqfid.numerics import (
    as_phase,
    binomial_log_pmf,
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
    lo, logs = binomial_log_pmf(n)
    hi = lo + len(logs) - 1
    pmf = np.exp(logs)
    assert abs(math.fsum(pmf) - 1.0) < 1e-15
    # The row decreases away from its centre, so once the cut-off ends round
    # to zero every dropped index would add exactly zero.
    assert lo == 0 or pmf[0] == 0.0
    assert hi == n or pmf[-1] == 0.0


def test_binomial_log_pmf_small_rows_exact():
    for n in range(0, 61):
        lo, logs = binomial_log_pmf(n)
        assert (lo, len(logs)) == (0, n + 1)
        for i, value in enumerate(logs):
            exact = math.log(math.comb(n, i)) - n * math.log(2.0)
            assert abs(value - exact) <= 4e-15 * max(1.0, abs(exact))


def test_binomial_log_pmf_domain_error():
    with pytest.raises(ValueError):
        binomial_log_pmf(-1)


def _fsum_log_pmf(n):
    """binomial_log_pmf written out with math.fsum for the centre term."""
    c, m = n // 2, (n + 1) // 2
    centre = math.fsum(np.log1p(-0.5 / np.arange(1, m + 1)).tolist())
    k = math.isqrt(373 * n) + 2
    lo, hi = max(0, c - k), min(n, c + k)
    up = np.arange(c, hi)
    down = np.arange(c, lo, -1)
    right = np.cumsum(np.log1p((n - 2 * up - 1) / (up + 1)))
    left = np.cumsum(np.log1p((2 * down - n - 1) / (n - down + 1)))
    return lo, np.concatenate([left[::-1] + centre, [centre], right + centre])


def test_exact_sums_match_fsum_bit_for_bit():
    # Both routines round the exact sum once, so they agree in every bit;
    # the large n cross many centre-term chunks, 999736 among them.
    for n in [*range(1, 2001), 10**4, 10**5, 999736, 10**6, 3 * 10**6]:
        lo, logs = binomial_log_pmf(n)
        old_lo, old_logs = _fsum_log_pmf(n)
        assert lo == old_lo and np.array_equal(logs, old_logs), n
        assert sqrt_binom_sum_scaled(n) == math.fsum(np.exp(0.5 * (old_logs[:-1] + old_logs[1:])).tolist()), n


def test_sqrt_binom_sum_scaled_is_computed_once_per_n(monkeypatch):
    numerics._sqrt_binom_sum_scaled.cache_clear()
    seen = Counter()
    log_pmf = numerics.binomial_log_pmf

    def counting(n):
        seen[n] += 1
        return log_pmf(n)

    monkeypatch.setattr(numerics, "binomial_log_pmf", counting)
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
