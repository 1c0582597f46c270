import inspect
import math
from collections import Counter

import numpy as np
import pytest

from eqfid import numerics
from eqfid.numerics import (
    IDENTITY,
    Phase,
    as_phase,
    binomial_log_pmf,
    clone_state,
    equatorial_state,
    overlap,
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
    assert Phase(0.0).value == 0.0
    assert abs(Phase(7.0 * math.pi).value - math.pi) < 1e-12
    assert abs(Phase(-math.pi / 2).value - 3.0 * math.pi / 2) < 1e-12
    assert Phase(-1e-18).value == 0.0  # must not round up to 2*pi
    for x in np.linspace(-20.0, 20.0, 101):
        v = Phase(float(x)).value
        assert 0.0 <= v < 2.0 * math.pi
        assert Phase(v).value == v  # idempotent


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_phase_rejects_non_finite(value):
    with pytest.raises(ValueError):
        Phase(value)


def test_as_phase_passthrough():
    p = Phase(1.25)
    assert as_phase(p) is p
    assert as_phase(1.25).value == p.value


def test_equatorial_state_examples():
    s = equatorial_state(0.0)
    assert np.allclose(s, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)
    s = equatorial_state(math.pi)
    assert np.allclose(s, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-12)
    s = equatorial_state(math.pi / 2)
    assert np.allclose(s, [1 / math.sqrt(2), 1j / math.sqrt(2)], atol=1e-12)


def test_equatorial_state_normalized():
    for phi in np.linspace(0, 2 * math.pi, 17):
        amp = equatorial_state(float(phi))
        assert abs(np.vdot(amp, amp).real - 1.0) < 1e-14


def test_clone_state_limits():
    phi = 1.3
    amp = equatorial_state(phi)
    pure = clone_state(phi, 1.0)
    assert np.allclose(pure.matrix, np.outer(amp, amp.conj()), atol=1e-15)
    mixed = clone_state(phi, 0.0)
    assert np.allclose(mixed.matrix, IDENTITY / 2.0, atol=1e-15)


def test_clone_state_overlap_identity():
    rho = clone_state(0.7, 1.0 / math.sqrt(2.0))
    assert abs(overlap(rho, 0.7) - (1.0 + 1.0 / math.sqrt(2.0)) / 2.0) < 1e-12


@pytest.mark.parametrize("eta", [-0.1, 1.1, 2.0])
def test_clone_state_domain_errors(eta):
    with pytest.raises(ValueError):
        clone_state(0.0, eta)


def test_clone_state_grid_invariants():
    # 100 x 100 grid: Hermitian, unit trace, PSD, and the overlap identity
    phis = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    etas = np.linspace(0.0, 1.0, 100)
    for phi in phis:
        for eta in etas:
            rho = clone_state(float(phi), float(eta))  # validates on construction
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-15
            assert abs(np.trace(m) - 1.0) < 1e-15
            assert np.linalg.eigvalsh(m).min() > -1e-15
            assert abs(overlap(rho, float(phi)) - (1.0 + eta) / 2.0) < 1e-12


def test_overlap_trivial_cases():
    half = clone_state(0.0, 0.0)
    for phi in (0.0, 1.0, 4.5):
        assert abs(overlap(half, phi) - 0.5) < 1e-14
    proj = clone_state(2.2, 1.0)
    assert abs(overlap(proj, 2.2) - 1.0) < 1e-14
