import functools
import hashlib
import importlib.util
import inspect
import math
import os
import re
import sys
import types
import warnings
from collections import Counter
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eqfid import montecarlo, numerics
from eqfid.montecarlo import SUM_DENOMINATOR, TRIALS_CAP, TrialConfig, mixed_ensemble_distribution
from eqfid.numerics import (
    BASIS_CAP,
    DEFICIT_SERIES,
    as_phase,
    sqrt_binom_sum,
    sqrt_binom_sum_scaled,
)
from eqfid.povm import estimate_phase, mean_fidelity_numeric, mixed_coefficients, phase_estimates
from eqfid.strategies import CURVE_N_CAP, curve_table, p_unified_collective_unequal
from eqfid.symmetric import EMBEDDING_CAP, dicke_embedding, symmetric_state
from eqfid.verify import run_checks
import reference
from reference import deficit_series


def test_sqrt_binom_sum_values():
    assert sqrt_binom_sum(1) == 1.0
    assert abs(sqrt_binom_sum(2) - 2.0 * math.sqrt(2.0)) < 1e-12
    assert abs(sqrt_binom_sum(4) - (4.0 + 4.0 * math.sqrt(6.0))) < 1e-11


def test_sqrt_binom_sum_domain_error():
    with pytest.raises(ValueError):
        sqrt_binom_sum(0)


def exact(values):
    """The _exact_sum numerator of values: every float is a / b with b a
    power of two dividing SUM_DENOMINATOR."""
    shift = SUM_DENOMINATOR.bit_length()
    return sum(a << shift - b.bit_length() for a, b in map(float.as_integer_ratio, values.tolist()))


def test_numerics_loads_without_numpy(monkeypatch):
    # numerics, cloning and strategies need math and Python ints alone: with
    # numpy unimportable, numerics loaded as a module of its own gives the
    # package's S_n / 2^n on both sides of BASIS_CAP, and strategies, loaded
    # with what it imports from an alias package over eqfid's directory
    # (eqfid/__init__ imports numpy), gives the package's closed forms.
    monkeypatch.setitem(sys.modules, "numpy", None)
    spec = importlib.util.spec_from_file_location("standalone_numerics", numerics.__file__)
    standalone = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(standalone)
    for n in (60, 2000):
        assert standalone.sqrt_binom_sum_scaled(n) == sqrt_binom_sum_scaled(n)
    alias = types.ModuleType("numpy_free")
    alias.__path__ = [os.path.dirname(numerics.__file__)]
    monkeypatch.setitem(sys.modules, alias.__name__, alias)
    before = set(sys.modules)
    try:
        closed = importlib.import_module("numpy_free.strategies")
        assert set(sys.modules) - before == {
            "numpy_free.numerics", "numpy_free.cloning", "numpy_free.strategies"}
        assert ([astuple(p) for p in closed.curve_table(1, 60)]
                == [astuple(p) for p in curve_table(1, 60)])
        assert (closed.p_unified_collective_unequal(3, 10**6)
                == p_unified_collective_unequal(3, 10**6))
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]


# Below 2^(1022 - bits(5000)) = 2^1009, the exact sum's bound at every length
# drawn.
BELOW_BOUND = st.floats(-(2.0**1000), 2.0**1000, exclude_min=True, exclude_max=True)


@settings(deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 5000), elements=BELOW_BOUND))
def test_exact_sum_is_the_exact_sum(values):
    # hypothesis draws both signs, subnormals and every exponent up to 999.
    assert montecarlo._exact_sum(values) == exact(values)


@settings(deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 5000), elements=BELOW_BOUND), st.data())
def test_exact_sum_rejects_a_maximum_past_the_bound(values, data):
    # A magnitude at or above 2^(1022 - bits(n)), anywhere among n values, is
    # a ValueError.
    bound = math.ldexp(1.0, 1022 - len(values).bit_length())
    where = data.draw(st.integers(0, len(values) - 1))
    values[where] = data.draw(st.floats(min_value=bound)) * data.draw(st.sampled_from([1, -1]))
    with pytest.raises(ValueError, match="finite"):
        montecarlo._exact_sum(values)


def test_numerator_counts_smallest_subnormals():
    assert montecarlo._numerator(5e-324) == 1
    assert montecarlo._numerator(-1.0) == -(2**1074)


def _band_edge():
    # Powers of two from 2^-30 to 2^0, and a remainder of tiny values far
    # below them.
    rng = np.random.default_rng(11)
    values = rng.random(4096) * 2.0 ** rng.integers(-30, 1, 4096)
    values[::97] = 3e-300
    return values


def _exact_sum_cases():
    rng = np.random.default_rng(5)
    tiny = 5e-324  # 2^-1074
    subnormals = rng.integers(-(2**20), 2**20, 3000) * tiny
    subnormals[::3] = rng.random(1000) * 2.0**-1022
    subnormals[1::50] = tiny
    yield "hot bin", 0.5 + rng.random(32768) / 2
    yield "band edge", _band_edge()
    # Every value but one at the top of its binade.
    yield "full band", np.append(np.full(32767, np.nextafter(2.0, 0.0)), 2.0**-30)
    yield "subnormals", subnormals
    yield "zeros", np.zeros(1000)
    yield "zeros and one", np.concatenate([np.zeros(500), [1.5], -np.zeros(500)])
    yield "mixed signs", rng.standard_normal(5000) * 2.0 ** rng.integers(-40, 40, 5000)
    yield "mostly below the band", np.exp(-rng.random(3000) * 700.0)
    yield "cancelling", np.array([1e300, 1.0, -1e300, 2.0**-1074] * 100)
    for length in (199, 200, 201):
        scale = 2.0 ** rng.integers(-60, 60, length)
        yield f"length {length}", rng.standard_normal(length) * scale
    # Every fifth value is 2^1023 and every seventh the smallest subnormal.
    wide = rng.standard_normal(1001) * 10.0 ** rng.integers(-300, 300, 1001)
    wide[::5] = 2.0**1023
    wide[1::7] = tiny
    yield "wide 1001", wide
    # Magnitudes up to about 2^1022, beside values near the subnormal range
    # and subnormals.
    near_overflow = rng.standard_normal(1000) * 2.0**1020
    near_overflow[::4] = rng.standard_normal(250) * 2.0 ** rng.integers(-1030, -1000, 250)
    near_overflow[1::8] = rng.integers(-(2**20), 2**20, 125) * tiny
    yield "near overflow", near_overflow
    # Below 2^-1065 the unit is clamped at 2^-1074 from the first pass.
    yield "subnormal row", rng.integers(-(2**9), 2**9, 4096) * tiny
    # Each pass takes 52 - 13 = 39 binades, so values down to 2^-400 leave
    # remainders for a dozen passes.
    yield "deep remainders", rng.random(5000) * 2.0 ** -rng.integers(0, 400, 5000)
    # 2^20 values over 600 decades, in one call: no input is sliced.
    mixed = rng.standard_normal(1 << 20) * 10.0 ** rng.integers(-300, 300, 1 << 20)
    yield "2^20 mixed range", mixed


def _split_at_the_bound():
    """The cases below 2^(1022 - bits(n)), the bound, and those at or past it.
    Each case past it is also an in-range case, scaled by a power of two into
    the last binade below the bound."""
    inside, past = [], []
    for name, values in _exact_sum_cases():
        bound = 1022 - len(values).bit_length()
        exponent = math.frexp(np.abs(values).max(initial=0.0))[1]
        if exponent > bound:
            past.append(pytest.param(values, id=name))
            values = values * 2.0 ** (bound - exponent)
        inside.append(pytest.param(values, id=name))
    return inside, past


INSIDE_THE_BOUND, PAST_THE_BOUND = _split_at_the_bound()


@pytest.mark.parametrize("values", INSIDE_THE_BOUND)
def test_exact_sum_routes(values):
    expected = exact(values)
    assert montecarlo._exact_sum(values) == expected
    assert montecarlo._exact_sum(-values) == -expected
    assert montecarlo._exact_sum(values[::-1]) == expected


@pytest.mark.parametrize("values", PAST_THE_BOUND)
def test_exact_sum_rejects_rows_past_the_bound(values):
    for row in (values, -values, values[::-1]):
        with pytest.raises(ValueError, match="finite"):
            montecarlo._exact_sum(row)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -math.nan])
@pytest.mark.parametrize("length", [1, 200, 201, 40000])
def test_exact_sum_rejects_non_finite(bad, length):
    # A sum with an infinity or a NaN in it is a ValueError, with no warning
    # on the way, wherever it sits.
    for where in (0, length // 2, length - 1):
        values = np.full(length, 0.75)
        values[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                montecarlo._exact_sum(values)


def test_sqrt_binom_sum_scaled_is_computed_once_per_n(monkeypatch):
    # Count each S_n / 2^n computed, through a fresh cache in place of the
    # kept one, and each integer window sum taken.
    reads, walks = Counter(), Counter()
    exact_scaled, window_sum = numerics._exact_scaled.__wrapped__, numerics._window_sum

    def computing(n):
        reads[n] += 1
        return exact_scaled(n)

    def walking(n, k):
        walks[n] += 1
        return window_sum(n, k)

    monkeypatch.setattr(numerics, "_exact_scaled", functools.cache(computing))
    monkeypatch.setattr(numerics, "_window_sum", walking)
    curve_table(1, 60)
    run_checks(60)
    # Integer-like n share the memo entry of the int.
    sqrt_binom_sum_scaled(np.int64(60))
    # The gate factor reads S_2N too.
    assert set(reads) == {*range(1, 61), *range(62, 121, 2)}
    # One window sum each: k = 64 passes Ziv's test at every n read here.
    assert max(reads.values()) == 1 and max(walks.values()) == 1
    assert set(walks) == set(reads)
    # Above BASIS_CAP S_n never takes the integer route.
    sqrt_binom_sum_scaled(BASIS_CAP + 1)
    assert BASIS_CAP + 1 not in reads and BASIS_CAP + 1 not in walks
    # The public function stays a plain function, so tracers can wrap it.
    assert inspect.isfunction(numerics.sqrt_binom_sum_scaled)
    for _ in range(3):
        with pytest.raises(ValueError):
            sqrt_binom_sum_scaled(0)
    sqrt_binom_sum_scaled(2)
    # A float n is a TypeError whatever its value, below 1 too.
    for bad in (0.5, 1.5, 2.0, BASIS_CAP + 1.0):
        with pytest.raises(TypeError):
            sqrt_binom_sum_scaled(bad)


def test_sqrt_binom_sum_scaled_is_correctly_rounded():
    # Up to BASIS_CAP, S_n / 2^n is the correctly rounded value that
    # tests/reference.py takes from the full row, an independent exact
    # integer sum: every n to 200, every 7th n to the cap, and the last ten.
    ns = [*range(1, 201), *range(207, BASIS_CAP - 9, 7), *range(BASIS_CAP - 9, BASIS_CAP + 1)]
    wrong = [n for n in ns if sqrt_binom_sum_scaled(n) != reference.sqrt_binom_sum_scaled(n)]
    assert not wrong, wrong


def test_sqrt_binom_sum_scaled_digest():
    # S_n / 2^n for n = 1..BASIS_CAP comes from Python ints alone, so it has
    # one SHA-256 on every host, with numpy's AVX-512 and its AVX2 loops.
    lines = "".join(sqrt_binom_sum_scaled(n).hex() + "\n" for n in range(1, BASIS_CAP + 1))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "371e5005eaef4a22c57e4e9ce91319623d1a72d98c6af27d303c7a0f6e9a02e8"


def test_sqrt_binom_deficit_series_is_exact():
    # The eight float constants are the rational coefficients derived from
    # the central moments of Bin(n, 1/2).
    assert list(map(Fraction, DEFICIT_SERIES)) == deficit_series(8)


def test_sqrt_binom_series_is_correctly_rounded_above_cap():
    # Above BASIS_CAP, S_n / 2^n is 1 - d_n from DEFICIT_SERIES: held at every
    # n up to 8192 to 12 terms of the series in rational arithmetic, whose
    # first omitted term is below 1e-30 there.
    coefficients = deficit_series(12)
    worst = 0.0, 0
    for n in range(BASIS_CAP + 1, 8193):
        exact_value = 1 - sum(a / Fraction(n) ** k for k, a in enumerate(coefficients, 1))
        value = sqrt_binom_sum_scaled(n)
        worst = max(worst, (float(abs(Fraction(value) - exact_value) / Fraction(math.ulp(value))), n))
    assert worst[0] <= 0.501, worst


def series(n):
    """1 - d_n from DEFICIT_SERIES, one Horner step per coefficient."""
    x, d = 1 / n, 0.0
    for a in reversed(DEFICIT_SERIES):
        d = d * x + a
    return 1.0 - d * x


def test_sqrt_binom_series_meets_walk_at_threshold():
    # The integer route, taken uncached here past the cap too, against the
    # series on either side of BASIS_CAP.
    for n in range(BASIS_CAP - 2, BASIS_CAP + 3):
        exact_value, value = numerics._exact_scaled.__wrapped__(n), series(n)
        assert abs(exact_value - value) <= math.ulp(exact_value), n
        assert sqrt_binom_sum_scaled(n) == (exact_value if n <= BASIS_CAP else value), n


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


# Every integer input with its gate: (call with the int under test, its name
# in the message, lo, hi or None when unbounded, the largest accepted value
# called). run_checks is called only up to 3, to stay fast.
GATED_INPUTS = [
    (phase_estimates, "n_copies", 1, BASIS_CAP, BASIS_CAP),
    (lambda n: symmetric_state(n, 0.3), "n_copies", 1, BASIS_CAP, BASIS_CAP),
    (lambda n: mixed_coefficients(n, 1.0), "n_copies", 1, BASIS_CAP, BASIS_CAP),
    (mean_fidelity_numeric, "n_copies", 1, BASIS_CAP, BASIS_CAP),
    (lambda k: estimate_phase(k, 5), "outcome", 0, 5, 5),
    (lambda n: estimate_phase(0, n), "n_copies", 1, BASIS_CAP, BASIS_CAP),
    (dicke_embedding, "n_copies", 1, EMBEDDING_CAP, EMBEDDING_CAP),
    (lambda n: mixed_ensemble_distribution(n, 0.3, 0.5), "n_copies", 1, EMBEDDING_CAP,
     EMBEDDING_CAP),
    (lambda n: TrialConfig(n_copies=n, trials=1, seed=0), "n_copies", 1, BASIS_CAP, BASIS_CAP),
    (lambda t: TrialConfig(n_copies=1, trials=t, seed=0), "trials", 1, TRIALS_CAP, TRIALS_CAP),
    (lambda s: TrialConfig(n_copies=1, trials=1, seed=s), "seed", 0, None, 10**30),
    (lambda n: curve_table(n, CURVE_N_CAP), "n_min", 1, CURVE_N_CAP, CURVE_N_CAP),
    # n_max's floor is n_min.
    (lambda n: curve_table(3, n), "n_max", 3, CURVE_N_CAP, CURVE_N_CAP),
    (run_checks, "n_max", 1, CURVE_N_CAP, 3),
    (lambda n: p_unified_collective_unequal(n, 3), "n_a", 1, None, 10**30),
    (lambda n: p_unified_collective_unequal(3, n), "n_b", 1, None, 10**30),
]


@settings(deadline=None)
@given(st.sampled_from(GATED_INPUTS), st.data())
def test_every_integer_input_has_one_gate(gate, data):
    # At and just past each bound, and at +-10^30, an int in lo..hi is
    # accepted and any other is refused in check_int's one message form; a
    # numpy int or a bool acts as the int, and an integral float is a
    # TypeError.
    call, name, lo, hi, top = gate

    def inside(v):
        return lo <= v and (hi is None or v <= hi)

    edges = {lo - 1, lo, lo + 1, -(10**30), 10**30} | ({hi - 1, hi, hi + 1} if hi else set())
    value = data.draw(st.sampled_from(sorted(v for v in edges if v <= top or not inside(v))))
    bound = f"must be >= {lo}" if hi is None else f"must lie in {lo}..{hi}"
    for v in (value, True, *([np.int64(value)] if abs(value) < 2**63 else [])):
        if inside(v):
            call(v)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {bound}, got {int(v)}')}$"):
                call(v)
    for v in (2.0, np.float64(3)):
        with pytest.raises(TypeError):
            call(v)
