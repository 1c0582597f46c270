"""Binomial weights, their exact sums and the phase normalization.

Every binomial quantity the package uses, S_n / 2^n and the Dicke weights,
is a quotient of exact sums over the O(sqrt(n)) window of
binomial_log_ratios: one route for every n, with no centre term.
Every exactly rounded sum in the package, here and in montecarlo, is an
_exact_sum numerator over SUM_DENOMINATOR. S_n / 2^n is kept per n for the
process, one float each; symmetric keeps each N's Dicke weights. Every
phase the package takes passes through as_phase.
"""

import functools
import math
import operator

import numpy as np

TWO_PI = 2.0 * math.pi

# _exact_sum numerators count units of 2^-1126, the lowest bit of the
# smallest subnormal.
SUM_DENOMINATOR = 1 << (1073 + 53)
# _exact_sum bins at most this many values at a time, so that no bin sum
# reaches 2^53.
_SLICE = 1 << 26


def as_phase(phi) -> float:
    """phi (radians) as a float normalized into [0, 2*pi); a non-finite
    phase is a ValueError."""
    v = float(phi)
    if not math.isfinite(v):
        raise ValueError(f"phase must be finite, got {v}")
    v %= TWO_PI
    # The modulo of a tiny negative input can round up to 2*pi.
    return 0.0 if v >= TWO_PI else v


def _exact_sum(values: np.ndarray, floats: np.ndarray | None = None,
               ints: np.ndarray | None = None) -> int:
    """The integer S with S / SUM_DENOMINATOR the exact sum of values, so
    that S / SUM_DENOMINATOR rounds to math.fsum(values).

    frexp writes each value as m 2^(e - 53) with m a 53-bit integer. Its
    26-bit halves, floor(m 2^-26) and m - 2^26 floor(m 2^-26), are exact in
    floats; they are summed per exponent by bincount, exactly while a bin
    stays below 2^53, and the bins fold into one Python int. A longer input
    is binned _SLICE values at a time, so a high-half bin stays below
    2^27 _SLICE = 2^53. Exponents run from -1073 (the smallest subnormal)
    up. floats (3 rows) and ints (1 row) are scratch matrices of at least
    min(len(values), _SLICE) columns, allocated when not given.
    """
    n = len(values)
    if floats is None:
        size = min(n, _SLICE)
        floats, ints = np.empty((3, size)), np.empty((1, size), dtype=np.intp)
    if n > _SLICE:
        return sum(_exact_sum(values[i:i + _SLICE], floats, ints) for i in range(0, n, _SLICE))
    m, high, low = floats[:3, :n]
    bins = ints[0, :n]
    np.frexp(values, out=(m, bins))
    bins += 1073
    m *= 2.0**53
    np.floor(np.multiply(m, 2.0**-26, out=high), out=high)
    np.subtract(m, np.multiply(high, 2.0**26, out=low), out=low)
    high = np.bincount(bins, weights=high)
    low = np.bincount(bins, weights=low)
    live = np.flatnonzero((high != 0.0) | (low != 0.0))
    total = 0
    for e, h, l in zip(live.tolist(), high[live].tolist(), low[live].tolist()):
        total += ((int(h) << 26) + int(l)) << e
    return total


def binomial_log_ratios(n: int) -> tuple[int, np.ndarray, int]:
    """Window start lo, l_i = log(C(n, i) / C(n, c)) over the window, c = n // 2,
    and the _exact_sum numerator of D = sum_i e^(l_i) = 2^n / C(n, c).

    The walk out of l_c = 0 adds the exact ratios log1p((n - 2i - 1) / (i + 1)).
    By Hoeffding, C(n, i) / C(n, c) <= (n + 1) exp(-2 (i - n/2)^2 / n), so every
    index isqrt(n (373 + bits(n))) + 2 or more from c lies below 2^-1075 and
    rounds to zero: window sums equal whole-row sums, in O(sqrt(n)) time and
    memory.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    c = n // 2
    k = math.isqrt(n * (373 + n.bit_length())) + 2
    lo, hi = max(0, c - k), min(n, c + k)
    up = np.arange(c, hi)
    down = np.arange(c, lo, -1)
    right = np.cumsum(np.log1p((n - 2 * up - 1) / (up + 1)))
    left = np.cumsum(np.log1p((2 * down - n - 1) / (n - down + 1)))
    logs = np.concatenate([left[::-1], [0.0], right])
    return lo, logs, _exact_sum(np.exp(logs))


def sqrt_binom_sum_scaled(n: int) -> float:
    """S_n / 2^n with S_n = sum_i sqrt(C(n,i) C(n,i+1)), i = 0 .. n-1.

    The exact window sum of exp((l_i + l_{i+1}) / 2) over D, both from
    binomial_log_ratios: one correctly rounded int / int quotient, whose two
    sums share the walk's rounding. Within 1.4e-16 relative of an mpmath
    oracle (n = 1..2058 and 76 n from 1e3 to 1e8) with numpy's AVX-512 or
    AVX2 loops. Each n is computed once per process.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _sqrt_binom_sum_scaled(operator.index(n))


@functools.cache
def _sqrt_binom_sum_scaled(n: int) -> float:
    _, logs, total = binomial_log_ratios(n)
    return _exact_sum(np.exp(0.5 * (logs[:-1] + logs[1:]))) / total


def sqrt_binom_sum(n: int) -> float:
    """S_n itself, the scaled sum times 2^n: OverflowError from n = 1025,
    which is why the closed forms use sqrt_binom_sum_scaled."""
    return math.ldexp(sqrt_binom_sum_scaled(n), n)
