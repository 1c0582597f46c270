"""Binomial weights, their exact sums and the phase normalization.

Every binomial quantity the package uses, the closed-form sums S_n and the
Dicke weights, comes from binomial_log_pmf, one routine finite at every n
and O(sqrt(n)) in time and memory: an O(1) centre term (an exact sum up to
n = 8192, Stirling's series above) and an O(sqrt(n)) window around it.
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

# binomial_log_pmf sums its centre term exactly while m = ceil(n / 2) is at
# most this, and takes it from _log_central_binomial past it.
_EXACT_CENTRE_MAX = 4096
# Coefficients of m^-1, m^-3 and m^-5 in log(C(2m, m) / 4^m) + log(pi m) / 2,
# B_2k (2^(1-2k) - 2) / (2k (2k - 1)) from Stirling's series.
_CENTRE_SERIES = (-1 / 8, 1 / 192, -1 / 640)
# log(pi) as the sum of two floats.
_LOG_PI = (1.1447298858494002, 1.0265951162707826e-17)
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


def _log_central_binomial(m: int) -> float:
    """log(C(2m, m) / 4^m) for m > _EXACT_CENTRE_MAX, from Stirling's series
    -log(pi m) / 2 - 1/(8m) + 1/(192 m^3) - 1/(640 m^5); the first omitted
    term, 17/(14336 m^7), is below 1e-28 there. One Newton step on the
    rounded log m carries log m to about 1e-16 absolute, and one fsum rounds
    the whole, so the result is within 0.55 ulp of the exact value (305 m
    from 4097 to 1.5e6, against mpmath at 40 digits).
    """
    log_m = math.log(m)
    x = 1.0 / m
    c1, c3, c5 = _CENTRE_SERIES
    series = x * (c1 + x * x * (c3 + x * x * c5))
    # Halving is exact, so the fsum is the one rounding.
    halves = [-0.5 * v for v in (log_m, m * math.exp(-log_m) - 1.0, *_LOG_PI)]
    return math.fsum([*halves, series])


def binomial_log_pmf(n: int) -> tuple[int, np.ndarray]:
    """Window start lo and log(C(n, i) / 2^n) for i = lo .. lo + len - 1.

    The centre term, at c = n // 2, is log(C(2m, m) / 4^m) with
    m = ceil(n/2): up to m = _EXACT_CENTRE_MAX (n = 8192) the exactly
    rounded sum of log1p(-1/(2j)) over j = 1 .. m, above it Stirling's
    series (_log_central_binomial), so the centre costs O(1) at every n.
    The walk outward adds the exact term ratios
    log1p((n - 2i - 1) / (i + 1)). By Hoeffding, C(n, i) / 2^n
    is at most exp(-2 (i - n/2)^2 / n), so every index isqrt(373 n) + 2 or
    more from c lies below exp(-746) and rounds to zero: sums over the window
    equal sums over the whole row, and memory is O(sqrt(n)).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    c, m = n // 2, (n + 1) // 2
    if m <= _EXACT_CENTRE_MAX:
        centre = _exact_sum(np.log1p(-0.5 / np.arange(1, m + 1))) / SUM_DENOMINATOR
    else:
        centre = _log_central_binomial(m)
    k = math.isqrt(373 * n) + 2
    lo, hi = max(0, c - k), min(n, c + k)
    up = np.arange(c, hi)
    down = np.arange(c, lo, -1)
    right = np.cumsum(np.log1p((n - 2 * up - 1) / (up + 1)))
    left = np.cumsum(np.log1p((2 * down - n - 1) / (n - down + 1)))
    return lo, np.concatenate([left[::-1] + centre, [centre], right + centre])


def sqrt_binom_sum_scaled(n: int) -> float:
    """S_n / 2^n with S_n = sum_i sqrt(C(n,i) C(n,i+1)), i = 0 .. n-1.

    The exactly rounded sum of exp((l_i + l_{i+1}) / 2) over the window of
    binomial_log_pmf, finite at every n. Against an mpmath oracle the
    relative error is at most 7.6e-16 up to n = 3e6 (n = 1..2000 and 109 n
    above 8190, worst at n = 2138339) and 1.9e-15 up to 1e8 (46 n). Each n
    is computed once per process.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _sqrt_binom_sum_scaled(operator.index(n))


@functools.cache
def _sqrt_binom_sum_scaled(n: int) -> float:
    _, logs = binomial_log_pmf(n)
    return _exact_sum(np.exp(0.5 * (logs[:-1] + logs[1:]))) / SUM_DENOMINATOR


def sqrt_binom_sum(n: int) -> float:
    """S_n itself, the scaled sum times 2^n: OverflowError from n = 1025,
    which is why the closed forms use sqrt_binom_sum_scaled."""
    return math.ldexp(sqrt_binom_sum_scaled(n), n)
