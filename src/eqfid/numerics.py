"""Binomial weights, their exact sums and the phase normalization.

Every binomial quantity the package uses, the closed-form sums S_n and the
Dicke weights, comes from binomial_log_pmf, one routine finite at every n.
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

# Centre terms of binomial_log_pmf are summed this many logarithms at a time.
_CHUNK = 4096
# _exact_sum numerators count units of 2^-1126, the lowest bit of the
# smallest subnormal.
SUM_DENOMINATOR = 1 << (1073 + 53)


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
    stays below 2^53 (fewer than 2^26 values), and the bins fold into one
    Python int. Exponents run from -1073 (the smallest subnormal) up. floats
    (3 rows) and ints (1 row) are scratch matrices of at least len(values)
    columns, allocated when not given.
    """
    n = len(values)
    if floats is None:
        floats, ints = np.empty((3, n)), np.empty((1, n), dtype=np.intp)
    m, high, low = floats[:3, :n]
    bins = ints[0, :n]
    np.frexp(values, out=(m, bins))
    bins += 1073
    m *= 2.0**53
    np.floor(np.multiply(m, 2.0**-26, out=high), out=high)
    np.subtract(m, np.multiply(high, 2.0**26, out=low), out=low)
    high = np.bincount(bins, weights=high)
    low = np.bincount(bins, weights=low)
    total = 0
    for e in np.flatnonzero((high != 0.0) | (low != 0.0)).tolist():
        total += ((int(high[e]) << 26) + int(low[e])) << e
    return total


def binomial_log_pmf(n: int) -> tuple[int, np.ndarray]:
    """Window start lo and log(C(n, i) / 2^n) for i = lo .. lo + len - 1.

    The centre term, at c = n // 2, is the exactly rounded sum of
    log1p(-1/(2j)) over j = 1 .. ceil(n/2); the walk outward adds the exact
    term ratios log1p((n - 2i - 1) / (i + 1)). By Hoeffding, C(n, i) / 2^n
    is at most exp(-2 (i - n/2)^2 / n), so every index isqrt(373 n) + 2 or
    more from c lies below exp(-746) and rounds to zero: sums over the window
    equal sums over the whole row, and memory is O(sqrt(n)).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    c, m = n // 2, (n + 1) // 2
    centre = sum(_exact_sum(np.log1p(-0.5 / np.arange(j, min(j + _CHUNK, m + 1))))
                 for j in range(1, m + 1, _CHUNK)) / SUM_DENOMINATOR
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
    relative error is at most 7.4e-16 (n = 1..300 and 100 n up to 2.4e6).
    Each n is computed once per process.
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
