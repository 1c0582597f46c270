"""Binomial weights, their exact sums and the phase normalization.

Every binomial quantity the package uses, S_n / 2^n and the Dicke weights,
comes from the O(sqrt(n)) window of binomial_log_ratios, with no centre
term: S_n / 2^n up to n = SERIES_FROM and the Dicke weights at every n are
quotients of exact sums over it. Above SERIES_FROM, S_n / 2^n is 1 - d_n
from the first five terms of d_n's 1/n series, in O(1) and IEEE operations
only. binomial_window keeps each window up to BASIS_CAP for the process, so
that S_n and the weights share one walk per n; S_n / 2^n is kept per n up
to SERIES_FROM, one float each.
Every exactly rounded sum in the package, here and in montecarlo, is an
_exact_sum numerator over SUM_DENOMINATOR. _exact_sum reads each float's
exponent and mantissa from its bits and adds them as integers: a short input
in Python ints; a longer one in two int64 sums over the band of exponents
next to the largest, which holds all or most of a Monte Carlo block's
values, and in bins by exponent below the band, as across the wide span of
a binomial window. Every phase the package takes passes through as_phase.
"""

import functools
import math
import operator

import numpy as np

TWO_PI = 2.0 * math.pi

# _exact_sum numerators count units of 2^-1126, 2^-52 of the smallest
# subnormal: the value m 2^(e - 1075) is m << (e + 51).
SUM_DENOMINATOR = 1 << (1073 + 53)
# _exact_sum sums at most this many values at a time, so that no bin sum
# passes 2^53 in magnitude and the band keeps at least 9 binades.
_SLICE = 1 << 26
# Up to this many terms are added in Python ints.
_SMALL = 200
_LOW_HALF = (1 << 26) - 1

# Largest N with an outcome law: every N that ever ran. It bounds one cost,
# the O(N^2) correlations behind either law (1 pure, up to 24 full-mixed,
# 4 ms at the cap); an outcome row is one FFT at any N. binomial_window keeps
# the windows up to the cap, each the whole row of N+1 floats: about 4.3 MB
# for all of them.
BASIS_CAP = 1029

# Above this n, S_n / 2^n = 1 - d_n with
# d_n = 1/(2n) - 1/(8n^2) + 7/(16n^3) + 101/(128n^4) + 1191/(256n^5),
# each coefficient exact in binary. The next term, 29163/(1024 n^6), is below
# 1e-22 past the threshold, and d_n is below 2^-14, so the float evaluation
# rounds S to within 0.501 ulp.
SERIES_FROM = 8192
DEFICIT_SERIES = (1 / 2, -1 / 8, 7 / 16, 101 / 128, 1191 / 256)


def as_phase(phi) -> float:
    """phi (radians) as a float normalized into [0, 2*pi); a non-finite
    phase is a ValueError."""
    v = float(phi)
    if not math.isfinite(v):
        raise ValueError(f"phase must be finite, got {v}")
    v %= TWO_PI
    # The modulo of a tiny negative input can round up to 2*pi.
    return 0.0 if v >= TWO_PI else v


def _exact_sum(values: np.ndarray, scratch: np.ndarray | None = None) -> int:
    """The integer S with S / SUM_DENOMINATOR the exact sum of the float64
    values, so that S / SUM_DENOMINATOR rounds to math.fsum(values); a
    ValueError for an infinite or NaN value.

    Each value's bits give its biased exponent e = bits >> 52 and its 53-bit
    mantissa m, the low 52 bits plus the implicit bit; subnormals and zeros
    take e = 1 and no implicit bit, so that the value is m 2^(e - 1075) and
    S = sum m << (e + 51). Up to _SMALL values are added in Python ints. A
    longer input splits m into its 27- and 26-bit halves and adds those of
    the band of exponents within 36 - bits(n) binades of the largest,
    shifted by e less the band's base, in two int64 sums: no shifted half
    passes 2^(26 + band) in magnitude, so neither sum reaches 2^62. The
    values below the band are summed apart (_sum_apart: in Python ints, or
    binned by exponent), and when they are the majority, all values are. An
    input longer than _SLICE is summed a slice at a time. scratch is an
    int64 matrix of at least 3 rows and min(len(values), _SLICE) columns,
    allocated when not given.
    """
    n = len(values)
    if scratch is None:
        scratch = np.empty((3, min(n, _SLICE)), dtype=np.int64)
    if n > _SLICE:
        return sum(_exact_sum(values[i:i + _SLICE], scratch) for i in range(0, n, _SLICE))
    if not n:
        return 0
    e, m, t = scratch[:3, :n]
    bits = values.view(np.int64)
    np.right_shift(bits, 52, out=e)
    np.bitwise_and(bits, (1 << 52) - 1, out=m)
    m |= 1 << 52
    low, top = int(e.min()), int(e.max())
    signed = low < 0
    if signed:
        e &= 0x7FF
        low, top = int(e.min()), int(e.max())
    if top == 0x7FF:
        raise ValueError("an exact sum takes finite values only")
    if low == 0:  # zeros and subnormals: exponent 1 and no implicit bit
        tiny = np.flatnonzero(np.equal(e, 0, out=t.view(bool)[:n]))
        m[tiny] ^= 1 << 52
        e[tiny] = 1
        low = 1
    if signed:
        np.right_shift(bits, 63, out=t)  # -1 where negative, else 0
        m ^= t
        m -= t
    if n <= _SMALL:
        return _sum_apart(m, e, t, low)
    base = max(low, top + n.bit_length() - 35)
    total = 0
    if low < base:
        below = np.less(e, base, out=t.view(bool)[:n])
        if 2 * np.count_nonzero(below) > n:
            return _sum_apart(m, e, t, low)
        below = np.flatnonzero(below)
        total = _sum_apart(m[below], e[below], t[:len(below)], low)
        # A zero mantissa and shift, never a negative shift count.
        m[below] = 0
        e[below] = base
    np.right_shift(m, 26, out=t)
    m &= _LOW_HALF
    if top > base:
        e -= base
        t <<= e
        m <<= e
    return total + (((int(t.sum()) << 26) + int(m.sum())) << (base + 51))


def _sum_apart(m: np.ndarray, e: np.ndarray, t: np.ndarray, low: int) -> int:
    """The _exact_sum numerator of sum m 2^(e - 1075), for at most _SLICE
    mantissas m and exponents e >= low >= 1; the scratch row t is
    overwritten, and so is e when there are at most _SMALL terms.

    Up to _SMALL terms are added in Python ints. More are binned by e: the
    bins of the mantissas' halves are exact, as every bin sum stays within
    2^27 _SLICE = 2^53. They fold into int64 sums from bin low up, in which
    a high half lands 26 bins above its low half, and then runs of w
    adjacent sums fold into one, each shifted by its place in the run; w
    leaves every run's sum below 2^62. The runs fold into one Python int.
    """
    if len(m) <= _SMALL:
        e -= low
        return sum(map(operator.lshift, m.tolist(), e.tolist())) << (low + 51)
    weights = t.view(np.float64)
    low_sums = np.bincount(e, weights=np.bitwise_and(m, _LOW_HALF, out=weights))[low:]
    size = len(low_sums) + 26
    # Room to pad the sums to a whole number of runs of any length w <= 62.
    sums = np.zeros(size + 62, dtype=np.int64)
    sums[:size - 26] = low_sums
    high_sums = np.bincount(e, weights=np.right_shift(m, 26, out=weights))[low:]
    sums[26:size] += high_sums.astype(np.int64)
    w = 62 - int(np.abs(sums).max()).bit_length()
    runs = sums[:-(-size // w) * w].reshape(-1, w) << np.arange(w)
    total = 0
    for run in reversed(runs.sum(axis=1).tolist()):
        total = (total << w) + run
    return total << (low + 51)


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


def binomial_window(n: int) -> tuple[int, np.ndarray, int]:
    """binomial_log_ratios(n), kept for the process when n <= BASIS_CAP (its
    logs read-only) and walked afresh on every call above."""
    return _window(n) if n <= BASIS_CAP else binomial_log_ratios(n)


@functools.cache
def _window(n: int) -> tuple[int, np.ndarray, int]:
    lo, logs, total = binomial_log_ratios(n)
    logs.flags.writeable = False
    return lo, logs, total


def sqrt_binom_sum_scaled(n: int) -> float:
    """S_n / 2^n with S_n = sum_i sqrt(C(n,i) C(n,i+1)), i = 0 .. n-1.

    Up to SERIES_FROM: the exact window sum of exp((l_i + l_{i+1}) / 2) over
    D, both from binomial_window: one correctly rounded int / int quotient,
    whose two sums share the walk's rounding, kept per n for the process.
    Within 1.4e-16 relative of an mpmath oracle (n = 1..2058 and 1e3..8192)
    with numpy's AVX-512 or AVX2 loops. Above: 1 - d_n, d_n = sum_k a_k / n^k
    over DEFICIT_SERIES by Horner's rule in x = 1 / n, a correctly rounded
    int division; O(1), host-independent, and within 0.501 ulp at every n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n = operator.index(n)
    if n <= SERIES_FROM:
        return _sqrt_binom_sum_scaled(n)
    x, d = 1 / n, 0.0
    for a in reversed(DEFICIT_SERIES):
        d = d * x + a
    return 1.0 - d * x


@functools.cache
def _sqrt_binom_sum_scaled(n: int) -> float:
    _, logs, total = binomial_window(n)
    return _exact_sum(np.exp(0.5 * (logs[:-1] + logs[1:]))) / total


def sqrt_binom_sum(n: int) -> float:
    """S_n itself, the scaled sum times 2^n: OverflowError from n = 1025,
    which is why the closed forms use sqrt_binom_sum_scaled."""
    return math.ldexp(sqrt_binom_sum_scaled(n), n)
