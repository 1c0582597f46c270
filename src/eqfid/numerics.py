"""S_n / 2^n, exact sums and the phase normalization.

S_n / 2^n is computed from Python ints and math alone, so it is the same on
every host. Up to n = BASIS_CAP it is correctly rounded: one integer sum
over the O(sqrt(n)) binomial window that Hoeffding's bound leaves, with a
proven slack, rounded by Ziv's test (_exact_scaled, kept per n for the
process). Above BASIS_CAP it is 1 - d_n from the first eight terms of d_n's
1/n series, in O(1) and IEEE operations only. The Dicke weights come from
Python ints too, in symmetric.
Every exactly rounded sum in the Monte Carlo is an _exact_sum numerator over
SUM_DENOMINATOR. It reads each float's exponent and mantissa from its bits
(_decode) and adds them as integers: a short input in Python ints and a
longer one in two int64 sums over the band of exponents next to the
largest, which holds all or most of a Monte Carlo block's values; what lies
below the band goes to bins by exponent (_sum_apart). Every phase the
package takes passes through as_phase.
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

# Largest N with an outcome law or a symmetric state: every N that ever ran.
# It bounds the O(N^2) correlations behind either law (1 pure, up to 24
# full-mixed, 4 ms at the cap) and the exact integer binomials: C(N, N // 2)
# stays in float range up to it, S_n / 2^n is exact up to it, and each N's
# Dicke weights are kept, about 4.3 MB if every N is asked for.
BASIS_CAP = 1029

# Above BASIS_CAP, S_n / 2^n = 1 - d_n with d_n = sum_k a_k / n^k over
# the first eight terms of its 1/n series, each coefficient exact in binary.
# The next term, 1387688395/(65536 n^9), is below 1e-22 relative past the
# cap, and d_n is below 2^-11, so the float evaluation rounds S to within
# 0.501 ulp.
DEFICIT_SERIES = (1 / 2, -1 / 8, 7 / 16, 101 / 128, 1191 / 256, 29163 / 1024, 450951 / 2048,
                  65785709 / 32768)


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

    _decode reads each value as a 53-bit mantissa m and exponent e, so that
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
    low, top = _decode(values, e, m, t)
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


def _decode(values: np.ndarray, e: np.ndarray, m: np.ndarray, t: np.ndarray) -> tuple[int, int]:
    """Write each float64 value's biased exponent e and signed 53-bit
    mantissa m into the int64 rows e and m, so that the value is
    m 2^(e - 1075); return the least and the greatest e. t is a scratch
    row; an infinite or NaN value is a ValueError.

    e = bits >> 52 and m is the low 52 bits plus the implicit bit;
    subnormals and zeros take e = 1 and no implicit bit.
    """
    n = len(values)
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
    return low, top


def _sum_apart(m: np.ndarray, e: np.ndarray, t: np.ndarray, low: int) -> int:
    """The _exact_sum numerator of sum m 2^(e - 1075), for at most _SLICE
    mantissas m and exponents e >= low >= 1. e and the scratch row t are
    overwritten.

    Up to _SMALL terms are added in Python ints. Otherwise the terms are
    binned by e: the bins of the mantissas' halves are exact, as every bin
    sum stays within 2^27 _SLICE = 2^53. They fold into int64 sums from bin
    low up, in which a high half lands 26 bins above its low half, and then
    runs of w adjacent sums fold into one, each shifted by its place in the
    run; w leaves every run's sum below 2^62. The runs fold into one Python
    int.
    """
    e -= low
    if len(m) <= _SMALL:
        return sum(map(operator.lshift, m.tolist(), e.tolist())) << (low + 51)
    # The bins run from low up, with room for the high halves 26 bins up and
    # to pad to a whole number of runs of any length w <= 62.
    top = int(e.max())
    bins = top + 27 + 62
    weights = t.view(np.float64)
    sums = np.bincount(e, weights=np.bitwise_and(m, _LOW_HALF, out=weights), minlength=bins)
    sums = sums.astype(np.int64)
    high_sums = np.bincount(e, weights=np.right_shift(m, 26, out=weights), minlength=bins)
    sums[26:top + 27] += high_sums[:top + 1].astype(np.int64)
    w = 62 - max(int(sums.max()), -int(sums.min())).bit_length()
    runs = -(-(top + 27) // w)
    runs = (sums[:runs * w].reshape(runs, w) << np.arange(w)).sum(axis=1)
    total = 0
    for run in reversed(runs.tolist()):
        total = (total << w) + run
    return total << (low + 51)


@functools.cache
def _exact_scaled(n: int) -> float:
    """S_n / 2^n correctly rounded, from Python ints alone; kept for the
    process, and asked for only up to BASIS_CAP.

    _window_sum gives an integer T with 2^k S_n in [T, T + slack). When
    T / 2^(n+k) and (T + slack) / 2^(n+k), each one correctly rounded int /
    int quotient, are the same float, that float is S_n / 2^n correctly
    rounded; otherwise k doubles (Ziv's rounding test: Ziv, ACM TOMS 17,
    1991). k = 64 leaves a slack of 2^-63, absolute, and settles every n up
    to the cap but 788, which takes k = 128.
    """
    k = 64
    while True:
        total, slack = _window_sum(n, k)
        scale = 1 << n + k
        value = total / scale
        if value == (total + slack) / scale:
            return value
        k *= 2


def _window_sum(n: int, k: int) -> tuple[int, int]:
    """An integer T and a slack with 2^k S_n in [T, T + slack).

    sqrt(C_i C_{i+1}) = C_i sqrt((n - i) / (i + 1)), C_i = C(n, i), is the
    same at i and n - 1 - i, so T is twice the sum over i < n // 2 of
    C_i isqrt(((n - i) << 2k) // (i + 1)), plus the middle term
    C(n, (n - 1) / 2) 2^k, exact, when n is odd. Each floor drops less than
    C_i, less than 2^n over the row. The sum starts at lo, at least t from
    n / 2 with t^2 > 7 n (k + 1) / 20 > n (k + 1) ln(2) / 2: the terms below
    lo are at most C_{i+1} each, so by Hoeffding's bound they weigh less
    than 2^n exp(-2 t^2 / n) < 2^(n - k - 1), and, doubled and scaled by
    2^k, less than 2^n. The slack is 2^(n + 1), and the window has
    O(sqrt(n k)) terms.
    """
    c = n // 2
    lo = max(0, c - math.isqrt(7 * n * (k + 1) // 20) - 1)
    comb, total = math.comb(n, lo), 0
    for i in range(lo, c):
        total += comb * math.isqrt(((n - i) << 2 * k) // (i + 1))
        comb = comb * (n - i) // (i + 1)
    total *= 2
    if n % 2:
        total += comb << k
    return total, 1 << n + 1


def sqrt_binom_sum_scaled(n: int) -> float:
    """S_n / 2^n with S_n = sum_i sqrt(C(n,i) C(n,i+1)), i = 0 .. n-1.

    Up to BASIS_CAP: _exact_scaled, from Python ints, correctly rounded and
    kept for the process. Above: 1 - d_n, d_n = sum_k a_k / n^k over
    DEFICIT_SERIES by Horner's rule in x = 1 / n, a correctly rounded int
    division; O(1) and within 0.501 ulp at every n. Both routes are the same
    on every host. n is an integer: a float is a TypeError, whatever its
    value.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= BASIS_CAP:
        return _exact_scaled(n)
    x, d = 1 / n, 0.0
    for a in reversed(DEFICIT_SERIES):
        d = d * x + a
    return 1.0 - d * x


def sqrt_binom_sum(n: int) -> float:
    """S_n itself, the scaled sum times 2^n: OverflowError from n = 1025,
    which is why the closed forms use sqrt_binom_sum_scaled."""
    return math.ldexp(sqrt_binom_sum_scaled(n), n)
