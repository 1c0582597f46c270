"""Binomial weights, their exact sums and the phase normalization.

Every binomial quantity the package uses, S_n / 2^n and the Dicke weights,
comes from the O(sqrt(n)) window of _walk, with no centre term: S_n / 2^n
up to n = BASIS_CAP and the Dicke weights at every n are quotients of exact
sums over it. _walk takes a list of n and walks them as one padded batch,
so the numpy calls of a curve table's 90 n cost what one n's do; one n is a
batch of one. It keeps each window up to BASIS_CAP for the process, with
S_n / 2^n in it, so that S_n and the weights share one walk per n. Above
BASIS_CAP, S_n / 2^n is 1 - d_n from the first eight terms of d_n's 1/n
series, in O(1) and IEEE operations only.
Every exactly rounded sum in the package, here and in montecarlo, is an
_exact_sum numerator over SUM_DENOMINATOR, or one of the per-row numerators
of _sum_apart that _walk takes. Both read each float's exponent and
mantissa from its bits (_decode) and add them as integers: _exact_sum adds a
short input in Python ints and a longer one in two int64 sums over the band
of exponents next to the largest, which holds all or most of a Monte Carlo
block's values; what lies below the band, as across the wide span of a
binomial window, goes to bins by exponent. Every phase the package takes
passes through as_phase.
"""

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
# 4 ms at the cap); an outcome row is one FFT at any N. _walk keeps the
# windows up to the cap, each the whole row of N+1 floats: about 4.3 MB for
# all of them, plus the padding of the batch each came in.
BASIS_CAP = 1029

# Above BASIS_CAP, S_n / 2^n = 1 - d_n with d_n = sum_k a_k / n^k over
# the first eight terms of its 1/n series, each coefficient exact in binary.
# The next term, 1387688395/(65536 n^9), is below 1e-22 relative past the
# cap, and d_n is below 2^-11, so the float evaluation rounds S to within
# 0.501 ulp.
DEFICIT_SERIES = (1 / 2, -1 / 8, 7 / 16, 101 / 128, 1191 / 256, 29163 / 1024, 450951 / 2048,
                  65785709 / 32768)

# What _walk keeps for the process: the window of each n up to BASIS_CAP,
# with S_n / 2^n.
_windows: dict[int, tuple[int, np.ndarray, int, float]] = {}


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
        return _sum_apart(m, e, t, low)[0]
    base = max(low, top + n.bit_length() - 35)
    total = 0
    if low < base:
        below = np.less(e, base, out=t.view(bool)[:n])
        if 2 * np.count_nonzero(below) > n:
            return _sum_apart(m, e, t, low)[0]
        below = np.flatnonzero(below)
        total = _sum_apart(m[below], e[below], t[:len(below)], low)[0]
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


def _sum_apart(m: np.ndarray, e: np.ndarray, t: np.ndarray, low: int,
               rows: np.ndarray | None = None, count: int = 1) -> list[int]:
    """The _exact_sum numerators of sum m 2^(e - 1075) over each of count
    rows, for mantissas m and exponents e >= low >= 1: term i belongs to
    row rows[i], or every term to row 0 when rows is None. A row holds at
    most _SLICE terms. e and the scratch row t are overwritten.

    Up to _SMALL terms of one row are added in Python ints. Otherwise the
    terms are binned by (row, e): the bins of the mantissas' halves are
    exact, as every bin sum stays within 2^27 _SLICE = 2^53. They fold into
    int64 sums per row from bin low up, in which a high half lands 26 bins
    above its low half, and then runs of w adjacent sums fold into one, each
    shifted by its place in the run; w leaves every run's sum below 2^62.
    Each row's runs fold into one Python int.
    """
    e -= low
    if rows is None and len(m) <= _SMALL:
        return [sum(map(operator.lshift, m.tolist(), e.tolist())) << (low + 51)]
    # A row's bins run from low up, with room for the high halves 26 bins
    # up and to pad the row to a whole number of runs of any length w <= 62.
    top = int(e.max())
    stride = top + 27 + 62
    if rows is not None:
        e += rows * stride
    weights = t.view(np.float64)
    bins = count * stride
    sums = np.bincount(e, weights=np.bitwise_and(m, _LOW_HALF, out=weights), minlength=bins)
    sums = sums.astype(np.int64).reshape(count, stride)
    high_sums = np.bincount(e, weights=np.right_shift(m, 26, out=weights), minlength=bins)
    sums[:, 26:top + 27] += high_sums.reshape(count, stride)[:, :top + 1].astype(np.int64)
    w = 62 - max(int(sums.max()), -int(sums.min())).bit_length()
    runs = -(-(top + 27) // w)
    runs = (sums[:, :runs * w].reshape(count, runs, w) << np.arange(w)).sum(axis=2)
    totals = []
    for row in runs.tolist():
        total = 0
        for run in reversed(row):
            total = (total << w) + run
        totals.append(total << (low + 51))
    return totals


def binomial_window(n: int) -> tuple[int, np.ndarray, int, float]:
    """The window (lo, l, D, S) of n from _walk: kept for the process when
    n <= BASIS_CAP, its logs read-only, and walked afresh, as a batch of
    one, on every call above."""
    return _windows.get(n) or _walk([n])[0]


def _keep_scaled(ns) -> None:
    """Walk, in one batch, each n of ns up to BASIS_CAP whose window, and
    with it S_n / 2^n, is not kept yet."""
    missing = sorted({n for n in ns if n <= BASIS_CAP and n not in _windows})
    if missing:
        _walk(missing)


def _walk(ns: list[int]) -> list[tuple[int, np.ndarray, int, float]]:
    """The binomial window (lo, l, D, S) of each n in ns, walked in one
    batch; keeps each window up to BASIS_CAP.

    For c = n // 2 the window holds l_i = log(C(n, i) / C(n, c)) from
    i = lo, D is the _exact_sum numerator of sum_i e^(l_i) =
    2^n / C(n, c), and S = S_n / 2^n is the exact window sum of
    exp((l_i + l_{i+1}) / 2) over D: one correctly rounded int / int
    quotient whose two sums share the walk's rounding. The walk out of
    l_c = 0 adds the exact ratios log1p((n - 2i - 1) / (i + 1)) to the
    right and log1p((2i - n - 1) / (n - i + 1)) to the left. By Hoeffding,
    C(n, i) / C(n, c) <= (n + 1) exp(-2 (i - n/2)^2 / n), so every index
    isqrt(n (373 + bits(n))) + 2 or more from c lies below 2^-1075 and
    rounds to zero: window sums equal whole-row sums, in O(sqrt(n)) time
    and memory.

    The number of numpy calls does not grow with len(ns): both half walks
    of every n are rows of one padded array, and take one row-wise cumsum;
    the logs and the midpoints (l_i + l_{i+1}) / 2 take one exp; and D and
    the numerator of S come from one _decode and one _sum_apart keyed by
    (n, sum). Every value is a batch of one's to the bit, as each entry
    passes through the same operations in the same order and the sums are
    exact. A row of _sum_apart holds one window, below _SLICE terms for
    every n < 10^12.
    """
    if min(ns) < 0:
        raise ValueError(f"n must be >= 0, got {min(ns)}")
    # Row 2b walks left of the centre c of ns[b], row 2b + 1 right: step j
    # adds log1p((a - 2j) / (b + j)) for the row's (a, b), and a padding
    # step past its length log1p(0).
    params, lefts, sizes = [], [], []
    for n in ns:
        c = n // 2
        reach = math.isqrt(n * (373 + n.bit_length())) + 2
        left, right = min(c, reach), min(n - c, reach)
        params += (2 * c - n - 1, n - c + 1, left), (n - 2 * c - 1, c + 1, right)
        lefts.append(left)
        # The window's terms, and the midpoints between them.
        sizes += left + right + 1, left + right
    a, b, length = np.array(params).T[:, :, None]
    width = int(length.max())
    steps = np.arange(width)
    walks = np.zeros((len(a), width + 1))
    np.cumsum(np.log1p(np.where(steps < length, a - 2 * steps, 0) / (b + steps)),
              axis=1, out=walks[:, 1:])
    # Row b: the left walk reversed, l_c = 0 in column width, the right
    # walk; the window of ns[b] runs from column width - left to
    # width + right. Its midpoints follow in the columns after 2 width.
    logs = np.concatenate([walks[0::2, :0:-1], walks[1::2]], axis=1)
    logs.flags.writeable = False
    values = np.empty((len(ns), 4 * width + 1))
    values[:, :2 * width + 1] = logs
    mids = values[:, 2 * width + 1:]
    np.add(logs[:, :-1], logs[:, 1:], out=mids)
    mids *= 0.5
    np.exp(values, out=values)
    column = np.arange(2 * width + 1)
    inside = (column >= width - length[0::2]) & (column <= width + length[1::2])
    values = values[np.concatenate([inside, inside[:, :-1] & inside[:, 1:]], axis=1)]
    rows = np.repeat(np.arange(len(sizes)), sizes)
    e, m, t = np.empty((3, len(values)), dtype=np.int64)
    sums = _sum_apart(m, e, t, _decode(values, e, m, t)[0], rows, len(sizes))
    windows = []
    for i, n in enumerate(ns):
        left = lefts[i]
        window = (n // 2 - left, logs[i, width - left:width - left + sizes[2 * i]], sums[2 * i],
                  sums[2 * i + 1] / sums[2 * i])
        if n <= BASIS_CAP:
            _windows[n] = window
        windows.append(window)
    return windows


def sqrt_binom_sum_scaled(n: int) -> float:
    """S_n / 2^n with S_n = sum_i sqrt(C(n,i) C(n,i+1)), i = 0 .. n-1.

    Up to BASIS_CAP: the S of n's window from _walk, kept with it for the
    process; within 1.4e-16 relative of an mpmath oracle with numpy's
    AVX-512 or AVX2 loops. Above: 1 - d_n, d_n = sum_k a_k / n^k over
    DEFICIT_SERIES by Horner's rule in x = 1 / n, a correctly rounded int
    division; O(1), host-independent, and within 0.501 ulp at every n.
    n is an integer: a float is a TypeError, whatever its value.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= BASIS_CAP:
        return binomial_window(n)[3]
    x, d = 1 / n, 0.0
    for a in reversed(DEFICIT_SERIES):
        d = d * x + a
    return 1.0 - d * x


def sqrt_binom_sum(n: int) -> float:
    """S_n itself, the scaled sum times 2^n: OverflowError from n = 1025,
    which is why the closed forms use sqrt_binom_sum_scaled."""
    return math.ldexp(sqrt_binom_sum_scaled(n), n)
