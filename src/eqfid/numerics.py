"""S_n / 2^n and the phase normalization.

S_n / 2^n is computed from Python ints and math alone, so it is the same on
every host. Up to n = BASIS_CAP it is correctly rounded: one integer sum
over the O(sqrt(n)) binomial window that Hoeffding's bound leaves, with a
proven slack, rounded by Ziv's test (_exact_scaled, kept per n for the
process). Above BASIS_CAP it is 1 - d_n from the first eight terms of d_n's
1/n series, in O(1) and IEEE operations only. The Dicke weights come from
Python ints too, in symmetric. as_phase takes every phase the package takes,
check_int every count a caller passes, check_cap every N of a state or law.
The module imports no numpy.
"""

import functools
import math
import operator

TWO_PI = 2.0 * math.pi

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


def check_int(value: int, name: str, lo: int, hi: int | None = None) -> int:
    """value as an int, refused by one ValueError form outside lo..hi, or
    below lo when hi is None; bools and numpy ints are ints, and a float is
    a TypeError, whatever its value."""
    v = operator.index(value)
    if v < lo or hi is not None and v > hi:
        bound = f"must be >= {lo}" if hi is None else f"must lie in {lo}..{hi}"
        raise ValueError(f"{name} {bound}, got {v}")
    return v


def check_cap(n_copies: int) -> int:
    """N as an int in 1..BASIS_CAP: every symmetric state, outcome law and
    simulate share this bound and its message."""
    return check_int(n_copies, "n_copies", 1, BASIS_CAP)


def as_phase(phi) -> float:
    """phi (radians) as a float normalized into [0, 2*pi); a non-finite
    phase is a ValueError."""
    v = float(phi)
    if not math.isfinite(v):
        raise ValueError(f"phase must be finite, got {v}")
    v %= TWO_PI
    # The modulo of a tiny negative input can round up to 2*pi.
    return 0.0 if v >= TWO_PI else v


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
    # Inline, not check_int: about 2,600 calls per curves + verify; the helper cost them 15%.
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
