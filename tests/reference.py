"""Reference implementations that the package's fast routes are checked
against. Each is slow and written for plainness; none is used by eqfid."""

import math
from fractions import Fraction

import numpy as np


def dicke_recursion_coefficients(n_copies: int, eta_value: float) -> np.ndarray:
    """One-sided Fourier coefficients of the full-mixed outcome law, from the
    Dicke-basis block R of rho(0)^{(x) N} built one copy at a time.

    R grows along |D^N_n> = sqrt(n/N) |D^{N-1}_{n-1}>|1> + sqrt((N-n)/N) |D^{N-1}_n>|0>,
    with rho(0) = [[1, eta], [eta, 1]] / 2: every term is nonnegative, so
    nothing cancels. p_k(delta) = <basis_k| R(delta) |basis_k> has
    q_m = tr_m R / (N+1), where tr_m sums R's m-th off-diagonal. O(N^3) time
    and O(N^2) memory: about 6 s at N = 1029.
    """
    r = np.ones((1, 1))
    for n in range(1, n_copies + 1):
        j = np.arange(n + 1)
        up, stay = np.sqrt(j / n), np.sqrt((n - j) / n)
        # Column side: the appended ket is |0> (stay) or |1> (up).
        ket0, ket1 = np.zeros((n, n + 1)), np.zeros((n, n + 1))
        ket0[:, :n] = r * stay[:n]
        ket1[:, 1:] = r * up[1:]
        # Row side: the appended bra, weighted by <bra| rho(0) |ket>.
        r = np.zeros((n + 1, n + 1))
        r[:n] = stay[:n, None] * (ket0 + eta_value * ket1)
        r[1:] += up[1:, None] * (eta_value * ket0 + ket1)
        r *= 0.5
    c = np.array([np.trace(r, m) for m in range(n_copies + 1)]) / (n_copies + 1)
    c[1:] *= 2.0
    return c


def binomial_central_moments(order: int) -> list[list[Fraction]]:
    """E (X - n/2)^j for X ~ Bin(n, 1/2), j = 0 .. order, each as the
    coefficients of n^0, n^1, ... of a polynomial in n.

    X - n/2 is a sum of n independent steps of +-1/2, so its cumulants are n
    times a step's, k_j; those follow from the step's moments 2^-j (j even,
    0 odd) by the moment-cumulant recurrence, and the moments of X - n/2 from
    its cumulants by the same recurrence. Odd cumulants vanish, so the j-th
    moment has degree j // 2 in n.
    """
    step = [Fraction(1, 2**j) if j % 2 == 0 else Fraction(0) for j in range(order + 1)]
    k = [Fraction(0)] * (order + 1)
    for j in range(1, order + 1):
        k[j] = step[j] - sum(math.comb(j - 1, i - 1) * k[i] * step[j - i] for i in range(1, j))
    moments = [[Fraction(1)]]
    for j in range(1, order + 1):
        poly = [Fraction(0)] * (j // 2 + 1)
        for i in range(2, j + 1, 2):
            for t, c in enumerate(moments[j - i]):
                poly[t + 1] += math.comb(j - 1, i - 1) * k[i] * c
        moments.append(poly)
    return moments


def deficit_series(terms: int) -> list[Fraction]:
    """a_1 .. a_terms of the deficit d_n = 1 - S_n / 2^n = sum_k a_k / n^k.

    S_n / 2^n = E sqrt((n - X) / (X + 1)), X ~ Bin(n, 1/2). With m = n/2,
    u = (X - m) / m and h = 1 / m, the root is (1 - u)^(1/2) (1 + h + u)^(-1/2),
    whose double series sum c_jk u^j h^k comes from two binomial series. The
    mean of u^j h^k is mu_j(n) (2/n)^(j+k), mu_j the central moment, a
    polynomial of degree j // 2 in n: its n^t part adds to the coefficient of
    n^-(j+k-t). Powers up to terms need j <= 2 terms and k <= terms. The
    expansion is asymptotic: the binomial tails it ignores past u = 1 are
    exponentially small.
    """
    def series(r, k):  # the binomial coefficient (r choose k), r a Fraction
        return math.prod((r - i) / (i + 1) for i in range(k)) if k else Fraction(1)

    moments = binomial_central_moments(2 * terms)
    half = Fraction(1, 2)
    coefficients = [Fraction(0)] * (terms + 1)
    for j in range(2 * terms + 1):
        for k in range(terms + 1):
            c = sum(series(half, a) * (-1) ** a * series(-half, j - a + k) * math.comb(j - a + k, k)
                    for a in range(j + 1))
            for t, mu in enumerate(moments[j]):
                if j + k - t <= terms:
                    coefficients[j + k - t] += c * mu * 2 ** (j + k)
    assert coefficients[0] == 1
    return [-a for a in coefficients[1:]]


def _rounded(ints, n, spread):
    """The float nearest X / 2^(n + k) for an exact X in [x, x + spread),
    where ints(k) gives x and whether X = x: k runs 64, 128, ... until x is
    exact or both ends round to one float (Ziv's test)."""
    k = 64
    while True:
        x, exact = ints(k)
        low = x / (1 << n + k)
        if exact or low == (x + spread) / (1 << n + k):
            return low
        k *= 2


def sqrt_binom_sum_scaled(n: int) -> float:
    """S_n / 2^n, S_n = sum_i sqrt(C(n, i) C(n, i + 1)), correctly rounded,
    from the full row: T = sum_i isqrt(C(n, i) C(n, i + 1) 4^k) has 2^k S_n
    in [T, T + n), as each of the n floors drops less than 1."""
    row = [math.comb(n, i) for i in range(n + 1)]

    def ints(k):
        return sum(math.isqrt(a * b << 2 * k) for a, b in zip(row, row[1:])), False

    return _rounded(ints, n, n)


def dicke_weights(n: int) -> list[float]:
    """sqrt(C(n, i) / 2^n), i = 0 .. n, each correctly rounded:
    r = isqrt(C(n, i) 2^n 4^k) has 2^(n + k) times the weight in [r, r + 1),
    exactly r when r^2 is the radicand."""
    def weight(c):
        def ints(k):
            x = c << n + 2 * k
            r = math.isqrt(x)
            return r, r * r == x

        return _rounded(ints, n, 1)

    return [weight(math.comb(n, i)) for i in range(n + 1)]
