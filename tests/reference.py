"""Reference implementations that the package's fast routes are checked
against. Each is slow and written for plainness; none is used by eqfid."""

import math

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


def summed_binomial_log_pmf(n: int) -> tuple[int, np.ndarray]:
    """binomial_log_pmf by the earlier O(n) route: the centre term
    log(C(n, n // 2) / 2^n) is the exactly rounded sum of log1p(-1/(2j)),
    j = 1 .. ceil(n/2). That route summed it in 4096-term chunks of exact
    sums and rounded once, so math.fsum gives its bits. The window walk is
    numerics'."""
    c, m = n // 2, (n + 1) // 2
    centre = math.fsum(np.log1p(-0.5 / np.arange(1, m + 1)).tolist())
    k = math.isqrt(373 * n) + 2
    lo, hi = max(0, c - k), min(n, c + k)
    up = np.arange(c, hi)
    down = np.arange(c, lo, -1)
    right = np.cumsum(np.log1p((n - 2 * up - 1) / (up + 1)))
    left = np.cumsum(np.log1p((2 * down - n - 1) / (n - down + 1)))
    return lo, np.concatenate([left[::-1] + centre, [centre], right + centre])


def summed_sqrt_binom_sum_scaled(n: int) -> float:
    """S_n / 2^n by the earlier O(n) route, the exactly rounded sum of
    exp((l_i + l_{i+1}) / 2) over summed_binomial_log_pmf."""
    logs = summed_binomial_log_pmf(n)[1]
    return math.fsum(np.exp(0.5 * (logs[:-1] + logs[1:])).tolist())
