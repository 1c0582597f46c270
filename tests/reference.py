"""Reference implementations that the package's fast routes are checked
against. Each is slow and written for plainness; none is used by eqfid."""

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

