"""Covariant phase measurement on the symmetric subspace.

The optimal projective measurement for the phase of N identical equatorial
qubits is the discrete Fourier basis of the (N+1)-dimensional symmetric
subspace; outcome k carries the phase estimate 2 pi k / (N+1). This module
provides the basis, the one row builder for shift-covariant outcome laws,
the Fourier coefficients of the pure and the full-mixed outcome law, the
estimator and the mean estimation fidelity both in closed form and by direct
quadrature.
"""

import math

import numpy as np

from .numerics import as_phase, sqrt_binom_sum_scaled
from .symmetric import symmetric_state

DEFAULT_PHASE_GRID = 64

# Largest N with an outcome law: every N that ever ran. Rows grow as N^2, and
# building one 65536-trial simulate block of them peaks at 1.9 GB at the cap.
BASIS_CAP = 1029


def check_cap(n_copies: int) -> None:
    """Refuse an N outside 1..BASIS_CAP; every outcome law and simulate share
    this bound and its message."""
    if not 1 <= n_copies <= BASIS_CAP:
        raise ValueError(f"n_copies must lie in 1..{BASIS_CAP}, got {n_copies}")


def povm_basis(n_copies: int) -> np.ndarray:
    """(N+1) x (N+1) unitary whose column k is the measurement vector
    with components e^{2 pi i k n / (N+1)} / sqrt(N+1).

    The columns are pairwise orthonormal and their projectors sum to the
    identity, so the N+1 outcomes form a complete projective measurement.
    The outcome law is built from Fourier coefficients instead; verify holds
    it to this basis.
    """
    check_cap(n_copies)
    dim = n_copies + 1
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * grid / dim) / math.sqrt(dim)


def covariant_rows(coeffs, phis) -> np.ndarray:
    """Rows p_k(phi) = Re sum_m c_m e^{i m (phi - est_k)}, k = 0 .. N, of a
    shift-covariant outcome law with one-sided Fourier coefficients
    c_0 .. c_N, one row per phase in phis.

    The law is q(phi - est_k) with q(x) = sum_{|m| <= N} q_m e^{i m x}, so
    c_0 = q_0 and c_m = 2 q_m. Each row is one real product of the
    interleaved (Re, Im) phase factors with a (2N+2) x (N+1) table; its
    phases e^{-i m est_k} use m k reduced mod N+1. Tiny negative rounding
    residues are clamped to zero.
    """
    n = len(coeffs) - 1
    check_cap(n)
    m = np.arange(n + 1)
    roots = np.exp(-2j * np.pi * m / (n + 1))
    shift = roots[np.outer(m, m) % (n + 1)] * np.asarray(coeffs)[:, None]
    table = np.empty((2 * n + 2, n + 1))
    table[0::2] = shift.real
    table[1::2] = -shift.imag
    waves = np.outer(1j * np.asarray(phis), m)
    np.exp(waves, out=waves)
    p = waves.view(float) @ table
    return np.clip(p, 0.0, None, out=p)


def pure_coefficients(n_copies: int) -> np.ndarray:
    """One-sided Fourier coefficients of the pure outcome law.

    p_k(phi) = |<basis_k | Phi(phi)>|^2 has q_m = a_m / (N+1), where
    a_m = sum_n w_n w_{n+m} is the autocorrelation of the Dicke weights w.
    N is checked first, before any N-sized array is built.
    """
    check_cap(n_copies)
    w = np.abs(symmetric_state(n_copies, 0.0))
    c = np.correlate(w, w, "full")[n_copies:] / (n_copies + 1)
    c[1:] *= 2.0
    return c


def mixed_coefficients(n_copies: int, eta_value: float) -> np.ndarray:
    """One-sided Fourier coefficients of the full-mixed outcome law: the phase
    measurement on N shrunk copies rho = eta |psi(delta)><psi(delta)| + (1-eta) I/2.

    R, the Dicke-basis block of rho(0)^{(x) N}, grows one copy at a time
    along |D^N_n> = sqrt(n/N) |D^{N-1}_{n-1}>|1> + sqrt((N-n)/N) |D^{N-1}_n>|0>,
    with rho(0) = [[1, eta], [eta, 1]] / 2: every term is nonnegative, so
    nothing cancels. p_k(delta) = <basis_k| R(delta) |basis_k> has
    q_m = tr_m R / (N+1), where tr_m sums R's m-th off-diagonal. The rows sum
    to tr R, and 1 - tr R is the weight outside the symmetric subspace.
    O(N^3) time and O(N^2) memory; N is checked before R is built.
    """
    check_cap(n_copies)
    if not 0.0 <= eta_value <= 1.0:
        raise ValueError(f"shrinking factor must lie in [0, 1], got {eta_value}")
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


def outcome_rows(n_copies: int, phis) -> np.ndarray:
    """Outcome probabilities p_k(phi) = |<basis_k | Phi(phi)>|^2, k = 0 .. N,
    one row per phase in phis; each row sums to one."""
    return covariant_rows(pure_coefficients(n_copies), phis)


def outcome_distribution(n_copies: int, phase) -> np.ndarray:
    """Outcome probabilities p_k = |<basis_k | Phi(phi)>|^2 at one phase."""
    return outcome_rows(n_copies, [as_phase(phase).value])[0]


def estimate_phase(outcome: int, n_copies: int) -> float:
    """Phase estimate 2 pi k / (N+1) attached to outcome k."""
    if not 0 <= outcome <= n_copies:
        raise ValueError(f"outcome must lie in 0..{n_copies}, got {outcome}")
    return 2.0 * math.pi * outcome / (n_copies + 1)


def phase_estimates(n_copies: int) -> np.ndarray:
    """Phase estimates of all outcomes k = 0 .. N, in outcome order."""
    return np.array([estimate_phase(k, n_copies) for k in range(n_copies + 1)])


def mean_fidelity_closed(n_copies: int) -> float:
    """Phase-averaged fidelity between true and estimated state, closed form:
    1/2 + 2^{-(N+1)} * sum_i sqrt(C(N,i) C(N,i+1)), finite at every N."""
    return 0.5 + sqrt_binom_sum_scaled(n_copies) / 2.0


def mean_fidelity_numeric(n_copies: int, phase_grid: int = DEFAULT_PHASE_GRID) -> float:
    """Phase-averaged estimation fidelity by direct quadrature.

    For each grid phase phi the integrand sum_k p_k(phi) cos^2((est_k - phi)/2)
    is evaluated from the outcome law and the estimator; the outcome laws of
    all grid phases come from one outcome_rows call. Measurement and
    estimator are covariant under phase shifts by 2 pi / (N+1), so the
    integrand is a trigonometric polynomial whose only non-constant harmonic
    is cos((N+1) phi). Offsetting the uniform grid by pi / (2(N+1)) makes the
    grid average of that harmonic vanish for every grid size, hence any
    phase_grid >= 1 returns the exact phase average.
    """
    if phase_grid < 1:
        raise ValueError("phase_grid must be >= 1")
    offset = math.pi / (2.0 * (n_copies + 1))
    phis = 2.0 * math.pi * np.arange(phase_grid) / phase_grid + offset
    p = outcome_rows(n_copies, phis)
    fidelity = np.cos((phase_estimates(n_copies) - phis[:, None]) / 2.0) ** 2
    return float(np.sum(p * fidelity)) / phase_grid
