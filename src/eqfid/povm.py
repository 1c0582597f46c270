"""Covariant phase measurement on the symmetric subspace.

The optimal projective measurement for the phase of N identical equatorial
qubits is the discrete Fourier basis of the (N+1)-dimensional symmetric
subspace; outcome k carries the phase estimate 2 pi k / (N+1). This module
provides the basis, the outcome law, the estimator and the mean estimation
fidelity both in closed form and by direct quadrature.
"""

import math

import numpy as np

from .numerics import sqrt_binom_sum
from .symmetric import symmetric_state

DEFAULT_PHASE_GRID = 64


def povm_basis(n_copies: int) -> np.ndarray:
    """(N+1) x (N+1) unitary whose column k is the measurement vector
    with components e^{2 pi i k n / (N+1)} / sqrt(N+1).

    The columns are pairwise orthonormal and their projectors sum to the
    identity, so the N+1 outcomes form a complete projective measurement.
    """
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    dim = n_copies + 1
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * grid / dim) / math.sqrt(dim)


def outcome_distribution(n_copies: int, phase) -> np.ndarray:
    """Outcome probabilities p_k = |<basis_k | Phi(phi)>|^2, k = 0 .. N.

    Tiny negative rounding residues are clamped to zero; the entries sum to
    one because the basis is complete and the input state is normalized.
    """
    c = symmetric_state(n_copies, phase)
    p = np.abs(povm_basis(n_copies).conj().T @ c) ** 2
    return np.clip(p, 0.0, None)


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
    1/2 + 2^{-(N+1)} * sum_i sqrt(C(N,i) C(N,i+1))."""
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    return 0.5 + sqrt_binom_sum(n_copies) / 2.0 ** (n_copies + 1)


def mean_fidelity_numeric(n_copies: int, phase_grid: int = DEFAULT_PHASE_GRID) -> float:
    """Phase-averaged estimation fidelity by direct quadrature.

    For each grid phase phi the integrand sum_k p_k(phi) cos^2((est_k - phi)/2)
    is evaluated from the outcome law and the estimator; the outcome law of
    every grid phase comes from one matrix product. Measurement and
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
    amplitudes = symmetric_state(n_copies, 0.0) * np.exp(
        1j * np.outer(phis, np.arange(n_copies + 1))
    )
    p = np.abs(amplitudes @ povm_basis(n_copies).conj()) ** 2
    fidelity = np.cos((phase_estimates(n_copies) - phis[:, None]) / 2.0) ** 2
    return float(np.sum(p * fidelity)) / phase_grid
