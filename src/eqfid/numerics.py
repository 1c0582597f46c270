"""Exact combinatorics, equatorial qubit states and small density matrices.

Everything here is pure and allocation-light; the rest of the package builds
on these primitives.
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Exact integer binomial products are used for square-root sums up to this
# row; larger rows switch to log-gamma evaluation to stay inside float range.
EXACT_BINOM_CAP = 60

# Tolerances for density-matrix validity.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-12

IDENTITY = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class Phase:
    """A finite angle in radians, normalized into [0, 2*pi) at construction."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError(f"phase must be finite, got {v}")
        v %= TWO_PI
        if v >= TWO_PI:  # modulo of a tiny negative input can round up to 2*pi
            v = 0.0
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def as_phase(phi) -> Phase:
    """Coerce a float (radians) or Phase into a normalized Phase."""
    return phi if isinstance(phi, Phase) else Phase(float(phi))


@dataclass(frozen=True)
class QubitDensityMatrix:
    """2x2 complex matrix checked to be Hermitian, unit trace and PSD."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        self.validate()

    def validate(self) -> None:
        m = self.matrix
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {np.trace(m)}")
        if np.linalg.eigvalsh(m).min() < -EIGENVALUE_TOL:
            raise ValueError("matrix has a negative eigenvalue")


def binom(n: int, i: int) -> int:
    """Exact binomial coefficient C(n, i).

    Python integers are unbounded, so there is no row cap here; the cap in
    EXACT_BINOM_CAP only governs where sqrt sums leave the exact route.
    """
    if n < 0 or i < 0 or i > n:
        raise ValueError(f"binomial index out of range: C({n}, {i})")
    return math.comb(n, i)


def _log_binom(n: int, i: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


def sqrt_binom_sum(n: int) -> float:
    """Sum of sqrt(C(n,i) * C(n,i+1)) over i = 0 .. n-1.

    Uses exact integer products for n <= EXACT_BINOM_CAP and log-gamma terms
    beyond; the result itself overflows float range near n ~ 1020, which the
    shrinking-factor code avoids by working with the scaled variant below.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= EXACT_BINOM_CAP:
        return math.fsum(math.sqrt(binom(n, i) * binom(n, i + 1)) for i in range(n))
    return math.fsum(
        math.exp(0.5 * (_log_binom(n, i) + _log_binom(n, i + 1))) for i in range(n)
    )


def sqrt_binom_sum_scaled(n: int) -> float:
    """sqrt_binom_sum(n) / 2^n, finite for arbitrarily large n.

    Every term is at most 1, so the sum stays in [0, 1]; this is the form the
    shrinking-factor ratio needs for large output ensembles.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= EXACT_BINOM_CAP:
        return sqrt_binom_sum(n) / 2.0**n
    shift = n * math.log(2.0)
    return math.fsum(
        math.exp(0.5 * (_log_binom(n, i) + _log_binom(n, i + 1)) - shift)
        for i in range(n)
    )


def equatorial_state(phi) -> np.ndarray:
    """Amplitudes of the equatorial qubit state (|0> + e^{i phi} |1>) / sqrt(2)."""
    return np.array([1.0, np.exp(1j * as_phase(phi).value)]) / math.sqrt(2.0)


def pure_fidelity(phase_a, phase_b) -> float:
    """Fidelity |<psi_a|psi_b>|^2 = cos^2((phi_b - phi_a) / 2)."""
    d = as_phase(phase_b).value - as_phase(phase_a).value
    return math.cos(d / 2.0) ** 2


def clone_state(phase, eta: float) -> QubitDensityMatrix:
    """Shrunk copy eta |psi><psi| + (1 - eta)/2 I of an equatorial state."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"shrinking factor must lie in [0, 1], got {eta}")
    amp = equatorial_state(phase)
    return QubitDensityMatrix(eta * np.outer(amp, amp.conj()) + (1.0 - eta) / 2.0 * IDENTITY)


def overlap(rho: QubitDensityMatrix, phase) -> float:
    """Expectation <psi(phi)| rho |psi(phi)> of rho on an equatorial state."""
    amp = equatorial_state(phase)
    return float(np.real(amp.conj() @ rho.matrix @ amp))
