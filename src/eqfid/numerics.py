"""Binomial weights, equatorial qubit states and small density matrices.

Every binomial quantity the package uses, the closed-form sums S_n and the
Dicke weights, comes from binomial_log_pmf, one routine finite at every n.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Centre terms of binomial_log_pmf are summed this many logarithms at a time.
_CHUNK = 4096

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
    """Exact binomial coefficient C(n, i)."""
    if n < 0 or i < 0 or i > n:
        raise ValueError(f"binomial index out of range: C({n}, {i})")
    return math.comb(n, i)


def binomial_log_pmf(n: int) -> tuple[int, np.ndarray]:
    """Window start lo and log(C(n, i) / 2^n) for i = lo .. lo + len - 1.

    The centre term, at c = n // 2, is the exactly rounded sum of
    log1p(-1/(2j)) over j = 1 .. ceil(n/2); the walk outward adds the exact
    term ratios log1p((n - 2i - 1) / (i + 1)). By Hoeffding, C(n, i) / 2^n
    is at most exp(-2 (i - n/2)^2 / n), so every index isqrt(373 n) + 2 or
    more from c lies below exp(-746) and rounds to zero: sums over the window
    equal sums over the whole row, and memory is O(sqrt(n)).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    c, m = n // 2, (n + 1) // 2
    chunks = (np.log1p(-0.5 / np.arange(j, min(j + _CHUNK, m + 1))).tolist()
              for j in range(1, m + 1, _CHUNK))
    centre = math.fsum(itertools.chain.from_iterable(chunks))
    k = math.isqrt(373 * n) + 2
    lo, hi = max(0, c - k), min(n, c + k)
    up = np.arange(c, hi)
    down = np.arange(c, lo, -1)
    right = np.cumsum(np.log1p((n - 2 * up - 1) / (up + 1)))
    left = np.cumsum(np.log1p((2 * down - n - 1) / (n - down + 1)))
    return lo, np.concatenate([left[::-1] + centre, [centre], right + centre])


def sqrt_binom_sum_scaled(n: int) -> float:
    """S_n / 2^n with S_n = sum_i sqrt(C(n,i) C(n,i+1)), i = 0 .. n-1.

    The exactly rounded sum of exp((l_i + l_{i+1}) / 2) over the window of
    binomial_log_pmf, finite at every n. Against an mpmath oracle the
    relative error is at most 7.4e-16 (n = 1..300 and 100 n up to 2.4e6).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, logs = binomial_log_pmf(n)
    return math.fsum(np.exp(0.5 * (logs[:-1] + logs[1:])))


def sqrt_binom_sum(n: int) -> float:
    """S_n itself, the scaled sum times 2^n: OverflowError from n = 1025,
    which is why the closed forms use sqrt_binom_sum_scaled."""
    return math.ldexp(sqrt_binom_sum_scaled(n), n)


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
