"""Shrinking factors and output states of the equatorial difference gates."""

import math
from dataclasses import dataclass

from .numerics import (
    EXACT_BINOM_CAP,
    Phase,
    QubitDensityMatrix,
    as_phase,
    clone_state,
    sqrt_binom_sum,
    sqrt_binom_sum_scaled,
)


@dataclass(frozen=True)
class ShrinkingFactor:
    """Bloch-vector contraction of each output copy of an N -> M cloner."""

    n_in: int
    m_out: float  # integer count, or math.inf for the asymptotic machine
    value: float


@dataclass(frozen=True)
class TransformationOutput:
    """Per-copy output states of the pairwise or collective difference gate.

    The control side keeps the first input phase, the difference side carries
    the phase difference; both are shrunk by the same factor.
    """

    control_state: QubitDensityMatrix
    difference_state: QubitDensityMatrix
    copies_per_side: int
    eta: float


def shrinking_factor(n_in: int, m_out: int) -> ShrinkingFactor:
    """eta(N, M) = 2^{M-N} S_N / S_M with S_n = sum_i sqrt(C(n,i) C(n,i+1)).

    Beyond the exact-integer cap the 2^{M-N} factor is folded into the ratio
    (S_N / 2^N) / (S_M / 2^M), evaluated in log space, so arbitrarily large
    output ensembles stay finite.
    """
    if n_in < 1:
        raise ValueError("n_in must be >= 1")
    if m_out < n_in:
        raise ValueError(f"m_out must be >= n_in, got ({n_in}, {m_out})")
    if m_out <= EXACT_BINOM_CAP:
        value = 2.0 ** (m_out - n_in) * sqrt_binom_sum(n_in) / sqrt_binom_sum(m_out)
    else:
        value = sqrt_binom_sum_scaled(n_in) / sqrt_binom_sum_scaled(m_out)
    return ShrinkingFactor(n_in, m_out, value)


def shrinking_factor_limit(n_in: int) -> ShrinkingFactor:
    """eta(N, infinity) = S_N / 2^N, the many-copy limit of eta(N, M)."""
    if n_in < 1:
        raise ValueError("n_in must be >= 1")
    return ShrinkingFactor(n_in, math.inf, sqrt_binom_sum_scaled(n_in))


def eqcm_fidelity(n_in: int) -> float:
    """Per-copy reconstruction probability of the asymptotic equatorial
    cloner: (1 + eta(N, inf)) / 2."""
    return (1.0 + shrinking_factor_limit(n_in).value) / 2.0


def cnot_fidelity() -> float:
    """Reconstruction probability of the pairwise difference gate,
    (1 + eta(1, 2)) / 2 = 1/2 + 1/sqrt(8)."""
    return (1.0 + shrinking_factor(1, 2).value) / 2.0


def gcnot_fidelity(n_copies: int) -> float:
    """Reconstruction probability of the collective N -> 2N difference gate,
    (1 + eta(N, 2N)) / 2."""
    return (1.0 + shrinking_factor(n_copies, 2 * n_copies).value) / 2.0


def gcnot_output(n_copies: int, phase_a, phase_b) -> TransformationOutput:
    """Output of the collective gate on N copies of each input phase.

    Both sides come out as shrunk equatorial states with eta(N, 2N); the
    difference side carries phase_b - phase_a reduced mod 2 pi.
    """
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    eta = shrinking_factor(n_copies, 2 * n_copies).value
    pa = as_phase(phase_a)
    diff = Phase(as_phase(phase_b).value - pa.value)
    return TransformationOutput(
        control_state=clone_state(pa, eta),
        difference_state=clone_state(diff, eta),
        copies_per_side=n_copies,
        eta=eta,
    )

