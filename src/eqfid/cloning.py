"""Shrinking factors, fidelities of the equatorial cloner and difference gates,
and fbar(N), which the asymptotic cloner attains. It imports no numpy."""

import operator
from dataclasses import dataclass

from .numerics import sqrt_binom_sum_scaled


@dataclass(frozen=True)
class ShrinkingFactor:
    """Bloch-vector contraction of each output copy of an N -> M cloner."""

    n_in: int
    m_out: int
    value: float


def shrinking_factor(n_in: int, m_out: int) -> ShrinkingFactor:
    """eta(N, M) = 2^{M-N} S_N / S_M with S_n = sum_i sqrt(C(n,i) C(n,i+1)).

    Evaluated as the ratio (S_N / 2^N) / (S_M / 2^M) of scaled sums, which is
    finite for every N and M, with relative error below 1.5e-15; N and M are
    integers.
    """
    value = _eta(n_in, m_out)
    return ShrinkingFactor(operator.index(n_in), operator.index(m_out), value)


def _eta(n_in: int, m_out: int) -> float:
    """shrinking_factor(n_in, m_out).value, with its checks, as a bare float."""
    n_in, m_out = operator.index(n_in), operator.index(m_out)
    # Inline, not check_int: about 900 calls per curves + verify; the helper cost them 15%.
    if n_in < 1:
        raise ValueError(f"n_in must be >= 1, got {n_in}")
    if m_out < n_in:
        raise ValueError(f"m_out must be >= {n_in}, got {m_out}")
    return sqrt_binom_sum_scaled(n_in) / sqrt_binom_sum_scaled(m_out)


def mean_fidelity_closed(n_copies: int) -> float:
    """Phase-averaged fidelity between true and estimated state, closed form:
    1/2 + 2^{-(N+1)} * sum_i sqrt(C(N,i) C(N,i+1)), finite at every N."""
    return (1.0 + sqrt_binom_sum_scaled(n_copies)) / 2.0


def eqcm_fidelity(n_in: int) -> float:
    """Per-copy reconstruction probability of the asymptotic equatorial
    cloner, (1 + eta(N, inf)) / 2 with eta(N, inf) = S_N / 2^N: fbar(N),
    since the asymptotic cloner is state estimation."""
    return mean_fidelity_closed(n_in)


def gcnot_fidelity(n_copies: int) -> float:
    """Reconstruction probability of the collective N -> 2N difference gate,
    (1 + eta(N, 2N)) / 2; at N = 1 it is the pairwise gate, 1/2 + 1/sqrt(8)."""
    return (1.0 + _eta(n_copies, 2 * n_copies)) / 2.0
