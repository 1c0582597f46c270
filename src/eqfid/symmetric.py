"""Multi-copy equatorial states in the totally symmetric subspace.

N identical qubits never leave the (N+1)-dimensional permutation-symmetric
subspace, so an N-copy equatorial state is held as an (N+1)-vector of Dicke
amplitudes instead of a 2^N-vector.
"""

import itertools
import math

import numpy as np

from .numerics import as_phase, binomial_log_pmf

# Largest N for which the 2^N-dimensional embedding is materialized (4096-dim
# at the cap); only the full-space reference mixed_ensemble_distribution needs
# it, and simulate never does.
EMBEDDING_CAP = 12


def symmetric_state(n_copies: int, phase) -> np.ndarray:
    """Dicke-basis amplitudes of the N-fold product of one equatorial state.

    Component n is sqrt(C(N, n)) e^{i n phi} / 2^{N/2}: the modulus carries
    the binomial weight of strings with n excitations and the phase winds
    linearly, which is what makes covariant phase measurements tractable.
    Weights outside the window of binomial_log_pmf are exactly zero.
    """
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    phi = as_phase(phase).value
    lo, logs = binomial_log_pmf(n_copies)
    w = np.zeros(n_copies + 1)
    w[lo : lo + len(logs)] = np.exp(0.5 * logs)
    return w * np.exp(1j * phi * np.arange(n_copies + 1))


def dicke_embedding(n_copies: int) -> np.ndarray:
    """Isometry from the symmetric subspace into the full 2^N product space.

    Column n is the Dicke state of Hamming weight n: the normalized equal
    superposition of all computational strings with n ones, where bit j of
    the row index is the state of qubit j. Columns are orthonormal, so the
    matrix maps symmetric amplitudes to full-space amplitudes exactly.
    """
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    if n_copies > EMBEDDING_CAP:
        raise ValueError(
            f"full-space embedding capped at n_copies <= {EMBEDDING_CAP}, got {n_copies}"
        )
    v = np.zeros((2**n_copies, n_copies + 1))
    for weight in range(n_copies + 1):
        rows = [sum(1 << p for p in positions)
                for positions in itertools.combinations(range(n_copies), weight)]
        v[rows, weight] = 1.0 / math.sqrt(len(rows))
    return v
