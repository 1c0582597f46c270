"""Multi-copy equatorial states in the totally symmetric subspace.

N identical qubits never leave the (N+1)-dimensional permutation-symmetric
subspace, so an N-copy equatorial state is held as an (N+1)-vector of Dicke
amplitudes instead of a 2^N-vector.
"""

import itertools
import math

import numpy as np

from .numerics import as_phase, binom

# Largest N for which the 2^N-dimensional embedding is materialized (4096-dim
# at the cap); only the mixed-ensemble machinery needs the full space.
EMBEDDING_CAP = 12


def symmetric_state(n_copies: int, phase) -> np.ndarray:
    """Dicke-basis amplitudes of the N-fold product of one equatorial state.

    Component n is sqrt(C(N, n)) e^{i n phi} / 2^{N/2}: the modulus carries
    the binomial weight of strings with n excitations and the phase winds
    linearly, which is what makes covariant phase measurements tractable.
    """
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    phi = as_phase(phase).value
    ns = np.arange(n_copies + 1)
    # float() first: past 2^64 numpy would hold the integers as objects.
    w = np.sqrt([float(binom(n_copies, int(k))) for k in ns]) / 2.0 ** (n_copies / 2.0)
    return w * np.exp(1j * phi * ns)


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
        for positions in itertools.combinations(range(n_copies), weight):
            v[sum(1 << p for p in positions), weight] = 1.0
        v[:, weight] /= math.sqrt(binom(n_copies, weight))
    return v
