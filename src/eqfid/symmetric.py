"""Multi-copy equatorial states in the totally symmetric subspace.

N identical qubits never leave the (N+1)-dimensional permutation-symmetric
subspace, so an N-copy equatorial state is held as an (N+1)-vector of Dicke
amplitudes instead of a 2^N-vector. The Dicke weights, which both outcome
laws are built from, are taken afresh on each call from the binomial window
of numerics.binomial_window, which keeps each N's window up to BASIS_CAP for
the process, with S_N / 2^N in it: 8 (N+1) bytes, about 15 KB for N up to
60 and at most about 4.3 MB for every N up to BASIS_CAP.
"""

import itertools
import math
import operator

import numpy as np

from .numerics import BASIS_CAP, SUM_DENOMINATOR, as_phase, binomial_window

# Largest N for which the 2^N-dimensional embedding is materialized (4096-dim
# at the cap); only the full-space reference mixed_ensemble_distribution needs
# it, and simulate never does.
EMBEDDING_CAP = 12


def check_cap(n_copies: int) -> None:
    """Refuse an N outside 1..BASIS_CAP, and a float N by TypeError; every
    outcome law and simulate share this bound and its message."""
    if not 1 <= operator.index(n_copies) <= BASIS_CAP:
        raise ValueError(f"n_copies must lie in 1..{BASIS_CAP}, got {n_copies}")


def symmetric_state(n_copies: int, phase) -> np.ndarray:
    """Dicke-basis amplitudes of the N-fold product of one equatorial state.

    Component n is sqrt(C(N, n)) e^{i n phi} / 2^{N/2}: the modulus carries
    the binomial weight of strings with n excitations and the phase winds
    linearly, which is what makes covariant phase measurements tractable.
    The weights are sqrt(e^(l_i) / D) over the window of binomial_window
    and exactly zero outside it. N is an integer: a float is a TypeError.
    """
    n = operator.index(n_copies)
    if n < 1:
        raise ValueError("n_copies must be >= 1")
    return _dicke_weights(n) * np.exp(1j * as_phase(phase) * np.arange(n + 1))


def _dicke_weights(n: int) -> np.ndarray:
    """Fresh Dicke weights of an int N >= 0."""
    lo, logs, total, _ = binomial_window(n)
    w = np.zeros(n + 1)
    w[lo : lo + len(logs)] = np.sqrt(np.exp(logs) / (total / SUM_DENOMINATOR))
    return w


def dicke_embedding(n_copies: int) -> np.ndarray:
    """Isometry from the symmetric subspace into the full 2^N product space.

    Column n is the Dicke state of Hamming weight n: the normalized equal
    superposition of all computational strings with n ones, where bit j of
    the row index is the state of qubit j. Columns are orthonormal, so the
    matrix maps symmetric amplitudes to full-space amplitudes exactly.
    """
    n_copies = operator.index(n_copies)
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
