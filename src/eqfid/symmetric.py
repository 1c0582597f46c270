"""Multi-copy equatorial states in the totally symmetric subspace.

N identical qubits never leave the (N+1)-dimensional permutation-symmetric
subspace, so an N-copy equatorial state is held as an (N+1)-vector of Dicke
amplitudes instead of a 2^N-vector. The Dicke weights sqrt(C(N, i) / 2^N),
which both outcome laws are built from, come from Python ints, each
correctly rounded, so they are the same on every host; each N's weights are
kept for the process, read-only: 8 (N+1) bytes, about 15 KB for N up to 60
and at most about 4.3 MB for every N up to numerics.BASIS_CAP, the bound
numerics.check_cap puts on every N-indexed state and law. The full-space
embedding takes its N through numerics.check_int, up to EMBEDDING_CAP.
"""

import functools
import itertools
import math

import numpy as np

from .numerics import as_phase, check_cap, check_int

# Largest N for which the 2^N-dimensional embedding is materialized (4096-dim
# at the cap); only the full-space reference mixed_ensemble_distribution needs
# it, and simulate never does.
EMBEDDING_CAP = 12


def symmetric_state(n_copies: int, phase) -> np.ndarray:
    """Dicke-basis amplitudes of the N-fold product of one equatorial state.

    Component n is sqrt(C(N, n)) e^{i n phi} / 2^{N/2}: the modulus carries
    the binomial weight of strings with n excitations and the phase winds
    linearly, which is what makes covariant phase measurements tractable.
    The weights are _dicke_weights(N). N is an integer in 1..BASIS_CAP: a
    float is a TypeError.
    """
    n = check_cap(n_copies)
    return _dicke_weights(n) * np.exp(1j * as_phase(phase) * np.arange(n + 1))


@functools.cache
def _dicke_weights(n: int) -> np.ndarray:
    """The Dicke weights sqrt(C(N, i) / 2^N), i = 0 .. N, of an int N in
    1..BASIS_CAP, each correctly rounded; kept for the process, read-only.

    The weight is sqrt(x) / 2^ceil(N/2) with x = C(N, i) 2^(N mod 2).
    Below 2^53, x is an exact float, so IEEE sqrt rounds its root
    correctly, and the power-of-two scale, exact while the weight is a
    normal float, as every weight up to BASIS_CAP is, keeps it so. From
    2^53, with s >= 0 the least shift that gives x 4^s at least 112 bits,
    r = isqrt(x 4^s) has at least 56, and the weight is
    sqrt(x 4^s) / 2^(s + ceil(N/2)). r is made odd when the root is inexact
    (round to odd), so the one rounding of the int / int quotient
    r / 2^(s + ceil(N/2)) is that of the exact root (Boldo and Melquiond,
    IEEE Trans. Comput. 57, 2008). The row is symmetric, so half of it is
    computed and mirrored.
    """
    scale, half, comb = 2.0 ** -((n + 1) // 2), [], 1
    for i in range(n // 2 + 1):
        x = comb << n % 2
        if x < 1 << 53:
            half.append(math.sqrt(x) * scale)
        else:
            s = max(0, (113 - x.bit_length()) // 2)
            x <<= 2 * s
            r = math.isqrt(x)
            half.append((r | (r * r != x)) / (1 << s + (n + 1) // 2))
        comb = comb * (n - i) // (i + 1)
    w = np.array(half + half[n % 2 - 2 :: -1])
    w.flags.writeable = False
    return w


def dicke_embedding(n_copies: int) -> np.ndarray:
    """Isometry from the symmetric subspace into the full 2^N product space.

    Column n is the Dicke state of Hamming weight n: the normalized equal
    superposition of all computational strings with n ones, where bit j of
    the row index is the state of qubit j. Columns are orthonormal, so the
    matrix maps symmetric amplitudes to full-space amplitudes exactly.
    """
    n_copies = check_int(n_copies, "n_copies", 1, EMBEDDING_CAP)
    v = np.zeros((2**n_copies, n_copies + 1))
    for weight in range(n_copies + 1):
        rows = [sum(1 << p for p in positions)
                for positions in itertools.combinations(range(n_copies), weight)]
        v[rows, weight] = 1.0 / math.sqrt(len(rows))
    return v
