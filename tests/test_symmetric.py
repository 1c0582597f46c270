import math

import numpy as np
import pytest

from eqfid.numerics import equatorial_state
from eqfid.symmetric import EMBEDDING_CAP, dicke_embedding, symmetric_state


def tensor_power(psi, n):
    out = psi
    for _ in range(n - 1):
        out = np.kron(out, psi)
    return out


def test_single_copy_matches_equatorial():
    for phi in (0.0, 1.1, 4.4):
        assert np.allclose(
            symmetric_state(1, phi), equatorial_state(phi), atol=1e-15
        )


def test_two_copies_phase_zero():
    # brute-force expansion of the 4-dim product state into the Dicke basis
    full = tensor_power(equatorial_state(0.0), 2)
    expected = np.array(
        [full[0b00], (full[0b01] + full[0b10]) / math.sqrt(2.0), full[0b11]]
    )
    assert np.allclose(symmetric_state(2, 0.0), expected, atol=1e-15)
    assert np.allclose(expected.real, [0.5, 1.0 / math.sqrt(2.0), 0.5], atol=1e-15)


def test_unit_norm_any_n():
    for n in (1, 3, 7, 20, 60):
        for phi in (0.0, 2.5):
            c = symmetric_state(n, phi)
            assert abs(np.vdot(c, c).real - 1.0) < 1e-12


def test_weights_past_float_range():
    # C(N, n) leaves float range from N = 1030; the weights must not.
    c = symmetric_state(5000, 1.1)
    assert np.all(np.isfinite(c))
    assert abs(np.vdot(c, c).real - 1.0) < 1e-12
    # Outside the binomial window the weights are exactly zero.
    assert c[0] == 0 and c[-1] == 0 and np.count_nonzero(c) < 5001


def test_modulus_independent_of_phase():
    for n in (2, 5):
        ref = np.abs(symmetric_state(n, 0.0))
        for phi in np.linspace(0, 2 * math.pi, 11):
            assert np.allclose(np.abs(symmetric_state(n, float(phi))), ref, atol=1e-13)


def test_domain_errors():
    with pytest.raises(ValueError):
        symmetric_state(0, 0.0)
    with pytest.raises(ValueError):
        dicke_embedding(0)
    with pytest.raises(ValueError):
        dicke_embedding(EMBEDDING_CAP + 1)


def test_embedding_single_qubit_is_identity():
    assert np.allclose(dicke_embedding(1), np.eye(2), atol=1e-15)


def test_embedding_two_qubit_dicke_column():
    v = dicke_embedding(2)
    assert np.allclose(v[:, 1], [0.0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], atol=1e-15)


def test_embedding_reproduces_tensor_product():
    for n in range(1, 7):
        for phi in (0.0, 0.7, 2.9, 5.5):
            lhs = dicke_embedding(n) @ symmetric_state(n, phi)
            rhs = tensor_power(equatorial_state(phi), n)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_embedding_isometry():
    for n in range(1, EMBEDDING_CAP + 1):
        v = dicke_embedding(n)
        gram = v.T @ v
        assert np.max(np.abs(gram - np.eye(n + 1))) < 1e-12


def test_overlap_power_law():
    # <Phi(a)|Phi(b)> = (cos(d/2) e^{i d/2})^N with d = b - a
    a = 0.3
    for n in range(1, 11):
        for d in np.linspace(0, 2 * math.pi, 20, endpoint=False):
            lhs = np.vdot(symmetric_state(n, a), symmetric_state(n, a + float(d)))
            rhs = (math.cos(d / 2.0) * np.exp(1j * d / 2.0)) ** n
            assert abs(lhs - rhs) < 1e-12


def test_overlap_power_law_against_tensor_product():
    a, b = 1.0, 2.6
    for n in range(1, 7):
        lhs = np.vdot(symmetric_state(n, a), symmetric_state(n, b))
        rhs = np.vdot(
            tensor_power(equatorial_state(a), n),
            tensor_power(equatorial_state(b), n),
        )
        assert abs(lhs - rhs) < 1e-12
