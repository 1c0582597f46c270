import math

import numpy as np
import pytest

from eqfid import symmetric
from eqfid.numerics import BASIS_CAP
from eqfid.symmetric import EMBEDDING_CAP, dicke_embedding, symmetric_state
from reference import dicke_weights


def equatorial_state(phi):
    """Amplitudes of (|0> + e^{i phi} |1>) / sqrt(2), the single-copy oracle."""
    return np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2.0)


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
    # C(N, N // 2) leaves float range from N = 1030: C(1029, 514) is about
    # 2^1023.7, so BASIS_CAP is the last N whose binomials fit in a float.
    # Its weights are finite and their squares sum to one.
    c = symmetric_state(BASIS_CAP, 1.1)
    assert np.all(np.isfinite(c)) and np.all(c != 0)
    assert abs(np.vdot(c, c).real - 1.0) < 1e-12
    # Past it every N is refused, as by every outcome law.
    for n in (BASIS_CAP + 1, 5000):
        with pytest.raises(ValueError, match=f"1..{BASIS_CAP}"):
            symmetric_state(n, 1.1)


@pytest.mark.parametrize("n", [*range(1, 130), 200, 511, 1000, BASIS_CAP])
def test_dicke_weights_are_correctly_rounded(n):
    # Each weight sqrt(C(N, i) / 2^N) is the float nearest the exact root,
    # so within 0.5 ulp of it: tests/reference.py rounds it by Ziv's test
    # from a wider integer root, the package by round to odd.
    assert symmetric._dicke_weights(n).tolist() == dicke_weights(n)


def test_dicke_weights_from_exact_radicands():
    # Every radicand x = C(N, i) 2^(N mod 2) below 2^53 is an exact float, so
    # IEEE sqrt rounds its root correctly and the power-of-two scale keeps
    # it: the weight equals the round-to-odd integer root, at 60 or more
    # bits, divided by 2^(60 + ceil(N/2)), one correctly rounded quotient.
    checked = 0
    for n in range(1, BASIS_CAP + 1):
        weights, comb = symmetric._dicke_weights.__wrapped__(n), 1
        for i in range(n // 2 + 1):
            x = comb << n % 2
            if x >= 1 << 53:
                break
            r = math.isqrt(x << 120)
            odd = (r | (r * r != x << 120)) / (1 << 60 + (n + 1) // 2)
            assert math.sqrt(x) * 2.0 ** -((n + 1) // 2) == odd, (n, i)
            assert weights[i] == weights[n - i] == odd, (n, i)
            comb = comb * (n - i) // (i + 1)
            checked += 1
    # Every entry of each row up to N = 56, the outer ones beyond.
    assert checked == 9111


def test_modulus_independent_of_phase():
    for n in (2, 5):
        ref = np.abs(symmetric_state(n, 0.0))
        for phi in np.linspace(0, 2 * math.pi, 11):
            assert np.allclose(np.abs(symmetric_state(n, float(phi))), ref, atol=1e-13)


def test_domain_errors():
    with pytest.raises(ValueError):
        symmetric_state(0, 0.0)
    # A float N is a TypeError whatever its value, below 1 too.
    for bad in (0.5, 1.5, 2.0):
        with pytest.raises(TypeError):
            symmetric_state(bad, 0.0)
    assert np.array_equal(symmetric_state(np.int64(60), 0.3), symmetric_state(60, 0.3))
    with pytest.raises(ValueError):
        dicke_embedding(0)
    with pytest.raises(ValueError):
        dicke_embedding(EMBEDDING_CAP + 1)
    with pytest.raises(TypeError):
        dicke_embedding(0.5)


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
