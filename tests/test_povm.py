import functools
import hashlib
import inspect
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqfid import povm, symmetric
from eqfid.cloning import mean_fidelity_closed, shrinking_factor
from eqfid.numerics import BASIS_CAP, TWO_PI
from eqfid.povm import (
    estimate_phase,
    guide_search,
    mean_fidelity_numeric,
    mixed_coefficients,
    offset_sampler,
    outcome_distribution,
    outcome_rows,
    phase_estimates,
    povm_basis,
)
from eqfid.strategies import curve_table
from eqfid.symmetric import symmetric_state
from eqfid.verify import run_checks
from reference import dicke_recursion_coefficients


def test_basis_single_copy_vectors():
    basis = povm_basis(1)
    assert np.allclose(basis[:, 0], np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-15)
    assert np.allclose(basis[:, 1], np.array([1.0, -1.0]) / math.sqrt(2.0), atol=1e-12)


def test_basis_orthonormal_and_complete():
    for n in range(1, 31):
        basis = povm_basis(n)
        eye = np.eye(n + 1)
        assert np.max(np.abs(basis.conj().T @ basis - eye)) < 1e-12
        assert np.max(np.abs(basis @ basis.conj().T - eye)) < 1e-12


def test_basis_matches_direct_exponentials():
    # The basis gathers N+1 roots of unity; the direct (N+1)^2 exponentials
    # lose about 1e-16 N^2 of absolute accuracy to the rounding of 2 pi k n.
    for n in range(1, 61):
        grid = np.outer(np.arange(n + 1), np.arange(n + 1))
        direct = np.exp(2j * np.pi * grid / (n + 1)) / math.sqrt(n + 1)
        assert np.max(np.abs(povm_basis(n) - direct)) < 1e-13


def test_basis_is_exactly_symmetric():
    # verify holds both Gram products to the identity with one FFT of B,
    # which needs B == B^T to the last bit: the roots are gathered at
    # k n mod (N + 1), which is symmetric in k and n.
    for n in (*range(1, 61), BASIS_CAP):
        basis = povm_basis(n)
        assert np.array_equal(basis, basis.T), n


def test_basis_domain_error():
    with pytest.raises(ValueError):
        povm_basis(0)


def test_outcome_distribution_examples():
    p = outcome_distribution(1, 0.0)
    assert abs(p[0] - 1.0) < 1e-14 and p[1] < 1e-14
    p = outcome_distribution(1, math.pi / 2)
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)


def test_outcome_distribution_normalized():
    for n in (1, 2, 5, 12, 30):
        for phi in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            p = outcome_distribution(n, float(phi))
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-10


def test_outcome_rows_lie_in_unit_interval():
    # At N = 1 and phi = 0 outcome 0 is certain, and a coefficient rounded up
    # would sum it to just past one.
    assert outcome_distribution(1, 0.0)[0] == 1.0
    for n in range(1, 61):
        # The estimator phases include phi = 0, the estimate of outcome 0.
        rows = outcome_rows(n, phase_estimates(n))
        assert rows.min() >= 0.0 and rows.max() <= 1.0


def test_estimate_phase_values():
    assert estimate_phase(0, 1) == 0.0
    assert estimate_phase(0, 9) == 0.0
    assert abs(estimate_phase(1, 1) - math.pi) < 1e-15
    assert abs(estimate_phase(2, 3) - math.pi) < 1e-15


def test_phase_estimates_match_estimate_phase():
    # The vectorised estimates take the IEEE operations of 2 pi k / (N+1),
    # spelled here in Python floats; estimate_phase reads them.
    for n in range(1, BASIS_CAP + 1):
        expected = np.array([TWO_PI * k / (n + 1) for k in range(n + 1)])
        assert np.array_equal(phase_estimates(n), expected), n
        assert estimate_phase(n // 2, n) == expected[n // 2], n


def test_phase_estimates_domain_errors():
    with pytest.raises(TypeError):
        phase_estimates(1.5)
    for n in (0, -3, BASIS_CAP + 1):
        with pytest.raises(ValueError):
            phase_estimates(n)
    assert np.array_equal(phase_estimates(np.int64(5)), phase_estimates(5))


@pytest.mark.parametrize("k,n", [(-1, 3), (4, 3), (2, 1), (0, 0), (0, BASIS_CAP + 1)])
def test_estimate_phase_domain_errors(k, n):
    with pytest.raises(ValueError):
        estimate_phase(k, n)


def test_estimate_phase_takes_integers_only():
    # No outcome 1.5 exists, so it has no estimate; integer-like k and N do.
    assert estimate_phase(np.int64(1), np.int64(1)) == estimate_phase(True, 1) == math.pi
    for k, n in ((1.5, 3), (1.0, 3), (1, 3.0)):
        with pytest.raises(TypeError):
            estimate_phase(k, n)


def test_numeric_matches_closed_any_grid():
    # The integrand's only non-constant harmonic, cos((N+1) phi), averages
    # to zero over a uniform grid offset by pi / (2(N+1)) of any size, so
    # every such grid average is the phase average that the one-phase
    # quadrature returns.
    for n in (*range(1, 31), 100, 1029):
        closed, numeric = mean_fidelity_closed(n), mean_fidelity_numeric(n)
        assert abs(numeric - closed) <= 1e-10, n
        est = phase_estimates(n)
        for grid in (1, 7, 64):
            phis = 2.0 * math.pi * np.arange(grid) / grid + math.pi / (2.0 * (n + 1))
            p = outcome_rows(n, phis)
            average = float(np.sum(p * np.cos((est - phis[:, None]) / 2.0) ** 2)) / grid
            assert abs(numeric - average) <= 1e-10, (n, grid)


def test_numeric_examples():
    assert abs(mean_fidelity_numeric(1) - 0.75) <= 1e-10
    assert abs(mean_fidelity_numeric(2) - 0.8535533905932737) <= 1e-10
    assert abs(mean_fidelity_numeric(10) - mean_fidelity_closed(10)) <= 1e-10
    assert abs(mean_fidelity_closed(10) - 0.9752428966751028) < 1e-15


def test_numeric_domain_errors():
    # An ensemble of 2.5 copies does not exist, nor one of 0.5.
    for bad in (0.5, 2.5):
        with pytest.raises(TypeError):
            mean_fidelity_numeric(bad)
    # N is checked before the quadrature phase pi / (2(N+1)) is formed, so -1
    # is the same ValueError as 0, not a ZeroDivisionError.
    for bad in (-1, 0, BASIS_CAP + 1):
        with pytest.raises(ValueError, match=f"1..{BASIS_CAP}"):
            mean_fidelity_numeric(bad)
    with pytest.raises(ValueError):
        mean_fidelity_closed(0)


def _integrand(n, phi):
    p = outcome_distribution(n, phi)
    est = np.array([estimate_phase(k, n) for k in range(n + 1)])
    return float(np.sum(p * np.cos((est - phi) / 2.0) ** 2))


def test_integrand_harmonic_structure():
    # The per-phase integrand is not constant: it equals
    # fbar(N) + 2^{-(N+1)} cos((N+1) phi) exactly.
    for n in (1, 2, 5):
        fbar = mean_fidelity_closed(n)
        for phi in np.linspace(0, 2 * math.pi, 37):
            expected = fbar + 2.0 ** -(n + 1) * math.cos((n + 1) * float(phi))
            assert abs(_integrand(n, float(phi)) - expected) < 1e-12


def test_integrand_periodicity():
    for n in (1, 3):
        period = 2.0 * math.pi / (n + 1)
        for phi in (0.1, 1.7):
            assert abs(_integrand(n, phi) - _integrand(n, phi + period)) < 1e-12


def _numeric_with_estimator_offsets(n, grid, deltas):
    # grid average of the estimation fidelity with every estimate shifted by
    # delta, one value per delta
    phis = 2.0 * math.pi * np.arange(grid) / grid + math.pi / (2.0 * (n + 1))
    p = np.array([outcome_distribution(n, float(phi)) for phi in phis])
    est = np.array([estimate_phase(k, n) for k in range(n + 1)])
    shifted = est + deltas[:, None, None] - phis[:, None]
    return np.sum(p * np.cos(shifted / 2.0) ** 2, axis=(1, 2)) / grid


def test_estimator_offset_never_improves():
    # brute-force sweep over 360 constant estimator offsets confirms the
    # estimator mapping and its sign convention
    deltas = 2.0 * math.pi * np.arange(360) / 360.0
    for n in range(1, 5):
        base, *offset = _numeric_with_estimator_offsets(n, 64, deltas)
        assert all(value <= base + 1e-12 for value in offset)


def test_dicke_weights_are_computed_once_per_n(monkeypatch):
    # Count each N's weights computed, through a fresh cache in place of the
    # kept one, which symmetric_state and both laws read.
    seen = Counter()
    weights = symmetric._dicke_weights.__wrapped__

    def counting(n):
        seen[n] += 1
        return weights(n)

    kept = functools.cache(counting)
    monkeypatch.setattr(symmetric, "_dicke_weights", kept)
    monkeypatch.setattr(povm, "_dicke_weights", kept)
    curve_table(1, 60)
    run_checks(60)
    outcome_distribution(60, 2.5)
    # Integer-like N share the weights of the int, and both laws the weights.
    mixed_coefficients(np.int64(60), 1.0)
    mixed_coefficients(np.int64(60), 0.5)
    symmetric_state(np.int64(60), 0.0)
    assert set(range(1, 61)) <= set(seen)
    assert max(seen.values()) == 1
    # Past BASIS_CAP a symmetric state is refused, and nothing is computed
    # or kept.
    size = kept.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=f"1..{BASIS_CAP}"):
            symmetric_state(BASIS_CAP + 1, 0.0)
    assert seen[BASIS_CAP + 1] == 0 and kept.cache_info().currsize == size
    with pytest.raises(TypeError):
        symmetric_state(2.0, 0.0)
    with pytest.raises(TypeError):
        mixed_coefficients(2.0, 1.0)


def test_cached_windows_are_read_only():
    # Each N's weights are kept read-only.
    with pytest.raises(ValueError):
        symmetric._dicke_weights(5)[0] = 0.0
    # What callers get to keep is fresh and writable.
    state, rows = symmetric_state(5, 0.3), outcome_rows(5, [0.3])
    state[:] = 0.0
    rows[:] = 0.0
    assert np.array_equal(symmetric_state(5, 0.3), np.abs(symmetric_state(5, 0.0)) * np.exp(0.3j * np.arange(6)))
    assert np.array_equal(outcome_rows(5, [0.3]), outcome_distribution(5, 0.3)[None])
    # The public functions stay plain functions, so tracers can wrap them.
    for fn in (symmetric_state, mixed_coefficients, outcome_rows, outcome_distribution,
               mean_fidelity_numeric, phase_estimates):
        assert inspect.isfunction(fn)


def test_law_at_eta_one_has_exact_trace():
    # The pure law is the builder's j = 0 term divided by its own trace, so
    # c_0 is 1/(N+1) to the last bit.
    for n in range(1, BASIS_CAP + 1):
        assert mixed_coefficients(n, 1.0)[0] == 1 / (n + 1), n


# SHA-256 of mixed_coefficients(N, eta): the pure law for N = 1..200 in one
# digest, and the shrunk laws at the pair gate's eta(1, 2) and the collective
# gate's eta(N, 2N); the same under numpy's AVX-512 and AVX2 loops.
PURE_COEFFICIENTS_PIN = "c5c71752c09707da94e7b31bec28a8d062c9b39643f8443ceb6336bb6c140f51"
GATE_COEFFICIENTS_PINS = {
    (1, 1): "914af3952ee56d3da47d4ad1a61b04e369178da7f7565e78f34685ddc684f1a3",
    (12, 1): "c3a60fbb0d59ee59f92f259f56fff28cf2859eeb79bb87f2b4bbce0274a2a180",
    (12, 12): "b4ede7508087b437784e026d327bdc034d6f94d7f402c672ec6a07bc6ac2c851",
    (60, 1): "bd2933cdd6b7f423fde585e03fbe3b5412f437589b8038b41f9577c1f594f9f7",
    (60, 60): "b1572e0f6bd7e6b85f15ebecd201b109d7fabed0d6f26fc0207acbd42571950a",
    (200, 1): "c06e244adb7f5ab42d6d9825a45f2ef3e37795970b34d22fcf36cf23dc19c5f5",
    (200, 200): "963d670084618fdad338bf3f606b740537b7b35801bda334a5c56b8bfc27ba04",
}


def test_mixed_coefficients_bits_pinned():
    digest = hashlib.sha256()
    for n in range(1, 201):
        digest.update(mixed_coefficients(n, 1.0).tobytes())
    assert digest.hexdigest() == PURE_COEFFICIENTS_PIN
    for (n, size), pin in GATE_COEFFICIENTS_PINS.items():
        eta = shrinking_factor(size, 2 * size).value
        assert hashlib.sha256(mixed_coefficients(n, eta).tobytes()).hexdigest() == pin, (n, size)


@pytest.mark.parametrize("n", [*range(1, 61), 100, 200])
def test_mixed_coefficients_match_dicke_recursion(n):
    for eta in (shrinking_factor(n, 2 * n).value, shrinking_factor(1, 2).value, 0.0, 0.37, 0.93):
        c, reference = mixed_coefficients(n, eta), dicke_recursion_coefficients(n, eta)
        worst = np.max(np.abs(c - reference))
        assert worst <= 2e-16, (n, eta, worst)
        # The offset sampler reads c_m / c_0, which holds to a few ulp away
        # from eta = 0 (at eta = 0 and large N, c_0 is 2^-N and the
        # Krawtchouk recurrence loses the ratios).
        if eta >= 0.37:
            worst = np.max(np.abs(c / c[0] - reference / reference[0]))
            assert worst <= 1e-14, (n, eta, worst)


def test_fixed_phase_row_at_the_cap_is_small():
    # One row is one FFT of N+1 coefficients: O(N) memory, no N^2 table.
    coeffs = mixed_coefficients(BASIS_CAP, 1.0)
    tracemalloc.start()
    try:
        row = povm.covariant_rows(coeffs, [0.3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.shape == (1, BASIS_CAP + 1)
    assert peak < 1 << 20, peak


# --- offset sampler ----------------------------------------------------------

def _offset_cdf(coeffs, theta):
    """F(theta) = (theta + pi) / 2 pi + sum_m c_m sin(m theta) / (2 pi c_0 m),
    summed directly."""
    m = np.arange(1, len(coeffs))
    sines = coeffs[1:] / (2.0 * math.pi * coeffs[0] * m)
    return (theta + math.pi) / (2.0 * math.pi) + np.sin(np.outer(theta, m)) @ sines


def _laws(n):
    yield mixed_coefficients(n, 1.0)
    yield mixed_coefficients(n, shrinking_factor(n, 2 * n).value)
    # The pair gate's full-mixed law (at N = 1 the collective one): its c_0
    # falls to 2e-74 at N = 1029, while max c_m / c_0 stays below 2.
    if n >= 2:
        yield mixed_coefficients(n, shrinking_factor(1, 2).value)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=40),
    mass=st.floats(0.5, 1.0),
    extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
)
def test_guide_search_equals_searchsorted(weights, mass, extra):
    # Nondecreasing CDFs with ties (zero-probability outcomes) and a mass
    # short of one (a full-mixed row, whose rest is perp); uniforms on every
    # bucket edge, on and next to every CDF entry, at 0 and at 1 - 2^-53.
    w = np.array(weights)
    cdf = np.cumsum(w) / w.sum() * mass if w.sum() > 0.0 else np.zeros(len(w))
    buckets = 4 * len(cdf)
    u = np.concatenate([np.arange(buckets) / buckets, cdf, np.nextafter(cdf, 0.0),
                        np.nextafter(cdf, 1.0), [0.0, 1.0 - 2.0**-53], extra])
    u = u[u < 1.0]
    m = len(u)
    found, upper = np.empty(m, dtype=np.intp), np.empty(m)
    guide_search(cdf)(u, found, upper, np.empty(m, dtype=np.intp))
    assert np.array_equal(found, np.searchsorted(cdf, u, side="right"))
    # upper is the first entry above u, or inf past the end.
    assert np.array_equal(upper, np.append(cdf, np.inf)[found])


@pytest.mark.parametrize("n", [1, 2, 12, 60, 200, 1029])
def test_offset_sampler_inverts_the_cdf(n):
    rng = np.random.default_rng(n)
    edges = np.array([0.0, 2.0**-53, 1e-13, 1e-12, 0.5, 1 - 1e-12, 1 - 1e-13, 1 - 2.0**-53])
    u = np.concatenate([edges, rng.random(2000)])
    for coeffs in _laws(n):
        theta = offset_sampler(coeffs)(u)
        assert np.all((-math.pi <= theta) & (theta <= math.pi))
        assert np.max(np.abs(_offset_cdf(coeffs, theta) - u)) <= 1e-15


def test_offset_sampler_ignores_batching():
    u = np.random.default_rng(4).random(5000)
    u[:4] = [0.0, 1e-13, 1 - 1e-13, 1 - 2.0**-53]
    for n in (1, 12, 60):
        for coeffs in _laws(n):
            sample = offset_sampler(coeffs)
            whole = sample(u)
            parts = np.split(u, [1, 2, 7, 999, 4096])
            split = np.concatenate([sample(part) for part in parts])
            assert np.array_equal(whole, split)
            # The fewest rows the sampler takes, six float and two intp, wider
            # than any part and reused from part to part, as a worker reuses
            # its workspace: nothing may read what an earlier call left.
            floats, ints = np.full((6, 4096), np.nan), np.full((2, 4096), -1, dtype=np.intp)
            reused = np.concatenate([sample(part, floats, ints).copy() for part in parts])
            assert np.array_equal(whole, reused)
            assert np.array_equal(sample(u[::-1])[::-1], whole)
            # A strided u, a draw matrix's column, is read and not written.
            draws = np.full((len(u), 4), np.nan)
            draws[:, 2] = u
            kept = draws.copy()
            assert np.array_equal(sample(draws[:, 2]), whole)
            assert np.array_equal(sample(draws[:4096, 2], floats, ints), whole[:4096])
            assert np.array_equal(draws, kept, equal_nan=True)


# SHA-256 of the output bytes of offset_sampler(coeffs)(u) for the uniforms of
# test_offset_sampler_output_is_pinned, recorded with numpy 2.4.6, and
# re-recorded where the coefficients moved by an ulp when both laws became
# one rank-one sum and again when the Dicke weights became correctly rounded
# integer roots: a rewrite of the sampler must keep every bit.
SAMPLER_PINS = {
    ("pure", 1): "decd8fa83f16b35076b9dcd81aa012c9059cf168892826382255ae6eb4fa79fc",
    ("full-mixed", 1): "e58346d0e6a2ec851e1ec76dfd0ab847742965c281a6b04c4da39a688455c4b8",
    ("pure", 2): "77cd93fdfdb3652a54204f1a924c20c1478f53ab1905d9a48477b15d461b6ce0",
    ("full-mixed", 2): "2c696607016a1a605f7ca30cf06794b8299cf424e3fda050d1d633915d7aaea3",
    ("pure", 3): "eee7d541d671d0fa0e3028553d0566dd4e847d33e7cc1f6a1df9593bd18a5037",
    ("full-mixed", 3): "36af9f8804f0c5ae6a52cbf3c4cae0ec925b37d42ca53528b2b770a38249dd3f",
    ("pure", 12): "36b8d22cd9434ad54df27113251cb6a62cc531d3fb7ef65d5d6afba917d15d61",
    ("full-mixed", 12): "d71ee83456f6155827cac72f44fc300b6b2961744df4ae72e0dcd57cb4634d04",
    ("pure", 60): "47bcc66b0f9be2529283b759217c586d8e87fe762ca5d0ceaaf371702baa5aee",
    ("full-mixed", 60): "e8e081bed97df37b7f196cccbffb24ac66eb1ed3a61b2e7bde41cc4ed55eb9e3",
    ("full-mixed", 200): "4d317a0c93a2c7575d496d8b7fb78489da82187e2ea78ebeefdba4813eb67a4d",
    ("pure", 1029): "752cfd6187a72d2c1b8ddbba87fb96fca1c4aa83665391e2eee4309c8471f5cf",
    ("full-mixed", 1029): "88f167260c814f0480c0f272d6b63486f21dd6403a0a8fc1db89861d4a3f3d26",
}


def test_offset_sampler_output_is_pinned(monkeypatch):
    edges = [0.0, 2.0**-53, 1e-13, 1e-12, 0.5, 1 - 1e-12, 1 - 1e-13, 1 - 2.0**-53, 1e-300, 5e-324]
    u = np.concatenate([edges, np.random.Generator(np.random.Philox(11)).random(20_000)])
    bisected = set()
    bisect = povm._bisect

    def recording(p, u):
        bisected.add(law)
        return bisect(p, u)

    monkeypatch.setattr(povm, "_bisect", recording)
    digests = {}
    for n in (1, 2, 3, 12, 60, 200, 1029):
        laws = {"full-mixed": mixed_coefficients(n, shrinking_factor(n, 2 * n).value)}
        if n != 200:
            laws["pure"] = mixed_coefficients(n, 1.0)
        for name, coeffs in laws.items():
            law = (name, n)
            digests[law] = hashlib.sha256(offset_sampler(coeffs)(u).tobytes()).hexdigest()
    assert digests == SAMPLER_PINS
    # The edge uniforms take the bisection fallback at N = 1 and 3.
    assert {("pure", 1), ("pure", 3)} <= bisected
