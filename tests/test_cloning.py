import math

import pytest

from eqfid.cloning import eqcm_fidelity, gcnot_fidelity, mean_fidelity_closed, shrinking_factor
from eqfid.numerics import BASIS_CAP, sqrt_binom_sum_scaled

# eta(N, inf) = S_N / 2^N, the many-copy limit of eta(N, M).
limit = sqrt_binom_sum_scaled


def test_identity_when_no_extra_copies():
    for n in range(1, 51):
        assert shrinking_factor(n, n).value == 1.0


def test_shrinking_factor_examples():
    assert abs(shrinking_factor(1, 2).value - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(shrinking_factor(2, 4).value - 0.8199552211058639) < 1e-15
    assert abs(
        shrinking_factor(2, 4).value - 2.0 * math.sqrt(2.0) / (1.0 + math.sqrt(6.0))
    ) < 1e-15
    assert abs(shrinking_factor(1, 4).value - 0.5797958971132713) < 1e-15


def test_shrinking_factor_domain_errors():
    with pytest.raises(ValueError):
        shrinking_factor(3, 2)
    with pytest.raises(ValueError):
        shrinking_factor(0, 2)
    with pytest.raises(ValueError):
        eqcm_fidelity(0)
    # A float N or M is a TypeError whatever its value.
    for args in ((0.5, 2), (1.5, 3), (1, 2.0)):
        with pytest.raises(TypeError):
            shrinking_factor(*args)


def test_limit_values():
    assert limit(1) == 0.5
    assert abs(limit(2) - math.sqrt(2.0) / 2.0) < 1e-15
    assert eqcm_fidelity(1) == (1.0 + limit(1)) / 2.0


def test_limit_consistency_large_m():
    # The finite-M value approaches the limit like (S_N/2^N) / (2M): about
    # 2.5e-5 .. 4.5e-5 at M = 1e4 and below 1e-6 only around M = 1e6.
    gaps_1e3 = []
    gaps_1e4 = []
    for n in range(1, 6):
        gaps_1e3.append(abs(shrinking_factor(n, 10**3).value - limit(n)))
        gaps_1e4.append(abs(shrinking_factor(n, 10**4).value - limit(n)))
    assert all(g < 5e-4 for g in gaps_1e3)
    assert all(g < 5e-5 for g in gaps_1e4)
    assert all(small < big / 5 for small, big in zip(gaps_1e4, gaps_1e3))


def test_limit_consistency_to_1e6():
    assert abs(shrinking_factor(2, 10**6).value - limit(2)) <= 1e-6


def test_monotone_decreasing_in_output_size():
    for n in range(1, 11):
        values = [shrinking_factor(n, m).value for m in range(n, 4 * n + 1)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)


def test_monotone_increasing_at_doubled_output():
    values = [shrinking_factor(n, 2 * n).value for n in range(1, 26)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_doubled_output_exceeds_limit():
    for n in range(1, 51):
        assert shrinking_factor(n, 2 * n).value > limit(n)


def test_cnot_fidelity_value():
    # The pairwise gate is the collective N -> 2N gate at N = 1.
    f = gcnot_fidelity(1)
    assert abs(f - 0.8535533905932738) <= 1e-12
    assert abs(f - (0.5 + 1.0 / math.sqrt(8.0))) < 1e-15
    assert abs(f - (1.0 + shrinking_factor(1, 2).value) / 2.0) < 1e-15
    assert abs(f - mean_fidelity_closed(2)) <= 1e-12


def test_gcnot_fidelity_values():
    assert gcnot_fidelity(1) == (1.0 + shrinking_factor(1, 2).value) / 2.0
    assert abs(gcnot_fidelity(2) - 0.909977610552932) < 1e-14
    for n in range(1, 51):
        # Below one: the gate's control output keeps strictly less of phi_a
        # than the untouched ensemble, fbar * f_gcnot < fbar.
        assert eqcm_fidelity(n) < gcnot_fidelity(n) < 1.0


def test_gcnot_fidelity_domain_and_bits():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            gcnot_fidelity(bad)
    # A float N is a TypeError whatever its value.
    for bad in (1.0, 0.5):
        with pytest.raises(TypeError):
            gcnot_fidelity(bad)
    # The gate reads the same eta as shrinking_factor, to the last bit, on
    # both routes of S: up to BASIS_CAP = 1029 and past it.
    for n in [*range(1, 1030), 10**4, 10**9]:
        assert gcnot_fidelity(n) == (1.0 + shrinking_factor(n, 2 * n).value) / 2.0, n


def test_eqcm_fidelity_values():
    assert eqcm_fidelity(1) == 0.75
    assert abs(eqcm_fidelity(2) - 0.8535533905932737) < 1e-14


def test_eqcm_equals_mean_estimation_fidelity():
    # The asymptotic cloner is state estimation: f_eqcm is fbar to the bit,
    # the cloner's own (1 + eta(N, inf)) / 2, on both routes of S. Halving is
    # exact, so 1/2 + eta / 2 is the same float.
    for n in [*range(1, BASIS_CAP + 3), *(10**k for k in range(4, 13))]:
        s = limit(n)
        assert eqcm_fidelity(n) == mean_fidelity_closed(n) == (1.0 + s) / 2.0 == 0.5 + s / 2.0, n


def test_mean_fidelity_closed_values():
    assert mean_fidelity_closed(1) == 0.75
    assert abs(mean_fidelity_closed(2) - 0.8535533905932737) < 1e-15
    assert abs(mean_fidelity_closed(2) - (0.5 + math.sqrt(2.0) / 4.0)) < 1e-15
    assert abs(mean_fidelity_closed(3) - 0.9040063509461096) < 1e-15
    assert abs(mean_fidelity_closed(3) - (0.5 + (3 + 2 * math.sqrt(3.0)) / 16.0)) < 1e-15


def test_mean_fidelity_closed_increasing_and_bounded():
    values = [mean_fidelity_closed(n) for n in range(1, 51)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0
