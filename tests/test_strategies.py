import math

import numpy as np
import pytest

from eqfid.cloning import gcnot_fidelity, mean_fidelity_closed
from eqfid.strategies import (
    curve_table,
    p_cloning,
    p_measurement,
    p_unified_collective,
    p_unified_collective_unequal,
    p_unified_pair,
)
from eqfid.verify import run_checks


def test_p_measurement_values():
    assert p_measurement(1) == 0.5625
    assert abs(p_measurement(2) - 0.7285533905932737) < 1e-14


def test_p_cloning_values():
    assert p_cloning(1) == 0.5625
    assert abs(p_cloning(3) - 0.8172274825509006) < 1e-14


def test_measurement_cloning_equivalence():
    for n in range(1, 51):
        assert abs(p_measurement(n) - p_cloning(n)) <= 1e-12


def test_p_unified_pair_values():
    assert abs(p_unified_pair(1) - 0.6401650429449552) < 1e-14
    assert abs(p_unified_pair(3) - 0.7716176859679048) < 1e-14
    assert p_unified_pair(3) < p_measurement(3)


def test_pairwise_crossover():
    gain = p_unified_pair(1) - p_measurement(1)
    assert abs(gain - 0.0776650429449552) < 1e-14
    assert abs(p_unified_pair(2) - p_measurement(2)) <= 1e-12
    for n in range(3, 51):
        assert p_unified_pair(n) < p_measurement(n)


def test_pair_ties_measurement_at_two_bit_for_bit():
    # verify checks the N = 2 tie with ==: fbar(2) and f_gcnot(1) are the
    # same float, so fbar(2) f_gcnot(1) and fbar(2)^2 are too.
    assert mean_fidelity_closed(2) == gcnot_fidelity(1)
    assert p_unified_pair(2) == p_measurement(2)


def test_p_unified_collective_values():
    assert p_unified_collective(1) == p_unified_pair(1)
    assert abs(p_unified_collective(2) - 0.7767144748514208) < 1e-14


def test_collective_always_superior():
    for n in range(1, 51):
        assert p_unified_collective(n) > p_measurement(n)


def test_sequences_increase_and_gap_shrinks():
    meas = [p_measurement(n) for n in range(1, 51)]
    coll = [p_unified_collective(n) for n in range(1, 51)]
    assert all(b > a for a, b in zip(meas, meas[1:]))
    assert all(b > a for a, b in zip(coll, coll[1:]))
    assert coll[49] - meas[49] < coll[4] - meas[4]


def test_unequal_reduces_to_symmetric_case():
    for n in (1, 2, 5, 12):
        assert p_unified_collective_unequal(n, n) == p_unified_collective(n)


def test_unequal_example_and_symmetry():
    value = p_unified_collective_unequal(1, 3)
    assert abs(value - 0.5924234614174767) < 1e-14
    expected = 0.75 * (1.0 + 0.5797958971132713) / 2.0
    assert abs(value - expected) < 1e-14
    assert p_unified_collective_unequal(3, 1) == value


def test_unequal_domain_errors():
    with pytest.raises(ValueError):
        p_unified_collective_unequal(0, 3)
    with pytest.raises(ValueError):
        p_unified_collective_unequal(3, 0)
    for args in ((0.5, 3), (3, 0.5), (2.0, 3)):
        with pytest.raises(TypeError):
            p_unified_collective_unequal(*args)


def test_unequal_comparison_table_is_exploratory():
    # not asserted against anything analytic, just emitted magnitudes
    for n_a, n_b in ((1, 3), (2, 5), (4, 4)):
        value = p_unified_collective_unequal(n_a, n_b)
        assert 0.0 < value <= 1.0


def test_curve_table_single_point():
    (point,) = curve_table(1, 1)
    assert point.n_copies == 1
    assert point.f_bar == 0.75
    assert point.p_measurement == 0.5625
    assert abs(point.p_unified_pair - 0.6401650429449552) < 1e-14


def test_curve_table_rows_and_ordering():
    points = curve_table(1, 10)
    assert len(points) == 10
    assert [p.n_copies for p in points] == list(range(1, 11))
    for p in points:
        assert p.p_unified_collective > p.p_measurement


def test_curve_table_range_errors():
    for bad in ((0, 5), (5, 2), (1, 61)):
        with pytest.raises(ValueError):
            curve_table(*bad)


def test_float_bounds_are_type_errors():
    # The bounds are coerced before they are compared, so a float is a
    # TypeError whatever its value, below 1 too, as in every one-N function.
    for bad in (0.5, 1.5, 2.0):
        with pytest.raises(TypeError):
            curve_table(bad, 3)
        with pytest.raises(TypeError):
            curve_table(1, bad)
        with pytest.raises(TypeError):
            run_checks(bad)
    assert curve_table(np.int64(1), np.int64(60)) == curve_table(1, 60)
    assert run_checks(np.int64(60)) == run_checks(60)


def test_curve_table_full_range():
    points = curve_table(1, 60)
    assert len(points) == 60
    assert points[-1].f_gcnot > points[-1].f_bar
    assert math.isfinite(points[-1].p_unified_collective)
