import importlib
import inspect

import pytest

import eqfid

# Read through eqfid. by bench/checks.py, bench/workloads.py and CI's
# closed-form step at N = 10^9.
BENCH_NAMES = ["outcome_distribution", "estimate_phase", "mixed_ensemble_distribution",
               "p_measurement", "p_unified_collective", "p_unified_collective_unequal",
               "shrinking_factor"]
# Public in their own modules only, until they leave src/.
RETIRED = {"sqrt_binom_sum": "numerics", "ShrinkingFactor": "cloning",
           "symmetric_state": "symmetric", "dicke_embedding": "symmetric"}


def test_all_is_sorted_unique_and_public():
    # CI's "Code size" step counts __all__.
    assert eqfid.__all__ == sorted(set(eqfid.__all__))
    for name in eqfid.__all__:
        assert not name.startswith("_")
        assert not inspect.ismodule(getattr(eqfid, name))


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_bench_names_are_exported(name):
    assert name in eqfid.__all__
    assert callable(getattr(eqfid, name))


@pytest.mark.parametrize("name, module", RETIRED.items())
def test_retired_names_stay_in_their_modules(name, module):
    assert not hasattr(eqfid, name)
    assert callable(getattr(importlib.import_module(f"eqfid.{module}"), name))
