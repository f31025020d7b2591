"""Tests for the sweep planner behind ``run_many`` (``repro.serve.planner``)."""

import pytest

from repro.core.attack_model import AttackModel
from repro.harness.parallel import RunSpec, run_many
from repro.serve.planner import plan_sweep

BUDGET = 300


def specs_with_duplicates():
    spec = RunSpec("xz", "STT", max_instructions=BUDGET)
    other = RunSpec("mcf", "UnsafeBaseline", max_instructions=BUDGET)
    return [spec, other, spec, other, spec]


def test_dedup_one_miss_per_distinct_key():
    plan = plan_sweep(specs_with_duplicates(), use_cache=False)
    assert plan.unique_cells == 2
    assert len(plan.miss_specs) == 2


def test_model_independent_configs_share_a_cell():
    """UnsafeBaseline keys identically under both attack models."""
    plan = plan_sweep(
        [RunSpec("xz", "UnsafeBaseline", AttackModel.FUTURISTIC,
                 max_instructions=BUDGET),
         RunSpec("xz", "UnsafeBaseline", AttackModel.SPECTRE,
                 max_instructions=BUDGET)],
        use_cache=False)
    assert plan.unique_cells == 1
    assert len(plan.miss_specs) == 1


def test_results_come_back_in_spec_order():
    specs = specs_with_duplicates()
    plan = plan_sweep(specs, use_cache=False)
    for key, spec in zip(plan.miss_keys, plan.miss_specs):
        plan.record(key, f"result-for-{spec.workload}")
    assert plan.results() == ["result-for-xz", "result-for-mcf",
                              "result-for-xz", "result-for-mcf",
                              "result-for-xz"]


def test_incomplete_plan_raises():
    plan = plan_sweep(specs_with_duplicates(), use_cache=False)
    plan.record(plan.miss_keys[0], "only one")
    with pytest.raises(RuntimeError, match="incomplete"):
        plan.results()


def test_cache_prefill_marks_hits():
    spec = RunSpec("mcf", "UnsafeBaseline", max_instructions=BUDGET)
    run_many([spec], jobs=1, use_cache=True)          # populate disk cache
    plan = plan_sweep([spec, spec], use_cache=True)
    assert not plan.miss_specs
    results = plan.results()
    assert results[0].workload == "mcf"
    assert results[0] is results[1]
