"""Non-interference oracle: planted leaks and the expected-divergence matrix.

The planted gadgets here are the oracle's ground truth:

* a *speculative* bounds-check-bypass gadget must diverge under
  ``UnsafeBaseline`` and under no protected configuration;
* a *non-speculative* secret gadget must additionally diverge under STT
  (the scope gap of paper Section 3 that motivates SPT) while every SPT
  variant holds.
"""

import pytest

from repro.core.attack_model import AttackModel
from repro.fastpath.vector_core import VectorCore
from repro.fuzz import oracle
from repro.fuzz.generator import Gadget, generate_plan, render, secret_pair, \
    with_blocks
from repro.fuzz.oracle import (architectural_dependence, check_pair_direct,
                               classify, divergence_detail,
                               expected_to_diverge, run_traced)
from repro.harness import runner
from repro.harness.configs import CONFIGURATIONS
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams
from repro.security.observer import channel_digests, differing_channels

SPT_CONFIGS = [name for name in CONFIGURATIONS if name.startswith("SPT")]


def _planted(exposure: str):
    gadget = Gadget(exposure=exposure, transmit="line", trainings=3, widen=8,
                    in_bounds=4, secret_index=10, shift=6)
    plan = with_blocks(generate_plan(0, "quick"), [gadget])
    secrets = secret_pair(0)
    programs = tuple(render(plan, s) for s in secrets)
    assert not architectural_dependence(*programs)
    return programs


def test_unsafe_baseline_leaks_planted_speculative_gadget():
    a, b = _planted("speculative")
    for model in (AttackModel.SPECTRE, AttackModel.FUTURISTIC):
        channels = check_pair_direct(a, b, "UnsafeBaseline", model)
        assert "load-line" in channels, (
            "the secret-dependent probe load must move across cache lines")


def test_protected_configs_hold_on_speculative_gadget():
    a, b = _planted("speculative")
    for config in ["SecureBaseline", "STT", *SPT_CONFIGS]:
        for model in (AttackModel.SPECTRE, AttackModel.FUTURISTIC):
            assert not check_pair_direct(a, b, config, model), (
                f"{config}/{model.value} leaked a speculatively-accessed "
                f"secret")


def test_stt_scope_gap_on_nonspeculative_gadget():
    """STT leaks a non-speculatively accessed secret; SPT must not."""
    a, b = _planted("nonspeculative")
    assert check_pair_direct(a, b, "UnsafeBaseline", AttackModel.SPECTRE)
    assert check_pair_direct(a, b, "STT", AttackModel.SPECTRE), (
        "the planted nonspec gadget must expose STT's scope gap")
    for config in SPT_CONFIGS + ["SecureBaseline"]:
        for model in (AttackModel.SPECTRE, AttackModel.FUTURISTIC):
            assert not check_pair_direct(a, b, config, model), (
                f"{config}/{model.value} leaked a non-speculatively "
                f"accessed secret")


def test_expected_divergence_matrix():
    for exposure in ("speculative", "nonspeculative"):
        assert expected_to_diverge(exposure, "UnsafeBaseline")
    assert expected_to_diverge("nonspeculative", "STT")
    assert not expected_to_diverge("speculative", "STT")
    for config in SPT_CONFIGS + ["SecureBaseline"]:
        for exposure in ("speculative", "nonspeculative"):
            assert not expected_to_diverge(exposure, config)


def test_classify_flags_counterexamples():
    model = AttackModel.SPECTRE
    ok = classify("speculative", "SPT{Bwd,ShadowL1}", model, [])
    assert not ok.diverged and not ok.counterexample
    expected = classify("speculative", "UnsafeBaseline", model, ["load-line"])
    assert expected.diverged and expected.expected
    assert not expected.counterexample
    bad = classify("speculative", "SPT{Bwd,ShadowL1}", model, ["load-line"])
    assert bad.diverged and bad.counterexample and not bad.expected


def test_divergence_detail_shows_differing_events():
    a, b = _planted("speculative")
    detail = divergence_detail(a, b, "UnsafeBaseline", AttackModel.SPECTRE)
    assert detail.strip(), "a diverging pair must produce a visible diff"


REFERENCE = MachineParams(backend="reference")
BACKEND_CONFIGS = ["UnsafeBaseline", "STT", "SPT{Bwd,ShadowL1}"]


@pytest.mark.parametrize("profile", ["quick", "default", "hard", "deep"])
def test_oracle_is_backend_independent(profile):
    """The default (vector) oracle sees what the reference core sees."""
    for seed in range(2):
        plan = generate_plan(seed, profile)
        a, b = (render(plan, s) for s in secret_pair(seed))
        for config in BACKEND_CONFIGS:
            for model in (AttackModel.SPECTRE, AttackModel.FUTURISTIC):
                cell = f"{profile}/{seed} {config}/{model.value}"
                ref = [run_traced(p, config, model, REFERENCE) for p in (a, b)]
                vec = [run_traced(p, config, model) for p in (a, b)]
                assert [s.cycles for s in vec] == [s.cycles for s in ref], cell
                assert [s.stats for s in vec] == [s.stats for s in ref], cell
                ref_digests = [channel_digests(s.observer, s.cycles)
                               for s in ref]
                vec_digests = [channel_digests(s.observer, s.cycles)
                               for s in vec]
                assert vec_digests == ref_digests, cell
                assert (differing_channels(*vec_digests)
                        == differing_channels(*ref_digests)), cell


def test_run_traced_builds_the_core_for_the_backend(monkeypatch):
    built = []

    def spy(*args, **kwargs):
        core = build_core(*args, **kwargs)
        built.append(type(core))
        return core

    build_core = runner.build_core
    monkeypatch.setattr(runner, "build_core", spy)
    a, _ = _planted("speculative")
    run_traced(a, "UnsafeBaseline", AttackModel.SPECTRE)
    run_traced(a, "UnsafeBaseline", AttackModel.SPECTRE, REFERENCE)
    assert built == [VectorCore, OoOCore]
    # The benchmark tracer patches the name, so it must stay importable.
    assert oracle.OoOCore is OoOCore


def test_oracle_rejects_bad_exposure():
    with pytest.raises(ValueError):
        expected_to_diverge("banana", "STT")
