"""The benchmark's three workloads, driven through repro's public entry points.

Each workload has a set-up (the program builds), a timed body, a warm
re-render that answers the same request again from what the body left
behind, and a check of the body's outputs.  The timed parts return raw
results; the checks run outside the timed region.

Why these three: every layer does most of its work in one of them and
little in another (README.md has the layer-by-workload table).

* ``paper-grid`` — the cold Figure-7 sweep over memory-bound (mcf,
  bwaves), branchy (gcc, xz), compute-dense (namd) and constant-time
  (chacha20, djbsort) kernels: long simulations of fixed programs, so the
  pipeline, the engines and the memory model dominate, and the slowest
  cell bounds the pool's last wave.
* ``fuzz-campaign`` — a leakage campaign: many short, squash-heavy
  simulations of new programs, so plan generation, validation, core
  construction, digests, key hashing, cache stores and pool IPC get their
  largest share.
* ``crosscheck`` — the symbolic checker against the concrete oracle,
  serially in-process under UnsafeBaseline only: the only workload that
  runs ``repro.verify``, and the control on which harness, engine and
  backend-default changes should show no change.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.core.attack_model import AttackModel
from repro.experiments import figure7, figure8, figure9
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.generator import (generate_plan, render, secret_pair,
                                  workload_name)
from repro.fuzz.oracle import FUZZ_BUDGET
from repro.fuzz.report import render_report
from repro.harness import cache
from repro.harness.configs import FIGURE7_ORDER
from repro.isa.interpreter import run_program
from repro.verify.crosscheck import (CrossCheckRecord, CrossCheckReport,
                                     classify_agreement, cross_check_seeds)
from repro.verify.report import render_crosscheck
from repro.verify.targets import check_plan
from repro.workloads.registry import WORKLOADS
from repro.workloads.registry import get as get_workload

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

GRID_WORKLOADS = ("mcf", "bwaves", "gcc", "xz", "namd", "chacha20",
                  "djbsort")
GRID_MODELS = (AttackModel.FUTURISTIC, AttackModel.SPECTRE)
GRID_BUDGET = 500

FUZZ_PROFILE = "default"
CROSSCHECK_PROFILES = ("quick", "default", "hard", "deep")

# Run ``--seed n`` draws its victims from seed ``n * SEED_STRIDE`` on, so
# runs with different seeds never share a victim.
SEED_STRIDE = 10_000

FUZZ_QUOTA = 3_500          # weighted instructions per fuzz-campaign body
FUZZ_MIN_SEEDS = 4
VICTIM_CHARGE = 150
CROSSCHECK_ROUNDS = 10      # seeds per profile per crosscheck body


def cell_digest(result) -> str:
    """Digest of one simulation's deterministic output."""
    payload = json.dumps([result.cycles, result.retired, result.stats,
                          result.trace_digests], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def executed_instructions(cache_dir: str) -> int:
    """Retired instructions over every simulation stored in ``cache_dir``.

    A body's cache starts empty, so its entries are exactly the
    simulations the body executed.
    """
    total = 0
    for name in os.listdir(cache_dir):
        if name.endswith(".json"):
            with open(os.path.join(cache_dir, name)) as handle:
                total += json.load(handle)["retired"]
    return total


@dataclass
class Outcome:
    """A checked body: operations attempted, failures, work done."""

    ops: int
    failures: list = field(default_factory=list)
    instructions: int = 0
    summary: object = None      # compared between runs of one input


class Workload:
    """Common shape; subclasses fill in the four phases."""

    name = ""
    nominal_body_s = 1.0
    rerender_repeats = 1

    def __init__(self, seed: int, jobs: int, bodies: int):
        self.seed = seed
        self.jobs = jobs
        self.bodies = bodies

    def describe(self) -> dict:
        return {}

    def invalid_ratio(self, raw) -> float:
        return 0.0

    def check_run(self, outcomes: list) -> list:
        """Failures visible only over all of a run's bodies."""
        return []


class PaperGrid(Workload):
    """The cold Figure-7 sweep, then Figures 7-9 and the headline, warm.

    The seed does not change this workload: its inputs are the fixed
    kernels, so every body repeats the same sweep on a fresh cache.
    """

    name = "paper-grid"
    nominal_body_s = 7.0
    rerender_repeats = 10

    def setup(self, recorder) -> None:
        for workload in GRID_WORKLOADS:
            with recorder.span("workloads.build"):
                get_workload(workload).program(1)

    def run_body(self, index: int, recorder):
        with recorder.span("experiments.collect"):
            return figure7.collect(GRID_WORKLOADS, budget=GRID_BUDGET,
                                   models=GRID_MODELS, jobs=self.jobs,
                                   use_cache=True)

    def cells(self) -> dict:
        """``{workload|config|model: digest}`` read back from the cache."""
        out = {}
        for spec in figure7.specs(GRID_WORKLOADS, FIGURE7_ORDER,
                                  GRID_MODELS, 1, GRID_BUDGET):
            result = cache.load(spec.key())
            name = f"{spec.workload}|{spec.config}|{spec.model.value}"
            out[name] = cell_digest(result) if result else "missing"
        return out

    def check_body(self, index: int, data, cache_dir: str) -> Outcome:
        cells = self.cells()
        headline = figure7.headline(data)
        failures = check_grid(cells, headline, load_reference())
        return Outcome(ops=len(cells) + 1, failures=failures,
                       instructions=executed_instructions(cache_dir),
                       summary={"cells": cells, "headline": headline,
                                "times": _times(data)})

    def run_rerender(self, index: int, recorder, cold_raw):
        spec_names = [w for w in GRID_WORKLOADS
                      if WORKLOADS[w].category == "spec"]
        with recorder.span("experiments.collect"):
            data7 = figure7.collect(GRID_WORKLOADS, budget=GRID_BUDGET,
                                    models=GRID_MODELS, jobs=self.jobs,
                                    use_cache=True)
        with recorder.span("experiments.render"):
            headline = figure7.headline(data7)
            text = [figure7.render(data7), figure7.render_headline(headline)]
        with recorder.span("experiments.collect"):
            data8 = figure8.collect(GRID_WORKLOADS, models=GRID_MODELS,
                                    budget=GRID_BUDGET, jobs=self.jobs,
                                    use_cache=True)
            data9 = figure9.collect(spec_names, budget=GRID_BUDGET,
                                    jobs=self.jobs, use_cache=True)
        with recorder.span("experiments.render"):
            text += [figure8.render(data8), figure9.render(data9)]
        return {"times": _times(data7), "headline": headline, "text": text}

    def check_rerender(self, warm, cold: Outcome) -> list:
        failures = []
        if warm["times"] != cold.summary["times"]:
            failures.append("warm Figure 7 differs from the cold sweep")
        if warm["headline"] != cold.summary["headline"]:
            failures.append("warm headline differs from the cold sweep")
        return failures

    def describe(self) -> dict:
        return {"workloads": list(GRID_WORKLOADS), "budget": GRID_BUDGET,
                "configs": ["UnsafeBaseline"] + FIGURE7_ORDER,
                "models": [m.value for m in GRID_MODELS]}


def _times(data) -> dict:
    return {f"{model.value}|{workload}|{config}": value
            for (model, workload, config), value in sorted(
                data.times.items(), key=lambda item: str(item[0]))}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def check_grid(cells: dict, headline: dict, reference: dict) -> list:
    """Failures of a paper-grid result against the committed reference."""
    failures = [f"cell {name}: digest {cells.get(name)} != {digest}"
                for name, digest in sorted(reference["cells"].items())
                if cells.get(name) != digest]
    failures += [f"cell {name}: not in the reference"
                 for name in sorted(set(cells) - set(reference["cells"]))]
    if json.loads(json.dumps(headline)) != reference["headline"]:
        failures.append("Section 9.2 headline differs from the reference")
    return failures


class FuzzCampaign(Workload):
    """``run_campaign`` over a seed range: all 8 configs x both models.

    Body ``i`` takes the ``i``-th window of consecutive victims from the
    seed start whose golden-interpreter instruction counts, plus a fixed
    charge per victim for its simulations' set-up, reach the quota, and
    at least ``FUZZ_MIN_SEEDS`` victims.
    Victim sizes vary about tenfold, so a fixed victim count would make a
    body's length depend on the seed far more than on the code.
    """

    name = "fuzz-campaign"
    nominal_body_s = 6.0
    rerender_repeats = 5

    def setup(self, recorder) -> None:
        self.windows = []
        cursor = self.seed * SEED_STRIDE
        for _ in range(self.bodies):
            start, weight = cursor, 0
            while weight < FUZZ_QUOTA or cursor - start < FUZZ_MIN_SEEDS:
                # Built through the registry, as the pool workers resolve
                # the victims: they inherit these builds.
                with recorder.span("workloads.build"):
                    programs = [
                        get_workload(workload_name(FUZZ_PROFILE, cursor,
                                                   secret)).program(1)
                        for secret in secret_pair(cursor)]
                weight += VICTIM_CHARGE + run_program(
                    programs[0], max_instructions=FUZZ_BUDGET).retired
                cursor += 1
            self.windows.append((start, cursor - start))

    def describe(self) -> dict:
        return {"profile": FUZZ_PROFILE, "quota": FUZZ_QUOTA,
                "min_seeds": FUZZ_MIN_SEEDS, "victim_charge": VICTIM_CHARGE,
                "windows": self.windows}

    def config(self, index: int) -> CampaignConfig:
        start, count = self.windows[index]
        return CampaignConfig(seeds=count, seed_start=start,
                              profile=FUZZ_PROFILE, jobs=self.jobs,
                              use_cache=True)

    def run_body(self, index: int, recorder):
        with recorder.span("fuzz.campaign"):
            return run_campaign(self.config(index))

    def check_body(self, index: int, report, cache_dir: str) -> Outcome:
        failures = [f"counterexample: seed {record['seed']} under "
                    f"{record['config']}/{record['model']}"
                    for record in report.counterexamples]
        return Outcome(ops=report.cells_checked + len(report.invalid_seeds),
                       failures=failures,
                       instructions=executed_instructions(cache_dir),
                       summary=_campaign_summary(report))

    def run_rerender(self, index: int, recorder, cold_raw):
        with recorder.span("fuzz.campaign"):
            report = run_campaign(self.config(index))
        with recorder.span("fuzz.render"):
            render_report(report)
        return report

    def invalid_ratio(self, report) -> float:
        return len(report.invalid_seeds) / max(1, report.seeds_requested)

    def check_run(self, outcomes: list) -> list:
        # About one default-profile victim in five never diverges under
        # UnsafeBaseline, so the sanity check covers the run's campaigns
        # together, as one campaign over all its victims.
        if not any(outcome.summary["unsafe"] for outcome in outcomes):
            return ["no UnsafeBaseline sanity divergence"]
        return []

    def check_rerender(self, warm, cold: Outcome) -> list:
        if _campaign_summary(warm) != cold.summary:
            return ["warm campaign differs from the cold campaign"]
        return []


def _campaign_summary(report) -> dict:
    return {"cells": report.cells_checked,
            "by_config": report.divergences_by_config,
            "by_channel": report.divergences_by_channel,
            "expected": report.expected_divergences,
            "unsafe": report.unsafe_divergences,
            "invalid": report.invalid_seeds,
            "counterexamples": len(report.counterexamples)}


class CrossCheck(Workload):
    """``cross_check_seeds`` round-robin over four generator profiles.

    Body ``i`` checks ``CROSSCHECK_ROUNDS`` consecutive seeds under each
    profile, from seed start ``+ i * CROSSCHECK_ROUNDS``.  A fixed mix of
    profiles keeps a body's length steady across seeds; generating and
    rendering the plans is part of the body, as in ``repro verify
    crosscheck``, so set-up is only imports and the fingerprint.
    """

    name = "crosscheck"
    nominal_body_s = 3.0

    def setup(self, recorder) -> None:
        first = self.seed * SEED_STRIDE
        self.windows = [
            [(seed, profile) for seed in range(
                first + i * CROSSCHECK_ROUNDS,
                first + (i + 1) * CROSSCHECK_ROUNDS)
             for profile in CROSSCHECK_PROFILES]
            for i in range(self.bodies)]

    def describe(self) -> dict:
        return {"profiles": list(CROSSCHECK_PROFILES),
                "rounds": CROSSCHECK_ROUNDS,
                "windows": [[w[0][0], w[-1][0]] for w in self.windows]}

    def run_body(self, index: int, recorder):
        records = []
        for seed, profile in self.windows[index]:
            with recorder.span("verify.crosscheck"):
                records += cross_check_seeds(1, profile,
                                             seed_start=seed).records
        return records

    def check_body(self, index: int, records, cache_dir: str) -> Outcome:
        failures = [f"oracle disagreement: seed {r.seed} ({r.profile}): "
                    f"{r.classification}" for r in records if r.disagreement]
        # The concrete side simulates both renderings under UnsafeBaseline,
        # and a halted run retires exactly its architectural stream.
        instructions = sum(
            run_program(render(generate_plan(seed, profile), secret),
                        max_instructions=FUZZ_BUDGET).retired
            for seed, profile in self.windows[index]
            for secret in secret_pair(seed))
        return Outcome(ops=len(records), failures=failures,
                       instructions=instructions,
                       summary=[r.to_json() for r in records])

    def run_rerender(self, index: int, recorder, cold_raw):
        """Replay the body's plans with their concrete verdicts kept.

        As ``cross_check_corpus`` does for a campaign corpus: only the
        symbolic side runs again, then the agreement table is rendered.
        """
        records = []
        for cold in cold_raw:
            with recorder.span("fuzz.generate"):
                plan = generate_plan(cold.seed, cold.profile)
            with recorder.span("verify.symbolic"):
                symbolic = check_plan(plan)
            classification, detail = classify_agreement(
                symbolic, cold.concrete_diverged)
            records.append(CrossCheckRecord(
                cold.seed, cold.profile, symbolic.verdict,
                cold.concrete_diverged, cold.channels, classification,
                detail))
        with recorder.span("verify.render"):
            render_crosscheck(CrossCheckReport(records=records))
        return records

    def check_rerender(self, warm, cold: Outcome) -> list:
        if [r.to_json() for r in warm] != cold.summary:
            return ["replayed cross-check differs from the cold one"]
        return []


WORKLOAD_CLASSES = {cls.name: cls for cls in (PaperGrid, FuzzCampaign,
                                              CrossCheck)}
