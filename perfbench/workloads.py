"""The benchmark's three closed-loop workloads.

Every workload runs in one thread with the fleet inline, takes its
seed from the command line and hands the program only inputs made
from that seed.  ``setup()`` is what a user pays before the first
decision; each ``run_pass()`` is one timed pass of the closed loop,
repeated until the run's seconds are used up.  Passes of one run
repeat identical work, so their digests must agree with each other
and, for seeds in ``expected.json``, with the recorded ones.

* ``campaign``: train an OnSlicing snapshot on ``default``, serve it
  to a 16-cell fleet cycling the robustness matrix with the default
  SLOs and a checkpoint, then diagnose that checkpoint.  Cells hold
  3-6 slices, so serving pays per-call overhead (the Eq.-8 check runs
  on ~3 rows per call).
* ``serve_wide``: one 50-slice ``flash_crowd`` cell through
  ``LoadGenerator.run`` with an SLO evaluator; each call carries 50
  rows and about a third of decisions fall back to pi_b.
* ``sweep``: ``run_episodes`` over 512 worlds cycling the robustness
  matrix under the rule-based pi_b; no serving and no learning.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

# Probed functions are called through their modules (fleet.run_fleet,
# harness.run_episodes, ...) so the traced run's wrappers are seen.
import repro.fleet as fleet
import repro.obs.diagnose as diagnose
import repro.serve as serve
from repro.config import ExperimentConfig
from repro.engine.policies import RuleBasedBatchPolicy
from repro.experiments import harness
from repro.obs.slo import SloEvaluator, default_slo_spec
from repro.runtime.cache import configure_shared_cache
from repro.scenarios import ROBUSTNESS_MATRIX
from repro.scenarios import get as get_scenario
from repro.serve import LoadGenerator, PolicyStore
from repro.sim.network import CONSTRAINED_RESOURCES

#: Workload sizes.  ``full`` is what the benchmark measures; ``smoke``
#: is the self-test's tiny size (no recorded digests).
SIZES = {
    "full": {"train_scale": 0.1, "cells": 16, "fleet_slots": None,
             "wide_slices": 50, "wide_episodes": 2, "worlds": 512,
             "sweep_slots": None},
    "smoke": {"train_scale": 0.01, "cells": 2, "fleet_slots": 4,
              "wide_slices": 8, "wide_episodes": 1, "worlds": 8,
              "sweep_slots": 4},
}

#: How far a constrained resource's total share across slices may
#: exceed 1: ``SlicingService`` stops its price iteration once totals
#: are within its coordination tolerance (1e-3 by default) and
#: projects only beyond it.
CAPACITY_SLACK = 1e-3

clock = time.perf_counter


@dataclass
class Tally:
    """What the passes of one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Per pass: rescaled and raw wall time of the pass.
    pass_s: List[float] = field(default_factory=list)
    pass_raw_s: List[float] = field(default_factory=list)
    #: Per pass: decisions per second of its serving / stepping phase
    #: (rescaled).
    pass_dps: List[float] = field(default_factory=list)
    #: Decide-batch timings (ms, rescaled and raw), pooled over passes.
    decide_ms: List[float] = field(default_factory=list)
    decide_raw_ms: List[float] = field(default_factory=list)
    setup_raw_s: float = 0.0
    sla_pairs: int = 0
    sla_violations: int = 0
    usage_sum: float = 0.0
    fallbacks: int = 0
    service_decisions: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    #: Traced runs: top-level and summed self seconds of timed calls.
    trace_accounting: Dict[str, float] = field(default_factory=dict)

    def fail(self, decisions: int, message: str) -> None:
        self.failed += decisions
        self.errors.append(message)

    def fallback_pct(self) -> float:
        """Share of service decisions served by pi_b."""
        if not self.service_decisions:
            return 0.0
        return 100.0 * self.fallbacks / self.service_decisions


def _record_latencies(tally: Tally, speed, samples) -> None:
    """Pool one pass's ``(start, end)`` call timings, raw and rescaled
    by the machine speed measured next to them."""
    tally.decide_ms.extend(speed.seconds(start, end) * 1e3
                           for start, end in samples)
    tally.decide_raw_ms.extend((end - start) * 1e3
                               for start, end in samples)


def _record_pass(tally: Tally, speed, start: float, end: float) -> float:
    """Record one pass's wall time; returns it rescaled."""
    elapsed = speed.seconds(start, end)
    tally.pass_s.append(elapsed)
    tally.pass_raw_s.append(end - start)
    return elapsed


def check_digests(tally: Tally, found: Dict[str, str],
                  expected: Optional[Dict[str, str]],
                  decisions: int) -> None:
    """Compare one pass's digests with the first pass's and with the
    recorded ones; a mismatch fails every decision of the pass."""
    for name, value in sorted(found.items()):
        first = tally.digests.setdefault(name, value)
        if value != first:
            tally.fail(decisions, f"{name} digest differs between passes "
                       f"({value[:12]} != {first[:12]})")
        if expected is not None and expected.get(name) != value:
            tally.fail(decisions, f"{name} digest {value[:12]} != "
                       f"recorded {str(expected.get(name))[:12]}")


class Workload:
    """Base: ``setup()`` once, then timed ``run_pass()`` calls."""

    name = ""

    def __init__(self, seed: int, size: Dict, workdir: str,
                 expected: Optional[Dict[str, str]], speed) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.expected = expected
        #: The run's :class:`speed.SpeedClock`; rescales timed intervals.
        self.speed = speed

    def setup(self) -> None:
        """Work done once before the first timed pass."""

    def prepare(self) -> None:
        """Untimed work before each pass (fresh state, same inputs)."""

    def run_pass(self, tally: Tally) -> None:
        raise NotImplementedError


class Campaign(Workload):
    """Train -> 16-cell fleet (SLOs, checkpoint) -> diagnose."""

    name = "campaign"

    def prepare(self) -> None:
        # training memoises the rule-based grid search in the
        # process-wide result cache; a fresh one makes every pass fit
        # it again, as a fresh process would
        configure_shared_cache(None)

    def run_pass(self, tally: Tally) -> None:
        size = self.size
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        checkpoint_path = os.path.join(store_dir, "fleet.jsonl")
        slo = default_slo_spec()
        spec = fleet.FleetSpec(name="perfbench", cells=size["cells"],
                               slots=size["fleet_slots"], seed=self.seed)
        start = clock()
        snapshot = serve.train_snapshot(
            "onslicing", "default", scale=size["train_scale"],
            seed=self.seed, store=PolicyStore(store_dir))
        trained = clock()
        with _SlotTimer(self.speed, tally) as timer:
            report = fleet.run_fleet(spec, store_dir,
                                     snapshot_ref=snapshot.ref, shards=1,
                                     checkpoint_path=checkpoint_path,
                                     slo=slo)
        served = clock()
        checkpoint = fleet.load_checkpoint(checkpoint_path)
        diagnosis = diagnose.diagnose_fleet(
            checkpoint.results.values(), slo, fleet=spec.name,
            snapshot_ref=checkpoint.snapshot_ref,
            snapshot_digest=checkpoint.snapshot_digest)
        diagnosis_digest = diagnosis.digest()
        done = clock()

        cells = [cell for result in checkpoint.results.values()
                 for cell in result.cells]
        decisions = sum(cell.decisions for cell in cells)
        tally.attempted += decisions
        _record_pass(tally, self.speed, start, done)
        tally.pass_dps.append(decisions
                              / self.speed.seconds(trained, served))
        timer.check()
        for cell in cells:
            pairs = cell.slices * cell.episodes
            tally.sla_pairs += pairs
            tally.sla_violations += round(cell.violation_rate * pairs)
            tally.usage_sum += cell.mean_usage * pairs
            tally.fallbacks += cell.fallbacks
            tally.service_decisions += cell.decisions
            if not (np.isfinite(cell.violation_rate)
                    and np.isfinite(cell.mean_usage)):
                tally.fail(cell.decisions,
                           f"cell {cell.cell}: non-finite outcome")
        replayed = fleet.report_from_checkpoint(checkpoint).digest
        if replayed != report.digest:
            tally.fail(decisions, "fleet digest differs from its "
                       "checkpoint replay")
        check_digests(tally, {"snapshot": snapshot.digest,
                              "fleet": report.digest,
                              "diagnosis": diagnosis_digest},
                      self.expected, decisions)


class ServeWide(Workload):
    """One 50-slice flash_crowd cell through ``LoadGenerator.run``."""

    name = "serve_wide"

    def setup(self) -> None:
        store = PolicyStore(tempfile.mkdtemp(prefix="store-",
                                             dir=self.workdir))
        trained = serve.train_snapshot(
            "onslicing", "default", scale=self.size["train_scale"],
            seed=self.seed, store=store)
        self.snapshot = store.load(trained.ref)

    def prepare(self) -> None:
        self.generator = LoadGenerator(
            self.snapshot, "flash_crowd",
            slices=self.size["wide_slices"], seed=self.seed,
            slo=SloEvaluator(default_slo_spec()))

    def run_pass(self, tally: Tally) -> None:
        start = clock()
        with _SlotTimer(self.speed, tally) as timer:
            report = self.generator.run(
                episodes=self.size["wide_episodes"])
        elapsed = _record_pass(tally, self.speed, start, clock())

        tally.attempted += report.decisions
        tally.pass_dps.append(report.decisions / elapsed)
        pairs = report.slices * report.episodes
        tally.sla_pairs += pairs
        tally.sla_violations += round(report.violation_rate * pairs)
        tally.usage_sum += report.mean_usage * pairs
        tally.fallbacks += report.fallbacks
        tally.service_decisions += report.decisions
        timer.check()
        check_digests(tally, {"decisions": report.decision_digest},
                      self.expected, report.decisions)


class _SlotTimer:
    """Times every ``LoadGenerator.serve_slot`` call -- one
    ``SlicingService.decide`` batch of one cell -- and checks the
    actions it returns."""

    def __init__(self, speed, tally: Tally) -> None:
        self.speed = speed
        self.tally = tally
        self.samples: List = []
        self.bad = 0

    def __enter__(self) -> "_SlotTimer":
        self._original = original = LoadGenerator.__dict__["serve_slot"]

        def timed(generator):
            t0 = clock()
            actions = original(generator)
            self.samples.append((t0, clock()))
            if not _within_capacity(actions):
                self.bad += len(actions)
            return actions

        LoadGenerator.serve_slot = timed
        return self

    def __exit__(self, *exc) -> bool:
        LoadGenerator.serve_slot = self._original
        return False

    def check(self) -> None:
        """Record the timings; fail the decisions of bad slots."""
        _record_latencies(self.tally, self.speed, self.samples)
        if self.bad:
            self.tally.fail(self.bad, f"{self.bad} actions non-finite "
                            "or over capacity")


def _within_capacity(actions: Dict[str, np.ndarray]) -> bool:
    """Every action finite, every constrained resource's total share
    across slices at most 1."""
    matrix = np.stack([np.asarray(a, dtype=float)
                       for a in actions.values()])
    if not np.all(np.isfinite(matrix)):
        return False
    columns = list(CONSTRAINED_RESOURCES.values())
    return bool(np.all(matrix[:, columns].sum(axis=0)
                       <= 1.0 + CAPACITY_SLACK))


class _TimedPolicy:
    """Times each ``act_batch`` call: one decision batch of every
    world's rows."""

    def __init__(self, policy) -> None:
        self.policy = policy
        self.samples: List = []

    def act_batch(self, states, slice_names):
        t0 = clock()
        actions = self.policy.act_batch(states, slice_names)
        self.samples.append((t0, clock()))
        return actions


class Sweep(Workload):
    """``run_episodes`` over 512 worlds under the rule-based pi_b."""

    name = "sweep"

    def setup(self) -> None:
        self.policies = harness.fit_baselines(ExperimentConfig())
        self.prepare()

    def prepare(self) -> None:
        # run_episodes consumes the worlds' RNG streams, so every pass
        # gets freshly built worlds from the same seeds
        worlds = []
        self.configs = []
        for index in range(self.size["worlds"]):
            spec = get_scenario(
                ROBUSTNESS_MATRIX[index % len(ROBUSTNESS_MATRIX)])
            # FleetSpec's per-cell shaping shortens the horizon
            spec = fleet.FleetSpec(
                name="sweep", slots=self.size["sweep_slots"]
            ).cell_scenario(spec)
            cfg = spec.build_config(
                seed=fleet.derive_cell_seed(self.seed, index))
            self.configs.append(cfg)
            worlds.append(spec.build_simulator(
                cfg, rng=np.random.default_rng(cfg.seed)))
        self.simulators = worlds

    def run_pass(self, tally: Tally) -> None:
        simulators = self.simulators
        policy = _TimedPolicy(RuleBasedBatchPolicy(self.policies))
        start = clock()
        results = harness.run_episodes(simulators, policy, episodes=1)
        elapsed = _record_pass(tally, self.speed, start, clock())

        sha = hashlib.sha256()
        decisions = 0
        bad = 0
        for sim, cfg, world in zip(simulators, self.configs, results):
            horizon = sim.horizon
            for totals in world:
                decisions += horizon * len(totals)
                for spec in cfg.slices:
                    cost = totals[spec.name]["cost"]
                    usage = totals[spec.name]["usage"]
                    sha.update(spec.name.encode("utf-8"))
                    sha.update(np.array([cost, usage]).tobytes())
                    if not (np.isfinite(cost) and np.isfinite(usage)
                            and cost >= 0.0 and usage >= 0.0):
                        bad += horizon
                    tally.sla_pairs += 1
                    tally.sla_violations += int(
                        cost / horizon > spec.sla.cost_threshold)
                    tally.usage_sum += usage / horizon
        tally.attempted += decisions
        tally.pass_dps.append(decisions / elapsed)
        _record_latencies(tally, self.speed, policy.samples)
        if bad:
            tally.fail(bad, "episode totals non-finite or negative")
        check_digests(tally, {"totals": sha.hexdigest()}, self.expected,
                      decisions)


WORKLOADS = {cls.name: cls for cls in (Campaign, ServeWide, Sweep)}
