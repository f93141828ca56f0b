"""Per-layer call timing for the traced benchmark run.

The traced run wraps public entry points of every ``repro`` layer from
the benchmark's own code -- nothing inside ``src/`` is edited.  Each
wrapper records calls, busy seconds, the part of those seconds spent
in other wrapped calls (so self time is busy time minus timed
children) and, where the call takes a batch, the rows it carried.
The engine's own ``engine.*`` stage spans come from the program's
tracer, which only the traced run switches on.

The table below is also the record of which end-to-end metric each
per-layer metric should move, on which workload.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Engine stage spans the program already emits inside
#: ``BatchSimulator.step``; read from its tracer in the traced run.
ENGINE_STAGES = ("events", "channels", "arrivals", "kernel", "commit")


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``owner.attr`` timed under ``name``."""

    name: str
    module: str
    owner: Optional[str]          # class name, or None for a function
    attr: str
    rows: Optional[Callable] = None   # (args, kwargs) -> batch rows


def _len_arg(index: int, key: str) -> Callable:
    def rows(args, kwargs) -> int:
        value = kwargs[key] if key in kwargs else args[index]
        return len(value)
    return rows


def _step_rows(args, kwargs) -> int:
    actions = kwargs["actions"] if "actions" in kwargs else args[1]
    return sum(len(a) for a in actions if a is not None)


def _predict_rows(args, kwargs) -> int:
    x = kwargs["x"] if "x" in kwargs else args[1]
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


PROBES: Tuple[Probe, ...] = (
    Probe("fleet.run_fleet", "repro.fleet.coordinator", None, "run_fleet"),
    Probe("fleet.shard", "repro.fleet.shard", None, "run_fleet_shard"),
    Probe("serve.train_snapshot", "repro.serve.training", None,
          "train_snapshot"),
    Probe("serve.decide", "repro.serve.service", "SlicingService",
          "decide", _len_arg(1, "requests")),
    Probe("serve.record_step", "repro.serve.loadgen", "LoadGenerator",
          "record_step"),
    Probe("serve.snapshot_load", "repro.serve.policy_store",
          "PolicyStore", "load"),
    Probe("serve.snapshot_digest", "repro.serve.policy_store",
          "PolicySnapshot", "digest"),
    Probe("nn.bayes_predict", "repro.nn.bayesian", "BayesianMLP",
          "predict", _predict_rows),
    Probe("nn.mlp_predict_batch", "repro.nn.network", "MLP",
          "predict_batch", _len_arg(1, "states")),
    Probe("engine.step", "repro.engine.batch", "BatchSimulator", "step",
          _step_rows),
    Probe("engine.evaluate_rows", "repro.engine.kernels", None,
          "evaluate_rows", _len_arg(2, "actions")),
    Probe("engine.reset_world", "repro.engine.batch", "BatchSimulator",
          "reset_world"),
    Probe("harness.run_episodes", "repro.experiments.harness", None,
          "run_episodes"),
    Probe("harness.project_actions_batch", "repro.engine.policies", None,
          "project_actions_batch"),
    Probe("baselines.fit", "repro.experiments.harness", None,
          "fit_baselines"),
    Probe("baselines.act_batch", "repro.engine.policies",
          "RuleBasedBatchPolicy", "act_batch"),
    Probe("sim.step", "repro.sim.env", "ScenarioSimulator", "step"),
    Probe("sim.evaluate_slot", "repro.sim.network", "EndToEndNetwork",
          "evaluate_slot"),
    Probe("core.build_onslicing", "repro.experiments.harness", None,
          "build_onslicing"),
    Probe("core.run_online_phase", "repro.experiments.harness", None,
          "run_online_phase"),
    Probe("core.agent_act", "repro.core.agent", "OnSlicingAgent", "act"),
    Probe("rl.ppo_update", "repro.rl.ppo", "PPOTrainer", "update"),
    Probe("rl.bc_fit", "repro.rl.behavior_cloning",
          "BehaviorCloningTrainer", "fit"),
    Probe("rl.estimator_fit", "repro.rl.cost_estimator",
          "CostToGoEstimator", "fit"),
    Probe("obs.slo_observe", "repro.obs.slo", "SloEvaluator", "observe"),
    Probe("obs.anomaly_observe", "repro.obs.anomaly", "AnomalyMonitor",
          "observe"),
    Probe("obs.diagnose", "repro.obs.diagnose", None, "diagnose_fleet"),
)

#: What the training layers should move.
TRAINING = "training: pass_s on campaign, setup_s on serve_wide"

#: Per-layer metrics: (name, unit, better, what it should move).
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("fleet.run_fleet.s", "s", "lower", "decisions_per_s on campaign"),
    ("fleet.shard.s", "s", "lower", "decisions_per_s on campaign"),
    ("fleet.shard.self_s", "s", "lower", "decisions_per_s on campaign"),
    ("serve.train_snapshot.s", "s", "lower", TRAINING),
    ("serve.decide.calls", "count", "lower",
     "decisions_per_s on campaign; decide_ms_* on serve_wide"),
    ("serve.decide.s", "s", "lower",
     "decisions_per_s on campaign (dominant); decide_ms_* on serve_wide"),
    ("serve.decide.self_s", "s", "lower",
     "decisions_per_s on campaign; decide_ms_* on serve_wide"),
    ("serve.decide.rows_per_call", "rows", "higher",
     "decisions_per_s on campaign; decide_ms_* on serve_wide"),
    ("serve.record_step.calls", "count", "lower",
     "decisions_per_s on campaign and serve_wide"),
    ("serve.record_step.s", "s", "lower",
     "decisions_per_s on campaign and serve_wide"),
    ("serve.snapshot_load.s", "s", "lower", "pass_s on campaign"),
    ("serve.snapshot_digest.calls", "count", "lower",
     "pass_s on campaign; setup_s on serve_wide (useful: one per "
     "distinct snapshot)"),
    ("serve.snapshot_digest.s", "s", "lower",
     "pass_s on campaign; setup_s on serve_wide"),
    ("serve.fallback_pct", "%", "lower",
     "behaviour only: share of decisions served by pi_b"),
    ("nn.bayes_predict.calls", "count", "lower",
     "decisions_per_s on campaign; decide_ms_* on serve_wide; "
     + TRAINING),
    ("nn.bayes_predict.s", "s", "lower",
     "decisions_per_s on campaign; decide_ms_* on serve_wide; "
     + TRAINING),
    ("nn.bayes_predict.rows_per_call", "rows", "higher",
     "decisions_per_s on campaign (~3 rows), decide_ms_* on serve_wide "
     "(50 rows); none on sweep"),
    ("nn.mlp_predict_batch.calls", "count", "lower",
     "decisions_per_s on campaign; decide_ms_* on serve_wide; "
     + TRAINING),
    ("nn.mlp_predict_batch.s", "s", "lower",
     "decisions_per_s on campaign; decide_ms_* on serve_wide; "
     + TRAINING),
    ("nn.mlp_predict_batch.rows_per_call", "rows", "higher",
     "decisions_per_s on campaign; decide_ms_* on serve_wide"),
    ("engine.step.calls", "count", "lower", "decisions_per_s on sweep"),
    ("engine.step.s", "s", "lower",
     "decisions_per_s on sweep; unchanged on campaign"),
    ("engine.step.self_s", "s", "lower", "decisions_per_s on sweep"),
    ("engine.step.rows_per_call", "rows", "higher",
     "decisions_per_s on sweep"),
    ("engine.evaluate_rows.calls", "count", "lower",
     "decisions_per_s on sweep"),
    ("engine.evaluate_rows.s", "s", "lower", "decisions_per_s on sweep"),
    ("engine.evaluate_rows.rows_per_call", "rows", "higher",
     "decisions_per_s on sweep"),
    ("engine.reset_world.s", "s", "lower", "decisions_per_s on sweep"),
    ("engine.kernel_share", "share", "higher",
     "decisions_per_s on sweep (evaluate_rows.s / step.s)"),
) + tuple(
    (f"engine.{stage}.s", "s", "lower", "decisions_per_s on sweep")
    for stage in ENGINE_STAGES
) + (
    ("harness.run_episodes.s", "s", "lower", "decisions_per_s on sweep"),
    ("harness.run_episodes.self_s", "s", "lower",
     "decisions_per_s on sweep (per-world Python glue)"),
    ("harness.project_actions_batch.s", "s", "lower",
     "decisions_per_s on sweep"),
    ("baselines.fit.s", "s", "lower",
     "pass_s on campaign; setup_s on serve_wide and sweep"),
    ("baselines.act_batch.calls", "count", "lower",
     "decisions_per_s and decide_ms_* on sweep"),
    ("baselines.act_batch.s", "s", "lower",
     "decisions_per_s and decide_ms_* on sweep"),
    ("sim.step.calls", "count", "lower",
     "decisions_per_s on serve_wide; " + TRAINING),
    ("sim.step.s", "s", "lower", "decisions_per_s on serve_wide; " + TRAINING),
    ("sim.evaluate_slot.calls", "count", "lower",
     "decisions_per_s on serve_wide; " + TRAINING),
    ("sim.evaluate_slot.s", "s", "lower",
     "decisions_per_s on serve_wide; " + TRAINING),
    ("core.build_onslicing.s", "s", "lower", TRAINING),
    ("core.run_online_phase.s", "s", "lower", TRAINING),
    ("core.agent_act.calls", "count", "lower", TRAINING),
    ("core.agent_act.s", "s", "lower", TRAINING),
    ("rl.ppo_update.calls", "count", "lower", TRAINING),
    ("rl.ppo_update.s", "s", "lower", TRAINING),
    ("rl.bc_fit.s", "s", "lower", TRAINING),
    ("rl.estimator_fit.s", "s", "lower", TRAINING),
    ("obs.slo_observe.calls", "count", "lower",
     "decide_ms_* on serve_wide; pass_s on campaign"),
    ("obs.slo_observe.s", "s", "lower",
     "decide_ms_* on serve_wide; pass_s on campaign"),
    ("obs.anomaly_observe.calls", "count", "lower", "pass_s on campaign"),
    ("obs.anomaly_observe.s", "s", "lower", "pass_s on campaign"),
    ("obs.diagnose.s", "s", "lower", "pass_s on campaign"),
    ("trace.wall_s", "s", "lower", "traced wall time of the timed passes"),
    ("trace.unattributed_s", "s", "lower",
     "wall time no timed call covers (top-level self times plus this "
     "equal trace.wall_s)"),
    ("trace.decisions_per_s", "1/s", "higher",
     "traced decisions_per_s"),
    ("trace.untraced_decisions_per_s", "1/s", "higher",
     "untraced decisions_per_s of the same run"),
    ("trace.overhead_pct", "%", "lower",
     "tracing cost: untraced over traced decisions_per_s, minus one"),
)


class CallTimer:
    """Wraps the probes' entry points and accumulates their timings.

    ``stats[name] = [calls, busy_s, self_s, rows]``: self time is busy
    time minus that of timed calls made inside (no probe calls itself,
    so busy time is never counted twice).  Time spent in
    ``engine.evaluate_rows`` directly under ``engine.step`` is kept
    apart for the kernel share.
    """

    def __init__(self, probes: Tuple[Probe, ...] = PROBES) -> None:
        self.probes = probes
        self.stats: Dict[str, List[float]] = {
            probe.name: [0, 0.0, 0.0, 0] for probe in probes}
        self.kernel_in_step_s = 0.0
        self.top_level_s = 0.0
        self._stack: List[List] = []      # [name, child_s]
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        stats = self.stats[probe.name]
        stack = self._stack
        name = probe.name
        rows = probe.rows
        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if rows is not None:
                    stats[3] += rows(args, kwargs)
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    if (name == "engine.evaluate_rows"
                            and parent[0] == "engine.step"):
                        self.kernel_in_step_s += elapsed
                else:
                    self.top_level_s += elapsed

        timed.__wrapped__ = fn
        return timed

    def install(self) -> None:
        """Swap every probe's entry point for its timed wrapper,
        wherever a loaded ``repro`` module holds a reference to it."""
        for probe in self.probes:
            module = sys.modules[probe.module]
            if probe.owner is not None:
                owner = getattr(module, probe.owner)
                original = owner.__dict__[probe.attr]
                if isinstance(original, property):
                    wrapped = property(self._wrap(probe, original.fget))
                else:
                    wrapped = self._wrap(probe, original)
                self._set(owner, probe.attr, wrapped)
                continue
            original = getattr(module, probe.attr)
            wrapped = self._wrap(probe, original)
            for name, loaded in list(sys.modules.items()):
                if (name.startswith("repro")
                        and getattr(loaded, probe.attr, None)
                        is original):
                    self._set(loaded, probe.attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "CallTimer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def self_seconds(self) -> float:
        """Sum of every probe's self time (= time covered by
        top-level timed calls)."""
        return sum(stats[2] for stats in self.stats.values())


def layer_values(timer: CallTimer, engine_spans: Dict[str, float],
                 wall_s: float, fallback_pct: float,
                 traced_dps: float, untraced_dps: float
                 ) -> Dict[str, float]:
    """Every per-layer metric value from one traced run."""
    values: Dict[str, float] = {}
    for name, (calls, busy, self_s, rows) in timer.stats.items():
        values[f"{name}.calls"] = float(calls)
        values[f"{name}.s"] = busy
        values[f"{name}.self_s"] = self_s
        values[f"{name}.rows_per_call"] = rows / calls if calls else 0.0
    step_s = values["engine.step.s"]
    values["engine.kernel_share"] = (timer.kernel_in_step_s / step_s
                                     if step_s > 0 else 0.0)
    for stage in ENGINE_STAGES:
        values[f"engine.{stage}.s"] = engine_spans.get(stage, 0.0)
    values["serve.fallback_pct"] = fallback_pct
    values["trace.wall_s"] = wall_s
    values["trace.unattributed_s"] = wall_s - timer.top_level_s
    values["trace.decisions_per_s"] = traced_dps
    values["trace.untraced_decisions_per_s"] = untraced_dps
    values["trace.overhead_pct"] = (
        100.0 * (untraced_dps / traced_dps - 1.0) if traced_dps > 0
        else 0.0)
    return {name: values[name] for name, _, _, _ in LAYER_METRICS}


def engine_span_seconds(rollup) -> Dict[str, float]:
    """Busy seconds per engine stage from a program tracer rollup
    (summed over every path the stage appears under)."""
    totals: Dict[str, float] = {}
    for (path, _attrs), row in rollup.items():
        leaf = path.rsplit("/", 1)[-1]
        if leaf.startswith("engine.") and leaf[7:] in ENGINE_STAGES:
            totals[leaf[7:]] = totals.get(leaf[7:], 0.0) \
                + row["total_ms"] / 1e3
    return totals
