"""Observability layer: tracing, metrics, profiling, perf trajectory.

One subsystem, four concerns, threaded through every layer of the
repo:

* :mod:`repro.obs.trace` -- structured spans.  ``trace("name",
  **attrs)`` is free when tracing is off and aggregates into
  mergeable cross-process JSONL trace files when on; ``repro obs
  report`` rolls any set of trace files into one flamegraph-style
  view with an attributed-span digest that is invariant to fleet
  shard count.
* :mod:`repro.obs.metrics` -- the unified metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`, optional
  labels, JSONL + Prometheus-text export, injectable clock), which
  the serve and fleet layers record into.
* :mod:`repro.obs.profile` -- opt-in per-kernel wall/alloc sampling
  hooks inside :func:`repro.engine.kernels.evaluate_rows`;
  ``repro obs profile`` prints the per-kernel cost breakdown.
* :mod:`repro.obs.bench` -- the persistent perf trajectory: every
  bench writes ``BENCH_<name>.json`` through the shared recorder,
  and ``repro obs compare`` gates regressions against the committed
  baselines.
* :mod:`repro.obs.slo` -- the judging layer over the metrics:
  declarative :class:`SloSpec` health contracts, streaming
  :class:`SloEvaluator` with multi-window burn-rate alerting, and the
  JSONL :class:`IncidentTimeline` with a deterministic digest.
  ``repro obs watch`` renders live health (:mod:`repro.obs.monitor`),
  ``repro obs incidents`` queries timelines, and ``fleet run --slo``
  evaluates at every shard-checkpoint boundary.
* :mod:`repro.obs.anomaly` + :mod:`repro.obs.diagnose` -- the
  diagnosis layer: contract-free streaming anomaly detectors (robust
  z-score spikes, level shifts) and the root-cause attribution engine
  that joins SLO breaches with injected scenario events, fallback /
  admission counter taxonomies and serve-stage histograms into a
  ranked-hypothesis :class:`DiagnosisReport` with a shard-count-
  invariant digest.  ``repro obs diagnose`` renders it, ``fleet run
  --diagnose`` attaches it to a campaign.

Import discipline: this package depends only on the standard library
and numpy, so every other layer (engine, serve, fleet, runtime) can
instrument itself without import cycles.

Note: ``repro.obs.trace`` is the tracing *module*; the span function
of the same name is deliberately not re-exported here, so the
attribute never shadows the module.  Import the function as ``from
repro.obs.trace import trace``.
"""

from repro.obs.anomaly import (
    AnomalyMonitor,
    DetectorSpec,
    StreamingDetector,
    default_detectors,
)
from repro.obs.bench import (
    compare as compare_bench,
    load_dir as load_bench_dir,
    record_result as record_bench_result,
)
from repro.obs.diagnose import (
    DiagnosisReport,
    Hypothesis,
    diagnose_fleet,
    diagnose_telemetry,
    replay_shards,
    worst_cells,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Telemetry,
)
from repro.obs.profile import KernelProfiler
from repro.obs.slo import (
    IncidentTimeline,
    ObjectiveStatus,
    SloEvaluator,
    SloObjective,
    SloSpec,
    default_slo_spec,
)
from repro.obs.trace import (
    Tracer,
    configure as configure_tracing,
    configure_from_env as configure_tracing_from_env,
    disable as disable_tracing,
    read_rollup,
    rollup_digest,
)

__all__ = [
    "AnomalyMonitor",
    "Counter",
    "DetectorSpec",
    "DiagnosisReport",
    "Gauge",
    "Histogram",
    "Hypothesis",
    "IncidentTimeline",
    "KernelProfiler",
    "ObjectiveStatus",
    "SloEvaluator",
    "SloObjective",
    "SloSpec",
    "StreamingDetector",
    "Telemetry",
    "Tracer",
    "compare_bench",
    "configure_tracing",
    "configure_tracing_from_env",
    "default_detectors",
    "default_slo_spec",
    "diagnose_fleet",
    "diagnose_telemetry",
    "disable_tracing",
    "load_bench_dir",
    "read_rollup",
    "record_bench_result",
    "replay_shards",
    "rollup_digest",
    "worst_cells",
]
