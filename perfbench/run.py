"""Run one benchmark workload and print its result as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs untraced passes for the first half of ``--seconds`` and traced
passes for the second, and reports the per-layer metrics (see
``layers.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a failed
output check also exits non-zero.  Timings are rescaled to a
reference machine speed measured during the run (``speed.py``); the
line before the result is a summary with the raw timings, the digests
and the machine fingerprint.  ``--size smoke`` and ``--expected``
exist for the self-test (``selftest.py``).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
TRACE_ENV = "REPRO_TRACE_DIR"
CACHE_ENV = "REPRO_CACHE_DIR"

#: End-to-end metrics: (name, unit).  Every workload reports each.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("decisions_per_s", "1/s"),
    ("decide_ms_p50", "ms"),
    ("decide_ms_p95", "ms"),
    ("resource_usage_pct", "%"),
    ("sla_met_pct", "%"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "serve_wide", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--expected", default=None,
                        help="JSON of recorded digests by workload and "
                             "seed (default: perfbench/expected.json "
                             "for the full size, none for smoke)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def fingerprint() -> dict:
    """The machine and code a result was measured on."""
    import numpy
    import scipy

    revision = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    revision = fh.read().strip()
        else:
            revision = ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_revision": revision}


def run_passes(workload, tally, seconds: float, timer=None) -> float:
    """Timed passes until ``seconds`` are used (at least one).
    Returns the summed raw pass wall time."""
    from workloads import clock

    wall = 0.0
    while wall < seconds:
        workload.prepare()
        start = clock()
        if timer is None:
            workload.run_pass(tally)
        else:
            with timer:
                workload.run_pass(tally)
        wall += clock() - start
    return wall


def measure(args, workload, tally, speed_clock) -> tuple:
    """Set up and run the passes; return the metrics and their units.
    ``setup_s`` runs from process start, so it holds the imports."""
    import layers

    workload.setup()
    set_up = time.perf_counter()
    tally.setup_raw_s = set_up - START
    setup_s = speed_clock.seconds(START, set_up)
    if not args.trace:
        run_passes(workload, tally, args.seconds)
        return end_to_end(tally, setup_s), dict(END_TO_END)

    # repro.obs re-exports the trace() function under the module's own
    # name, so fetch the module itself
    program_trace = importlib.import_module("repro.obs.trace")
    run_passes(workload, tally, args.seconds / 2)
    untraced_dps = statistics.median(tally.pass_dps)
    first_traced = len(tally.pass_dps)
    timer = layers.CallTimer()
    tracer = program_trace.configure(path=None)
    try:
        wall = run_passes(workload, tally, args.seconds / 2, timer=timer)
    finally:
        program_trace.disable()
    tally.trace_accounting = {"top_level_s": timer.top_level_s,
                              "self_s": timer.self_seconds()}
    metrics = layers.layer_values(
        timer, layers.engine_span_seconds(tracer.rollup()), wall,
        tally.fallback_pct(),
        traced_dps=statistics.median(tally.pass_dps[first_traced:]),
        untraced_dps=untraced_dps)
    return metrics, {name: unit for name, unit, _, _
                     in layers.LAYER_METRICS}


def end_to_end(tally, setup_s: float) -> dict:
    """Pass timings are medians over the run's passes, each rescaled
    to the reference machine speed (``speed.py``)."""
    import numpy

    p50, p95 = numpy.percentile(tally.decide_ms, [50, 95])
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(tally.pass_s),
        "decisions_per_s": statistics.median(tally.pass_dps),
        "decide_ms_p50": float(p50),
        "decide_ms_p95": float(p95),
        "resource_usage_pct": 100.0 * tally.usage_sum / tally.sla_pairs,
        "sla_met_pct": 100.0 * (1.0 - tally.sla_violations
                                / tally.sla_pairs),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: values[name] for name, _ in END_TO_END}


def raw_timings(tally) -> dict:
    """Uncalibrated counterparts of the timings and the number of
    decide timings, for the summary line."""
    import numpy

    raw = {"setup_raw_s": tally.setup_raw_s,
           "decide_samples": len(tally.decide_raw_ms)}
    if tally.pass_raw_s:
        raw["pass_raw_s"] = statistics.median(tally.pass_raw_s)
    if tally.decide_raw_ms:
        p50, p95 = numpy.percentile(tally.decide_raw_ms, [50, 95])
        raw.update(decide_raw_ms_p50=float(p50),
                   decide_raw_ms_p95=float(p95))
    return raw


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get(TRACE_ENV):
        print(f"refusing to run: {TRACE_ENV} is set, so the program "
              "would trace itself into files", file=sys.stderr)
        return 2
    # Equal work on every run: no disk result cache, a fixed code
    # version (no git probes, which differ between checkouts), and one
    # BLAS thread so the run measures the program, not the scheduler.
    os.environ.pop(CACHE_ENV, None)
    os.environ["REPRO_CODE_VERSION"] = "perfbench"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # the speed clock starts before the program is imported, so the
    # imports in setup_s are rescaled like everything else
    import speed

    with speed.SpeedClock() as speed_clock:
        return run(args, speed_clock)


def run(args, speed_clock) -> int:
    """Run the workload under ``speed_clock`` and print the result."""
    import workloads

    path = args.expected
    if path is None and args.size == "full":
        path = EXPECTED_PATH
    expected = None
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh).get(args.workload, {}).get(
                str(args.seed))

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    tally = workloads.Tally()
    metrics, units = {}, {}
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workloads.SIZES[args.size], workdir, expected,
            speed_clock)
        metrics, units = measure(args, workload, tally, speed_clock)
    except Exception:  # a crash is a failed run that still reports
        traceback.print_exc(file=sys.stderr)
        tally.attempted += 1
        tally.fail(1, "the run raised an exception")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "size": args.size,
        "digests": tally.digests,
        "recorded_seed": expected is not None,
        "failed_pct": 100.0 * tally.failed / max(tally.attempted, 1),
        "fallback_pct": tally.fallback_pct(),
        "passes": len(tally.pass_s),
        "errors": tally.errors,
        "machine": fingerprint(),
        **raw_timings(tally),
        **speed_clock.summary(),
        **tally.trace_accounting,
    }
    print(json.dumps(summary, sort_keys=True))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
