"""Self-test of the benchmark at a tiny ("smoke") size.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric is emitted with its
unit on every workload, that a traced run's top-level self times plus
``trace.unattributed_s`` add up to its traced wall time, that a
tampered recorded digest fails the run (non-zero exit, ``correct``
false), and that a set ``REPRO_TRACE_DIR`` is refused.  Exits non-zero
on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import LAYER_METRICS  # noqa: E402
from run import END_TO_END  # noqa: E402

WORKLOADS = ("campaign", "serve_wide", "sweep")


def run(workload, trace=0, expected=None, env=None):
    """One smoke run; returns (exit code, summary, result)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "0.01",
               "--trace", str(trace), "--size", "smoke"]
    if expected is not None:
        command += ["--expected", expected]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600,
                          env=dict(os.environ, **(env or {})))
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_metrics(workload, result, table):
    metrics = result["metrics"]
    check(list(metrics) == [name for name, unit in table],
          f"{workload}: every metric emitted, in order")
    check(all(metrics[name]["unit"] == unit for name, unit in table),
          f"{workload}: every metric carries its unit")
    check(all(isinstance(metrics[name]["value"], float)
              for name, _ in table),
          f"{workload}: every value is a number")


def main():
    end_to_end = [(name, unit) for name, unit in END_TO_END]
    per_layer = [(name, unit) for name, unit, _, _ in LAYER_METRICS]
    digests = {}
    for workload in WORKLOADS:
        code, summary, result = run(workload, trace=0)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{workload}: untraced smoke run passes its checks")
        check_metrics(workload, result, end_to_end)
        check(all(result["metrics"][name]["value"] > 0
                  for name, _ in end_to_end),
              f"{workload}: no end-to-end metric reads 0")
        digests[workload] = summary["digests"]

        code, summary, result = run(workload, trace=1)
        check(code == 0 and result["correct"],
              f"{workload}: traced smoke run passes its checks")
        check_metrics(workload, result, per_layer)
        values = {name: entry["value"]
                  for name, entry in result["metrics"].items()}
        check(values["trace.unattributed_s"] >= 0.0
              and values["trace.unattributed_s"] <= values["trace.wall_s"],
              f"{workload}: unattributed time lies within traced wall "
              "time")
        check(abs(summary["top_level_s"] + values["trace.unattributed_s"]
                  - values["trace.wall_s"]) < 1e-9,
              f"{workload}: top-level self times plus unattributed_s "
              "equal the traced wall time")
        check(abs(summary["self_s"] - summary["top_level_s"]) < 1e-6,
              f"{workload}: self times partition the top-level calls")

    workdir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        good = os.path.join(workdir, "good.json")
        with open(good, "w", encoding="utf-8") as fh:
            json.dump({w: {"1": d} for w, d in digests.items()}, fh)
        code, summary, result = run("sweep", expected=good)
        check(code == 0 and result["correct"] and summary["recorded_seed"],
              "sweep: matching recorded digest passes")
        for workload in WORKLOADS:
            tampered = os.path.join(workdir, f"tampered-{workload}.json")
            name = sorted(digests[workload])[0]
            recorded = dict(digests[workload], **{name: "0" * 64})
            with open(tampered, "w", encoding="utf-8") as fh:
                json.dump({workload: {"1": recorded}}, fh)
            code, summary, result = run(workload, expected=tampered)
            check(code != 0 and result is not None
                  and not result["correct"] and result["failed"] > 0,
                  f"{workload}: tampered {name} digest fails the run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    code, summary, result = run("sweep",
                                env={"REPRO_TRACE_DIR": workdir})
    check(code != 0 and result is None,
          "a set REPRO_TRACE_DIR is refused")
    print("selftest passed")


if __name__ == "__main__":
    main()
