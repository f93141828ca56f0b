"""Print every end-to-end metric of every workload, with units.

Run from the repository root::

    python3 perfbench/report.py --seed 1

Runs each workload untraced in its own process (``run.py``) for the
``run_seconds`` that ``BENCHMARK.json`` sets, and prints one row per
metric, plus the failed and fallback shares each run reports beside
its result.  Exits non-zero if any run failed its output checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("campaign", "serve_wide", "sweep")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            ok = False
            print(f"{workload}: run failed (exit {proc.returncode})")
            print(proc.stderr[-2000:])
            if len(lines) < 2:
                continue
        summary, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{workload} (seed {args.seed}, "
              f"{summary['passes']} pass(es), correct "
              f"{result['correct']}, {result['failed']}/"
              f"{result['attempted']} decisions failed)")
        rows = [(name, entry["value"], entry["unit"])
                for name, entry in result["metrics"].items()]
        rows += [("failed_pct", summary["failed_pct"], "%"),
                 ("fallback_pct", summary["fallback_pct"], "%")]
        for name, value, unit in rows:
            print(f"  {name:<20} {value:>14.4f} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
