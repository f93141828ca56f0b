"""Record the expected output digests of every workload for some seeds.

Run from the repository root::

    python3 perfbench/record.py --seeds 0 1 2 3

Runs one pass of each workload per seed (``run.py`` with no recorded
digests to compare against) and writes the digests it reports into
``perfbench/expected.json``, keeping entries for other seeds.  Re-record
only when a change is meant to alter the program's behaviour.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORKLOADS = ("campaign", "serve_wide", "sweep")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        recorded = json.load(fh)
    workdir = tempfile.mkdtemp(prefix=".perfbench-record-", dir=ROOT)
    try:
        empty = os.path.join(workdir, "none.json")
        with open(empty, "w", encoding="utf-8") as fh:
            fh.write("{}")
        for workload in WORKLOADS:
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", "0",
                     "--expected", empty],
                    cwd=ROOT, capture_output=True, text=True,
                    timeout=900)
                if proc.returncode != 0:
                    print(proc.stderr[-2000:], file=sys.stderr)
                    return 1
                summary = json.loads(proc.stdout.splitlines()[-2])
                recorded.setdefault(workload, {})[str(seed)] = \
                    summary["digests"]
                print(f"{workload} seed {seed}: {summary['digests']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
