"""Record one benchmark run per workload in a committed ``BENCH_<n>.json``.

    python3 bench_record.py BENCH_31.json

Run from the root of a checkout. For each workload (``golden``, ``wide``) it
runs the unchanged ``python3 perfbench/run.py --workload W --seed 1
--seconds 55 --trace 0`` and copies from the two JSON lines that run prints
(the check details with the fingerprint, then the result) what the file
keeps: the five gated metrics and the four ``stage_s``, as ``run.py`` wrote
them, ``attempted``, ``failed``, ``artifact_sha256`` and the fingerprint.
The fingerprint's ``git_commit`` and ``git_dirty`` are the parent commit and
the dirty flag of a run made before its change is committed. A run whose
checks fail (``correct`` false) stops the script with exit 1 before any file
is written. Nothing here computes a number of its own.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

WORKLOADS = ("golden", "wide")
SEED = 1
SECONDS = 55


def record(workload: str) -> dict:
    """One ``run.py`` run of ``workload``, reduced to what the file keeps."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"error: {workload}: run.py checks failed "
                         f"({result['failed']} of {result['attempted']} failed)")
    return {
        "metrics": result["metrics"],
        "stage_s": info["stage_s"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "artifact_sha256": info["artifact_sha256"],
        "fingerprint": info["fingerprint"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the file to write, e.g. BENCH_31.json")
    args = parser.parse_args(argv)
    runs = {workload: record(workload) for workload in WORKLOADS}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "seconds": SECONDS, "workloads": runs}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
