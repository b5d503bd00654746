#!/usr/bin/env python3
"""Collect one untraced run of every workload and one traced run into a file.

    python3 perfbench/baseline.py --tag 0 --seed 4

writes ``perfbench/results/BENCH_<tag>.json``: the full record of each run
(provenance, metrics, per-invocation exit codes and stdout digests).  Two
such files from different commits can be compared metric by metric, and
their stdout digests show whether every verb's output stayed byte-identical.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    runs = [(w, 0) for w in WORKLOADS] + [(WORKLOADS[0], 1)]  # the traced run covers all
    records = []
    for workload, trace in runs:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=True)
        records.append(json.loads(proc.stdout.splitlines()[-2]))
        print(proc.stdout.splitlines()[-1], flush=True)
    out = HERE / "results" / f"BENCH_{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"tag": args.tag, "seed": args.seed, "runs": records},
                              indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
