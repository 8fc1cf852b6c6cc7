"""Print every workload's end-to-end metrics under the names the notes use.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Runs run.py once per workload, one after the other, tracing off, each in its
own process so that peak memory is per workload, and prints one line per
metric: workload, name, value, unit and, where there is one, sample count.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args()
    run = Path(__file__).resolve().parent / "run.py"
    status = 0
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, str(run), "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        report = json.loads(proc.stdout.splitlines()[-2])["report"]
        for name, metric in report["named"].items():
            samples = f"  (n={metric['samples']})" if "samples" in metric else ""
            print(f"{workload:8s} {name:52s} {metric['value']:>14.6g} {metric['unit']}{samples}")
    return status


if __name__ == "__main__":
    sys.exit(main())
