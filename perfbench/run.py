"""bitpath benchmark entry point.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 35 --trace 0

Run from the repository root, or any checkout of it: the library is imported
from ``src/`` next to this directory, never from an installed copy. The last
line of stdout is the result object (correct, attempted, failed, metrics);
the line before it is the full report, also written to perfbench/out/.
Exits 2 without a result when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("oracle", "forward", "build")
DEVELOPMENT_SEED = 1
# Keep this seed out of tuning; later speed claims must also hold on it.
HELD_OUT_SEED = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one bitpath benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEVELOPMENT_SEED,
        help=f"input seed; tune on {DEVELOPMENT_SEED}, confirm claims on the held-out {HELD_OUT_SEED}",
    )
    parser.add_argument("--seconds", type=float, default=35.0, help="time budget of the passes, their checks and set-up repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "bitpath" / "__init__.py").is_file():
        print(f"error: bitpath sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bitpath

    if Path(bitpath.__file__).resolve().parent != (src / "bitpath").resolve():
        print(f"error: imported bitpath from {bitpath.__file__}, not {src}", file=sys.stderr)
        return 2

    from harness import run_workload

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir=out_dir)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
