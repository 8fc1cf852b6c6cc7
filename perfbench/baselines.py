"""Time the four full-size operations the roadmap lists as baselines.

    python3 perfbench/baselines.py

star_labelling(10**6, 6), Labelling.to_text on the height-15 tree labelling,
verify_no_false_positives on the combined labelling of core-periphery n=20,
and simulate_delivery for all 79,800 vertex pairs of that graph. They are
the ``baselines`` workload of workloads.py, run for one pass through the
harness, which times each op and checks it against goldens.json. Too slow
for the timed workloads, which run scaled-down versions; the run takes about
half a minute on a 2-CPU machine and exits 1 if a check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import run_workload  # noqa: E402


def main() -> int:
    # a time budget of 0 runs exactly one pass
    result, report = run_workload("baselines", 1, 0.0, False)
    seconds = {label: metric["value"] for label, metric in report["named"].items() if metric["unit"] == "s"}
    print(json.dumps({"environment": report["environment"], "seconds": seconds, "failures": report["failures"]}, indent=1))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
