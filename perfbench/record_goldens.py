"""Record goldens.json: the fingerprints of every op on a fixed input.

    python3 perfbench/record_goldens.py

Run once, at the commit whose outputs are the reference. It runs pass 0 of
each workload at both sizes, for two seeds, and refuses to write if a golden
depends on the seed. Ops on seed-dependent inputs have no golden; they are
checked against check.py's references instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SIZES, WORKLOADS  # noqa: E402


def golden_fingerprints(seed: int) -> dict:
    goldens: dict = {}
    for sizes in SIZES:
        for name, cls in WORKLOADS.items():
            workload = cls(SIZES[sizes][name], goldens={})
            inputs = workload.setup(seed)
            done: dict = {}
            for op in workload.ops(inputs, seed, 0):
                done[op.label] = out = op.call(done)
                if op.golden is not None:
                    fingerprint = json.loads(json.dumps(op.golden(out)))
                    if goldens.setdefault(op.label, fingerprint) != fingerprint:
                        raise SystemExit(f"error: two ops labelled {op.label!r} disagree")
    return goldens


def main() -> int:
    first, second = golden_fingerprints(1), golden_fingerprints(2)
    if first != second:
        differing = sorted(k for k in first if first[k] != second.get(k))
        print(f"error: goldens depend on the seed: {differing}", file=sys.stderr)
        return 1
    (HERE / "goldens.json").write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(first)} goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
