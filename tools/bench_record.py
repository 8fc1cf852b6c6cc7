"""Record a benchmark trajectory: interleaved parent/change runs of
perfbench/run.py, assembled into one BENCH_<n>.json.

    python3 tools/bench_record.py run --parent P --change C --workload oracle --seed 1 --pairs 10 --log runs.jsonl
    python3 tools/bench_record.py assemble --log runs.jsonl --what "..." \\
        --claim oracle work_per_s "median change/parent >= 1.1" --out BENCH_13.json

P and C are two checkouts of the repository, each a git clone at its commit
(each run imports the library from its own checkout's src/). `run` runs the
pairs one run at a time, alternating which side goes first, at run.py's own
run length, and appends one JSON line per pair to the log: the pair number,
workload, seed, trace flag, which side ran first and, for each side, the
run's result line with the run length, pass count, commit and src digest of
the report line before it, and its process tree's usage from os.wait4: the
peak RSS of its largest process and the CPU seconds of all of them, worker
processes included (run.py's own peak_rss_mb sees only its process). A run
that exits non-zero (the error ends with its last stderr lines) or reports a
wrong output stops `run`; the pairs logged before it stay. `assemble` reads
the log and writes the record: both commits and src digests, the host, per
(workload, seed, trace) each metric's quartiles on each side, the pairs the
change won (ties count for neither) and the ratio of the medians, for each
end-to-end metric how much worse the change's median is than the parent's
and whether that is within the metric's bound in the benchmark declaration,
each side's median pass count and process-tree usage, and every pair as it
was logged.

    python3 tools/bench_record.py trajectory

prints, for every BENCH_<n>.json in the directory (default: the current one)
in order of n, the record's commit pair, its claim and, per untraced workload
and seed, each side's median pass count (records from BENCH_20 on) and
median of every end-to-end metric.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --trace <trace>"
METHOD = (
    "each side run from its own git clone of the repository checked out at its commit; "
    "pairs alternate which side runs first ('first'); one run at a time; "
    "quartiles by statistics.quantiles(method='inclusive')"
)
# the last lines of a failed run's stderr that its error repeats
STDERR_LINES = 5
# a run's process-tree usage, kept beside its metrics
TREE_USAGE = ("max_rss_mb", "cpu_s")


def parse_run_output(stdout: str) -> dict:
    """The result line of one perfbench/run.py run (its last stdout line),
    with the run length, pass count and environment of the report line
    before it: a run's peak_rss_mb grows with its passes, so each is read
    against its count. A run whose outputs were not all correct is an
    error, not a measurement."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("run printed no report and result lines")
    result = json.loads(lines[-1])
    if not {"correct", "attempted", "failed", "metrics"} <= result.keys():
        raise ValueError(f"last line is not a result: {lines[-1][:80]}")
    if not result["correct"]:
        raise ValueError(f"run was not correct: {result['failed']} of {result['attempted']} operations failed")
    report = json.loads(lines[-2])["report"]
    result["seconds"] = report["seconds"]
    result["passes"] = report["passes"]
    result["environment"] = report["environment"]
    return result


def run_side(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One run's result, with its process tree's usage under "process_tree":
    os.wait4 reaps the run and reports the largest peak RSS of it and the
    descendants it waited for, and their CPU time."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--trace", str(trace)]
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        run = subprocess.Popen(command, cwd=checkout, stdout=stdout, stderr=stderr, text=True)
        _, status, usage = os.wait4(run.pid, 0)
        run.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        if run.returncode != 0:
            tail = "\n".join(stderr.read().strip().splitlines()[-STDERR_LINES:])
            raise RuntimeError(f"{' '.join(command[1:])} in {checkout} exited {run.returncode}:\n{tail}")
        result = parse_run_output(stdout.read())
    result["process_tree"] = {"max_rss_mb": usage.ru_maxrss / 1024, "cpu_s": usage.ru_utime + usage.ru_stime}
    return result


def read_log(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def cmd_run(args: argparse.Namespace) -> None:
    checkouts = {"parent": Path(args.parent), "change": Path(args.change)}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            raise ValueError(f"--{side} {checkout} has no perfbench/run.py")
    log = Path(args.log)
    pair = len(read_log(log))
    for _ in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        entry = {"pair": pair, "workload": args.workload, "seed": args.seed, "trace": args.trace}
        entry["first"] = order[0]
        for side in order:
            entry[side] = run_side(checkouts[side], args.workload, args.seed, args.trace)
        with log.open("a") as out:
            out.write(json.dumps(entry) + "\n")
        metric = "routing.self_s" if args.trace else "work_per_s"
        values = {side: entry[side]["metrics"][metric]["value"] for side in SIDES}
        print(f"pair {pair} {args.workload} seed {args.seed}: {metric} {values}")
        pair += 1


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": statistics.median(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: list[dict], declared: dict[str, dict]) -> list[dict]:
    """Per (workload, seed, trace), in order of first appearance: each
    metric's spread on both sides, the pairs the change won and the ratio
    of the change's median over the parent's, and each side's median pass
    count and process-tree usage when every run of the group has them (a
    run's peak_rss_mb grows with its passes, so a faster change that fits
    more passes reads larger). A metric declared with a bound (the
    end-to-end ones) also gets worse_by, how much worse the change's median
    is than the parent's as a fraction of the parent's (negative when
    better), and within_bound, whether worse_by is at most the bound."""
    groups: dict[tuple, list[dict]] = {}
    for entry in runs:
        groups.setdefault((entry["workload"], entry["seed"], entry["trace"]), []).append(entry)
    summary = []
    for (workload, seed, trace), entries in groups.items():
        metrics = {}
        for name, first in entries[0]["parent"]["metrics"].items():
            if name not in declared:
                raise ValueError(f"metric {name} is not listed in the benchmark declaration")
            better = declared[name]["better"]
            values = {side: [e[side]["metrics"][name]["value"] for e in entries] for side in SIDES}
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            metrics[name] = {"unit": first["unit"], "better": better}
            metrics[name] |= {side: spread(values[side]) for side in SIDES}
            metrics[name]["change_wins"] = f"{wins}/{len(entries)}"
            parent, change = (statistics.median(values[side]) for side in SIDES)
            metrics[name]["ratio_change_over_parent"] = change / parent
            if "bound" in declared[name]:
                metrics[name]["worse_by"] = sign * (parent - change) / parent
                metrics[name]["within_bound"] = metrics[name]["worse_by"] <= declared[name]["bound"]
        group = {"workload": workload, "seed": seed, "trace": trace, "pairs": len(entries), "metrics": metrics}
        if all("passes" in e[side] for e in entries for side in SIDES):
            group["passes"] = {side: statistics.median(e[side]["passes"] for e in entries) for side in SIDES}
        if all("process_tree" in e[side] for e in entries for side in SIDES):
            group["process_tree"] = {
                side: {key: statistics.median(e[side]["process_tree"][key] for e in entries) for key in TREE_USAGE}
                for side in SIDES
            }
        summary.append(group)
    return summary


def one_value(runs: list[dict], side: str, key: str):
    values = {entry[side]["environment"][key] for entry in runs}
    if len(values) != 1:
        raise ValueError(f"{side} runs disagree on {key}: {sorted(map(str, values))}")
    return values.pop()


def assemble(runs: list[dict], benchmark: dict, what: str, claim: dict | None) -> dict:
    """The BENCH_<n>.json record of the logged pairs."""
    if not runs:
        raise ValueError("the log holds no pairs")
    declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    record = {"what": what}
    if claim is not None:
        record["claim"] = claim
    record["command"] = COMMAND
    record["method"] = METHOD
    for side in SIDES:
        record[side] = {key: one_value(runs, side, key) for key in ("commit", "src_sha256")}
    record["host"] = {key: one_value(runs, "change", key) for key in ("python", "numpy", "nproc", "machine")}
    record["summary"] = summarise(runs, declared)
    record["runs"] = [
        {**entry, **{side: {k: v for k, v in entry[side].items() if k != "environment"} for side in SIDES}}
        for entry in runs
    ]
    return record


def cmd_assemble(args: argparse.Namespace) -> None:
    benchmark = json.loads(Path(args.benchmark).read_text())
    claim = None
    if args.claim:
        claim = dict(zip(("workload", "metric", "target"), args.claim))
    record = assemble(read_log(Path(args.log)), benchmark, args.what, claim)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


def trajectory(records: dict[str, dict], benchmark: dict) -> list[str]:
    """The lines trajectory prints for records keyed by file name: per
    record, its parent and change commits and its claim, then per untraced
    (workload, seed) group its median pass count on each side, when the
    record has one, and each end-to-end metric's parent and change medians.
    A run's peak_rss_mb grows with its passes, so a move in it is read
    against them. Traced groups are left out: tracing slows the end-to-end
    metrics."""
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    number = lambda value: f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"
    lines = []
    for file_name in sorted(records, key=lambda file_name: int(Path(file_name).stem.removeprefix("BENCH_"))):
        record = records[file_name]
        claim = record.get("claim")
        lines.append(f"{file_name}: {record['parent']['commit'][:7]} -> {record['change']['commit'][:7]}")
        lines.append(f"  claim: {claim['workload']} {claim['metric']}: {claim['target']}" if claim else "  claim: none")
        for group in record["summary"]:
            if group["trace"]:
                continue
            head = f"  {group['workload']} seed {group['seed']}, {group['pairs']} pairs"
            if "passes" in group:
                head += ", passes " + " -> ".join(number(group["passes"][side]) for side in SIDES)
            lines.append(head + ":")
            for name in names:
                if name in group["metrics"]:
                    metric = group["metrics"][name]
                    parent, change = (number(metric[side]["median"]) for side in SIDES)
                    lines.append(f"    {name} {parent} -> {change} {metric['unit']}")
    return lines


def cmd_trajectory(args: argparse.Namespace) -> None:
    benchmark = json.loads(Path(args.benchmark).read_text())
    records = {
        path.name: json.loads(path.read_text())
        for path in Path(args.dir).iterdir()
        if re.fullmatch(r"BENCH_[0-9]+\.json", path.name)
    }
    if not records:
        raise ValueError(f"no BENCH_*.json in {args.dir}")
    print("\n".join(trajectory(records, benchmark)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record interleaved parent/change benchmark runs.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run pairs and append them to the log")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--pairs", type=int, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--log", required=True, help="JSON-lines log the pairs are appended to")
    record = commands.add_parser("assemble", help="write the record of a log")
    record.add_argument("--log", required=True)
    record.add_argument("--benchmark", default="BENCHMARK.json", help="the benchmark declaration")
    record.add_argument("--what", required=True, help="the change the record measures")
    record.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "TARGET"))
    record.add_argument("--out", required=True)
    trajectory = commands.add_parser("trajectory", help="print every record's end-to-end medians")
    trajectory.add_argument("--dir", default=".", help="directory holding the BENCH_*.json records")
    trajectory.add_argument("--benchmark", default="BENCHMARK.json", help="the benchmark declaration")
    args = parser.parse_args(argv)
    commands = {"run": cmd_run, "assemble": cmd_assemble, "trajectory": cmd_trajectory}
    try:
        commands[args.command](args)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
