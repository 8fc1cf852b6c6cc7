"""tools/bench_record.py on canned perfbench/run.py output: parsing the
result lines, the per-workload summary and the record it writes."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
HOST = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "machine": "x86_64"}


def printed(commit: str, metrics: dict, failed: int = 0) -> str:
    """Two lines as perfbench/run.py prints them: the report, then the result."""
    environment = {"commit": commit, "src_sha256": commit * 2, **HOST}
    report = {"report": {"seconds": 35.0, "environment": environment, "passes": 3}}
    result = {"correct": failed == 0, "attempted": 40, "failed": failed, "metrics": metrics}
    return f"progress\n{json.dumps(report)}\n{json.dumps(result)}\n"


def run_output(commit: str, work_per_s: float, pass_s: float, failed: int = 0) -> str:
    metrics = {"work_per_s": {"value": work_per_s, "unit": "1/s"}, "pass_s": {"value": pass_s, "unit": "s"}}
    return printed(commit, metrics, failed)


def fake_checkout(root: Path, script: str) -> Path:
    """A directory whose perfbench/run.py is the given script."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(script)
    return root


def pair(n: int, workload: str, parent: tuple, change: tuple, seed: int = 1) -> dict:
    entry = {
        "pair": n,
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "first": bench_record.SIDES[n % 2],
        "parent": bench_record.parse_run_output(run_output("aa", *parent)),
        "change": bench_record.parse_run_output(run_output("bb", *change)),
    }
    for side, result in (("parent", parent), ("change", change)):
        # as run_side adds it: a peak RSS and CPU seconds that differ per pair
        entry[side]["process_tree"] = {"max_rss_mb": 30.0 + n, "cpu_s": 2 * result[1]}
    return entry


# oracle: the change wins work_per_s in 3 of 4 pairs and pass_s in 2 (one tie)
RUNS = [
    pair(0, "oracle", (100.0, 2.0), (120.0, 1.5)),
    pair(1, "oracle", (110.0, 2.0), (130.0, 2.0)),
    pair(2, "oracle", (90.0, 1.8), (80.0, 1.9)),
    pair(3, "oracle", (105.0, 2.2), (125.0, 1.7)),
    pair(4, "forward", (50.0, 1.0), (40.0, 1.1), seed=2),
]


class TestParse:
    def test_reads_result_and_environment(self):
        result = bench_record.parse_run_output(run_output("aa", 100.0, 2.0))
        assert result["metrics"]["work_per_s"] == {"value": 100.0, "unit": "1/s"}
        assert result["seconds"] == 35.0
        assert result["passes"] == 3
        assert result["environment"]["commit"] == "aa"
        assert result["environment"]["src_sha256"] == "aaaa"

    @pytest.mark.parametrize("stdout", ["", '{"report": {}}\n', 'x\n{"report": {}}\n{"metrics": {}}\n'])
    def test_rejects_output_without_a_result(self, stdout):
        with pytest.raises(ValueError):
            bench_record.parse_run_output(stdout)

    def test_rejects_a_run_with_wrong_outputs(self):
        with pytest.raises(ValueError, match="not correct: 2 of 40 operations failed"):
            bench_record.parse_run_output(run_output("aa", 100.0, 2.0, failed=2))


class TestAssemble:
    def test_summary_per_workload_and_seed(self):
        record = bench_record.assemble(RUNS, BENCHMARK, "a change", {"workload": "oracle"})
        oracle, forward = record["summary"]
        assert (oracle["workload"], oracle["seed"], oracle["pairs"]) == ("oracle", 1, 4)
        work = oracle["metrics"]["work_per_s"]
        assert work["better"] == "higher" and work["unit"] == "1/s"
        assert work["parent"] == {"q1": 97.5, "median": 102.5, "q3": 106.25}
        assert work["change"]["median"] == 122.5
        assert work["change_wins"] == "3/4"
        assert work["ratio_change_over_parent"] == pytest.approx(122.5 / 102.5)
        assert oracle["metrics"]["pass_s"]["change_wins"] == "2/4"
        assert (forward["seed"], forward["pairs"]) == (2, 1)
        assert forward["metrics"]["work_per_s"]["parent"] == {"median": 50.0}
        assert forward["metrics"]["work_per_s"]["change_wins"] == "0/1"

    def test_end_to_end_metrics_are_read_against_their_bounds(self):
        oracle, forward = bench_record.assemble(RUNS, BENCHMARK, "a change", None)["summary"]
        # better work_per_s reads as negative; forward's pass_s is 10% worse,
        # within its bound of 25%
        assert oracle["metrics"]["work_per_s"]["worse_by"] == pytest.approx(-20 / 102.5)
        assert oracle["metrics"]["work_per_s"]["within_bound"] is True
        assert forward["metrics"]["pass_s"]["worse_by"] == pytest.approx(0.1)
        assert forward["metrics"]["pass_s"]["within_bound"] is True
        # 100 -> 70 per second is 30% worse, outside the bound
        (build,) = bench_record.assemble([pair(0, "build", (100.0, 1.0), (70.0, 1.0))], BENCHMARK, "w", None)["summary"]
        assert build["metrics"]["work_per_s"]["worse_by"] == pytest.approx(0.3)
        assert build["metrics"]["work_per_s"]["within_bound"] is False
        assert build["metrics"]["pass_s"]["worse_by"] == 0.0

    def test_per_layer_metrics_have_no_bound(self):
        entry = pair(0, "oracle", (1.0, 1.0), (1.0, 1.0))
        for side, seconds in (("parent", 1.0), ("change", 2.0)):
            entry[side]["metrics"]["routing.self_s"] = {"value": seconds, "unit": "s"}
        (oracle,) = bench_record.assemble([entry], BENCHMARK, "w", None)["summary"]
        assert oracle["metrics"]["routing.self_s"]["ratio_change_over_parent"] == 2.0
        assert not {"worse_by", "within_bound"} & oracle["metrics"]["routing.self_s"].keys()
        assert "worse_by" in oracle["metrics"]["pass_s"]

    def test_summary_holds_median_process_tree_usage(self):
        oracle, forward = bench_record.assemble(RUNS, BENCHMARK, "a change", None)["summary"]
        assert oracle["process_tree"] == {
            "parent": {"max_rss_mb": 31.5, "cpu_s": 4.0},
            "change": {"max_rss_mb": 31.5, "cpu_s": pytest.approx(3.6)},
        }
        assert forward["process_tree"]["change"] == {"max_rss_mb": 34.0, "cpu_s": 2.2}
        assert "process_tree" not in oracle["metrics"]

    def test_summary_holds_median_pass_counts(self):
        # peak_rss_mb grows with a run's passes, so each group shows them
        runs = [pair(i, "forward", (50.0, 1.0), (60.0, 0.8)) for i in range(4)]
        for i, entry in enumerate(runs):
            entry["parent"]["passes"], entry["change"]["passes"] = 27 + i, 36 - i
        (forward,) = bench_record.assemble(runs, BENCHMARK, "a change", None)["summary"]
        assert forward["passes"] == {"parent": 28.5, "change": 34.5}
        assert "passes" not in forward["metrics"]
        del runs[2]["parent"]["passes"]
        assert "passes" not in bench_record.assemble(runs, BENCHMARK, "a change", None)["summary"][0]

    def test_logs_without_process_tree_usage_still_assemble(self):
        runs = json.loads(json.dumps(RUNS))
        del runs[1]["change"]["process_tree"]
        oracle, forward = bench_record.assemble(runs, BENCHMARK, "a change", None)["summary"]
        assert "process_tree" not in oracle
        assert "process_tree" in forward

    def test_record_fields(self):
        record = bench_record.assemble(RUNS, BENCHMARK, "a change", None)
        assert "claim" not in record
        assert record["command"] == bench_record.COMMAND
        assert record["parent"] == {"commit": "aa", "src_sha256": "aaaa"}
        assert record["change"] == {"commit": "bb", "src_sha256": "bbbb"}
        assert record["host"] == HOST
        assert [r["first"] for r in record["runs"]] == ["parent", "change", "parent", "change", "parent"]
        assert "environment" not in record["runs"][0]["parent"]
        assert {r[side]["seconds"] for r in record["runs"] for side in bench_record.SIDES} == {35.0}
        assert {r[side]["passes"] for r in record["runs"] for side in bench_record.SIDES} == {3}
        assert record["runs"][2]["change"]["metrics"]["work_per_s"]["value"] == 80.0

    def test_rejects_mixed_commits(self):
        mixed = [*RUNS, pair(5, "oracle", (1.0, 1.0), (1.0, 1.0))]
        mixed[-1]["change"]["environment"]["commit"] = "cc"
        with pytest.raises(ValueError, match="change runs disagree on commit"):
            bench_record.assemble(mixed, BENCHMARK, "a change", None)

    def test_rejects_undeclared_metric(self):
        runs = [pair(0, "oracle", (1.0, 1.0), (1.0, 1.0))]
        runs[0]["parent"]["metrics"]["made_up"] = {"value": 1, "unit": "s"}
        with pytest.raises(ValueError, match="made_up"):
            bench_record.assemble(runs, BENCHMARK, "a change", None)


class TestMain:
    def test_assemble_writes_the_record(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        log.write_text("".join(json.dumps(entry) + "\n" for entry in RUNS))
        out = tmp_path / "BENCH.json"
        argv = ["assemble", "--log", str(log), "--benchmark", str(ROOT / "BENCHMARK.json"), "--what", "w"]
        argv += ["--claim", "oracle", "work_per_s", "more", "--out", str(out)]
        assert bench_record.main(argv) == 0
        record = json.loads(out.read_text())
        assert record["claim"] == {"workload": "oracle", "metric": "work_per_s", "target": "more"}
        assert record == json.loads(json.dumps(bench_record.assemble(RUNS, BENCHMARK, "w", record["claim"])))

    def test_empty_log_exits_2(self, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        log.write_text("")
        argv = ["assemble", "--log", str(log), "--benchmark", str(ROOT / "BENCHMARK.json"), "--what", "w"]
        assert bench_record.main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == "error: the log holds no pairs\n"

    def test_run_needs_checkouts(self, tmp_path, capsys):
        argv = ["run", "--parent", str(tmp_path), "--change", str(ROOT), "--workload", "oracle"]
        assert bench_record.main([*argv, "--seed", "1", "--pairs", "1", "--log", str(tmp_path / "l")]) == 2
        assert "--parent" in capsys.readouterr().err

    def test_failed_run_shows_the_end_of_its_stderr(self, tmp_path, capsys):
        stderr = "".join(f"line {i}\n" for i in range(8))
        checkout = fake_checkout(tmp_path / "co", f"import sys\nsys.stderr.write({stderr!r})\nsys.exit(1)\n")
        argv = ["run", "--parent", str(checkout), "--change", str(checkout), "--workload", "oracle"]
        assert bench_record.main([*argv, "--seed", "1", "--pairs", "1", "--log", str(tmp_path / "l")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: perfbench/run.py --workload oracle --seed 1 --trace 0 in ")
        assert err.endswith(" exited 1:\nline 3\nline 4\nline 5\nline 6\nline 7\n")
        assert not (tmp_path / "l").exists()

    def test_traced_pair_prints_routing_self_s(self, tmp_path, capsys):
        checkouts = []
        for side, seconds in (("parent", 1.25), ("change", 0.75)):
            output = printed(side, {"routing.self_s": {"value": seconds, "unit": "s"}})
            checkouts += ["--" + side, str(fake_checkout(tmp_path / side, f"print({output!r}, end='')\n"))]
        argv = ["run", *checkouts, "--workload", "oracle", "--seed", "1", "--pairs", "1", "--trace", "1"]
        assert bench_record.main([*argv, "--log", str(tmp_path / "l")]) == 0
        assert capsys.readouterr().out == "pair 0 oracle seed 1: routing.self_s {'parent': 1.25, 'change': 0.75}\n"
        assert bench_record.read_log(tmp_path / "l")[0]["change"]["metrics"]["routing.self_s"]["value"] == 0.75


class TestTrajectory:
    @staticmethod
    def write_records(tmp_path: Path) -> None:
        """BENCH_9 with a claim and a traced group, BENCH_10 without a claim."""
        traced = pair(5, "oracle", (1.0, 9.0), (1.0, 9.0))
        traced["trace"] = 1
        claim = {"workload": "oracle", "metric": "work_per_s", "target": "more"}
        nine = bench_record.assemble([*RUNS, traced], BENCHMARK, "nine", claim)
        ten_runs = [pair(0, "build", (1500.0, 0.25), (2500.0, 0.125))]
        for side, commit in (("parent", "bb"), ("change", "cc")):
            ten_runs[0][side]["environment"]["commit"] = commit * 10
        ten = bench_record.assemble(ten_runs, BENCHMARK, "ten", None)
        for n, record in ((9, nine), (10, ten)):
            (tmp_path / f"BENCH_{n}.json").write_text(json.dumps(record))

    def test_prints_every_records_end_to_end_medians_in_record_order(self, tmp_path, capsys):
        self.write_records(tmp_path)
        (tmp_path / "notes.json").write_text("{}")
        argv = ["trajectory", "--dir", str(tmp_path), "--benchmark", str(ROOT / "BENCHMARK.json")]
        assert bench_record.main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "BENCH_9.json: aa -> bb",
            "  claim: oracle work_per_s: more",
            "  oracle seed 1, 4 pairs, passes 3 -> 3:",
            "    work_per_s 102.5 -> 122.5 1/s",
            "    pass_s 2 -> 1.8 s",
            "  forward seed 2, 1 pairs, passes 3 -> 3:",
            "    work_per_s 50 -> 40 1/s",
            "    pass_s 1 -> 1.1 s",
            "BENCH_10.json: bbbbbbb -> ccccccc",
            "  claim: none",
            "  build seed 1, 1 pairs, passes 3 -> 3:",
            "    work_per_s 1,500 -> 2,500 1/s",
            "    pass_s 0.25 -> 0.125 s",
        ]

    def test_reads_only_numbered_records(self, tmp_path, capsys):
        # only BENCH_<n>.json names a record; a stray copy beside them is no record
        self.write_records(tmp_path)
        for stray in ("BENCH_22_rerun.json", "BENCH_.json", "BENCH_9.json.bak", "BENCH_x.json"):
            (tmp_path / stray).write_text("{}")
        argv = ["trajectory", "--dir", str(tmp_path), "--benchmark", str(ROOT / "BENCHMARK.json")]
        assert bench_record.main(argv) == 0
        heads = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
        assert heads == ["BENCH_9.json: aa -> bb", "BENCH_10.json: bbbbbbb -> ccccccc"]

    def test_per_layer_metrics_are_left_out(self):
        entry = pair(0, "oracle", (1.0, 1.0), (1.0, 1.0))
        for side in bench_record.SIDES:
            entry[side]["metrics"]["routing.self_s"] = {"value": 3.0, "unit": "s"}
        record = bench_record.assemble([entry], BENCHMARK, "w", None)
        lines = bench_record.trajectory({"BENCH_1.json": record}, BENCHMARK)
        assert [line.split()[0] for line in lines[3:]] == ["work_per_s", "pass_s"]

    def test_pass_counts_are_each_sides_median_and_absent_from_older_records(self):
        # a record written before pass counts were kept has no passes in its
        # summary, and its group line then shows none
        runs = [pair(n, "forward", (10.0, 1.0), (12.0, 0.9)) for n in range(4)]
        for entry, (parent, change) in zip(runs, [(28, 39), (29, 40), (30, 41), (27, 38)]):
            entry["parent"]["passes"], entry["change"]["passes"] = parent, change
        new = bench_record.assemble(runs, BENCHMARK, "new", None)
        old = json.loads(json.dumps(new))
        del old["summary"][0]["passes"]
        lines = bench_record.trajectory({"BENCH_19.json": old, "BENCH_20.json": new}, BENCHMARK)
        heads = [line for line in lines if line.startswith("  forward")]
        assert heads == ["  forward seed 1, 4 pairs:", "  forward seed 1, 4 pairs, passes 28.5 -> 39.5:"]

    def test_no_records_exits_2(self, tmp_path, capsys):
        argv = ["trajectory", "--dir", str(tmp_path), "--benchmark", str(ROOT / "BENCHMARK.json")]
        assert bench_record.main(argv) == 2
        assert capsys.readouterr().err == f"error: no BENCH_*.json in {tmp_path}\n"


# A run.py that forks a worker, which touches 40 MB and spins for 0.3 s of
# CPU, reaps it, then prints its report and result lines; the run itself
# stays far below 40 MB and idles while it waits.
FORKING_RUN = """
import os, sys, time
pid = os.fork()
if pid == 0:
    block = bytearray(40 << 20)
    end = time.process_time() + 0.3
    while time.process_time() < end:
        pass
    os._exit(0)
os.waitpid(pid, 0)
sys.stdout.write(OUTPUT)
"""


class TestProcessTree:
    def test_run_side_counts_reaped_workers(self, tmp_path):
        output = run_output("aa", 100.0, 2.0)
        checkout = fake_checkout(tmp_path / "co", f"OUTPUT = {output!r}\n{FORKING_RUN}")
        result = bench_record.run_side(checkout, "oracle", 1, 0)
        assert result["metrics"] == bench_record.parse_run_output(output)["metrics"]
        usage = result["process_tree"]
        assert usage["max_rss_mb"] >= 40
        assert usage["cpu_s"] >= 0.3
