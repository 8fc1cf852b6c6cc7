"""Command-line behavior: tables, verification, routing, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitpath import (
    Labelling,
    label_core_periphery,
    label_tree,
    make_core_periphery,
    make_perfect_binary_tree,
    star_labelling,
)
from bitpath.cli import build_parser, main
from helpers import reference_to_text

STAR_CSV = (
    "n,theoretical_smallest_size,universe_size,optimal_rank\n"
    "10,6,10,1\n"
    "100,13,30,2\n"
    "1000,19,60,3\n"
    "10000,26,100,4\n"
    "100000,33,147,6\n"
    "1000000,39,210,6\n"
)

CORE_PERIPHERY_CSV = (
    "n,vertices,edges,theoretical_smallest_size,universe_size\n"
    "100,10000,14850,26,200\n"
    "200,40000,59700,30,326\n"
    "300,90000,134550,32,447\n"
    "400,160000,239400,34,565\n"
    "500,250000,374250,35,668\n"
)

TREE_CSV = (
    "height,vertices,theoretical_smallest_size,universe_size\n"
    "5,63,11,44\n"
    "10,2047,21,252\n"
    "15,65535,31,733\n"
)

BLOOM_CSV = (
    "edges,universe_size,analytic_fpr_percent\n"
    "10,10,9.1\n"
    "20,15,2.7\n"
    "30,18,1.3\n"
    "40,21,0.6\n"
)


GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"
CLI_GOLDENS = {
    key: golden
    for key, golden in json.loads(GOLDENS.read_text(encoding="utf-8")).items()
    if key.startswith("cli ")
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTables:
    def test_star_table_default_csv(self, capsys):
        code, out, _ = run(capsys, ["star-table", "--format", "csv"])
        assert code == 0
        assert out == STAR_CSV

    def test_star_table_single_small_star(self, capsys):
        # 3 shortest paths in the 2-edge star, so 2 bits
        code, out, _ = run(capsys, ["star-table", "2", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[1] == "2,2,2,1"

    def test_empty_table_is_header_only(self):
        from bitpath.cli import emit_table

        csv_out = io.StringIO()
        emit_table(["a", "b"], [], "csv", csv_out)
        assert csv_out.getvalue() == "a,b\n"
        md_out = io.StringIO()
        emit_table(["a", "b"], [], "markdown", md_out)
        assert md_out.getvalue() == "| a | b |\n|---|---|\n"

    def test_core_periphery_table_default_csv(self, capsys):
        code, out, _ = run(capsys, ["core-periphery-table", "--format", "csv"])
        assert code == 0
        assert out == CORE_PERIPHERY_CSV

    def test_core_periphery_toy_row(self, capsys):
        code, out, _ = run(capsys, ["core-periphery-table", "3", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[1] == "3,9,9,6,9"

    def test_binary_tree_table_default_csv(self, capsys):
        code, out, err = run(capsys, ["binary-tree-table", "--format", "csv"])
        assert code == 0
        assert out == TREE_CSV
        assert "note: theoretical_smallest_size" in err

    def test_binary_tree_small_heights(self, capsys):
        code, out, _ = run(capsys, ["binary-tree-table", "1", "3", "--format", "csv"])
        assert code == 0
        rows = out.splitlines()
        assert rows[1] == "1,3,2,2"  # a single 2-edge star
        assert rows[2] == "3,15,7,14"  # levels cost 2 + 4 + 8, all rank 1

    def test_bloom_table_default_csv(self, capsys):
        code, out, _ = run(capsys, ["bloom-table", "--format", "csv"])
        assert code == 0
        assert out == BLOOM_CSV

    def test_bloom_table_at_least_one(self, capsys):
        code, out, _ = run(capsys, ["bloom-table", "--at-least-one", "--format", "csv"])
        assert code == 0
        rows = out.splitlines()
        assert rows[0].endswith("at_least_one_percent")
        assert rows[4] == "40,21,0.6,20.4"

    def test_bloom_table_empirical_column_is_deterministic(self, capsys):
        argv = ["bloom-table", "10", "--empirical", "--trials", "400", "--seed", "7", "--format", "csv"]
        code, first, _ = run(capsys, argv)
        assert code == 0
        assert first.splitlines()[0].endswith("empirical_fpr_percent")
        code, second, _ = run(capsys, argv)
        assert first == second

    def test_default_tables_are_byte_stable(self, capsys):
        for argv in (
            ["star-table"],
            ["core-periphery-table"],
            ["binary-tree-table"],
            ["bloom-table"],
        ):
            code, first, _ = run(capsys, argv)
            assert code == 0
            code, second, _ = run(capsys, argv)
            assert first == second

    def test_csv_round_trips(self, capsys):
        _, out, _ = run(capsys, ["star-table", "--format", "csv"])
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "theoretical_smallest_size", "universe_size", "optimal_rank"]
        assert rows[1] == ["10", "6", "10", "1"]
        assert len(rows) == 7

    def test_markdown_layout(self, capsys):
        code, out, _ = run(capsys, ["bloom-table", "10"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "| edges | universe_size | analytic_fpr_percent |"
        assert lines[1] == "|-------|---------------|----------------------|"
        assert lines[2] == "|    10 |            10 |                  9.1 |"

    def test_star_table_past_double_range(self, capsys):
        # rank 443 in base 8: 8**443 = 2**1329 >= 10**400 > 7**443
        n = 10**400
        code, out, _ = run(capsys, ["star-table", str(n), "--format", "csv"])
        assert code == 0
        assert out.splitlines()[1] == f"{n},2657,{(443 + 443 * 442 // 2) * 8},443"

    @pytest.mark.parametrize(
        "argv,prefix",
        [
            (["binary-tree-table", "1100"], "error: height 1100 "),
            (["core-periphery-table", str(10**160)], f"error: n={10**160} "),
        ],
        ids=["tree", "core-periphery"],
    )
    def test_float_rank_selection_overflow_exits_two(self, capsys, argv, prefix):
        # the message names the row asked for, not an internal level size
        code, out, err = run(capsys, argv)
        assert code == 2
        assert err.startswith(prefix)
        assert "too large" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", sorted(CLI_GOLDENS))
    def test_benchmark_golden(self, capsys, key):
        # the benchmark's recorded CLI runs: default tables and README examples
        code, out, err = run(capsys, key.split()[1:])
        assert {"exit": code, "stdout": out, "stderr": err} == CLI_GOLDENS[key]

    def test_rejects_bad_sizes(self, capsys):
        code, _, err = run(capsys, ["star-table", "0"])
        assert code == 2
        assert "error" in err
        code, _, err = run(capsys, ["bloom-table", "2"])
        assert code == 2


class TestVerifyCommand:
    def test_star_scheme_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--star", "100", "--scheme", "star"])
        assert code == 0
        assert out.startswith("ok:")

    def test_combined_scheme_on_core_periphery(self, capsys):
        code, out, _ = run(capsys, ["verify", "--core-periphery", "10", "--scheme", "combined"])
        assert code == 0

    def test_combined_scheme_on_tree(self, capsys):
        code, out, _ = run(capsys, ["verify", "--tree", "4", "--scheme", "combined"])
        assert code == 0

    def test_bit_per_vertex_on_complete(self, capsys):
        code, out, _ = run(capsys, ["verify", "--complete", "15", "--scheme", "bit-per-vertex"])
        assert code == 0

    def test_bloom_scheme_reports_violations(self, capsys):
        code = None
        for seed in range(1, 6):
            code = main(
                ["verify", "--star", "40", "--scheme", "bloom", "--m", "21", "--k", "7", "--seed", str(seed)]
            )
            out = capsys.readouterr().out
            if code == 1:
                assert "VIOLATIONS" in out
                assert "false positive" in out
                break
        assert code == 1

    def test_bloom_seed_defaults_to_one(self, capsys):
        argv = ["verify", "--star", "40", "--scheme", "bloom", "--m", "21", "--k", "7"]
        assert run(capsys, argv) == run(capsys, [*argv, "--seed", "1"])

    def test_star_scheme_needs_star_graph(self, capsys):
        code, _, err = run(capsys, ["verify", "--complete", "5", "--scheme", "star"])
        assert code == 2
        assert "star" in err

    def test_combined_scheme_needs_core(self, capsys):
        code, _, err = run(capsys, ["verify", "--star", "5", "--scheme", "combined"])
        assert code == 2

    def test_bloom_scheme_needs_parameters(self, capsys):
        code, _, err = run(capsys, ["verify", "--star", "5", "--scheme", "bloom"])
        assert code == 2

    def test_graph_file_source(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, ["verify", "--graph", str(path), "--scheme", "bit-per-edge"])
        assert code == 0

    def test_graph_file_with_core_combined(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 3\n0 1\n0 2\n0 3\n")
        code, out, _ = run(
            capsys, ["verify", "--graph", str(path), "--scheme", "combined", "--core", "0"]
        )
        assert code == 0

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_rejects_non_positive_path_cap(self, capsys, cap):
        code, out, err = run(capsys, ["verify", "--star", "5", "--scheme", "star", "--path-cap", cap])
        assert code == 2
        assert err.startswith("error: ")
        assert "--path-cap" in err
        assert out == ""

    def test_rejects_bad_core_token(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 3\n0 1\n0 2\n0 3\n")
        code, _, err = run(
            capsys, ["verify", "--graph", str(path), "--scheme", "combined", "--core", "0,x"]
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "--core" in err
        assert "'x'" in err

    def test_rejects_empty_core(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 3\n0 1\n0 2\n0 3\n")
        code, out, err = run(capsys, ["verify", "--graph", str(path), "--scheme", "combined", "--core", ""])
        assert code == 2
        assert out == ""
        assert err == "error: --core is empty: give comma-separated core vertex ids\n"

    def test_malformed_graph_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 0\n")
        code, _, err = run(capsys, ["verify", "--graph", str(path), "--scheme", "bit-per-edge"])
        assert code == 2
        assert "line 2" in err

    def test_dump_labelling(self, capsys, tmp_path):
        dump = tmp_path / "labels.txt"
        code, _, _ = run(
            capsys,
            ["verify", "--star", "10", "--scheme", "star", "--rank", "2", "--dump-labelling", str(dump)],
        )
        assert code == 0
        parsed = Labelling.from_text(dump.read_text())
        assert parsed.masks == star_labelling(10, 2).masks

    @pytest.mark.parametrize(
        "graph, build",
        [
            (["--tree", "6"], lambda: label_tree(make_perfect_binary_tree(6), 0)),
            (["--core-periphery", "5"], lambda: label_core_periphery(*make_core_periphery(5))),
        ],
        ids=["tree", "core-periphery"],
    )
    def test_dump_combined_labelling(self, capsys, tmp_path, graph, build):
        dump = tmp_path / "labels.txt"
        code, _, _ = run(capsys, ["verify", *graph, "--scheme", "combined", "--dump-labelling", str(dump)])
        assert code == 0
        expected = build()
        assert dump.read_bytes() == reference_to_text(expected.width, expected.masks).encode()
        parsed = Labelling.from_text(dump.read_text())
        assert (parsed.width, parsed.masks) == (expected.width, expected.masks)

    @pytest.mark.parametrize("rank", ["0", "5"])
    def test_rank_outside_admissible_range(self, capsys, rank):
        # a 10-edge star takes ranks 1..ceil(log2 10) = 1..4
        code, out, err = run(capsys, ["verify", "--star", "10", "--scheme", "star", "--rank", rank])
        assert code == 2
        assert out == ""
        assert err == f"error: --rank must be in 1..4 for --star 10, got {rank}\n"

    def test_top_rank_is_accepted(self, capsys):
        code, out, _ = run(capsys, ["verify", "--star", "10", "--scheme", "star", "--rank", "4"])
        assert code == 0
        assert out.startswith("ok:")


class TestRouteCommand:
    def test_star_route(self, capsys):
        code, out, _ = run(
            capsys, ["route", "--star", "10", "--scheme", "star", "--source", "1", "--dest", "7"]
        )
        assert code == 0
        assert "visited: 1 0 7" in out
        assert "delivered at 7 in 2 hops" in out

    def test_source_equals_dest(self, capsys):
        code, out, _ = run(
            capsys, ["route", "--star", "10", "--scheme", "star", "--source", "4", "--dest", "4"]
        )
        assert code == 0
        assert "0 hops" in out

    def test_core_periphery_three_hops(self, capsys):
        code, out, _ = run(
            capsys,
            ["route", "--core-periphery", "5", "--scheme", "combined", "--source", "5", "--dest", "17"],
        )
        assert code == 0
        assert "visited: 5 0 3 17" in out
        assert "3 hops" in out

    def test_no_path_exits_one(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 2\n0 1\n2 3\n")
        code, _, err = run(
            capsys,
            ["route", "--graph", str(path), "--scheme", "bit-per-edge", "--source", "0", "--dest", "3"],
        )
        assert code == 1
        assert "no path" in err

    @pytest.mark.parametrize(
        "endpoints, message",
        [
            (["--source", "5", "--dest", "1"], "--source 5 is not a vertex id: the graph has 5 vertices, ids from 0"),
            (["--source", "1", "--dest", "-1"], "--dest -1 is not a vertex id: the graph has 5 vertices, ids from 0"),
        ],
        ids=["source", "dest"],
    )
    def test_endpoint_out_of_range_names_flag_and_size(self, capsys, endpoints, message):
        code, out, err = run(capsys, ["route", "--star", "4", "--scheme", "star", *endpoints])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_candidate_counts_printed(self, capsys):
        code, out, _ = run(
            capsys, ["route", "--star", "6", "--scheme", "bit-per-edge", "--source", "2", "--dest", "3"]
        )
        assert code == 0
        assert "candidates per hop: 1 1 0" in out


class TestArgumentErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_scheme(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--star", "5", "--scheme", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "text, scheme",
        [
            (None, ["--scheme", "bit-per-edge"]),
            # contracting core {0} of a 4-cycle leaves a cycle in the periphery
            ("4 4\n0 1\n1 2\n2 3\n0 3\n", ["--scheme", "combined", "--core", "0"]),
        ],
        ids=["missing-graph-file", "contraction-fails"],
    )
    def test_bad_input_exits_two_without_traceback(self, capsys, tmp_path, text, scheme):
        path = tmp_path / "g.txt"
        if text is not None:
            path.write_text(text)
        code, _, err = run(capsys, ["verify", "--graph", str(path), *scheme])
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "--core-periphery", "4", "--scheme", "combined", "--core", "0,1"], "--core"),
            (["verify", "--tree", "2", "--scheme", "combined", "--core", "0"], "--core"),
            (["verify", "--graph", "GRAPH", "--scheme", "bit-per-edge", "--core", "0"], "--core"),
            (["verify", "--complete", "4", "--scheme", "bit-per-vertex", "--rank", "2"], "--rank"),
            (["verify", "--star", "4", "--scheme", "bloom", "--m", "4", "--k", "2", "--rank", "1"], "--rank"),
            (["route", "--star", "4", "--scheme", "star", "--k", "3", "--source", "1", "--dest", "2"], "--k"),
            (["verify", "--graph", "GRAPH", "--scheme", "combined", "--core", "0", "--m", "4"], "--m"),
            (["verify", "--star", "4", "--scheme", "star", "--seed", "5"], "--seed"),
            (["bloom-table", "10", "--trials", "0"], "--trials"),
            (["bloom-table", "10", "--seed", "3"], "--seed"),
        ],
        ids=["core-generated-core", "core-tree", "core-other-scheme", "rank-bit-per-vertex",
             "rank-bloom", "k-star", "m-combined", "seed-star", "trials-analytic-table",
             "seed-analytic-table"],
    )
    def test_flag_the_scheme_does_not_use(self, capsys, tmp_path, argv, flag):
        # each of these used to exit 0 without reading the flag
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        argv = [str(path) if a == "GRAPH" else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} applies only to ")

    def test_generator_rejects_invalid_size(self, capsys):
        code, _, err = run(capsys, ["route", "--star", "0", "--scheme", "bit-per-edge", "--source", "0", "--dest", "0"])
        assert code == 2


def refuse(*_args, **_kwargs):
    raise AssertionError("work ran before a failing check")  # main does not catch it


class TestChecksBeforeWork:
    """A failing check exits 2 before the work it guards: no table row is
    computed, no graph or labelling built, no --dump-labelling file written
    and no graph file read."""

    def test_table_sizes_before_any_row(self, capsys, monkeypatch):
        monkeypatch.setattr("bitpath.cli.empirical_fpr", refuse)
        code, out, err = run(capsys, ["bloom-table", "40", "2", "--empirical", "--trials", "100"])
        assert (code, out, err) == (2, "", "error: bloom table sizes must be >= 3\n")

    def test_route_endpoints_before_the_labelling(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("bitpath.cli.label_tree", refuse)
        dump = tmp_path / "labelling.txt"
        argv = ["route", "--tree", "6", "--scheme", "combined", "--source", "-1", "--dest", "0",
                "--dump-labelling", str(dump)]
        code, out, err = run(capsys, argv)
        message = "--source -1 is not a vertex id: the graph has 127 vertices, ids from 0"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not dump.exists()

    def test_core_before_the_graph_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("bitpath.cli.load_edge_list", refuse)
        path = tmp_path / "g.txt"
        path.write_text("4 3\n0 1\n0 2\n0 3\n")
        code, out, err = run(capsys, ["verify", "--graph", str(path), "--scheme", "combined", "--core", "0,x"])
        assert (code, out, err) == (2, "", "error: --core: 'x' is not a vertex id\n")

    @pytest.mark.parametrize(
        "argv, builder, message",
        [
            (["verify", "--complete", "1000", "--scheme", "star"], "make_complete",
             "--scheme star requires a --star graph"),
            (["verify", "--star", "10", "--scheme", "star", "--rank", "5"], "make_star",
             "--rank must be in 1..4 for --star 10, got 5"),
            (["verify", "--graph", "MISSING", "--scheme", "combined"], "load_edge_list",
             "--scheme combined requires --core-periphery, --tree, or --graph with --core"),
            (["route", "--tree", "16", "--scheme", "bloom", "--source", "0", "--dest", "1"],
             "make_perfect_binary_tree", "--scheme bloom requires --m and --k"),
            (["route", "--complete", "1500", "--scheme", "bloom", "--m", "4", "--k", "0",
              "--source", "0", "--dest", "1"],
             "make_complete", "label weight must satisfy 1 <= k <= universe size"),
            (["verify", "--star", "3", "--scheme", "bloom", "--m", "0", "--k", "1"], "make_star",
             "--m must be at least 1, got 0"),
            (["verify", "--star", "3", "--scheme", "bloom", "--m", "-4", "--k", "-9"], "make_star",
             "--m must be at least 1, got -4"),
        ],
        ids=["star-needs-star", "rank-range", "combined-needs-core", "bloom-needs-m-k", "bloom-weight",
             "bloom-universe", "bloom-universe-before-weight"],
    )
    def test_scheme_before_the_graph(self, capsys, monkeypatch, tmp_path, argv, builder, message):
        # MISSING is a file that does not exist: opening it would be another error
        monkeypatch.setattr(f"bitpath.cli.{builder}", refuse)
        argv = [str(tmp_path / "missing.txt") if a == "MISSING" else a for a in argv]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # each argv has a second error, met only after the one named
            (["binary-tree-table", "1100", "0"], "tree heights must be >= 1"),
            (["route", "--star", "5", "--scheme", "bloom", "--source", "99", "--dest", "1"],
             "--scheme bloom requires --m and --k"),
            (["verify", "--graph", "MISSING", "--scheme", "combined", "--core", "0,x"],
             "--core: 'x' is not a vertex id"),
            (["route", "--star", "5", "--scheme", "bloom", "--m", "4", "--k", "5", "--source", "99", "--dest", "1"],
             "label weight must satisfy 1 <= k <= universe size"),
        ],
        ids=["size-before-row", "scheme-before-endpoint", "core-before-file", "weight-before-endpoint"],
    )
    def test_first_of_two_errors(self, capsys, tmp_path, argv, message):
        argv = [str(tmp_path / "missing.txt") if a == "MISSING" else a for a in argv]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


SUBCOMMANDS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
# small ints keep every graph at 127 vertices or fewer (--tree 6) and every
# oracle or Bloom call below the fork cutoff
INT_VALUES = st.integers(-2, 6).map(str)
FLAG_VALUES = st.one_of(INT_VALUES, st.sampled_from(["x", "1.5", ""]))
DUMP = "<dump path>"  # stands for a --dump-labelling file in a fresh directory


@st.composite
def flag_argvs(draw) -> list[str]:
    """argv of one subcommand on generated graphs: its required flags, one
    graph flag, up to four other flags and, for the tables, up to three
    sizes, each flag with an int in -2..6 or one of its choices,
    --dump-labelling with DUMP and --empirical always with --trials. Half
    the argvs are sloppy: values
    may be malformed ('x', '1.5', empty), required flags may be missing,
    graph flags may number 0 to 2, and the arguments come in any order."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    parser = SUBCOMMANDS[name]
    sloppy = draw(st.booleans())
    # --graph names a file; --help exits 0 by design
    skip = {"--graph", "-h"}
    options = [a for a in parser._actions if a.option_strings and not skip.intersection(a.option_strings)]
    graph = [a for group in parser._mutually_exclusive_groups for a in group._group_actions if a in options]
    # half the verify and route argvs write their labelling
    dump = [a for a in options if a.dest == "dump_labelling" and draw(st.booleans())]
    rest = [a for a in options if not a.required and a not in graph and a.dest != "dump_labelling"]
    chosen = [a for a in options if a.required and (not sloppy or draw(st.booleans()))]
    if graph:
        chosen += draw(st.lists(st.sampled_from(graph), unique=True, min_size=1 - sloppy, max_size=1 + sloppy))
    chosen += draw(st.lists(st.sampled_from(rest), unique=True, max_size=4)) + dump
    flags = {a.option_strings[0]: a for a in options}
    if "--empirical" in flags and flags["--empirical"] in chosen and flags["--trials"] not in chosen:
        chosen.append(flags["--trials"])
    values = FLAG_VALUES if sloppy else INT_VALUES
    chunks = [draw(st.lists(values, max_size=3))] if any(not a.option_strings for a in parser._actions) else []
    for action in chosen:
        flag = action.option_strings[0]
        if action.nargs == 0:
            chunks.append([flag])
        elif flag == "--dump-labelling":
            chunks.append([flag, DUMP])
        elif action.choices:
            chunks.append([flag, draw(st.sampled_from([*action.choices, "x"] if sloppy else action.choices))])
        else:
            chunks.append([flag, draw(values)])
    if sloppy:
        chunks = draw(st.permutations(chunks))
    return [name] + [arg for chunk in chunks for arg in chunk]


class TestFlagFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(flag_argvs())
    def test_main_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            dump = Path(tmp) / "labelling.txt"
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([str(dump) if a == DUMP else a for a in argv])
                except SystemExit as exc:
                    # argparse's own usage errors
                    assert exc.code == 2
                    return
            # a run that fails leaves no labelling file; one that ends reads back
            if code in (0, 1) and DUMP in argv:
                Labelling.from_text(dump.read_text(encoding="utf-8"))
            else:
                assert not dump.exists(), argv
        assert code in (0, 1, 2)
        if code == 2:
            lines = err.getvalue().split("\n")
            assert len(lines) == 2 and lines[0].startswith("error: ") and lines[1] == "", err.getvalue()


class TestStartup:
    def test_import_leaves_numpy_out(self):
        # the library needs only the standard library; numpy is for tests and perfbench
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import bitpath, bitpath.cli, sys; assert 'numpy' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_calls_below_the_shard_cutoff_leave_multiprocessing_out(self):
        # only a forking call imports it, since the import adds 0.7 MB of peak RSS
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import bitpath, bitpath.cli, sys\n"
            "g, core = bitpath.make_core_periphery(5)\n"
            "assert bitpath.verify_no_false_positives(g, bitpath.label_core_periphery(g, core)).ok\n"
            "bitpath.empirical_fpr(10, 10, 3, 100, 1)\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
