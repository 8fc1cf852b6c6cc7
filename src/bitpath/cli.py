"""Command-line surface: sizing tables, labelling verification, and
delivery simulation.

Exit codes: 0 success / verified, 1 violations or failed delivery, 2 usage
errors. Table cells are pure integers or fixed one-decimal percents, so
default invocations are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable, Iterable, Sequence, TextIO

from .bloom import (
    _check_weight,
    analytic_fpr,
    at_least_one_fp,
    bloom_labelling,
    empirical_fpr,
    optimal_label_weight,
    optimal_label_weight_int,
)
from .decompose import (
    core_periphery_universe_size,
    label_core_periphery,
    label_tree,
    perfect_tree_universe_size,
)
from .graphs import (
    Graph,
    NoPathError,
    ceil_log2,
    load_edge_list,
    make_complete,
    make_core_periphery,
    make_perfect_binary_tree,
    make_star,
)
from .labelling import bit_per_edge, bit_per_vertex, optimal_rank, star_labelling
from .routing import simulate_delivery, verify_no_false_positives

STAR_TABLE_DEFAULT = (10, 100, 1_000, 10_000, 100_000, 1_000_000)
CORE_PERIPHERY_TABLE_DEFAULT = (100, 200, 300, 400, 500)
TREE_TABLE_DEFAULT = (5, 10, 15)
BLOOM_TABLE_DEFAULT = (10, 20, 30, 40)

MAX_PRINTED_VIOLATIONS = 20


def format_percent(p: float) -> str:
    """Probability -> percent with one decimal, round half up."""
    return str(Decimal(repr(p * 100.0)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def emit_table(headers: Sequence[str], rows: Sequence[Sequence], fmt: str, out: TextIO) -> None:
    cells = [[str(c) for c in row] for row in rows]
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    out.write("| " + " | ".join(h.rjust(widths[i]) for i, h in enumerate(headers)) + " |\n")
    out.write("|" + "|".join("-" * (w + 2) for w in widths) + "|\n")
    for row in cells:
        out.write("| " + " | ".join(v.rjust(widths[i]) for i, v in enumerate(row)) + " |\n")


# ---------------------------------------------------------------------------
# table commands


def _print_table(headers: list[str], sizes: list[int], floor: int, what: str, row: Callable, fmt: str) -> int:
    """One row per size, in the order given, once every size is at least floor."""
    if any(n < floor for n in sizes):
        raise ValueError(f"{what} must be >= {floor}")
    emit_table(headers, [row(n) for n in sizes], fmt, sys.stdout)
    return 0


def cmd_star_table(args: argparse.Namespace) -> int:
    def row(n: int) -> list:
        # every star pair has a unique shortest path: n one-edge + C(n,2) two-edge
        choice = optimal_rank(n)
        return [n, ceil_log2(n + math.comb(n, 2)), choice.size, choice.rank]

    headers = ["n", "theoretical_smallest_size", "universe_size", "optimal_rank"]
    return _print_table(headers, args.sizes, 1, "star sizes", row, args.format)


def cmd_core_periphery_table(args: argparse.Namespace) -> int:
    def row(n: int) -> list:
        vertices, edges = n * n, math.comb(n, 2) + n * (n - 1)
        # all vertex pairs have unique shortest paths here
        return [n, vertices, edges, ceil_log2(math.comb(vertices, 2)), core_periphery_universe_size(n)]

    headers = ["n", "vertices", "edges", "theoretical_smallest_size", "universe_size"]
    return _print_table(headers, args.sizes, 2, "core-periphery sizes", row, args.format)


def cmd_binary_tree_table(args: argparse.Namespace) -> int:
    def row(h: int) -> list:
        vertices = 2 ** (h + 1) - 1
        return [h, vertices, ceil_log2(math.comb(vertices, 2)), perfect_tree_universe_size(h)]

    headers = ["height", "vertices", "theoretical_smallest_size", "universe_size"]
    code = _print_table(headers, args.heights, 1, "tree heights", row, args.format)
    print(
        "note: theoretical_smallest_size = ceil(log2(total number of shortest "
        "paths)); on a tree that is ceil(log2(C(|V|, 2)))",
        file=sys.stderr,
    )
    return code


def cmd_bloom_table(args: argparse.Namespace) -> int:
    _reject_unused_flags([
        ("--trials", args.trials, args.empirical, "--empirical"),
        ("--seed", args.seed, args.empirical, "--empirical"),
    ])
    trials = 100_000 if args.trials is None else args.trials
    seed = 1 if args.seed is None else args.seed
    headers = ["edges", "universe_size", "analytic_fpr_percent"]
    if args.at_least_one:
        headers.append("at_least_one_percent")
    if args.empirical:
        headers.append("empirical_fpr_percent")

    def row(e: int) -> list:
        m = optimal_rank(e).size
        fpr_cell = format_percent(analytic_fpr(m, 2, optimal_label_weight(m, 2)))
        cells: list = [e, m, fpr_cell]
        if args.at_least_one:
            # uses the rounded per-edge percent, matching the printed column
            cells.append(format_percent(at_least_one_fp(float(fpr_cell) / 100.0, e - 2)))
        if args.empirical:
            rate, _ = empirical_fpr(e, m, optimal_label_weight_int(m, 2), trials, seed)
            cells.append(format_percent(rate))
        return cells

    return _print_table(headers, args.sizes, 3, "bloom table sizes", row, args.format)


# ---------------------------------------------------------------------------
# graph / labelling resolution for verify and route


def _add_graph_arguments(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--star", type=int, metavar="N", help="star with N edges")
    source.add_argument("--complete", type=int, metavar="N", help="complete graph on N vertices")
    source.add_argument(
        "--core-periphery", type=int, metavar="N", help="complete core of N vertices, N-1 leaves each"
    )
    source.add_argument("--tree", type=int, metavar="H", help="perfect binary tree of height H")
    source.add_argument("--graph", metavar="PATH", help="edge-list file ('V E' then 'u v' lines)")


def _add_scheme_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--scheme",
        required=True,
        choices=["bit-per-edge", "bit-per-vertex", "star", "combined", "bloom"],
    )
    sub.add_argument("--rank", type=int, help="star scheme: tuple rank (default: optimal)")
    sub.add_argument(
        "--core", metavar="IDS", help="combined scheme with --graph: comma-separated core vertex ids"
    )
    sub.add_argument("--m", type=int, help="bloom scheme: universe size")
    sub.add_argument("--k", type=int, help="bloom scheme: label weight")
    sub.add_argument("--seed", type=int, help="bloom scheme: RNG seed (default: 1)")
    sub.add_argument("--dump-labelling", metavar="PATH", help="write the labelling as text")


def _resolve_graph(args: argparse.Namespace) -> tuple[Graph, frozenset[int] | None]:
    """The graph verify and route act on and its core, if one is known, once
    every flag goes with the scheme, the scheme with the graph flags, a Bloom
    --m is at least 1 and --k fits it and, with --graph, --core parses: no
    check builds or reads a graph."""
    scheme, from_file = args.scheme, args.graph is not None
    _reject_unused_flags([
        ("--rank", args.rank, scheme == "star", "--scheme star"),
        ("--core", args.core, scheme == "combined" and from_file, "--graph with --scheme combined"),
        ("--m", args.m, scheme == "bloom", "--scheme bloom"),
        ("--k", args.k, scheme == "bloom", "--scheme bloom"),
        ("--seed", args.seed, scheme == "bloom", "--scheme bloom"),
    ])
    if scheme == "star":
        if args.star is None:
            raise ValueError("--scheme star requires a --star graph")
        # the optimal rank is always admissible; a --star below 1 is make_star's error
        if args.rank is not None and args.star >= 1:
            # past ceil(log2 N) the base stays 2 and a rank only adds bits
            top = max(1, ceil_log2(args.star))
            if not 1 <= args.rank <= top:
                raise ValueError(f"--rank must be in 1..{top} for --star {args.star}, got {args.rank}")
    elif scheme == "combined":
        if args.core_periphery is None and args.tree is None and args.core is None:
            raise ValueError("--scheme combined requires --core-periphery, --tree, or --graph with --core")
    elif scheme == "bloom":
        if args.m is None or args.k is None:
            raise ValueError("--scheme bloom requires --m and --k")
        if args.m < 1:
            raise ValueError(f"--m must be at least 1, got {args.m}")
        _check_weight(args.m, args.k)
    if args.star is not None:
        return make_star(args.star), None
    if args.complete is not None:
        return make_complete(args.complete), None
    if args.core_periphery is not None:
        return make_core_periphery(args.core_periphery)
    if args.tree is not None:
        return make_perfect_binary_tree(args.tree), None
    core = None if args.core is None else _parse_core(args.core)
    with open(args.graph, encoding="utf-8") as fh:
        return load_edge_list(fh.read()), core


def _parse_core(text: str) -> frozenset[int]:
    if not text:
        raise ValueError("--core is empty: give comma-separated core vertex ids")
    core = set()
    for tok in text.split(","):
        try:
            core.add(int(tok))
        except ValueError:
            raise ValueError(f"--core: {tok!r} is not a vertex id") from None
    return frozenset(core)


def _reject_unused_flags(rows: Iterable[tuple[str, object, bool, str]]) -> None:
    for flag, value, used, where in rows:
        if value is not None and not used:
            raise ValueError(f"{flag} applies only to {where}")


def _resolve_labelling(args: argparse.Namespace, g: Graph, core: frozenset[int] | None):
    """The --scheme labelling of g, also written out if --dump-labelling asks."""
    if args.scheme == "bit-per-edge":
        labelling = bit_per_edge(g)
    elif args.scheme == "bit-per-vertex":
        labelling = bit_per_vertex(g)
    elif args.scheme == "star":
        rank = optimal_rank(args.star).rank if args.rank is None else args.rank
        labelling = star_labelling(args.star, rank)
    elif args.scheme == "combined":
        labelling = label_tree(g, 0) if core is None else label_core_periphery(g, core)
    else:  # "bloom": argparse's choices admit no other scheme
        labelling = bloom_labelling(g, args.m, args.k, 1 if args.seed is None else args.seed)
    if args.dump_labelling:
        with open(args.dump_labelling, "w", encoding="utf-8") as fh:
            fh.write(labelling.to_text())
    return labelling


def cmd_verify(args: argparse.Namespace) -> int:
    if args.path_cap < 1:
        raise ValueError(f"--path-cap must be >= 1, got {args.path_cap}")
    g, core = _resolve_graph(args)
    labelling = _resolve_labelling(args, g, core)
    report = verify_no_false_positives(g, labelling, path_cap=args.path_cap)
    print(report.summary())
    for u, v, eid in report.false_positives[:MAX_PRINTED_VIOLATIONS]:
        print(f"false positive: pair ({u}, {v}) edge {eid}")
    hidden = len(report.false_positives) - MAX_PRINTED_VIOLATIONS
    if hidden > 0:
        print(f"... {hidden} more violations not shown")
    return 0 if report.ok else 1


def cmd_route(args: argparse.Namespace) -> int:
    g, core = _resolve_graph(args)
    for flag, vertex in (("--source", args.source), ("--dest", args.dest)):
        if not 0 <= vertex < g.vertex_count:
            raise ValueError(
                f"{flag} {vertex} is not a vertex id: the graph has {g.vertex_count} vertices, ids from 0"
            )
    labelling = _resolve_labelling(args, g, core)
    try:
        trace = simulate_delivery(g, labelling, args.source, args.dest)
    except NoPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("visited: " + " ".join(str(v) for v in trace.visited))
    print("candidates per hop: " + " ".join(str(c) for c in trace.candidate_counts))
    print(f"outcome: {trace.outcome} at {trace.at} in {trace.hop_count} hops")
    return 0 if trace.delivered else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitpath",
        description="False-positive-free bit-header path encodings: sizing tables, "
        "verification, and forwarding simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["markdown", "csv"], default="markdown")

    p = sub.add_parser("star-table", help="universe sizes for star graphs")
    p.add_argument("sizes", type=int, nargs="*", default=list(STAR_TABLE_DEFAULT))
    add_format(p)
    p.set_defaults(func=cmd_star_table)

    p = sub.add_parser("core-periphery-table", help="universe sizes for core-periphery graphs")
    p.add_argument("sizes", type=int, nargs="*", default=list(CORE_PERIPHERY_TABLE_DEFAULT))
    add_format(p)
    p.set_defaults(func=cmd_core_periphery_table)

    p = sub.add_parser("binary-tree-table", help="universe sizes for perfect binary trees")
    p.add_argument("heights", type=int, nargs="*", default=list(TREE_TABLE_DEFAULT))
    add_format(p)
    p.set_defaults(func=cmd_binary_tree_table)

    p = sub.add_parser("bloom-table", help="random-label false-positive rates on stars")
    p.add_argument("sizes", type=int, nargs="*", default=list(BLOOM_TABLE_DEFAULT))
    p.add_argument("--at-least-one", action="store_true", help="add P(any off-path FP) column")
    p.add_argument("--empirical", action="store_true", help="add a measured-rate column")
    p.add_argument("--trials", type=int, help="--empirical: trials per size (default: 100000)")
    p.add_argument("--seed", type=int, help="--empirical: RNG seed (default: 1)")
    add_format(p)
    p.set_defaults(func=cmd_bloom_table)

    p = sub.add_parser("verify", help="run the exhaustive false-positive oracle")
    _add_graph_arguments(p)
    _add_scheme_arguments(p)
    p.add_argument("--path-cap", type=int, default=1000, help="max shortest paths per pair")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("route", help="simulate one header-driven delivery")
    _add_graph_arguments(p)
    _add_scheme_arguments(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--dest", type=int, required=True)
    p.set_defaults(func=cmd_route)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
