"""The three benchmark workloads: inputs from a seed, ops, checks and counts.

oracle  - verify_no_false_positives on exact and Bloom labellings.
forward - one simulate_delivery per seeded random (source, destination) pair.
build   - the paper's tables through cli.main, plus the label constructors
          and the text formats, with almost no routing work.

Every op is one call into bitpath made by a single closed-loop caller. Ops on
fixed inputs are checked against goldens.json; ops on seed-dependent inputs
against the independent references in check.py. Library functions are
looked up on their modules at call time so that tracing wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from bitpath import bloom, cli, decompose, graphs, labelling, routing

import check

CORPUS_BLOOM_WEIGHT = 3

SIZES = {
    "full": {
        "oracle": {
            "cp": 20,
            "tree": 8,
            "corpus": 100,
            "corpus_repeats": 3,
            "bloom_star": (40, 21, 7),
            # corpus graphs of 36-40 vertices, where the Bloom oracle's
            # 1000-record cap truncates
            "bloom_corpus": (4, 9, 14, 23),
        },
        "forward": {
            "cp": 20,
            "bloom": (68, 4),
            "tree": 12,
            "pairs": {"combined": 1000, "bloom": 1000, "tree": 500},
        },
        "build": {
            "star": 100_000,
            "tree": 13,
            "cp": 100,
            "trials": 500,
            "verify_cp": 10,
        },
        "baselines": {"star": (10**6, 6), "tree": 15, "cp": 20},
    },
    "toy": {
        "oracle": {
            "cp": 4,
            "tree": 3,
            "corpus": 6,
            "corpus_repeats": 1,
            "bloom_star": (10, 8, 3),
            "bloom_corpus": (1,),
        },
        "forward": {
            "cp": 4,
            "bloom": (12, 3),
            "tree": 4,
            "pairs": {"combined": 20, "bloom": 20, "tree": 10},
        },
        "build": {"star": 100, "tree": 4, "cp": 5, "trials": 20, "verify_cp": 4},
        "baselines": {"star": (100, 2), "tree": 4, "cp": 4},
    },
}


@dataclass
class Op:
    """One call into the library and how to check what it returned.

    call receives the results of the earlier ops of the same pass, by label.
    The op is correct when fingerprint(result) equals expected(). work is the
    op's contribution to the workload's throughput metric. golden, when set,
    gives the part of the fingerprint that expected() reads from goldens.json.
    """

    label: str
    call: Callable[[dict], object]
    fingerprint: Callable[[object], object]
    expected: Callable[[], object]
    work: int = 0
    golden: Callable[[object], object] | None = None


def corpus_graph(j: int):
    """Graph j of the acceptance suite's seeded 100-graph random corpus.

    It is the same for every workload seed: the oracle's exact inputs, and
    with them its cost, stay fixed, and the seed varies the Bloom labels.
    """
    n = 8 + (j * 7) % 33
    p = 0.10 + 0.015 * (j % 14)
    return graphs.make_random_connected(n, p, j)


class Oracle:
    name = "oracle"
    setup_reps_per_pass = 10

    def __init__(self, sizes: dict, goldens: dict):
        self.sizes = sizes
        self.goldens = goldens
        self._references: dict = {}

    def setup(self, seed: int) -> list[tuple]:
        """(label, graph, labelling, kind); kind says how the report is checked."""
        s = self.sizes
        cp, core = graphs.make_core_periphery(s["cp"])
        tree = graphs.make_perfect_binary_tree(s["tree"])
        star_n, m, k = s["bloom_star"]
        star = graphs.make_star(star_n)
        inputs = [
            (f"verify cp{s['cp']} combined", cp, decompose.label_core_periphery(cp, core), "golden"),
            (f"verify tree{s['tree']} combined", tree, decompose.label_tree(tree, 0), "golden"),
            (
                f"verify star{star_n} bloom m={m} k={k} seed=1",
                star,
                bloom.bloom_labelling(star, m, k, 1),
                "golden",
            ),
        ]
        corpus = [corpus_graph(j) for j in range(s["corpus"])]
        for j in s["bloom_corpus"]:
            g = corpus[j]
            m = g.vertex_count // 2
            masks = bloom.bloom_labelling(g, m, CORPUS_BLOOM_WEIGHT, seed * 1000 + j)
            inputs.append((f"verify corpus{j} bloom m={m} k={CORPUS_BLOOM_WEIGHT}", g, masks, "bloom"))
        exact = [
            (f"verify corpus{j} bit_per_vertex", g, labelling.bit_per_vertex(g), "exact")
            for j, g in enumerate(corpus)
        ] * s["corpus_repeats"]
        # The short corpus calls set the latency percentiles. Repeating them
        # and spreading them between the long calls makes the percentiles
        # sample the whole pass, not one stretch of it.
        chunk = -(-len(exact) // len(inputs))
        return [op for i, big in enumerate(inputs) for op in (big, *exact[i * chunk : (i + 1) * chunk])]

    def _reference(self, label: str, g, lab, kind: str) -> tuple[dict, set]:
        """Expected fingerprint of a seed-dependent input, and its genuine
        violations; computed once per run, since every pass repeats the inputs."""
        if label not in self._references:
            if kind == "exact":
                masks = [(1 << u) | (1 << v) for u, v in g.edges]
                self._references[label] = (
                    {
                        "report": check.reference_exact_report(g),
                        "labelling": check.masks_digest(g.vertex_count, masks),
                    },
                    set(),
                )
            else:
                fields, genuine = check.reference_report(g, lab.masks)
                self._references[label] = ({"report": fields, "records_genuine": True}, genuine)
        return self._references[label]

    def ops(self, inputs: list, seed: int, k: int) -> list[Op]:
        ops = []
        for label, g, lab, kind in inputs:
            if kind == "golden":
                fingerprint = lambda r, lab=lab: {
                    "report": check.report_fingerprint(r),
                    "labelling": check.labelling_digest(lab),
                }
                expected = lambda label=label: self.goldens.get(label)
            else:
                reference = lambda a=(label, g, lab, kind): self._reference(*a)
                if kind == "exact":
                    fingerprint = lambda r, lab=lab: {
                        "report": check.report_fingerprint(r, with_records=False),
                        "labelling": check.labelling_digest(lab),
                    }
                else:
                    fingerprint = lambda r, reference=reference: {
                        "report": check.report_fingerprint(r, with_records=False),
                        "records_genuine": set(r.false_positives) <= reference()[1],
                    }
                expected = lambda reference=reference: reference()[0]
            n = g.vertex_count
            ops.append(
                Op(
                    label,
                    lambda done, g=g, lab=lab: routing.verify_no_false_positives(g, lab),
                    fingerprint,
                    expected,
                    work=n * (n - 1) // 2,
                    golden=fingerprint if kind == "golden" else None,
                )
            )
        return ops

    def counts(self, inputs, ops, results) -> dict:
        reports = [r for r in results if isinstance(r, routing.VerificationReport)]
        return {
            "routing.pairs_checked": sum(r.pairs_checked for r in reports),
            "routing.paths_checked": sum(r.paths_checked for r in reports),
            "routing.subset_tests": sum(r.subset_tests for r in reports),
            "routing.false_positives_found": sum(len(r.false_positives) for r in reports),
            "routing.fp_truncated_calls": sum(r.fp_truncated for r in reports),
            "routing.verify_calls": len(ops),
        }

    def named(self, run) -> dict:
        return {
            "verify_pairs_per_s": {"value": run.work_per_s, "unit": "1/s"},
            "verify_p50_ms": {"value": run.quantile(0.5) * 1e3, "unit": "ms", "samples": run.samples},
            "verify_p90_ms": {"value": run.quantile(0.9) * 1e3, "unit": "ms", "samples": run.samples},
        }

    def layer_metrics(self, per_pass, per_input, counts) -> dict:
        verify = "routing.verify_no_false_positives"
        return {
            "routing.verify_self_s": per_pass.self_s(verify),
            "routing.subset_tests_per_s": counts["routing.subset_tests"] / per_pass.total_s(verify),
        }


@dataclass
class Deliveries:
    """One forward input: a graph, the labelling its headers use, the number
    of deliveries per pass, and how to build a reference path function."""

    label: str
    g: object
    lab: object
    per_pass: int
    path_function: Callable
    seeded: bool = False  # the labelling depends on the workload seed

    @cached_property
    def path(self) -> Callable[[int, int], list[int]]:
        return self.path_function(self.g)

    @cached_property
    def labelling_fingerprint(self) -> object:
        """Fixed labellings by digest; seeded ones by width and label weights."""
        if self.seeded:
            return [self.lab.width, sorted({mask.bit_count() for mask in self.lab.masks})]
        return check.labelling_digest(self.lab)


class Forward:
    name = "forward"
    setup_reps_per_pass = 1

    def __init__(self, sizes: dict, goldens: dict):
        self.sizes = sizes
        self.goldens = goldens

    def setup(self, seed: int) -> list[Deliveries]:
        s = self.sizes
        n, (m, k), pairs = s["cp"], s["bloom"], s["pairs"]
        cp, core = graphs.make_core_periphery(n)
        tree = graphs.make_perfect_binary_tree(s["tree"])
        cp_path = lambda g: check.core_periphery_path(g, n)
        return [
            Deliveries(
                f"forward cp{n} combined",
                cp,
                decompose.label_core_periphery(cp, core),
                pairs["combined"],
                cp_path,
            ),
            Deliveries(
                f"forward cp{n} bloom m={m} k={k}",
                cp,
                bloom.bloom_labelling(cp, m, k, seed),
                pairs["bloom"],
                cp_path,
                seeded=True,
            ),
            Deliveries(
                f"forward tree{s['tree']} combined",
                tree,
                decompose.label_tree(tree, 0),
                pairs["tree"],
                check.binary_tree_path,
            ),
        ]

    @staticmethod
    def pairs(inp: Deliveries, seed: int, k: int) -> list[tuple[int, int]]:
        """Fresh pairs every pass, so no pass repeats another's deliveries."""
        rng = random.Random(f"{seed}:{k}:{inp.label}")
        return [tuple(rng.sample(range(inp.g.vertex_count), 2)) for _ in range(inp.per_pass)]

    def ops(self, inputs: list[Deliveries], seed: int, k: int) -> list[Op]:
        per_input = []
        for inp in inputs:
            labelling_fp = lambda t, inp=inp: inp.labelling_fingerprint
            fingerprint = lambda t, fp=labelling_fp: [fp(t), check.trace_fingerprint(t)]
            per_input.append(
                [
                    Op(
                        inp.label,
                        lambda done, g=inp.g, lab=inp.lab, s=s, d=d: routing.simulate_delivery(g, lab, s, d),
                        fingerprint,
                        lambda inp=inp, s=s, d=d: [
                            self.goldens.get(inp.label),
                            check.reference_delivery(inp.g, inp.lab.masks, inp.path(s, d), s, d),
                        ],
                        work=1,
                        golden=labelling_fp,
                    )
                    for s, d in self.pairs(inp, seed, k)
                ]
            )
        # Interleave the inputs so each one's deliveries span the whole pass.
        longest = max(len(ops) for ops in per_input)
        return [ops[i] for i in range(longest) for ops in per_input if i < len(ops)]

    def counts(self, inputs: list[Deliveries], ops, results) -> dict:
        traces = [t for t in results if isinstance(t, routing.RoutingTrace)]
        out: dict = {
            "graphs.shortest_path_calls": len(ops),
            "routing.next_hop_calls": sum(len(t.candidate_counts) for t in traces),
            "inputs": {},
        }
        for inp in inputs:
            mine = [
                t for op, t in zip(ops, results)
                if op.label == inp.label and isinstance(t, routing.RoutingTrace)
            ]
            sources = [t.visited[0] for t in mine]
            fills = [
                check.header_popcount(inp.lab.masks, inp.path(t.visited[0], t.at)) / inp.lab.width
                for t in mine
                if t.delivered
            ]
            outcomes = Counter(t.outcome for t in mine)
            candidates = Counter(c for t in mine for c in t.candidate_counts)
            out["inputs"][inp.label] = {
                "deliveries": len(mine),
                "graphs.source_repeat_share": 1 - len(set(sources)) / max(1, len(sources)),
                "routing.ambiguous_share": outcomes["ambiguous"] / max(1, len(mine)),
                "routing.max_candidates": max(candidates, default=0),
                "routing.header_fill_mean": statistics.fmean(fills) if fills else 0.0,
                "outcomes": dict(sorted(outcomes.items())),
                "candidate_counts": {str(c): n for c, n in sorted(candidates.items())},
            }
        return out

    def named(self, run) -> dict:
        metrics = {
            "deliveries_per_s": {"value": run.work_per_s, "unit": "1/s"},
            "delivery_p50_us": {"value": run.quantile(0.5) * 1e6, "unit": "us", "samples": run.samples},
            "delivery_p99_us": {"value": run.quantile(0.99) * 1e6, "unit": "us", "samples": run.samples},
        }
        for label, (rate, p50) in run.per_label().items():
            metrics[f"{label}: deliveries_per_s"] = {"value": rate, "unit": "1/s"}
            metrics[f"{label}: delivery_p50_us"] = {"value": p50 * 1e6, "unit": "us"}
        return metrics

    def layer_metrics(self, per_pass, per_input, counts) -> dict:
        metrics = {
            "routing.simulate_delivery_self_s": per_pass.self_s("routing.simulate_delivery"),
            "routing.next_hop_s": per_pass.total_s("routing.next_hop"),
            "routing.encode_path_s": per_pass.total_s("routing.encode_path"),
            "graphs.shortest_path_s": per_pass.total_s("graphs.shortest_path"),
            "graphs.shortest_path_share": per_pass.total_s("graphs.shortest_path")
            / per_pass.total_s("routing.simulate_delivery"),
        }
        for label, totals in per_input.items():
            metrics[f"{label}: graphs.shortest_path_share"] = totals.total_s(
                "graphs.shortest_path"
            ) / totals.total_s("routing.simulate_delivery")
            metrics[f"{label}: routing.next_hop_share"] = totals.total_s(
                "routing.next_hop"
            ) / totals.total_s("routing.simulate_delivery")
        return metrics


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


class Build:
    name = "build"
    setup_reps_per_pass = 2

    def __init__(self, sizes: dict, goldens: dict):
        self.sizes = sizes
        self.goldens = goldens

    def setup(self, seed: int) -> dict:
        """The inputs are the paper's fixed artefacts; the seed changes nothing."""
        s = self.sizes
        tree = graphs.make_perfect_binary_tree(s["tree"])
        cp, core = graphs.make_core_periphery(s["cp"])
        m = decompose.perfect_tree_universe_size(s["tree"])
        return {
            "tree": tree,
            "cp": cp,
            "core": core,
            "bloom_m": m,
            "bloom_k": bloom.optimal_label_weight_int(m, 2 * s["tree"]),
            "star_rank": labelling.optimal_rank(s["star"]).rank,
        }

    def cli_runs(self) -> list[list[str]]:
        s = self.sizes
        trials = str(s["trials"])
        return [
            ["star-table"],
            ["core-periphery-table"],
            ["binary-tree-table"],
            ["bloom-table", "--at-least-one", "--empirical", "--trials", trials, "--seed", "7"],
            ["verify", "--core-periphery", str(s["verify_cp"]), "--scheme", "combined"],
            ["route", "--core-periphery", "5", "--scheme", "combined", "--source", "5", "--dest", "17"],
        ]

    def ops(self, inputs: dict, seed: int, k: int) -> list[Op]:
        """Every op is checked against its golden; constructors count as work."""
        s = self.sizes
        h, tree, cp = s["tree"], inputs["tree"], inputs["cp"]
        m, weight, rank = inputs["bloom_m"], inputs["bloom_k"], inputs["star_rank"]
        same = lambda r: r
        steps = [
            (f"cli {' '.join(argv)}", lambda done, argv=argv: run_cli(argv), same, 0)
            for argv in self.cli_runs()
        ]
        steps += [
            (
                f"star_labelling n={s['star']} rank={rank}",
                lambda done: labelling.star_labelling(s["star"], rank),
                check.labelling_digest,
                s["star"],
            ),
            (
                f"label_tree h={h}",
                lambda done: decompose.label_tree(tree, 0),
                check.labelling_digest,
                tree.edge_count,
            ),
            (
                f"label_core_periphery n={s['cp']}",
                lambda done: decompose.label_core_periphery(cp, inputs["core"]),
                check.labelling_digest,
                cp.edge_count,
            ),
            (
                f"bloom_labelling h={h} m={m} k={weight} seed=1",
                lambda done: bloom.bloom_labelling(tree, m, weight, 1),
                check.labelling_digest,
                tree.edge_count,
            ),
            (f"to_text h={h}", lambda done: done[f"label_tree h={h}"].to_text(), check.sha, 0),
            (
                f"from_text h={h}",
                lambda done: labelling.Labelling.from_text(done[f"to_text h={h}"]),
                check.labelling_digest,
                0,
            ),
            (f"emit_edge_list h={h}", lambda done: graphs.emit_edge_list(tree), check.sha, 0),
            (
                f"load_edge_list h={h}",
                lambda done: graphs.load_edge_list(done[f"emit_edge_list h={h}"]),
                check.graph_digest,
                0,
            ),
        ]
        return [
            Op(label, call, fp, lambda label=label: self.goldens.get(label), work, golden=fp)
            for label, call, fp, work in steps
        ]

    def counts(self, inputs, ops, results) -> dict:
        return {
            "labelling.edges_labelled": sum(op.work for op in ops),
            "bloom.empirical_trials": len(cli.BLOOM_TABLE_DEFAULT) * self.sizes["trials"],
        }

    def named(self, run) -> dict:
        return {
            "build_s": {"value": run.pass_s, "unit": "s", "samples": run.passes},
            "label_edges_per_s": {"value": run.work_per_s, "unit": "1/s"},
        }

    def layer_metrics(self, per_pass, per_input, counts) -> dict:
        metrics = {
            f"{name}_s": per_pass.total_s(name)
            for name in (
                "graphs.load_edge_list",
                "graphs.emit_edge_list",
                "labelling.star_labelling",
                "labelling.to_text",
                "labelling.from_text",
                "decompose.label_tree",
                "decompose.label_core_periphery",
                "decompose.combine",
                "bloom.bloom_labelling",
                "bloom.empirical_fpr",
            )
        }
        metrics["bloom.trials_per_s"] = counts["bloom.empirical_trials"] / per_pass.total_s(
            "bloom.empirical_fpr"
        )
        metrics["cli.main_self_s"] = per_pass.self_s("cli.main")
        return metrics


class Baselines:
    """The roadmap's item-1 baselines at full size, one pass: too slow for the
    timed workloads, which run scaled-down versions of them. baselines.py
    runs it; BENCHMARK.json does not list it."""

    name = "baselines"
    setup_reps_per_pass = 0

    def __init__(self, sizes: dict, goldens: dict):
        self.sizes = sizes
        self.goldens = goldens

    def setup(self, seed: int) -> dict:
        s = self.sizes
        cp, core = graphs.make_core_periphery(s["cp"])
        return {
            "tree": decompose.label_tree(graphs.make_perfect_binary_tree(s["tree"]), 0),
            "cp": cp,
            "cp_labelling": decompose.label_core_periphery(cp, core),
        }

    @staticmethod
    def deliver_all(g, lab) -> list:
        n = g.vertex_count
        return [routing.simulate_delivery(g, lab, u, v) for u in range(n) for v in range(u + 1, n)]

    def ops(self, inputs: dict, seed: int, k: int) -> list[Op]:
        s = self.sizes
        (star_n, rank), h, n = s["star"], s["tree"], s["cp"]
        cp, cp_lab = inputs["cp"], inputs["cp_labelling"]
        steps = [
            (
                f"star_labelling n={star_n} rank={rank}",
                lambda done: labelling.star_labelling(star_n, rank),
                check.labelling_digest,
            ),
            (f"to_text h={h}", lambda done: inputs["tree"].to_text(), check.sha),
            # the same call and golden as the oracle workload's input of this name
            (
                f"verify cp{n} combined",
                lambda done: routing.verify_no_false_positives(cp, cp_lab),
                lambda r: {
                    "report": check.report_fingerprint(r),
                    "labelling": check.labelling_digest(cp_lab),
                },
            ),
            (
                f"all-pairs simulate_delivery cp{n} combined",
                lambda done: self.deliver_all(cp, cp_lab),
                lambda traces: [len(traces), check.sha(repr([check.trace_fingerprint(t) for t in traces]))],
            ),
        ]
        return [
            Op(label, call, fp, lambda label=label: self.goldens.get(label), work=1, golden=fp)
            for label, call, fp in steps
        ]

    def counts(self, inputs, ops, results) -> dict:
        return {}

    def named(self, run) -> dict:
        return {label: {"value": times[0], "unit": "s"} for label, times in run.by_label().items()}

    def layer_metrics(self, per_pass, per_input, counts) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Oracle, Forward, Build, Baselines)}
