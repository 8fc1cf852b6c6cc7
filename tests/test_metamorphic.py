"""Metamorphic relations: transform an input, predict the output from the
run on the original, and compare, with no path-enumerating reference.

(a) Relabelling a graph's vertices by a permutation p, keeping its edge ids
and labels, moves every shortest path and no edge: the uncapped records
become (min(p[u], p[v]), max(p[u], p[v]), e), and the pair and path counts
stay the same.

(b) Sending a labelling's bits through an injective map into a wider
universe changes no subset relation, so the oracle's report and every
delivery trace stay the same. Half of the doubled universe is unused, so
the oracle drops those bits before it builds its tables.

(d) Relabelling a graph's vertices while keeping its edge ids keeps every
distance, so the constructions see the same levels of edge ids: label_tree
is bit-identical, and label_core_periphery too except for its core bits,
which follow the ranks of the core ids.

(c) The disjoint union of two graphs, labelled by combining their
labellings over disjoint universes, has no shortest path between the parts:
its records are the first part's, then the second's shifted by the first's
vertex and edge counts, and its pair and path counts are the sums.
"""

import itertools
import random

import pytest

from bitpath import (
    Graph,
    Labelling,
    bloom_labelling,
    combine,
    label_core_periphery,
    label_tree,
    make_core_periphery,
    make_perfect_binary_tree,
    simulate_delivery,
    verify_no_false_positives,
)
from helpers import random_graph_corpus


def spread_bits(lab: Labelling, seed: int) -> Labelling:
    """lab with bit b moved to positions[b], for a seeded sample positions
    of distinct bits of a universe twice as wide."""
    positions = random.Random(seed).sample(range(2 * lab.width), lab.width)
    masks = [sum(1 << positions[b] for b in range(lab.width) if mask >> b & 1) for mask in lab.masks]
    return Labelling(2 * lab.width, masks)


def relabelled(g: Graph, seed: int) -> tuple[Graph, list[int]]:
    """g with vertex v renamed p[v] for a seeded permutation p, edge ids
    kept, and p."""
    p = list(range(g.vertex_count))
    random.Random(seed).shuffle(p)
    return Graph(g.vertex_count, [(p[u], p[v]) for u, v in g.edges]), p


def bloom_report(g: Graph, seed: int):
    """The uncapped oracle report of g under Bloom labels with m = V // 2 and
    k = 3, and those labels."""
    lab = bloom_labelling(g, g.vertex_count // 2, 3, seed)
    report = verify_no_false_positives(g, lab, fp_record_cap=10**6)
    assert not report.fp_truncated and report.path_cap_hits == 0
    return report, lab


class TestRelabelledOracle:
    @pytest.mark.parametrize("j", range(0, 100, 5))
    def test_records_follow_the_permutation(self, j):
        g = random_graph_corpus()[j]
        report, lab = bloom_report(g, seed=j)
        image, p = relabelled(g, seed=j)
        moved = verify_no_false_positives(image, lab, fp_record_cap=10**6)
        assert report.false_positives
        assert sorted(moved.false_positives) == sorted(
            (min(p[u], p[v]), max(p[u], p[v]), e) for u, v, e in report.false_positives
        )
        assert (moved.pairs_checked, moved.paths_checked) == (report.pairs_checked, report.paths_checked)


class TestDisjointUnion:
    @pytest.mark.parametrize("j", range(0, 100, 10))
    def test_records_and_counts_add_up(self, j):
        corpus = random_graph_corpus()
        g, h = corpus[j], corpus[j + 5]
        (first, g_lab), (second, h_lab) = bloom_report(g, seed=j), bloom_report(h, seed=j + 5)
        v, e = g.vertex_count, g.edge_count
        union = Graph(v + h.vertex_count, [*g.edges, *((a + v, b + v) for a, b in h.edges)])
        lab = combine(union.edge_count, [(g_lab, range(e)), (h_lab, range(e, union.edge_count))])
        report = verify_no_false_positives(union, lab, fp_record_cap=10**6)
        shifted = [(a + v, b + v, f + e) for a, b, f in second.false_positives]
        assert report.false_positives == first.false_positives + shifted
        assert report.pairs_checked == first.pairs_checked + second.pairs_checked
        assert report.paths_checked == first.paths_checked + second.paths_checked


class TestSpreadBits:
    @pytest.mark.parametrize("j", range(0, 100, 5))
    def test_report_and_traces_are_unchanged(self, j):
        g = random_graph_corpus()[j]
        report, lab = bloom_report(g, seed=j)
        spread = spread_bits(lab, seed=j)
        assert verify_no_false_positives(g, spread, fp_record_cap=10**6) == report
        if g.vertex_count <= 20:
            for s, d in itertools.permutations(range(g.vertex_count), 2):
                assert simulate_delivery(g, spread, s, d) == simulate_delivery(g, lab, s, d), (s, d)


class TestRelabelledVertices:
    @pytest.mark.parametrize("h", range(1, 9))
    def test_label_tree_is_bit_identical(self, h):
        tree = make_perfect_binary_tree(h)
        image, p = relabelled(tree, seed=h)
        for center in (0, tree.vertex_count // 2, tree.vertex_count - 1):
            lab, moved = label_tree(tree, center), label_tree(image, p[center])
            assert (moved.width, moved.masks) == (lab.width, lab.masks), center

    @pytest.mark.parametrize("n", range(2, 12))
    def test_label_core_periphery_permutes_only_core_bits(self, n):
        g, core = make_core_periphery(n)
        image, p = relabelled(g, seed=n)
        lab = label_core_periphery(g, core)
        moved = label_core_periphery(image, {p[v] for v in core})
        assert moved.width == lab.width
        # the core bit of the i-th smallest core id goes to the rank of its image
        images = sorted(p[v] for v in core)
        rank = [images.index(p[v]) for v in sorted(core)]
        for mask, moved_mask in zip(lab.masks, moved.masks):
            assert moved_mask >> n == mask >> n
            assert moved_mask & (1 << n) - 1 == sum(1 << rank[i] for i in range(n) if mask >> i & 1)
