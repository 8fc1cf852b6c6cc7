"""Metamorphic relations: transform an input, predict the output from the
run on the original, and compare, with no path-enumerating reference.

(b) Sending a labelling's bits through an injective map into a wider
universe changes no subset relation, so the oracle's report and every
delivery trace stay the same. Half of the doubled universe is unused, so
the oracle drops those bits before it builds its tables.

(d) Relabelling a graph's vertices while keeping its edge ids keeps every
distance, so the constructions see the same levels of edge ids: label_tree
is bit-identical, and label_core_periphery too except for its core bits,
which follow the ranks of the core ids.
"""

import itertools
import random

import pytest

from bitpath import (
    Graph,
    Labelling,
    bloom_labelling,
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


class TestSpreadBits:
    @pytest.mark.parametrize("j", range(0, 100, 5))
    def test_report_and_traces_are_unchanged(self, j):
        g = random_graph_corpus()[j]
        lab = bloom_labelling(g, g.vertex_count // 2, 3, seed=j)
        spread = spread_bits(lab, seed=j)
        report = verify_no_false_positives(g, lab, fp_record_cap=10**6)
        assert verify_no_false_positives(g, spread, fp_record_cap=10**6) == report
        assert not report.fp_truncated and report.path_cap_hits == 0
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
