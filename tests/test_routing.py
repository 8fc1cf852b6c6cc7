"""Headers, subset recognition, forwarding simulation, and the FP oracle."""

import math
import multiprocessing
import os
import random
import statistics
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitpath import (
    Graph,
    Labelling,
    Path,
    bfs_distances,
    bit_per_edge,
    bit_per_vertex,
    bloom_labelling,
    encode_path,
    exact_two_label_fpr,
    label_core_periphery,
    label_tree,
    make_complete,
    make_core_periphery,
    make_perfect_binary_tree,
    make_random_connected,
    make_star,
    next_hop,
    shortest_path,
    simulate_delivery,
    star_labelling,
    verify_no_false_positives,
)
from bitpath import routing
from helpers import (
    brute_force_false_positives,
    brute_force_report,
    candidates_reference,
    draw_core_plus_forest,
    expected_oracle_records,
    grid_4x4,
    label_inside_union,
    random_graph_corpus,
    shuffled_edge_ids,
    traced_peak,
)

# the 4x4 grid under edge ids that are not in lexicographic order
SHUFFLED_GRID = shuffled_edge_ids(grid_4x4(), seed=1)


def two_predecessor_sources(g: Graph) -> list[bool]:
    """Per source u, whether some vertex has two neighbours one hop nearer
    to u: the sources whose BFS DAG is not a tree."""
    found = []
    for u in range(g.vertex_count):
        dist = bfs_distances(g, u)
        found.append(any(sum(dist[x] == d - 1 for x, _ in nbrs) > 1 for nbrs, d in zip(g.adjacency, dist) if d > 0))
    return found


def tree_with_even_chord() -> Graph:
    # perfect binary tree of height 4 and a chord from leaf 15 (left subtree,
    # depth 4) to vertex 11 (right subtree, depth 3): an 8-cycle through the
    # root, so every source meets two-path vertices, most of them late in
    # its BFS order
    g = make_perfect_binary_tree(4)
    return Graph(g.vertex_count, [*g.edges, (11, 15)])


def tree_with_leaf_chord() -> Graph:
    # a chord between leaves 15 and 30 of different subtrees closes a
    # 9-cycle: odd, so every pair keeps one shortest path
    g = make_perfect_binary_tree(4)
    return Graph(g.vertex_count, [*g.edges, (15, 30)])


def path_on_four_cycle() -> Graph:
    # the 4-cycle 0-1-2-3 with the path 3-4-5-6 attached at 3
    return Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6)])


def tree_and_cycle() -> Graph:
    # a height-2 tree on 0..6, a 6-cycle on 7..12 and the isolated vertex 13
    tree = make_perfect_binary_tree(2)
    return Graph(14, [*tree.edges, *((7 + i, 7 + (i + 1) % 6) for i in range(6))])


# Graphs with an even cycle: every source's BFS DAG has a vertex with two
# predecessors, and many vertices with one before it.
EVEN_CYCLE_GRAPHS = {
    "tree-chord": tree_with_even_chord(),
    "tree-chord-shuffled": shuffled_edge_ids(tree_with_even_chord(), seed=2),
    "path-on-4-cycle": path_on_four_cycle(),
    "path-on-4-cycle-shuffled": shuffled_edge_ids(path_on_four_cycle(), seed=3),
}


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    # the outer 5-cycle 0..4, the inner pentagram 5..9 and the spokes i-(i+5)
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, [*outer, *inner, *((i, i + 5) for i in range(5))])


# Edge cases of the oracle's whole-source tree test: the 11-cycle and the
# Petersen graph are geodetic (every pair has one shortest path), so every
# source's BFS DAG is a tree; in the 12-cycle each source's antipode, last
# in its BFS order, has two predecessors, the only extra DAG edge.
TREE_TEST_GRAPHS = {
    "cycle11": cycle(11),
    "cycle11-shuffled": shuffled_edge_ids(cycle(11), seed=5),
    "cycle12": cycle(12),
    "cycle12-shuffled": shuffled_edge_ids(cycle(12), seed=6),
    "petersen": petersen(),
    "petersen-shuffled": shuffled_edge_ids(petersen(), seed=7),
}


def named_graph(name: str) -> Graph:
    if name in EVEN_CYCLE_GRAPHS:
        return EVEN_CYCLE_GRAPHS[name]
    if name in TREE_TEST_GRAPHS:
        return TREE_TEST_GRAPHS[name]
    if name == "grid4x4":
        return grid_4x4()
    if name == "grid4x4-shuffled":
        return SHUFFLED_GRID
    if name == "cube5":
        return Graph(32, [(v, v | 1 << i) for v in range(32) for i in range(5) if not v >> i & 1])
    if name == "leaf-chord":
        return tree_with_leaf_chord()
    if name == "tree-and-cycle":
        return tree_and_cycle()
    return random_graph_corpus()[int(name[len("corpus") :])]


class TestEncodePath:
    def test_empty_path_is_all_zero(self):
        lab = bit_per_edge(make_star(4))
        assert encode_path(lab, Path((2,), ())) == 0

    def test_single_edge_equals_label(self):
        g = make_star(4)
        lab = bit_per_edge(g)
        path = shortest_path(g, 0, 3)
        assert encode_path(lab, path) == lab.masks[path.edges[0]]

    def test_star_header_is_exactly_its_edge_bits(self):
        g = make_star(10)
        lab = bit_per_edge(g)
        path = shortest_path(g, 1, 2)
        assert encode_path(lab, path) == (1 << 0) | (1 << 1)


class TestRecognised:
    """An edge is recognised when its label is a subset of the header:
    mask & ~header == 0, the test next_hop and the oracle run."""

    def test_on_path_edges_always_recognised(self):
        g = make_complete(6)
        lab = bit_per_vertex(g)
        for u in range(6):
            for v in range(u + 1, 6):
                path = shortest_path(g, u, v)
                header = encode_path(lab, path)
                for eid in path.edges:
                    assert lab.masks[eid] & ~header == 0

    def test_nonempty_label_vs_zero_header(self):
        lab = bit_per_vertex(make_complete(5))
        header = encode_path(lab, Path((2,), ()))
        assert header == 0
        assert not any(mask & ~header == 0 for mask in lab.masks)

    def test_classic_false_positive_on_non_shortest_path(self):
        # 0-1-2 around a triangle is not shortest; bit-per-vertex then
        # recognises the chord {0,2}
        g = make_complete(3)
        lab = bit_per_vertex(g)
        e01 = g.edges.index((0, 1))
        e12 = g.edges.index((1, 2))
        e02 = g.edges.index((0, 2))
        header = encode_path(lab, Path((0, 1, 2), (e01, e12)))
        assert lab.masks[e02] & ~header == 0

    def test_monotone_in_the_header(self):
        rng = random.Random(0)
        for _ in range(200):
            width = 48
            label = rng.getrandbits(width) | 1
            small = rng.getrandbits(width)
            big = small | rng.getrandbits(width)
            if label & ~small == 0:
                assert label & ~big == 0


class TestNextHop:
    def test_interior_vertex_forwards_along_path(self):
        n = 50
        g = make_star(n)
        lab = star_labelling(n, 2)
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                path = shortest_path(g, u, v)
                header = encode_path(lab, path)
                step = next_hop(g, lab, header, 0, incoming=path.edges[0])
                assert step == (path.edges[1],)

    def test_destination_sees_no_candidates(self):
        g = make_star(10)
        lab = star_labelling(10, 1)
        path = shortest_path(g, 1, 2)
        header = encode_path(lab, path)
        assert next_hop(g, lab, header, 2, incoming=path.edges[1]) == ()

    def test_incoming_edge_is_excluded(self):
        g = Graph(3, [(0, 1), (1, 2)])
        lab = bit_per_edge(g)
        header = encode_path(lab, shortest_path(g, 0, 2))
        step = next_hop(g, lab, header, 1, incoming=0)
        assert step == (1,)

    def test_bloom_false_positive_turns_ambiguous(self):
        g = make_star(40)
        found = None
        for seed in range(1, 6):
            lab = bloom_labelling(g, 21, 7, seed)
            for u in range(1, 41):
                for v in range(u + 1, 41):
                    path = shortest_path(g, u, v)
                    header = encode_path(lab, path)
                    step = next_hop(g, lab, header, 0, incoming=path.edges[0])
                    if len(step) > 1:
                        found = (seed, u, v, step)
                        break
                if found:
                    break
            if found:
                break
        assert found is not None
        _, u, v, step = found
        assert len(step) >= 2
        assert step == tuple(sorted(step))

    def test_candidates_follow_neighbour_order(self):
        # vertex 5 of the grid has neighbours 1, 4, 6 and 9; their edges have
        # ids 5, 19, 23 and 3 here, so edge-id order would differ
        g = SHUFFLED_GRID
        lab = bit_per_edge(g)
        assert [nbr for nbr, _ in g.adjacency[5]] == [1, 4, 6, 9]
        assert next_hop(g, lab, (1 << lab.width) - 1, 5) == (5, 19, 23, 3)
        assert next_hop(g, lab, (1 << lab.width) - 1, 5, incoming=19) == (5, 23, 3)

    def test_labelling_of_another_edge_count_raises(self):
        with pytest.raises(ValueError, match="labelling does not cover this graph's edges"):
            next_hop(make_star(5), star_labelling(6, 2), 0, 0)

    @pytest.mark.parametrize("current", [6, 9, -1])
    def test_current_out_of_range_raises(self, current):
        with pytest.raises(ValueError, match=f"current vertex {current} outside a 6-vertex graph"):
            next_hop(make_star(5), star_labelling(5, 2), 0, current)

    @pytest.mark.parametrize("current, incoming", [(1, 2), (1, 7), (0, 3), (2, -1)])
    def test_incoming_edge_not_at_current_raises(self, current, incoming):
        # star 3: vertex 1 has only edge 0, and the centre 0 has edges 0..2
        g = make_star(3)
        with pytest.raises(ValueError, match=f"^incoming edge {incoming} is not at vertex {current}$"):
            next_hop(g, bit_per_edge(g), 0b111, current, incoming)

    def test_width_mismatch_raises(self):
        # the header must be a bit set of the labelling's universe
        g = make_star(3)
        lab = bit_per_edge(g)
        assert next_hop(g, lab, 0b111, 0, incoming=0) == (1, 2)
        for header in (-1, 1 << 3, 1 << 99):
            with pytest.raises(ValueError, match="outside a 3-bit universe"):
                next_hop(g, lab, header, 0)


class TestCandidates:
    @pytest.mark.parametrize("scheme", ["exact", "bloom"])
    def test_matches_the_one_line_rule(self, scheme):
        # every vertex of the corpus graphs; the full header and three random
        # ones with about three bits in four set; as incoming: none, each
        # incident edge (recognised or not) and an id that is no edge
        rng = random.Random(5)
        for j, g in enumerate(random_graph_corpus()):
            lab = bit_per_vertex(g) if scheme == "exact" else bloom_labelling(g, g.vertex_count // 2, 3, seed=j)
            headers = [(1 << lab.width) - 1]
            headers += [rng.getrandbits(lab.width) | rng.getrandbits(lab.width) for _ in range(3)]
            for incident in g.adjacency:
                for not_header in [~header for header in headers]:
                    for incoming in (None, *(eid for _, eid in incident), g.edge_count):
                        expected = candidates_reference(incident, lab.masks, not_header, incoming)
                        assert routing._candidates(incident, lab.masks, not_header, incoming) == expected


class TestSimulateDelivery:
    def test_star_delivery(self):
        g = make_star(10)
        lab = star_labelling(10, 1)
        trace = simulate_delivery(g, lab, 3, 7)
        assert trace.delivered
        assert trace.visited == (3, 0, 7)
        assert trace.hop_count == 2
        assert trace.candidate_counts == (1, 1, 0)

    def test_source_equals_destination(self):
        g = make_star(10)
        trace = simulate_delivery(g, star_labelling(10, 1), 4, 4)
        assert trace.delivered
        assert trace.hop_count == 0
        assert trace.visited == (4,)

    def test_core_periphery_leaf_to_leaf(self):
        g, core = make_core_periphery(5)
        lab = label_core_periphery(g, core)
        # leaf 5 hangs off core vertex 0; leaf 17 hangs off core vertex 3
        assert g.edges[g.adjacency[5][0][1]] == (0, 5)
        assert g.edges[g.adjacency[17][0][1]] == (3, 17)
        trace = simulate_delivery(g, lab, 5, 17)
        assert trace.delivered
        assert trace.hop_count == 3
        assert trace.visited == (5, 0, 3, 17)

    def test_delivery_follows_encoded_path_when_verified(self):
        cases = []
        g = make_star(30)
        for rank in (1, 2, 3, 4):
            cases.append((g, star_labelling(30, rank)))
        k12 = make_complete(12)
        cases.append((k12, bit_per_vertex(k12)))
        cp, core = make_core_periphery(6)
        cases.append((cp, label_core_periphery(cp, core)))
        for graph, lab in cases:
            assert verify_no_false_positives(graph, lab).ok
            for u in range(graph.vertex_count):
                for v in range(u + 1, graph.vertex_count):
                    path = shortest_path(graph, u, v)
                    trace = simulate_delivery(graph, lab, u, v)
                    assert trace.delivered
                    assert trace.visited == path.vertices
                    assert trace.candidate_counts == (1,) * len(path) + (0,)

    def test_overshoot_becomes_dead_end(self):
        # all labels identical: the walk runs past the destination to the end
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        lab = bit_per_edge(g)
        masks = [1, 1, 1]
        shared = Labelling(lab.width, masks)
        trace = simulate_delivery(g, shared, 0, 1)
        assert trace.outcome == "dead-end"
        assert trace.at == 3
        assert trace.visited == (0, 1, 2, 3)

    def test_labelling_of_a_larger_star_raises(self):
        # its labels would make a delivered trace from another graph's headers
        with pytest.raises(ValueError, match="labelling does not cover this graph's edges"):
            simulate_delivery(make_star(5), star_labelling(10, 2), 1, 2)

    def test_labelling_of_a_smaller_star_raises(self):
        with pytest.raises(ValueError, match="labelling does not cover this graph's edges"):
            simulate_delivery(make_star(10), star_labelling(5, 2), 1, 9)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_walk_never_revisits_a_vertex(self, data):
        # returning to a vertex needs a recognised edge back into it, which
        # would have been a second candidate at the first visit
        n = data.draw(st.integers(1, 14), label="vertices")
        p = data.draw(st.floats(0.2, 0.9), label="edge probability")
        g = make_random_connected(n, p, data.draw(st.integers(0, 2**16), label="graph seed"))
        g = shuffled_edge_ids(g, data.draw(st.integers(0, 2**16), label="shuffle seed"))
        if data.draw(st.booleans(), label="bloom"):
            m = data.draw(st.integers(1, 12), label="m")
            k = data.draw(st.integers(1, m), label="k")
            lab = bloom_labelling(g, m, k, data.draw(st.integers(0, 2**16), label="label seed"))
        else:
            lab = bit_per_vertex(g)
        for u in range(n):
            for v in range(n):
                trace = simulate_delivery(g, lab, u, v)
                last = trace.candidate_counts[-1]
                assert len(set(trace.visited)) == len(trace.visited)
                assert trace.candidate_counts == (1,) * trace.hop_count + (last,)
                assert trace.outcome in ("delivered", "ambiguous", "dead-end")
                assert (trace.outcome == "ambiguous") == (last > 1)
                assert trace.delivered == (last == 0 and trace.at == v)

    @pytest.mark.parametrize("scheme", ["bloom", "combined"])
    def test_walk_replays_with_the_public_next_hop(self, scheme):
        # the delivery loop skips next_hop's checks; a walk driven by
        # next_hop itself must see the same candidates at every hop
        g, core = make_core_periphery(6)
        lab = bloom_labelling(g, 16, 3, 1) if scheme == "bloom" else label_core_periphery(g, core)
        pairs = random.Random(0).sample([(s, d) for s in range(g.vertex_count) for d in range(g.vertex_count)], 200)
        outcomes = set()
        for s, d in pairs:
            trace = simulate_delivery(g, lab, s, d)
            header = encode_path(lab, shortest_path(g, s, d))
            incoming = None
            for i, current in enumerate(trace.visited):
                candidates = next_hop(g, lab, header, current, incoming)
                assert len(candidates) == trace.candidate_counts[i]
                if i + 1 < len(trace.visited):
                    (incoming,) = candidates
                    assert set(g.edges[incoming]) == {current, trace.visited[i + 1]}
            outcomes.add(trace.outcome)
        assert outcomes == ({"delivered", "ambiguous", "dead-end"} if scheme == "bloom" else {"delivered"})


class TestFailedDeliveriesHaveOracleRecords:
    """Every on-path edge is recognised, so a walk follows its encoded path
    until a recognised off-path edge makes a second candidate before the
    destination, or the only one at it; that edge is a false positive of the
    pair, incident to the last path vertex the walk reached."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("j", [4, 9, 14, 23])
    def test_on_the_oracle_workloads_bloom_corpus(self, j, seed):
        g = random_graph_corpus()[j]
        lab = bloom_labelling(g, g.vertex_count // 2, 3, seed * 1000 + j)
        report = verify_no_false_positives(g, lab, fp_record_cap=10**6)
        assert report.path_cap_hits == 0 and not report.fp_truncated
        records = set(report.false_positives)
        stops = {"delivered": 0, "on the path": 0, "past the destination": 0}
        for s in range(g.vertex_count):
            for d in range(g.vertex_count):
                if s == d:
                    continue
                path = shortest_path(g, s, d)
                trace = simulate_delivery(g, lab, s, d)
                if trace.delivered:
                    assert trace.visited == path.vertices
                    stops["delivered"] += 1
                    continue
                followed = 0
                while followed + 1 < min(len(trace.visited), len(path.vertices)):
                    if trace.visited[followed + 1] != path.vertices[followed + 1]:
                        break
                    followed += 1
                last = path.vertices[followed]
                off_path = [eid for _, eid in g.adjacency[last] if eid not in path.edges]
                assert any((min(s, d), max(s, d), eid) in records for eid in off_path), (s, d, trace)
                stops["on the path" if last != d else "past the destination"] += 1
        assert all(stops.values()), stops


@st.composite
def small_connected_graphs(draw) -> Graph:
    """A connected graph on 2..10 vertices: a random spanning tree and
    random chords, its edges in a drawn order."""
    n = draw(st.integers(2, 10), label="vertices")
    tree = {(draw(st.integers(0, v - 1), label=f"parent of {v}"), v) for v in range(1, n)}
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(chords), unique=True), label="chords") if chords else []
    return Graph(n, draw(st.permutations(sorted(tree) + extra), label="edge order"))


def delivers_every_pair_if_ok(g: Graph, lab: Labelling) -> bool:
    """Whether the oracle reports lab ok on g; if it does, assert that every
    ordered pair is delivered along a shortest path, with one candidate at
    each hop and none at the destination."""
    if not verify_no_false_positives(g, lab).ok:
        return False
    for s in range(g.vertex_count):
        dist = bfs_distances(g, s)
        for d in range(g.vertex_count):
            trace = simulate_delivery(g, lab, s, d)
            assert trace.delivered and trace.hop_count == dist[d], (s, d, trace)
            assert trace.candidate_counts == (1,) * trace.hop_count + (0,), (s, d, trace)
    return True


class TestOkReportsDeliverEveryPair:
    """The theorem half of the oracle's contract: a labelling it reports ok
    delivers every pair, since at a path vertex only the path's own edges
    are recognised."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_small_connected_graphs(self, data):
        g = data.draw(small_connected_graphs(), label="graph")
        if data.draw(st.booleans(), label="bloom"):
            m = data.draw(st.integers(1, 24), label="m")
            k = data.draw(st.integers(1, m), label="k")
            lab = bloom_labelling(g, m, k, data.draw(st.integers(0, 99), label="seed"))
        else:
            lab = bit_per_vertex(g)
        delivers_every_pair_if_ok(g, lab)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_core_plus_forest(self, data):
        g, c = draw_core_plus_forest(data)
        assert delivers_every_pair_if_ok(g, label_core_periphery(g, range(c)))


class TestVerify:
    def test_star_hundred_with_star_labelling(self):
        report = verify_no_false_positives(make_star(100), star_labelling(100, 4))
        assert report.ok
        assert report.pairs_checked == 5050
        assert not report.false_positives

    def test_complete_twenty_bit_per_vertex(self):
        g = make_complete(20)
        report = verify_no_false_positives(g, bit_per_vertex(g))
        assert report.ok
        assert report.pairs_checked == 190

    def test_counts_on_star_ten(self):
        g = make_star(10)
        report = verify_no_false_positives(g, bit_per_edge(g))
        assert report.ok
        assert report.pairs_checked == 55
        assert report.paths_checked == 55
        assert report.subset_tests == 550

    def test_bloom_star_forty_has_false_positives(self):
        g = make_star(40)
        for seed in range(1, 6):
            report = verify_no_false_positives(g, bloom_labelling(g, 21, 7, seed))
            assert not report.ok
            assert report.false_positives

    def test_violations_name_the_offending_edge(self):
        g = make_star(10)
        lab = star_labelling(10, 2)
        masks = list(lab.masks)
        masks[4] = masks[7]  # edge 4 now recognised by any path through edge 7
        corrupted = Labelling(lab.width, masks)
        report = verify_no_false_positives(g, corrupted)
        assert not report.ok
        assert any(eid in (4, 7) for _, _, eid in report.false_positives)

    def test_sparse_universe_builds_small_tables(self):
        # at most six bits of a 100,000-bit universe: tables over its width
        # would hold 256 entries per byte of it, about 36 MiB
        g = make_star(3)
        lab = bloom_labelling(g, 100_000, 2, 1)
        report, peak = traced_peak(lambda: verify_no_false_positives(g, lab))
        assert report.ok
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("path_cap", [0, -1])
    def test_rejects_path_cap_below_one(self, path_cap):
        with pytest.raises(ValueError, match="path_cap"):
            verify_no_false_positives(make_star(3), star_labelling(3, 2), path_cap=path_cap)

    def test_rejects_negative_fp_record_cap(self):
        with pytest.raises(ValueError, match="fp_record_cap"):
            verify_no_false_positives(make_star(3), star_labelling(3, 2), fp_record_cap=-1)

    @pytest.mark.parametrize("g", [make_star(3), Graph(3, [])], ids=["star", "edgeless"])
    def test_rejects_labelling_of_another_edge_count(self, g):
        with pytest.raises(ValueError, match="does not cover"):
            verify_no_false_positives(g, bit_per_edge(make_star(5)))

    @pytest.mark.parametrize("width", [0, 3, 9])
    @pytest.mark.parametrize("vertex_count", [0, 1, 2, 5])
    def test_edgeless_graph_has_no_pairs(self, vertex_count, width):
        g = Graph(vertex_count, [])
        report = verify_no_false_positives(g, Labelling(width, []))
        assert report == brute_force_report(g, [], 1000, 1000)
        assert report.pairs_checked == 0
        assert report.ok

    def test_path_cap_is_reported_not_raised(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        report = verify_no_false_positives(g, bit_per_edge(g), path_cap=1)
        assert report.path_cap_hits == 2  # both diagonals have two paths
        assert not report.ok
        assert not report.false_positives

    def test_fp_record_cap_truncates(self):
        g = make_star(12)
        lab = bloom_labelling(g, 6, 5, seed=3)  # dense labels: many FPs
        full = verify_no_false_positives(g, lab, fp_record_cap=10**6)
        assert len(full.false_positives) > 50
        for cap in (0, 3, 50):
            report = verify_no_false_positives(g, lab, fp_record_cap=cap)
            assert report.false_positives == full.false_positives[:cap]
            assert report.fp_truncated
            assert (report.pairs_checked, report.paths_checked, report.subset_tests) == (
                full.pairs_checked,
                full.paths_checked,
                full.subset_tests,
            )

    def test_checks_every_path_of_every_pair(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        report = verify_no_false_positives(g, bit_per_edge(g))
        # 4 adjacent pairs with one path, 2 diagonal pairs with two paths
        assert report.pairs_checked == 6
        assert report.paths_checked == 8
        assert report.ok

    @pytest.mark.parametrize("j", [5, 24, 62, 80])
    def test_bloom_violations_match_brute_force(self, j):
        # corpus graphs of 10-13 vertices with many multi-path pairs, and one
        # of 40 vertices and 219 edges, whose edge sets span several words
        g = random_graph_corpus()[j]
        lab = bloom_labelling(g, g.vertex_count // 2, 3, seed=j)
        report = verify_no_false_positives(g, lab, fp_record_cap=10**6)
        expected, paths, _ = brute_force_false_positives(g, lab.masks)
        assert expected
        assert not report.fp_truncated
        assert report.path_cap_hits == 0
        assert report.paths_checked == paths
        assert sorted(report.false_positives) == sorted(expected)

    @pytest.mark.parametrize("path_cap", [1, 2, 1000])
    @pytest.mark.parametrize(
        "name",
        [
            *("corpus5", "corpus24", "corpus62", "grid4x4", "grid4x4-shuffled", "cube5"),
            *EVEN_CYCLE_GRAPHS,
            *TREE_TEST_GRAPHS,
        ],
    )
    def test_capped_report_matches_brute_force(self, name, path_cap):
        # graphs with pairs of more shortest paths than the cap, graphs
        # whose sources reach many one-path vertices before their first
        # two-path one, and the edge cases of the oracle's per-source tree
        # test; the reference checks the same paths in the same order, so
        # the records match in order too, also when edge ids are not in
        # lexicographic order
        g = named_graph(name)
        lab = bloom_labelling(g, g.vertex_count // 2, 3, seed=7)
        expected, _, cap_hits = brute_force_false_positives(g, lab.masks, path_cap)
        # no pair of corpus graph 5, an even-cycle graph or a tree-test
        # graph has three shortest paths, and no pair of the 11-cycle or the
        # Petersen graph has two; every graph has more violations than the
        # record cap of 3
        at_most_two = name == "corpus5" or name in EVEN_CYCLE_GRAPHS or name in TREE_TEST_GRAPHS
        geodetic = name.startswith(("cycle11", "petersen"))
        assert bool(cap_hits) == (path_cap == 1 and not geodetic or path_cap == 2 and not at_most_two)
        assert len(expected) > 3
        for fp_record_cap in (0, 3, 10**6):
            report = verify_no_false_positives(g, lab, path_cap=path_cap, fp_record_cap=fp_record_cap)
            assert report == brute_force_report(g, lab.masks, path_cap, fp_record_cap)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_bloom_report_matches_brute_force_on_random_graphs(self, data):
        n = data.draw(st.integers(1, 10), label="vertices")
        p = data.draw(st.floats(0.2, 0.9), label="edge probability")
        g = make_random_connected(n, p, data.draw(st.integers(0, 2**16), label="graph seed"))
        m = data.draw(st.integers(1, 12), label="m")
        k = data.draw(st.integers(1, m), label="k")
        lab = bloom_labelling(g, m, k, data.draw(st.integers(0, 2**16), label="label seed"))
        path_cap = data.draw(st.sampled_from([1, 2, 1000]), label="path_cap")
        report = verify_no_false_positives(g, lab, path_cap=path_cap, fp_record_cap=10**6)
        expected, paths, cap_hits = brute_force_false_positives(g, lab.masks, path_cap)
        assert report.pairs_checked == n * (n - 1) // 2
        assert report.paths_checked == paths
        assert report.path_cap_hits == cap_hits
        assert report.false_positives == expected


class TestAnalyticWitness:
    """The oracle's mean record count over seeded Bloom labellings against
    the exact expectation, which shares nothing with the oracle's search:
    on a graph with one shortest path per pair, every off-path label is
    independent of the header."""

    def test_two_labels_match_the_closed_form(self):
        assert label_inside_union(10, 3, 2) == Fraction(1415, 14400)
        assert float(label_inside_union(10, 3, 2)) == pytest.approx(exact_two_label_fpr(10, 3), rel=1e-12)

    @pytest.mark.parametrize(
        "g, m, k",
        [(make_perfect_binary_tree(5), 40, 3), (make_core_periphery(5)[0], 24, 3)],
        ids=["tree-h5", "core-periphery-n5"],
    )
    def test_mean_records_match_the_expectation(self, g, m, k):
        expected = expected_oracle_records(g, m, k)
        records = []
        cap = g.vertex_count**2 * g.edge_count  # above one record per pair and edge
        for seed in range(100):
            report = verify_no_false_positives(g, bloom_labelling(g, m, k, seed), fp_record_cap=cap)
            assert not report.fp_truncated and report.path_cap_hits == 0
            records.append(len(report.false_positives))
        stderr = statistics.stdev(records) / math.sqrt(len(records))
        assert abs(statistics.mean(records) - expected) < 4 * stderr


class TestVerifyFoldSwitch:
    """Each source picks one of two folds by the edge count of its BFS DAG:
    a tree-shaped source keeps one path int (header | edge set << width)
    per vertex, taken from its BFS parent, and every other source keeps
    path lists. The shuffled copies of the even-cycle and tree-test graphs
    make an edge id say nothing about which of its ends is the BFS parent;
    TestVerify.test_capped_report_matches_brute_force compares their
    reports with the reference."""

    @pytest.mark.parametrize("name", ["corpus5", "tree-and-cycle"])
    def test_one_call_runs_both_folds(self, name):
        # the oracle runs no BFS from the last vertex
        two_predecessors = two_predecessor_sources(named_graph(name))[:-1]
        assert True in two_predecessors and False in two_predecessors

    @pytest.mark.parametrize(
        "name",
        [
            *EVEN_CYCLE_GRAPHS,
            *("leaf-chord", "tree-and-cycle"),
            *TREE_TEST_GRAPHS,
            *("corpus5", "corpus24", "corpus62", "corpus80"),
        ],
    )
    def test_dag_edge_count_finds_tree_sources(self, name):
        # the oracle runs the parent-pointer fold from a source when its BFS
        # DAG (the edges between consecutive levels) has fewer edges than
        # reached vertices; that holds exactly when no vertex has two
        # predecessors. It counts the DAG's edges as the edges with exactly
        # one end at odd distance (unreached vertices have distance -1).
        g = named_graph(name)
        for u, two_predecessors in enumerate(two_predecessor_sources(g)):
            dist = bfs_distances(g, u)
            reached = sum(d >= 0 for d in dist)
            dag_edges = sum(dist[a] != dist[b] for a, b in g.edges)
            assert dag_edges == sum((dist[a] ^ dist[b]) & 1 for a, b in g.edges)
            assert dag_edges >= reached - 1
            assert (dag_edges < reached) == (not two_predecessors)

    def test_odd_cycle_chord_stays_single(self):
        g = tree_with_leaf_chord()
        assert not any(two_predecessor_sources(g))
        lab = bloom_labelling(g, 8, 3, 1)
        report = verify_no_false_positives(g, lab, 1, 10**6)
        assert report == brute_force_report(g, lab.masks, 1, 10**6)
        assert report.false_positives

    @pytest.mark.parametrize("shuffle", [None, 4])
    def test_disconnected_graph_counts_connected_pairs(self, shuffle):
        g = tree_and_cycle() if shuffle is None else shuffled_edge_ids(tree_and_cycle(), shuffle)
        lab = bloom_labelling(g, 6, 2, seed=5)
        for path_cap in (1, 1000):
            report = verify_no_false_positives(g, lab, path_cap, 10**6)
            assert report.pairs_checked == 21 + 15  # C(7, 2) tree pairs and C(6, 2) cycle pairs
            assert report == brute_force_report(g, lab.masks, path_cap, 10**6)
            assert report.false_positives
            assert report.path_cap_hits == (3 if path_cap == 1 else 0)  # the 6-cycle's opposite pairs

    @pytest.mark.parametrize("h", range(1, 7))
    def test_trees_have_one_path_per_pair(self, h):
        g = make_perfect_binary_tree(h)
        pairs = g.vertex_count * (g.vertex_count - 1) // 2
        report = verify_no_false_positives(g, label_tree(g, 0))
        assert report.paths_checked == report.pairs_checked == pairs
        assert report.ok

    @pytest.mark.parametrize("n", range(2, 9))
    def test_core_periphery_has_one_path_per_pair(self, n):
        g, core = make_core_periphery(n)
        pairs = g.vertex_count * (g.vertex_count - 1) // 2
        report = verify_no_false_positives(g, label_core_periphery(g, core))
        assert report.paths_checked == report.pairs_checked == pairs
        assert report.ok

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_tree_with_chords_matches_brute_force(self, data):
        n = data.draw(st.integers(2, 12), label="vertices")
        edges = {(data.draw(st.integers(0, v - 1), label="parent"), v) for v in range(1, n)}
        for _ in range(data.draw(st.integers(0, 3), label="chords")):
            a, b = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
            edges.add((a, b))
        g = Graph(n, data.draw(st.permutations(sorted(edges)), label="edge order"))
        m = data.draw(st.integers(1, 10), label="m")
        lab = bloom_labelling(g, m, data.draw(st.integers(1, m), label="k"), data.draw(st.integers(0, 2**16)))
        path_cap = data.draw(st.sampled_from([1, 2, 1000]), label="path_cap")
        fp_record_cap = data.draw(st.sampled_from([0, 3, 10**6]), label="fp_record_cap")
        report = verify_no_false_positives(g, lab, path_cap, fp_record_cap)
        assert report == brute_force_report(g, lab.masks, path_cap, fp_record_cap)


def shard_reports(g: Graph, lab: Labelling, shards: int, path_cap: int, fp_record_cap: int) -> list:
    """The reports of the oracle's shards, shard i taking every shards-th
    source from i, each checked in this process."""
    tables = routing._tables(g, lab)
    ranges = [range(i, g.vertex_count - 1, shards) for i in range(shards)]
    return [routing._check_sources(g, tables, sources, path_cap, fp_record_cap) for sources in ranges]


def combined_inputs() -> list:
    inputs = []
    for n in range(3, 9):
        g, core = make_core_periphery(n)
        inputs.append((g, label_core_periphery(g, core)))
    for h in range(2, 6):
        g = make_perfect_binary_tree(h)
        inputs.append((g, label_tree(g, 0)))
    return inputs


def bit_per_vertex_inputs() -> list:
    graphs = [make_random_connected(n, p, seed) for n, p, seed in [(9, 0.3, 1), (15, 0.2, 2), (24, 0.15, 3)]]
    return [(g, bit_per_vertex(g)) for g in graphs]


def bloom_inputs() -> list:
    # dense labels, with many violations from every source, and sparse ones
    graphs = [make_star(12), random_graph_corpus()[5], random_graph_corpus()[24], tree_and_cycle()]
    return [(g, bloom_labelling(g, m, 3, seed=3)) for g in graphs for m in (g.vertex_count // 2, 2 * g.vertex_count)]


def small_inputs() -> list:
    return [(Graph(0, []), Labelling(2, [])), (Graph(1, []), Labelling(2, [])), (make_star(1), bit_per_edge(make_star(1)))]


# a graph whose sources the oracle splits across CPUs: 11,325 pairs, above the cutoff
SHARDED_STAR = make_star(150)


class TwoPartError(Exception):
    """Pickles, but does not unpickle: loading calls it with one argument."""

    def __init__(self, left, right):
        super().__init__(f"{left} and {right}")


class TestVerifyShards:
    """verify_no_false_positives checks every shards-th source in each shard
    and merges their reports; every split gives the one-call report, records
    and their order included."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "inputs", [combined_inputs, bit_per_vertex_inputs, small_inputs], ids=["combined", "bit-per-vertex", "small"]
    )
    def test_merged_report_equals_one_call(self, inputs, shards):
        for g, lab in inputs():
            whole = verify_no_false_positives(g, lab)
            assert routing._merge(shard_reports(g, lab, shards, 1000, 1000), 1000, 1000) == whole

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_merge_keeps_the_first_records(self, shards):
        truncated = set()  # whether whole reports and the reports of one split truncate
        kept_shards = set()  # how many shards the records of a truncated report came from
        for g, lab in bloom_inputs():
            for fp_record_cap in (0, 1, 2, 5):
                whole = verify_no_false_positives(g, lab, fp_record_cap=fp_record_cap)
                reports = shard_reports(g, lab, shards, 1000, fp_record_cap)
                assert routing._merge(reports, 1000, fp_record_cap) == whole
                truncated.add((whole.fp_truncated, frozenset(r.fp_truncated for r in reports)))
                if whole.fp_truncated:
                    kept_shards.add(len({u % shards for u, _, _ in whole.false_positives}))
        # the cap cuts records of several shards, interleaved by source
        assert (shards > 1) == (max(kept_shards) > 1)
        assert (False, frozenset([False])) in truncated
        assert (True, frozenset([True])) in truncated
        # some shards truncate and some do not; no shard truncates, but
        # together they hold more records than the cap
        assert (shards > 1) == ((True, frozenset([False, True])) in truncated)
        assert (shards > 1) == ((True, frozenset([False])) in truncated)

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_merge_adds_path_cap_hits_and_disconnected_pairs(self, shards):
        for g, path_cap in ((grid_4x4(), 2), (tree_and_cycle(), 1), (tree_and_cycle(), 1000)):
            lab = bit_per_edge(g)
            whole = verify_no_false_positives(g, lab, path_cap)
            assert routing._merge(shard_reports(g, lab, shards, path_cap, 1000), path_cap, 1000) == whole
        assert verify_no_false_positives(grid_4x4(), bit_per_edge(grid_4x4()), 2).path_cap_hits > 0

    def test_above_the_cutoff_reports_what_one_shard_reports(self):
        g, core = make_core_periphery(20)
        lab = label_core_periphery(g, core)
        assert g.vertex_count * (g.vertex_count - 1) // 2 >= routing._SHARD_UNITS
        (one,) = shard_reports(g, lab, 1, 1000, 1000)
        assert verify_no_false_positives(g, lab) == one
        assert multiprocessing.active_children() == []


@pytest.mark.forks
@pytest.mark.usefixtures("deadline")
class TestVerifyWorkers:
    """Forked workers end with the call, whether it returns or raises."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.fixture
    def failing_shard(self, monkeypatch):
        """Make the shard of the given first source raise, by default a
        ValueError, or call fail; a forked worker inherits the patch."""
        check = routing._check_sources

        def fail_at(start, fail=None):
            def patched(g, tables, sources, *caps):
                if sources.start == start:
                    if fail is not None:
                        fail()
                    raise ValueError(f"shard at {start} failed")
                return check(g, tables, sources, *caps)

            monkeypatch.setattr(routing, "_check_sources", patched)

        return fail_at

    def test_no_worker_outlives_the_call(self, two_cpus):
        g = SHARDED_STAR
        report = verify_no_false_positives(g, star_labelling(150, 2))
        assert report.ok and report.pairs_checked == 150 * 151 // 2
        assert multiprocessing.active_children() == []

    def test_shards_take_every_other_source(self, monkeypatch, two_cpus):
        check, merge = routing._check_sources, routing._merge
        shards = []  # each shard's sources, in the order the call merges them

        def tagged(g, tables, sources, *caps):
            return sources, check(g, tables, sources, *caps)

        def untag(reports, *caps):
            shards.extend(sources for sources, _ in reports)
            return merge([report for _, report in reports], *caps)

        monkeypatch.setattr(routing, "_check_sources", tagged)
        monkeypatch.setattr(routing, "_merge", untag)
        assert verify_no_false_positives(SHARDED_STAR, star_labelling(150, 2)).ok
        assert shards == [range(0, 150, 2), range(1, 150, 2)]

    def test_failing_worker_raises(self, two_cpus, failing_shard, capfd):
        failing_shard(1)
        with pytest.raises(ValueError, match="shard at 1 failed") as raised:
            verify_no_false_positives(SHARDED_STAR, star_labelling(150, 2))
        assert multiprocessing.active_children() == []
        # the worker's traceback comes back as the one note, and nothing is printed
        (note,) = raised.value.__notes__
        assert note.startswith("raised in oracle worker ")
        assert ", in patched\n" in note and note.endswith("ValueError: shard at 1 failed")
        assert capfd.readouterr() == ("", "")

    def test_worker_exiting_without_a_report_raises(self, two_cpus, failing_shard):
        failing_shard(1, lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="oracle worker .* exited without a report"):
            verify_no_false_positives(SHARDED_STAR, star_labelling(150, 2))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["module", "local"])
    def test_unpicklable_worker_exception_is_named(self, two_cpus, failing_shard, where, capfd):
        class LocalError(Exception):
            """Not found by name, so it does not pickle."""

        error = TwoPartError("left", "right") if where == "module" else LocalError("left and right")

        def fail():
            raise error

        failing_shard(1, fail)
        message = f"oracle worker raised {type(error).__name__}: left and right"
        with pytest.raises(RuntimeError, match=message) as raised:
            verify_no_false_positives(SHARDED_STAR, star_labelling(150, 2))
        assert multiprocessing.active_children() == []
        (note,) = raised.value.__notes__
        assert ", in patched\n" in note and ", in fail\n" in note
        assert note.endswith(f"{type(error).__name__}: left and right")
        assert capfd.readouterr() == ("", "")

    def test_failing_first_shard_stops_the_workers(self, monkeypatch, two_cpus):
        def patched(g, tables, sources, *caps):
            if sources.start == 0:
                raise ValueError("shard at 0 failed")
            time.sleep(30)  # a long shard in the worker: the call stops it rather than wait

        monkeypatch.setattr(routing, "_check_sources", patched)
        start = time.monotonic()
        with pytest.raises(ValueError, match="shard at 0 failed"):
            verify_no_false_positives(SHARDED_STAR, star_labelling(150, 2))
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fallback", ["one-cpu", "no-fork", "below-cutoff", "threads", "daemon"])
    def test_one_shard_runs_in_process(self, monkeypatch, two_cpus, failing_shard, fallback):
        # a second shard would raise, so the call succeeds only as one shard
        g = SHARDED_STAR if fallback != "below-cutoff" else make_star(140)
        failing_shard(1)
        if fallback == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif fallback == "no-fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        elif fallback == "daemon":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        release = threading.Event()
        waiting = threading.Thread(target=release.wait, args=(60,))
        if fallback == "threads":
            waiting.start()
        try:
            assert verify_no_false_positives(g, star_labelling(g.edge_count, 2)).ok
        finally:
            release.set()
            if fallback == "threads":
                waiting.join(60)
                assert not waiting.is_alive()
