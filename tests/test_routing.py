"""Headers, subset recognition, forwarding simulation, and the FP oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitpath import (
    Graph,
    Labelling,
    Path,
    bit_per_edge,
    bit_per_vertex,
    bloom_labelling,
    encode_path,
    label_core_periphery,
    make_complete,
    make_core_periphery,
    make_random_connected,
    make_star,
    next_hop,
    shortest_path,
    simulate_delivery,
    star_labelling,
    verify_no_false_positives,
)
from helpers import brute_force_false_positives, random_graph_corpus


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

    def test_width_mismatch_raises(self):
        # the header must be a bit set of the labelling's universe
        g = make_star(3)
        lab = bit_per_edge(g)
        assert next_hop(g, lab, 0b111, 0, incoming=0) == (1, 2)
        for header in (-1, 1 << 3, 1 << 99):
            with pytest.raises(ValueError, match="outside a 3-bit universe"):
                next_hop(g, lab, header, 0)


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

    @pytest.mark.parametrize("path_cap", [0, -1])
    def test_rejects_path_cap_below_one(self, path_cap):
        with pytest.raises(ValueError, match="path_cap"):
            verify_no_false_positives(make_star(3), star_labelling(3, 2), path_cap=path_cap)

    @pytest.mark.parametrize("g", [make_star(3), Graph(3, [])], ids=["star", "edgeless"])
    def test_rejects_labelling_of_another_edge_count(self, g):
        with pytest.raises(ValueError, match="does not cover"):
            verify_no_false_positives(g, bit_per_edge(make_star(5)))

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

    @pytest.mark.parametrize("path_cap", [1, 2])
    @pytest.mark.parametrize("name", ["corpus5", "corpus24", "corpus62", "grid4x4", "cube5"])
    def test_capped_report_matches_brute_force(self, name, path_cap):
        # graphs with pairs of more shortest paths than the cap (corpus graph 5
        # has at most two per pair); the reference checks the same paths in
        # the same order, so the records match in order too
        if name == "grid4x4":
            g = Graph(16, [(v, v + 1) for v in range(16) if v % 4 < 3] + [(v, v + 4) for v in range(12)])
        elif name == "cube5":
            g = Graph(32, [(v, v | 1 << i) for v in range(32) for i in range(5) if not v >> i & 1])
        else:
            g = random_graph_corpus()[int(name[len("corpus") :])]
        lab = bloom_labelling(g, g.vertex_count // 2, 3, seed=7)
        report = verify_no_false_positives(g, lab, path_cap=path_cap, fp_record_cap=10**6)
        expected, paths, cap_hits = brute_force_false_positives(g, lab.masks, path_cap)
        assert cap_hits or (name, path_cap) == ("corpus5", 2)
        assert report.paths_checked == paths
        assert report.path_cap_hits == cap_hits
        assert report.false_positives == expected

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
