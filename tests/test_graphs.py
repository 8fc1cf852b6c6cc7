"""Graph construction, generators, edge-list I/O, and shortest-path machinery."""

import hashlib
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitpath import (
    EdgeListParseError,
    Graph,
    NoPathError,
    Path,
    bfs_distances,
    bit_per_edge,
    ceil_log2,
    contract,
    count_shortest_paths,
    emit_edge_list,
    is_connected,
    label_core_periphery,
    label_tree,
    load_edge_list,
    make_complete,
    make_core_periphery,
    make_perfect_binary_tree,
    make_random_connected,
    make_star,
    next_hop,
    shortest_path,
    simulate_delivery,
    theoretical_smallest_size,
    tree_star_levels,
)
from bitpath import graphs
from bitpath.cli import build_parser
from bitpath.graphs import _bfs
from helpers import (
    brute_force_shortest_paths,
    brute_force_total_path_count,
    error_line,
    grid_4x4,
    line_count,
    mutated,
    random_graph_corpus,
    shuffled_edge_ids,
    traced_peak,
    validate_path,
)


def four_cycle() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_unordered_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 5)])

    def test_edges_are_normalized(self):
        g = Graph(3, [(2, 0), (1, 2)])
        assert g.edges == ((0, 2), (1, 2))

    def test_adjacency_consistent_with_edges(self):
        g = four_cycle()
        counted = sum(len(a) for a in g.adjacency)
        assert counted == 2 * g.edge_count
        for v, adj in enumerate(g.adjacency):
            for nbr, eid in adj:
                assert set(g.edges[eid]) == {v, nbr}

    def test_adjacency_ordered_by_edge_id(self):
        g = make_core_periphery(4)[0]
        for adj in g.adjacency:
            eids = [eid for _, eid in adj]
            assert eids == sorted(eids)
        # next_hop returns its candidates in adjacency order
        for seed in range(50):
            g = make_random_connected(5 + seed % 20, 0.3, seed)
            for adj in g.adjacency:
                assert [eid for _, eid in adj] == sorted(eid for _, eid in adj)

    def test_adjacency_ascends_by_neighbour_id(self):
        g = shuffled_edge_ids(grid_4x4(), seed=1)
        assert g.edges != tuple(sorted(g.edges))
        for v, adj in enumerate(g.adjacency):
            assert [nbr for nbr, _ in adj] == sorted(nbr for nbr, _ in adj)
            for nbr, eid in adj:
                assert set(g.edges[eid]) == {v, nbr}


class TestGenerators:
    def test_star_smallest(self):
        g = make_star(1)
        assert g.edges == ((0, 1),)

    def test_star_ten(self):
        g = make_star(10)
        assert g.vertex_count == 11
        assert g.edge_count == 10
        assert g.edges[3] == (0, 4)

    def test_star_degrees(self):
        g = make_star(3)
        assert g.degree(0) == 3
        assert all(g.degree(leaf) == 1 for leaf in range(1, 4))

    def test_star_rejects_zero(self):
        with pytest.raises(ValueError):
            make_star(0)

    def test_complete_counts(self):
        assert make_complete(3).edge_count == 3
        assert make_complete(2).edge_count == 1
        assert make_complete(100).edge_count == 4950

    def test_core_periphery_hundred(self):
        g, core = make_core_periphery(100)
        assert g.vertex_count == 10_000
        assert g.edge_count == 14_850
        assert core == frozenset(range(100))

    def test_core_periphery_two(self):
        g, core = make_core_periphery(2)
        assert g.vertex_count == 4
        assert g.edge_count == 3
        assert core == frozenset({0, 1})

    def test_core_periphery_degrees(self):
        g, core = make_core_periphery(5)
        for c in core:
            assert g.degree(c) == 4 + 4  # 4 core neighbors + 4 leaves
        for leaf in range(5, 25):
            assert g.degree(leaf) == 1

    def test_core_periphery_rejects_one(self):
        with pytest.raises(ValueError):
            make_core_periphery(1)

    @pytest.mark.parametrize("h,vertices", [(1, 3), (5, 63), (10, 2047)])
    def test_tree_sizes(self, h, vertices):
        g = make_perfect_binary_tree(h)
        assert g.vertex_count == vertices
        assert g.edge_count == vertices - 1

    def test_tree_degrees(self):
        g = make_perfect_binary_tree(3)
        assert g.degree(0) == 2
        assert g.degree(1) == 3
        assert all(g.degree(v) == 1 for v in range(7, 15))

    def test_tree_rejects_zero(self):
        with pytest.raises(ValueError):
            make_perfect_binary_tree(0)

    def test_random_connected_deterministic(self):
        a = make_random_connected(20, 0.15, seed=7)
        b = make_random_connected(20, 0.15, seed=7)
        assert a.edges == b.edges
        assert is_connected(a)

    def test_random_connected_distinct_seeds(self):
        a = make_random_connected(20, 0.15, seed=1)
        b = make_random_connected(20, 0.15, seed=2)
        assert a.edges != b.edges


# each generator at its smallest legal argument, then a few mid sizes
GENERATOR_CALLS = [
    *((make_star, n) for n in (1, 2, 7, 60)),
    *((make_complete, n) for n in (1, 2, 9, 40)),
    *((make_core_periphery, n) for n in (2, 3, 8, 20)),
    *((make_perfect_binary_tree, h) for h in (1, 2, 6, 10)),
    *((make_random_connected, *draw) for draw in ((1, 0.0, 0), (2, 1.0, 0), (12, 0.3, 3), (40, 0.1, 9))),
]

# sha256 of repr([g.edges for g in random_graph_corpus()]), the draws every
# corpus-based suite, acceptance criteria included, rests on
CORPUS_EDGES_SHA256 = "0659cd89fd3beb536eab8657a33c8dba379e63e74a1d3a2d336a5b7b87a93bae"


def first_connected_draw(vertex_count: int, p: float, seed: int) -> tuple[tuple[int, int], ...] | None:
    """The edges make_random_connected returns, by linking and searching
    every draw; None where it finds no connected one."""
    pairs = [(u, v) for u in range(vertex_count) for v in range(u + 1, vertex_count)]
    for attempt in range(10_000):
        rng = random.Random(f"{seed}:{attempt}")
        g = Graph(vertex_count, [pair for pair in pairs if rng.random() < p])
        if is_connected(g):
            return g.edges
    return None


def assert_matches_checked_constructor(g: Graph) -> None:
    # a generated edge that Graph would reject or normalize shows up here
    checked = Graph(g.vertex_count, g.edges)
    assert (checked.edges, checked.adjacency) == (g.edges, g.adjacency)


class TestGeneratorsLinkValidEdges:
    """Generators skip Graph's per-edge checks; their graphs must be the ones
    the checked constructor builds from the same edges."""

    @pytest.mark.parametrize("call", GENERATOR_CALLS, ids=lambda call: f"{call[0].__name__}{call[1:]}")
    def test_generator(self, call):
        built = call[0](*call[1:])
        assert_matches_checked_constructor(built[0] if isinstance(built, tuple) else built)

    def test_corpus_draws(self):
        for g in random_graph_corpus():
            assert_matches_checked_constructor(g)

    def test_corpus_draws_are_pinned(self):
        edges = repr([g.edges for g in random_graph_corpus()])
        assert hashlib.sha256(edges.encode()).hexdigest() == CORPUS_EDGES_SHA256

    @pytest.mark.parametrize("vertex_count", [1, 2, 3, 5, 9, 16])
    def test_random_connected_skips_only_disconnected_draws(self, vertex_count):
        # a draw with a vertex on no edge is skipped unlinked; the graph
        # returned must be the first connected draw all the same
        for seed in range(12):
            # p = 0 on two or more vertices would run out all 10,000 draws;
            # that error's message is pinned in test_input_checks
            for p in (0.15, 0.3, 0.6, 1.0) if vertex_count > 1 else (0.0, 1.0):
                try:
                    edges = make_random_connected(vertex_count, p, seed).edges
                except ValueError:
                    edges = None
                assert edges == first_connected_draw(vertex_count, p, seed)


class Stopped(Exception):
    """Raised in place of building a graph whose counts passed the size check."""


class TestSizeLimit:
    """Generators and load_edge_list refuse more than 2**22 vertices or edges
    from their closed-form or header counts, before any list is made. The
    large cases run under memory_cap, so a missing check fails with
    MemoryError instead of filling the host's memory."""

    @pytest.fixture
    def checked_counts(self, monkeypatch):
        """The (vertices, edges) of every size check, which then goes on."""
        original, calls = graphs._check_size, []

        def recording(vertex_count, edge_count, *args):
            calls.append((vertex_count, edge_count))
            return original(vertex_count, edge_count, *args)

        monkeypatch.setattr(graphs, "_check_size", recording)
        return calls

    @pytest.mark.parametrize("call", GENERATOR_CALLS[:16], ids=lambda call: f"{call[0].__name__}{call[1:]}")
    def test_generators_check_their_built_counts(self, checked_counts, call):
        built = call[0](*call[1:])
        g = built[0] if isinstance(built, tuple) else built
        assert checked_counts == [(g.vertex_count, g.edge_count)]

    def test_edge_list_checks_its_header_counts(self, checked_counts):
        load_edge_list("5 2\n0 1\n1 2\n")
        assert checked_counts == [(5, 2)]

    @pytest.mark.parametrize(
        "call, counts",
        [
            ((make_star, (1 << 22) - 1), (1 << 22, (1 << 22) - 1)),
            ((make_complete, 2896), (2896, 2896 * 2895 // 2)),
            ((make_core_periphery, 1672), (1672**2, 3 * 1672 * 1671 // 2)),
            ((make_perfect_binary_tree, 21), (2**22 - 1, 2**22 - 2)),
            ((load_edge_list, "4194304 4194304\n"), (1 << 22, 1 << 22)),
        ],
        ids=["star", "complete", "core-periphery", "tree", "edge-list"],
    )
    def test_largest_accepted_size(self, monkeypatch, memory_cap, checked_counts, call, counts):
        original = graphs._check_size

        def check_then_stop(*args):
            original(*args)
            raise Stopped

        monkeypatch.setattr(graphs, "_check_size", check_then_stop)
        with pytest.raises(Stopped):
            call[0](*call[1:])
        assert checked_counts == [counts]

    @pytest.mark.parametrize(
        "call, counts",
        [
            ((make_star, 1 << 22), ((1 << 22) + 1, 1 << 22)),
            ((make_complete, 2897), (2897, 2897 * 2896 // 2)),
            ((make_core_periphery, 1673), (1673**2, 3 * 1673 * 1672 // 2)),
            ((make_perfect_binary_tree, 22), (2**23 - 1, 2**23 - 2)),
            ((load_edge_list, "400000000 0\n"), (400_000_000, 0)),
        ],
        ids=["star", "complete", "core-periphery", "tree", "edge-list"],
    )
    def test_smallest_refused_size(self, memory_cap, call, counts):
        def refusal():
            with pytest.raises(ValueError) as raised:
                call[0](*call[1:])
            return raised.value

        error, peak = traced_peak(refusal)
        loader = call[0] is load_edge_list
        assert type(error) is (EdgeListParseError if loader else ValueError)
        assert str(error) == (
            f"{'line 1: ' if loader else ''}a graph of {counts[0]} vertices and {counts[1]} edges is over the "
            "limit of 4194304 vertices and 4194304 edges"
        )
        assert peak < 1 << 20


@st.composite
def edge_list_texts(draw) -> str:
    """emit_edge_list of a simple graph on at most 9 vertices."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    return emit_edge_list(Graph(n, edges))


@st.composite
def edge_list_like_texts(draw) -> str:
    """Texts in or near the edge-list format: header and endpoint tokens,
    canonical or not, separators and line breaks."""
    tokens = st.sampled_from([str(v) for v in range(10)] * 2 + ["05", "+1", "-1", "1_0", "\u0663", "x", ""])
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        sep = draw(st.sampled_from([" ", "  ", "\t", "\u00a0"]))
        # mostly two tokens a line, as the format asks
        count = draw(st.sampled_from([2, 2, 2, 1, 3]))
        lines.append(sep.join(draw(st.lists(tokens, min_size=count, max_size=count))))
    brk = draw(st.sampled_from(["\n", "\r\n", "\x0c", "\u2028", "\n\n", "\n \n"]))
    return brk.join(lines) + draw(st.sampled_from(["", brk]))


class TestEdgeListIO:
    def test_parse_path_graph(self):
        g = load_edge_list("3 2\n0 1\n1 2")
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_self_loop_names_line(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list("2 1\n0 0")

    def test_duplicate_names_line(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            load_edge_list("3 2\n0 1\n1 0")

    def test_out_of_range_names_line(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list("2 1\n0 2")

    def test_bad_header(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            load_edge_list("3\n0 1")

    def test_non_integer_edge(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list("3 1\n0 x")

    def test_truncated_file(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            load_edge_list("3 2\n0 1")

    def test_trailing_garbage(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            load_edge_list("2 1\n0 1\nstray")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 2\n0 1\x0c1 2\n", "line 2: expected 'u v'"),
            ("3 2\n0 1\u20281 2\n", "line 2: expected 'u v'"),
            ("2 1\r0 1\r", "line 1: expected header 'V E'"),
            ("3 2\n0 1\n", "line 3: expected 2 edges, file ends after 1"),
            ("3 2\r\n0 1\r\n", "line 3: expected 2 edges, file ends after 1"),
            ("", "line 1: expected header 'V E'"),
            (" \t\n0 1\n", "line 1: expected header 'V E'"),
        ],
        ids=["form-feed", "line-separator", "lone-cr", "truncated", "truncated-crlf", "empty", "blank-header"],
    )
    def test_lines_end_at_newline_only(self, text, message):
        with pytest.raises(EdgeListParseError) as raised:
            load_edge_list(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize("text", ["3 2\r\n0 1\r\n1 2\r\n", "3 2\r\n0 1\r\n1 2", "3 2\n0 1\n1 2\n\n \r\n"])
    def test_crlf_and_trailing_blank_lines_parse(self, text):
        g = load_edge_list(text)
        assert (g.vertex_count, g.edges) == (3, ((0, 1), (1, 2)))

    def test_round_trip_generators(self):
        for g in (
            make_star(5),
            make_complete(4),
            make_core_periphery(3)[0],
            make_perfect_binary_tree(3),
            make_random_connected(12, 0.3, seed=3),
        ):
            again = load_edge_list(emit_edge_list(g))
            assert again.vertex_count == g.vertex_count
            assert again.edges == g.edges

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_round_trip_any_simple_graph(self, data):
        n = data.draw(st.integers(0, 12), label="vertices")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") if pairs else []
        # endpoints in either order, edges in any order
        edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in chosen]
        g = Graph(n, edges)
        again = load_edge_list(emit_edge_list(g))
        assert again.vertex_count == g.vertex_count
        assert again.edges == g.edges
        assert again.adjacency == g.adjacency

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mutated(st.one_of(edge_list_texts(), edge_list_like_texts())))
    def test_fuzzed_text_parses_or_names_a_line(self, text):
        try:
            load_edge_list(text)
        except EdgeListParseError as exc:
            assert 1 <= error_line(str(exc)) <= line_count(text) + 1


class TestShortestPath:
    def test_star_routes_through_center(self):
        path = shortest_path(make_star(10), 1, 2)
        assert path.vertices == (1, 0, 2)
        assert len(path) == 2

    def test_same_vertex_gives_empty_path(self):
        path = shortest_path(make_star(4), 3, 3)
        assert path.vertices == (3,)
        assert path.edges == ()

    def test_complete_adjacent_single_edge(self):
        path = shortest_path(make_complete(5), 0, 3)
        assert len(path) == 1

    def test_unreachable_raises(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(NoPathError):
            shortest_path(g, 0, 3)

    def test_tie_break_prefers_low_vertex_ids(self):
        # both routes around the 4-cycle are shortest; BFS must pick via vertex 1
        path = shortest_path(four_cycle(), 0, 2)
        assert path.vertices == (0, 1, 2)

    def test_paths_validate_against_graph(self):
        g = make_perfect_binary_tree(4)
        for v in range(g.vertex_count):
            validate_path(g, shortest_path(g, 0, v))

    def test_matches_first_brute_force_path(self):
        # the BFS tie-break picks the lexicographically first shortest path
        graphs = [
            four_cycle(),
            make_complete(5),
            make_random_connected(8, 0.4, seed=5),
            make_random_connected(7, 0.5, seed=9),
            grid_4x4(),
        ]
        for g in graphs + [shuffled_edge_ids(g, seed=3) for g in graphs]:
            for u in range(g.vertex_count):
                for v in range(g.vertex_count):
                    p = shortest_path(g, u, v)
                    assert (p.vertices, p.edges) == brute_force_shortest_paths(g, u, v)[0]
                    validate_path(g, p)

    def test_tie_break_follows_discovery_order_not_vertex_id(self):
        # from 0, vertex 5 (via 1) is discovered before vertex 4 (via 2),
        # although 4 has the smaller id, so 5 is 6's parent; from 6, vertex 4
        # comes first in both orders
        g = Graph(7, [(0, 1), (0, 2), (1, 5), (2, 4), (4, 6), (5, 6)])
        assert shortest_path(g, 0, 6).vertices == (0, 1, 5, 6)
        assert shortest_path(g, 6, 0).vertices == (6, 4, 2, 0)

    def test_equals_the_via_chain_of_the_full_bfs(self):
        # shortest_path runs its own search, which stops at the first
        # discovered neighbour x of v: its path must be the via chain of a
        # _bfs that runs to the end, on every ordered pair of criterion 8's
        # graph families (smaller sizes), the grid and shuffled-edge-id copies
        graphs = [
            *(make_complete(n) for n in range(1, 13)),
            *random_graph_corpus(),
            *(make_core_periphery(n)[0] for n in range(2, 11)),
            *(make_perfect_binary_tree(h) for h in range(1, 7)),
            *(make_star(n) for n in (1, 2, 7, 50)),
            grid_4x4(),
        ]
        for g in graphs + [shuffled_edge_ids(g, seed=4) for g in graphs]:
            for u in range(g.vertex_count):
                via = _bfs(g, (u,))[1]
                for v in range(g.vertex_count):
                    vertices, edge_ids = [v], []
                    while vertices[-1] != u:
                        edge_ids.append(via[vertices[-1]])
                        a, b = g.edges[edge_ids[-1]]
                        vertices.append(a + b - vertices[-1])
                    assert shortest_path(g, u, v) == Path(tuple(vertices[::-1]), tuple(edge_ids[::-1]))

    def test_lengths_match_bfs_distance(self):
        for g in (
            make_star(6),
            make_complete(5),
            make_core_periphery(3)[0],
            make_perfect_binary_tree(3),
            make_random_connected(14, 0.25, seed=11),
        ):
            for u in range(g.vertex_count):
                dist = bfs_distances(g, u)
                for v in range(g.vertex_count):
                    assert len(shortest_path(g, u, v)) == dist[v]


class TestAllShortestPaths:
    def test_four_cycle_opposite_corners(self):
        paths = brute_force_shortest_paths(four_cycle(), 0, 2)
        assert [vertices for vertices, _ in paths] == [(0, 1, 2), (0, 3, 2)]

    def test_tree_pairs_are_unique(self):
        g = make_perfect_binary_tree(3)
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                assert len(brute_force_shortest_paths(g, u, v)) == 1

    def test_complete_adjacent_pair(self):
        assert brute_force_shortest_paths(make_complete(6), 1, 4) == [((1, 4), (7,))]

    def test_members_all_have_bfs_length(self):
        g = make_random_connected(12, 0.3, seed=2)
        for u in range(g.vertex_count):
            dist = bfs_distances(g, u)
            for v in range(g.vertex_count):
                for _, edges in brute_force_shortest_paths(g, u, v):
                    assert len(edges) == dist[v]


class TestCounting:
    def test_star_ten_matches_brute_force(self):
        g = make_star(10)
        oracle = brute_force_total_path_count(g)
        assert oracle == 55  # 10 one-edge + C(10,2) two-edge paths
        assert count_shortest_paths(g) == oracle

    def test_single_edge(self):
        assert count_shortest_paths(make_star(1)) == 1

    def test_trees_count_all_pairs_once(self):
        for g in (make_perfect_binary_tree(2), make_perfect_binary_tree(4), make_star(7)):
            assert count_shortest_paths(g) == math.comb(g.vertex_count, 2)

    def test_complete_matches_brute_force(self):
        # all but make_complete(5) have several shortest paths between some pairs
        grid = grid_4x4()
        for g in (
            make_complete(5),
            four_cycle(),
            grid,
            make_random_connected(8, 0.4, seed=5),
            shuffled_edge_ids(grid, seed=3),
        ):
            assert count_shortest_paths(g) == brute_force_total_path_count(g)

    def test_core_periphery_all_pairs_unique(self):
        for n in (2, 3, 4, 5, 6, 7, 8, 12):
            g, _ = make_core_periphery(n)
            assert count_shortest_paths(g) == math.comb(n * n, 2)

    def test_core_periphery_small_matches_brute_force(self):
        g, _ = make_core_periphery(3)
        assert brute_force_total_path_count(g) == math.comb(9, 2)

    def test_disconnected_raises(self):
        with pytest.raises(ValueError, match="disconnected"):
            count_shortest_paths(Graph(4, [(0, 1), (2, 3)]))

    def test_star_closed_form_up_to_200(self):
        for n in (2, 3, 17, 60, 200):
            assert count_shortest_paths(make_star(n)) == n + math.comb(n, 2)


class TestTheoreticalSize:
    def test_star_ten(self):
        assert theoretical_smallest_size(make_star(10)) == 6

    def test_single_edge(self):
        assert theoretical_smallest_size(make_star(1)) == 0

    def test_matches_brute_force_log(self):
        for g in (make_complete(4), make_perfect_binary_tree(3), four_cycle()):
            assert theoretical_smallest_size(g) == ceil_log2(brute_force_total_path_count(g))

    def test_ceil_log2_values(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(3) == 2
        assert ceil_log2(1024) == 10
        assert ceil_log2(1025) == 11
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestStarPathShape:
    def test_every_star_shortest_path_has_at_most_two_edges(self):
        for n in (2, 9, 25, 60):
            g = make_star(n)
            for u in range(g.vertex_count):
                for v in range(u + 1, g.vertex_count):
                    for _, edges in brute_force_shortest_paths(g, u, v):
                        assert len(edges) <= 2


@pytest.mark.parametrize(
    "call, args, message",
    [
        (Graph, (-1, []), "vertex_count must be non-negative"),
        (make_complete, (0,), "a complete graph needs at least one vertex"),
        (make_random_connected, (0, 0.5, 1), "need at least one vertex"),
        (make_random_connected, (3, 1.5, 1), "edge probability must lie in [0, 1]"),
        (make_random_connected, (3, -0.1, 1), "edge probability must lie in [0, 1]"),
        (make_random_connected, (2, 0.0, 1), "no connected draw in 10000 attempts (n=2, p=0.0)"),
        (shortest_path, (make_star(2), 0, 3), "endpoint 3 outside a 3-vertex graph"),
        (shortest_path, (make_star(2), -1, 0), "endpoint -1 outside a 3-vertex graph"),
        (shortest_path, (make_star(2), 5, -1), "endpoint 5 outside a 3-vertex graph"),
        (bfs_distances, (make_star(3), -1), "source -1 outside a 4-vertex graph"),
        (bfs_distances, (make_star(3), 4), "source 4 outside a 4-vertex graph"),
    ],
)
def test_input_checks(call, args, message):
    with pytest.raises(ValueError) as raised:
        call(*args)
    assert type(raised.value) is ValueError and str(raised.value) == message


@pytest.fixture
def vertex_checks(monkeypatch):
    """The (role, ids) of every graphs._check_vertices call, swapped in every
    bitpath module that holds it, as test_splits_through_the_traced_name
    swaps contract."""
    original, calls = graphs._check_vertices, []

    def recording(g, role, ids, *args):
        calls.append((role, tuple(ids)))
        return original(g, role, ids, *args)

    for key, module in sorted(sys.modules.items()):
        if key.split(".")[0] == "bitpath" and module.__dict__.get("_check_vertices") is original:
            monkeypatch.setattr(module, "_check_vertices", recording)
    return calls


def run_command(argv):
    """A CLI command without main's error printing: its errors raise."""
    args = build_parser().parse_args(argv)
    return args.func(args)


TREE_7 = make_perfect_binary_tree(2)


@pytest.mark.parametrize(
    "call, role, bad",
    [
        (lambda: bfs_distances(TREE_7, 7), "source", 7),
        (lambda: shortest_path(TREE_7, 0, -1), "endpoint", -1),
        (lambda: simulate_delivery(TREE_7, bit_per_edge(TREE_7), 9, 0), "endpoint", 9),
        (lambda: next_hop(TREE_7, bit_per_edge(TREE_7), 0, -2), "current vertex", -2),
        (lambda: tree_star_levels(TREE_7, 7), "center", 7),
        (lambda: label_tree(TREE_7, -1), "center", -1),
        (lambda: contract(TREE_7, {0, 8}), "core vertex", 8),
        (lambda: label_core_periphery(TREE_7, {1, -4}), "core vertex", -4),
        (lambda: run_command(["route", "--tree", "2", "--scheme", "bit-per-edge", "--source", "0", "--dest", "7"]),
         "--dest", 7),
    ],
    ids=["bfs_distances", "shortest_path", "simulate_delivery", "next_hop", "tree_star_levels", "label_tree",
         "contract", "label_core_periphery", "route"],
)
def test_vertex_ids_have_one_check(vertex_checks, call, role, bad):
    with pytest.raises(ValueError, match=f"^{role} {bad} outside a 7-vertex graph$"):
        call()
    assert vertex_checks[-1][0] == role and bad in vertex_checks[-1][1]


def test_a_valid_delivery_checks_no_vertex_id(vertex_checks):
    # shortest_path calls the check only once its own range test has failed
    assert simulate_delivery(TREE_7, bit_per_edge(TREE_7), 3, 6).delivered
    assert vertex_checks == []


def test_empty_graph_is_connected():
    assert is_connected(Graph(0, []))
