"""The core/periphery split, tree level decomposition, and combined labellings."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitpath import (
    DecompositionError,
    Graph,
    NotATreeError,
    bfs_distances,
    bit_per_vertex,
    combine,
    contract,
    core_periphery_universe_size,
    emit_edge_list,
    label_core_periphery,
    label_tree,
    make_core_periphery,
    make_perfect_binary_tree,
    make_star,
    optimal_rank,
    optimal_rank_float,
    perfect_tree_universe_size,
    star_labelling,
    tree_star_levels,
    verify_no_false_positives,
)
from bitpath.cli import main
from helpers import (
    CONTRACTED_VERTEX,
    brute_force_shortest_paths,
    contracted_graphs,
    draw_core_plus_forest,
    grow_forest,
    label_core_periphery_by_contraction,
    shuffled_edge_ids,
    tree_star_levels_reference,
)


def labelling_or_error(build, g: Graph, core):
    """(width, masks) of build(g, core), or the DecompositionError message."""
    try:
        lab = build(g, core)
    except DecompositionError as exc:
        return str(exc)
    return lab.width, lab.masks


FOUR_CYCLE = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
PATH_0123 = Graph(4, [(0, 1), (1, 2), (2, 3)])
# vertex 4 touches both vertices of the core {0, 1}; it is the third vertex
# outside the core, so a number among the outside vertices would be 3
PARALLEL_AT_4 = Graph(5, [(0, 1), (0, 2), (2, 3), (0, 4), (1, 4)])
# (graph, core, message): one input per check, in the order they run, a
# second out-of-range input whose smallest bad id is named, and a second
# parallel-edge input
CORE_ERRORS = [
    (PATH_0123, set(), "core must be non-empty"),
    (PATH_0123, {9}, "core vertex 9 outside a 4-vertex graph"),
    (PATH_0123, {7, 1, 5}, "core vertex 5 outside a 4-vertex graph"),
    (PATH_0123, {0, 1, 2, 3}, "core must be a proper subset of the vertices"),
    # vertex 1 touches both core vertices; the core {0, 2} is also
    # disconnected, and the parallel edges are reported first
    (FOUR_CYCLE, {0, 2}, "contraction creates parallel edges at periphery vertex 1"),
    (PARALLEL_AT_4, {0, 1}, "contraction creates parallel edges at periphery vertex 4"),
    (PATH_0123, {0, 3}, "induced core is disconnected"),
    # the graph is disconnected, yet contracting the core {0, 1} leaves the
    # tree 4-{0,1}-2-3: only the core walk can reject it
    (Graph(5, [(0, 4), (1, 2), (2, 3)]), {0, 1}, "induced core is disconnected"),
    (FOUR_CYCLE, {0}, "periphery after contraction is not a tree"),
]
CORE_ERROR_IDS = ["empty", "out-of-range", "out-of-range-smallest", "not-proper", "parallel", "parallel-own-id",
                  "disconnected", "disconnected-tree", "not-a-tree"]


@pytest.fixture
def contract_calls(monkeypatch):
    """The arguments of every contract call, swapped in every bitpath module
    that holds it, as perfbench's tracer swaps it."""
    original, calls = sys.modules["bitpath.decompose"].contract, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in sorted(sys.modules.items()):
        if key.split(".")[0] == "bitpath" and module.__dict__.get("contract") is original:
            monkeypatch.setattr(module, "contract", counting)
    return calls


class TestContract:
    """contract's split, and the two graphs tests/helpers builds from it."""

    def test_core_periphery_three_gives_six_edge_star(self):
        g, core = make_core_periphery(3)
        assert contract(g, core) == ((0, 1, 2), (0, 1, 2), ((3, 4, 5, 6, 7, 8),), True)
        d = contracted_graphs(g, core)
        assert d.periphery.vertex_count == 7
        assert d.periphery.edge_count == 6
        assert d.periphery.degree(CONTRACTED_VERTEX) == 6
        assert all(d.periphery.degree(v) == 1 for v in range(1, 7))

    def test_tree_core_gives_four_edge_star(self):
        g = make_perfect_binary_tree(2)
        d = contracted_graphs(g, {0, 1, 2})
        assert d.periphery.edge_count == 4
        assert d.periphery.degree(CONTRACTED_VERTEX) == 4

    def test_single_vertex_core_is_renaming(self):
        g = Graph(3, [(0, 1), (1, 2)])
        d = contracted_graphs(g, {0})
        assert d.periphery.edges == ((0, 1), (1, 2))
        assert d.periphery_vertex_map == (None, 1, 2)

    def test_core_graph_is_induced_subgraph(self):
        g, core = make_core_periphery(4)
        d = contracted_graphs(g, core)
        assert d.core.vertex_count == 4
        assert d.core.edge_count == math.comb(4, 2)
        assert d.core_vertex_map == (0, 1, 2, 3)

    def test_edge_maps_partition_original_edges(self):
        g, core = make_core_periphery(5)
        d = contracted_graphs(g, core)
        combined = sorted(d.core_edge_map) + sorted(d.edge_map)
        assert sorted(combined) == list(range(g.edge_count))
        assert len(set(d.edge_map)) == len(d.edge_map)

    def test_periphery_endpoints_map_back(self):
        g, core = make_core_periphery(3)
        d = contracted_graphs(g, core)
        for pe, ge in enumerate(d.edge_map):
            pu, pv = d.periphery.edges[pe]
            orig = set(g.edges[ge])
            mapped = {
                d.periphery_vertex_map[pu] if pu != CONTRACTED_VERTEX else None,
                d.periphery_vertex_map[pv] if pv != CONTRACTED_VERTEX else None,
            }
            outside = {v for v in orig if v not in core}
            assert mapped - {None} == outside

    def test_rejects_parallel_edges_after_contraction(self):
        # vertex 3 touches two core vertices, so contraction would double up
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
        with pytest.raises(DecompositionError, match="parallel"):
            contract(g, {0, 1, 2})

    def test_rejects_disconnected_core(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(DecompositionError, match="disconnected"):
            contract(g, {0, 3})

    def test_rejects_empty_and_full_cores(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(DecompositionError):
            contract(g, set())
        with pytest.raises(DecompositionError):
            contract(g, {0, 1, 2})

    def test_negative_core_id_is_the_smallest_bad_id(self):
        with pytest.raises(DecompositionError, match="^core vertex -3 outside a 4-vertex graph$"):
            contract(PATH_0123, {9, 1, -3})

    def test_renumbering_is_ascending(self):
        g, _ = make_core_periphery(3)
        d = contracted_graphs(g, {0, 1, 2})
        assert d.periphery_vertex_map == (None, 3, 4, 5, 6, 7, 8)


class TestTreeStarLevels:
    def test_perfect_tree_level_sizes(self):
        levels = tree_star_levels(make_perfect_binary_tree(5), center=0)
        assert [len(lv) for lv in levels] == [2, 4, 8, 16, 32]
        assert levels[0] == (0, 1)  # entry 0 is level 1: the root's two edges

    def test_star_is_a_single_level(self):
        levels = tree_star_levels(make_star(10), center=0)
        assert [len(lv) for lv in levels] == [10]

    def test_path_rooted_at_end(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        levels = tree_star_levels(g, center=0)
        assert [len(lv) for lv in levels] == [1, 1, 1]

    def test_levels_partition_edges(self):
        tree = make_perfect_binary_tree(4)
        levels = tree_star_levels(tree, center=0)
        seen = [eid for lv in levels for eid in lv]
        assert sorted(seen) == list(range(tree.edge_count))

    def test_level_edges_join_consecutive_depths(self):
        tree = make_perfect_binary_tree(4)
        dist = bfs_distances(tree, 0)
        for level, edge_ids in enumerate(tree_star_levels(tree, 0), 1):
            for eid in edge_ids:
                u, v = tree.edges[eid]
                assert sorted((dist[u], dist[v])) == [level - 1, level]

    def test_rejects_cycle(self):
        with pytest.raises(NotATreeError):
            tree_star_levels(Graph(3, [(0, 1), (1, 2), (0, 2)]), 0)

    def test_rejects_disconnected(self):
        with pytest.raises(NotATreeError):
            tree_star_levels(Graph(4, [(0, 1), (2, 3)]), 0)

    def test_one_vertex_tree_has_no_levels(self):
        # the one graph whose center is no proper subset, so contract is not asked
        assert tree_star_levels(Graph(1, []), 0) == ()
        assert label_tree(Graph(1, []), 0).width == 0

    @pytest.mark.parametrize("split", [tree_star_levels, label_tree])
    def test_splits_through_the_traced_name(self, contract_calls, split):
        """contract is the one split: each call on a tree of two or more
        vertices goes through it once, with the center as the core."""
        trees = [(Graph(2, [(0, 1)]), 1), (make_star(6), 0), (make_perfect_binary_tree(4), 9), (PATH_0123, 2)]
        for tree, center in trees:
            split(tree, center)
        assert [(g, tuple(core)) for g, core in contract_calls] == [(tree, (center,)) for tree, center in trees]


class TestCombine:
    def test_single_part_is_identity(self):
        lab = star_labelling(6, 2)
        combined = combine(6, [(lab, range(6))])
        assert combined.width == lab.width
        assert combined.masks == lab.masks

    def test_two_parts_are_offset(self):
        g = make_star(4)
        first = bit_per_vertex(Graph(2, [(0, 1)]))  # width 2, label bits {0,1}
        second = star_labelling(3, 1)  # width 3, singleton bits
        combined = combine(4, [(first, [2]), (second, [0, 1, 3])])
        assert combined.width == 5
        assert combined.masks[2] == 0b11
        assert combined.masks[0] == 0b1 << 2
        assert combined.masks[3] == 0b100 << 2

    def test_part_universes_stay_disjoint_and_cover_everything(self):
        g, core = make_core_periphery(6)
        d = contracted_graphs(g, core)
        core_part = bit_per_vertex(d.core)
        peri_part = label_tree(d.periphery, CONTRACTED_VERTEX)
        combined = combine(g.edge_count, [(core_part, d.core_edge_map), (peri_part, d.edge_map)])
        assert combined.width == core_part.width + peri_part.width
        core_range = (1 << core_part.width) - 1
        for ge in d.core_edge_map:
            assert combined.masks[ge] & ~core_range == 0
        for ge in d.edge_map:
            assert combined.masks[ge] & core_range == 0

    def test_rejects_uncovered_edge(self):
        lab = star_labelling(3, 1)
        with pytest.raises(DecompositionError, match="not covered"):
            combine(4, [(lab, [0, 1, 2])])

    def test_rejects_doubly_covered_edge(self):
        lab = star_labelling(3, 1)
        with pytest.raises(DecompositionError, match="two parts"):
            combine(3, [(lab, [0, 1, 1])])

    def test_rejects_size_mismatch(self):
        lab = star_labelling(3, 1)
        with pytest.raises(DecompositionError, match="size"):
            combine(3, [(lab, [0, 1])])

    @pytest.mark.parametrize("edge_id", [3, -1])
    def test_rejects_out_of_range_edge_id(self, edge_id):
        with pytest.raises(DecompositionError, match=f"^part 0: edge id {edge_id} out of range$"):
            combine(3, [(star_labelling(3, 1), [0, 1, edge_id])])

    @pytest.mark.parametrize(
        "parts, message",
        [
            # size first, then each part's ids in order, then the first uncovered edge
            ([([0, 1, 2], 3), ([3], 2)], "part 1: edge map size differs from labelling"),
            ([([0, 7, 1], 3), ([3], 2)], "part 0: edge id 7 out of range"),
            ([([0, 0, 7], 3)], "edge 0 covered by two parts"),
            ([([0, 7, 0], 3)], "part 0: edge id 7 out of range"),
            ([([1, 2], 2), ([2, 9], 2)], "edge 2 covered by two parts"),
            ([([1, 2], 2), ([9, 2], 2)], "part 1: edge id 9 out of range"),
            ([([3, 1], 2), ([2], 1)], "edge 0 not covered by any part"),
            ([([4], 1), ([1, 2], 2)], "edge 0 not covered by any part"),
        ],
    )
    def test_errors_come_in_part_order(self, parts, message):
        labelled = [(star_labelling(n, 1), edge_map) for edge_map, n in parts]
        with pytest.raises(DecompositionError, match=f"^{message}$"):
            combine(5, labelled)


class TestLabelTree:
    @staticmethod
    def check_table_row(capsys, h: int, width: int) -> None:
        """The built labelling of a binary-tree-table row: its width is the
        printed universe_size cell, its masks are distinct, its levels have
        the sizes 2**i that perfect_tree_universe_size assumes and each
        level's masks have the weight of a star labelling at the rank
        optimal_rank_float picks."""
        tree = make_perfect_binary_tree(h)
        lab = label_tree(tree, 0)
        assert main(["binary-tree-table", str(h), "--format", "csv"]) == 0
        cell = capsys.readouterr().out.splitlines()[-1].split(",")[-1]
        assert lab.width == int(cell) == width
        assert len(set(lab.masks)) == tree.edge_count
        assert [len(level) for level in tree_star_levels(tree, 0)] == [2**i for i in range(1, h + 1)]
        for level in tree_star_levels(tree, 0):
            rank = optimal_rank_float(len(level)).rank
            assert {lab.masks[eid].bit_count() for eid in level} == {rank + rank * (rank - 1) // 2}

    def test_height_five_width(self, capsys):
        self.check_table_row(capsys, 5, 2 + 4 + 8 + 12 + 18)

    def test_height_ten_width(self, capsys):
        self.check_table_row(capsys, 10, 252)

    def test_height_fifteen_width(self):
        assert label_tree(make_perfect_binary_tree(15), 0).width == 733

    def test_star_matches_optimal_size(self):
        for n in (5, 10, 37):
            assert label_tree(make_star(n), 0).width == optimal_rank(n).size

    def test_every_edge_labelled_once(self):
        tree = make_perfect_binary_tree(6)
        lab = label_tree(tree, 0)
        assert lab.edge_count == tree.edge_count
        assert all(m > 0 for m in lab.masks)


class TestLabelCorePeriphery:
    def test_toy_instance_width(self):
        g, core = make_core_periphery(3)
        # core contributes 3 bits; the 6-edge periphery star is cheapest at rank 1
        assert optimal_rank(6) == (1, 6, 6)
        assert label_core_periphery(g, core).width == 9

    @pytest.mark.parametrize("n", [100, 200])
    def test_hundred_width(self, capsys, n):
        """The built labelling of a core-periphery table row: its width is the
        printed universe_size cell, its masks are distinct, its one level
        has the n(n-1) edges core_periphery_universe_size assumes, each core
        edge has two bits and each level's masks have the weight of a star
        labelling at the rank optimal_rank_float picks."""
        g, core = make_core_periphery(n)
        lab = label_core_periphery(g, core)
        assert main(["core-periphery-table", str(n), "--format", "csv"]) == 0
        cell = capsys.readouterr().out.splitlines()[-1].split(",")[-1]
        assert lab.width == int(cell) == {100: 200, 200: 326}[n]
        assert len(set(lab.masks)) == g.edge_count
        _, core_edges, levels, _ = contract(g, core)
        assert [len(level) for level in levels] == [n * (n - 1)]
        assert all(lab.masks[eid].bit_count() == 2 for eid in core_edges)
        for level in levels:
            rank = optimal_rank_float(len(level)).rank
            assert {lab.masks[eid].bit_count() for eid in level} == {rank + rank * (rank - 1) // 2}

    @pytest.mark.parametrize(
        "g, core",
        [
            # two leaves joined to each other: contraction leaves a triangle
            (Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (3, 4)]), {0, 1, 2}),
            (FOUR_CYCLE, {0}),
            # the disconnected-tree graph under cores the core walk accepts:
            # the other component is never reached
            (Graph(5, [(0, 4), (1, 2), (2, 3)]), {1, 2}),
            (Graph(5, [(0, 4), (1, 2), (2, 3)]), {0, 4}),
        ],
        ids=["triangle", "cycle", "unreached-path", "unreached-edge"],
    )
    def test_rejects_non_tree_periphery(self, g, core):
        assert contract(g, core).is_tree is False
        with pytest.raises(DecompositionError, match="^periphery after contraction is not a tree$"):
            label_core_periphery(g, core)

    def test_splits_through_the_traced_name(self, contract_calls):
        """perfbench's tracer swaps bitpath.decompose.contract for a wrapper
        in every bitpath module that holds it; one label_core_periphery call
        must go through that wrapper exactly once."""
        g, core = make_core_periphery(5)
        label_core_periphery(g, core)
        assert len(contract_calls) == 1

    def test_labels_stay_distinct(self):
        g, core = make_core_periphery(6)
        lab = label_core_periphery(g, core)
        assert len(set(lab.masks)) == g.edge_count


class TestSizingFormulas:
    def test_tree_formula_matches_construction(self):
        for h in range(1, 9):
            tree = make_perfect_binary_tree(h)
            assert perfect_tree_universe_size(h) == label_tree(tree, 0).width

    def test_core_periphery_formula_matches_construction(self):
        for n in range(2, 13):
            g, core = make_core_periphery(n)
            assert core_periphery_universe_size(n) == label_core_periphery(g, core).width

    def test_reference_tree_widths(self):
        assert [perfect_tree_universe_size(h) for h in (5, 10, 15)] == [44, 252, 733]

    def test_reference_core_periphery_widths(self):
        expected = {100: 200, 200: 326, 300: 447, 400: 565, 500: 668}
        for n, width in expected.items():
            assert core_periphery_universe_size(n) == width

    def test_tree_growth_cubic_bound(self):
        for h in range(3, 16):
            assert perfect_tree_universe_size(h) <= h**3


class TestPathSplittingPremise:
    """Shortest paths split cleanly across a core/periphery decomposition:
    the core edges form one contiguous block that is itself a shortest path
    in the core, and the rest maps to a shortest path in the periphery."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_core_periphery_graphs(self, n):
        g, core = make_core_periphery(n)
        d = contracted_graphs(g, core)
        core_dist = [bfs_distances(d.core, s) for s in range(d.core.vertex_count)]
        peri_dist = [
            bfs_distances(d.periphery, s) for s in range(d.periphery.vertex_count)
        ]
        original_to_core = {orig: i for i, orig in enumerate(d.core_vertex_map)}
        original_to_peri = {
            orig: pid
            for pid, orig in enumerate(d.periphery_vertex_map)
            if orig is not None
        }
        edge_to_peri = {ge: pe for pe, ge in enumerate(d.edge_map)}
        core_edge_set = set(d.core_edge_map)
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                for vertices, edges in brute_force_shortest_paths(g, u, v):
                    core_positions = [
                        i for i, eid in enumerate(edges) if eid in core_edge_set
                    ]
                    if core_positions:
                        # contiguous block of core edges
                        assert core_positions == list(
                            range(core_positions[0], core_positions[-1] + 1)
                        )
                        block_vertices = vertices[
                            core_positions[0] : core_positions[-1] + 2
                        ]
                        a = original_to_core[block_vertices[0]]
                        b = original_to_core[block_vertices[-1]]
                        assert len(block_vertices) - 1 == core_dist[a][b]
                    # remaining edges form a shortest path in the periphery
                    peri_vertices = []
                    for w in vertices:
                        mapped = (
                            CONTRACTED_VERTEX
                            if w in core
                            else original_to_peri[w]
                        )
                        if not peri_vertices or peri_vertices[-1] != mapped:
                            peri_vertices.append(mapped)
                    peri_edges = [
                        edge_to_peri[eid]
                        for eid in edges
                        if eid not in core_edge_set
                    ]
                    assert len(peri_edges) == len(peri_vertices) - 1
                    start, end = peri_vertices[0], peri_vertices[-1]
                    assert len(peri_edges) == peri_dist[start][end]


class TestStarLevelSafety:
    def test_shortest_paths_use_at_most_two_edges_per_level(self):
        for h in range(1, 8):
            tree = make_perfect_binary_tree(h)
            level_of = {}
            for level, edge_ids in enumerate(tree_star_levels(tree, 0), 1):
                for eid in edge_ids:
                    level_of[eid] = level
            # tree paths are unique: walk both endpoints up to their meeting
            # point using the heap numbering (parent of w is (w-1)//2)
            parent_edge = {w: w - 1 for w in range(1, tree.vertex_count)}
            for u in range(tree.vertex_count):
                for v in range(u + 1, tree.vertex_count):
                    a, b, edges = u, v, []
                    while a != b:
                        if a > b:
                            edges.append(parent_edge[a])
                            a = (a - 1) // 2
                        else:
                            edges.append(parent_edge[b])
                            b = (b - 1) // 2
                    counts: dict[int, int] = {}
                    for eid in edges:
                        lv = level_of[eid]
                        counts[lv] = counts.get(lv, 0) + 1
                    assert all(c <= 2 for c in counts.values())


class TestNoFalsePositivesOnRandomShapes:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_label_tree_on_random_trees(self, data):
        n = data.draw(st.integers(2, 30), label="vertices")
        tree = grow_forest(data, [], 1, n)
        center = data.draw(st.integers(0, n - 1), label="center")
        assert verify_no_false_positives(tree, label_tree(tree, center)).ok

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_label_core_periphery_on_core_plus_forest(self, data):
        g, c = draw_core_plus_forest(data)
        assert verify_no_false_positives(g, label_core_periphery(g, range(c))).ok


class TestFlatPartsMatchContraction:
    """label_core_periphery labels contract's split of the original graph;
    the references in tests/helpers build the parts through contracted
    graphs and single-source BFS distances. Widths, masks and errors must
    agree, and contract's levels must be the tree levels."""

    @pytest.mark.parametrize("n", range(2, 31))
    def test_core_periphery_graphs(self, n):
        g, core = make_core_periphery(n)
        for graph in (g, shuffled_edge_ids(g, n)):
            lab = label_core_periphery(graph, core)
            reference = label_core_periphery_by_contraction(graph, core)
            assert (lab.width, lab.masks) == (reference.width, reference.masks)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_core_plus_forest(self, data):
        g, c = draw_core_plus_forest(data)
        shuffled = shuffled_edge_ids(g, data.draw(st.integers(0, 2**16), label="shuffle seed"))
        for graph in (g, shuffled):
            lab = label_core_periphery(graph, range(c))
            reference = label_core_periphery_by_contraction(graph, range(c))
            assert (lab.width, lab.masks) == (reference.width, reference.masks)
            _, core_edges, levels, _ = contract(graph, range(c))
            assert sorted(core_edges + sum(levels, ())) == list(range(graph.edge_count))

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_graphs_and_cores(self, data):
        """Small graphs of any shape, cores of any size, one id out of range
        allowed: the same labelling or the same error message."""
        n = data.draw(st.integers(1, 8), label="vertices")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") if pairs else []
        g = Graph(n, edges)
        core = data.draw(st.sets(st.integers(0, n), max_size=n), label="core")
        assert labelling_or_error(label_core_periphery, g, core) == labelling_or_error(
            label_core_periphery_by_contraction, g, core
        )

    @pytest.mark.parametrize("h", range(1, 13))
    def test_tree_levels_on_perfect_trees(self, h):
        tree = make_perfect_binary_tree(h)
        # the root, the last leaf and the first vertex at depth ceil(h/2)
        for center in (0, tree.vertex_count - 1, 2 ** ((h + 1) // 2) - 1):
            assert tree_star_levels(tree, center) == tree_star_levels_reference(tree, center)
            assert contract(tree, {center}) == ((center,), (), tree_star_levels(tree, center), True)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_tree_levels_on_random_trees(self, data):
        n = data.draw(st.integers(1, 40), label="vertices")
        tree = grow_forest(data, [], 1, n)
        center = data.draw(st.integers(0, n - 1), label="center")
        shuffled = shuffled_edge_ids(tree, data.draw(st.integers(0, 2**16), label="shuffle seed"))
        for graph in (tree, shuffled):
            assert tree_star_levels(graph, center) == tree_star_levels_reference(graph, center)
            if n > 1:  # a one-vertex core of a one-vertex tree is no proper subset
                assert contract(graph, {center}) == ((center,), (), tree_star_levels(graph, center), True)


class TestCoreErrors:
    """Each rejected core gives one exact message, from label_core_periphery,
    from contract (whose split leaves the tree check to its caller) and from
    verify's --core."""

    @pytest.mark.parametrize("g, core, message", CORE_ERRORS, ids=CORE_ERROR_IDS)
    def test_label_core_periphery_message(self, g, core, message):
        with pytest.raises(DecompositionError) as exc:
            label_core_periphery(g, core)
        assert str(exc.value) == message
        assert labelling_or_error(label_core_periphery_by_contraction, g, core) == message

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_parallel_edges_name_the_first_doubly_attached_vertex(self, data):
        """On a valid core, the parallel-edge check names, by its own id, the
        outside vertex whose second core edge comes first in edge-id order."""
        n = data.draw(st.integers(2, 9), label="vertices")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges"))
        core = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1), label="core")
        attached = [w for u, v in g.edges if (u in core) != (v in core) for w in (u, v) if w not in core]
        doubled = next((w for i, w in enumerate(attached) if w in attached[:i]), None)
        for build in (label_core_periphery, contract):
            try:
                build(g, core)
                message = ""
            except DecompositionError as exc:
                message = str(exc)
            if doubled is None:
                assert "parallel" not in message
            else:
                assert message == f"contraction creates parallel edges at periphery vertex {doubled}"

    @pytest.mark.parametrize("g, core, message", CORE_ERRORS[:-1], ids=CORE_ERROR_IDS[:-1])
    def test_contract_message(self, g, core, message):
        with pytest.raises(DecompositionError) as exc:
            contract(g, core)
        assert str(exc.value) == message

    @pytest.mark.parametrize("g, core, message", CORE_ERRORS[1:], ids=CORE_ERROR_IDS[1:])
    def test_cli_message(self, capsys, tmp_path, g, core, message):
        path = tmp_path / "g.txt"
        path.write_text(emit_edge_list(g))
        argv = ["verify", "--graph", str(path), "--scheme", "combined", "--core", ",".join(map(str, sorted(core)))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "call, args, message",
    [
        # without the check, center -1 would index the BFS tables from the end
        (tree_star_levels, (make_perfect_binary_tree(2), -1), "center -1 outside a 7-vertex graph"),
        (tree_star_levels, (make_perfect_binary_tree(2), 7), "center 7 outside a 7-vertex graph"),
        (label_tree, (make_perfect_binary_tree(2), -1), "center -1 outside a 7-vertex graph"),
        (label_tree, (make_perfect_binary_tree(2), 7), "center 7 outside a 7-vertex graph"),
        (perfect_tree_universe_size, (0,), "height must be at least 1"),
        (core_periphery_universe_size, (1,), "core-periphery construction needs n >= 2"),
    ],
)
def test_input_checks(call, args, message):
    with pytest.raises(ValueError) as raised:
        call(*args)
    assert type(raised.value) is ValueError and str(raised.value) == message
