"""Every connected graph on at most 7 vertices, with every non-empty core.

networkx's graph atlas lists every graph on 0-7 vertices up to isomorphism
(Read and Wilson, An Atlas of Graphs, 1998); 996 of them are connected and
have a vertex. label_core_periphery's decision on each (graph, core) pair
must be the one tests/helpers.core_periphery_premises states, message
included, and each labelling it accepts must be the contraction
reference's, report ok under the oracle and deliver every ordered pair.
"""

import itertools
from collections import Counter

import networkx as nx
import pytest

from bitpath import (
    DecompositionError,
    Graph,
    bfs_distances,
    bit_per_vertex,
    label_core_periphery,
    simulate_delivery,
    verify_no_false_positives,
)
from helpers import core_periphery_premises, label_core_periphery_by_contraction


def connected_atlas_graphs() -> list[Graph]:
    return [
        Graph(atlas_graph.number_of_nodes(), list(atlas_graph.edges()))
        for atlas_graph in nx.graph_atlas_g()
        if atlas_graph.number_of_nodes() and nx.is_connected(atlas_graph)
    ]


@pytest.fixture(scope="module")
def decisions() -> list[tuple[Graph, tuple[int, ...], object]]:
    """(graph, core, labelling or DecompositionError message) for every
    connected atlas graph and every non-empty core, cores by size, then
    lexicographically."""
    found = []
    for g in connected_atlas_graphs():
        for size in range(1, g.vertex_count + 1):
            for core in itertools.combinations(range(g.vertex_count), size):
                try:
                    found.append((g, core, label_core_periphery(g, core)))
                except DecompositionError as exc:
                    found.append((g, core, str(exc)))
    return found


def test_connected_atlas_graphs():
    # OEIS A001349 sums to 996 over 1..7 vertices
    assert len(connected_atlas_graphs()) == 996


def test_decisions_state_the_premises(decisions):
    for g, core, outcome in decisions:
        expected = core_periphery_premises(g, set(core))
        assert (outcome if isinstance(outcome, str) else None) == expected, (g.edges, core)
    kinds = Counter(outcome if isinstance(outcome, str) else "accepted" for _, _, outcome in decisions)
    assert kinds == {
        "accepted": 2_596,
        "periphery after contraction is not a tree": 74_846,
        "induced core is disconnected": 38_704,
    }


def test_accepted_cores_are_ok_and_deliver_every_pair(decisions):
    deliveries = full_cores = 0
    for g, core, lab in decisions:
        if isinstance(lab, str):
            continue
        reference = label_core_periphery_by_contraction(g, core)
        assert (lab.width, lab.masks) == (reference.width, reference.masks), (g.edges, core)
        if len(core) == g.vertex_count:
            full_cores += 1
            assert (lab.width, lab.masks) == (bit_per_vertex(g).width, bit_per_vertex(g).masks)
        assert verify_no_false_positives(g, lab).ok, (g.edges, core)
        for s in range(g.vertex_count):
            dist = bfs_distances(g, s)
            for d in range(g.vertex_count):
                if d != s:
                    trace = simulate_delivery(g, lab, s, d)
                    assert trace.delivered and trace.hop_count == dist[d], (g.edges, core, s, d)
                    deliveries += 1
    assert (full_cores, deliveries) == (996, 101_582)
