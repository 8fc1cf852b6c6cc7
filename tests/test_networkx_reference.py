"""The oracle and the shortest-path functions against networkx, a reference
this repository did not write: its all_shortest_paths enumerates every
shortest path with its own BFS and predecessor code, so a misreading of
"shortest path" shared by the oracle and tests/helpers.py shows here."""

from functools import lru_cache
from itertools import combinations

import networkx as nx
import pytest

from bitpath import (
    Graph,
    Path,
    bfs_distances,
    bloom_labelling,
    count_shortest_paths,
    shortest_path,
    verify_no_false_positives,
)
from helpers import grid_4x4, random_graph_corpus, shuffled_edge_ids

CUBE_5 = Graph(32, [(v, v | 1 << i) for v in range(32) for i in range(5) if not v >> i & 1])
BASE = {
    **{f"corpus{j}": g for j, g in enumerate(random_graph_corpus()) if j % 5 == 0},
    "grid4x4": grid_4x4(),
    "cube5": CUBE_5,
}
GRAPHS = {
    **BASE,
    **{f"{name}-shuffled": shuffled_edge_ids(g, seed=i) for i, (name, g) in enumerate(BASE.items())},
}


@lru_cache(maxsize=None)
def networkx_graph(name: str) -> nx.Graph:
    """GRAPHS[name] in networkx, each edge carrying its id."""
    g = GRAPHS[name]
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.vertex_count))
    nxg.add_edges_from((u, v, {"id": eid}) for eid, (u, v) in enumerate(g.edges))
    return nxg


@lru_cache(maxsize=None)
def networkx_paths(name: str) -> dict[tuple[int, int], list[Path]]:
    """Per pair u < v, networkx's shortest v-u paths sorted by vertex
    sequence: the order the oracle checks them in."""
    nxg = networkx_graph(name)
    found = {}
    for u, v in combinations(range(nxg.number_of_nodes()), 2):
        found[u, v] = [
            Path(tuple(p), tuple(nxg.edges[a, b]["id"] for a, b in zip(p, p[1:])))
            for p in sorted(nx.all_shortest_paths(nxg, v, u))
        ]
    return found


def networkx_report(name: str, masks, path_cap: int | None) -> tuple[list[tuple[int, int, int]], int, int]:
    """(u, v, edge) once per checked path whose header recognises an edge off
    it, sorted, the paths checked and the pairs with more than path_cap."""
    violations, checked, cap_hits = [], 0, 0
    for (u, v), paths in networkx_paths(name).items():
        if path_cap is not None and len(paths) > path_cap:
            cap_hits += 1
            paths = paths[:path_cap]
        for path in paths:
            checked += 1
            header = 0
            for eid in path.edges:
                header |= masks[eid]
            violations += [(u, v, e) for e, mask in enumerate(masks) if mask & ~header == 0 and e not in path.edges]
    return sorted(violations), checked, cap_hits


@pytest.mark.parametrize("path_cap", [1, 2, None], ids=["cap1", "cap2", "uncapped"])
@pytest.mark.parametrize("name", GRAPHS)
def test_oracle_matches_networkx_paths(name, path_cap):
    g = GRAPHS[name]
    lab = bloom_labelling(g, g.vertex_count // 2, 3, seed=7)
    report = verify_no_false_positives(g, lab, path_cap=path_cap or 10**9, fp_record_cap=10**9)
    violations, checked, cap_hits = networkx_report(name, lab.masks, path_cap)
    assert violations and not report.fp_truncated
    assert sorted(report.false_positives) == violations
    assert (report.paths_checked, report.path_cap_hits) == (checked, cap_hits)


@pytest.mark.parametrize("name", GRAPHS)
def test_paths_counts_and_distances_match_networkx(name):
    g, nxg, paths = GRAPHS[name], networkx_graph(name), networkx_paths(name)
    assert count_shortest_paths(g) == sum(map(len, paths.values()))
    for s in range(g.vertex_count):
        hops = nx.single_source_shortest_path_length(nxg, s)
        assert bfs_distances(g, s) == [hops[v] for v in range(g.vertex_count)]
    for (u, v), found in paths.items():
        # the lexicographically smallest shortest path, from either end
        assert shortest_path(g, v, u) == found[0]
        back = min((Path(p.vertices[::-1], p.edges[::-1]) for p in found), key=lambda p: p.vertices)
        assert shortest_path(g, u, v) == back
