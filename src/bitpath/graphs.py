"""Undirected simple graphs, deterministic generators, and shortest-path machinery.

Graphs are immutable after construction and safe to share between workers.
Vertex ids are 0..vertex_count-1; edge ids are positions in the edge list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence


class EdgeListParseError(ValueError):
    """A malformed edge-list file; the message names the offending line."""


class NoPathError(ValueError):
    """Two vertices that are not connected were asked for a path."""


@dataclass(frozen=True)
class Path:
    """A simple path: vertices in visit order plus the edge ids joining them."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


class Graph:
    """Simple undirected graph.

    ``edges`` holds normalized (low, high) vertex pairs; ``adjacency[v]`` lists
    (neighbor, edge_id) pairs in ascending neighbor id, the tie-break order of
    every BFS here. Every generator here numbers its edges so that this is
    also ascending edge id; a loaded edge list need not.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        seen: set[tuple[int, int]] = set()
        normalized: list[tuple[int, int]] = []
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge {eid}: vertex out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {eid}: self-loop at vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ValueError(f"edge {eid}: duplicate edge {pair}")
            seen.add(pair)
            normalized.append(pair)
            adjacency[pair[0]].append((pair[1], eid))
            adjacency[pair[1]].append((pair[0], eid))
        for a in adjacency:
            a.sort()
        self.vertex_count = vertex_count
        self.edges: tuple[tuple[int, int], ...] = tuple(normalized)
        self.adjacency: tuple[tuple[tuple[int, int], ...], ...] = tuple(map(tuple, adjacency))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


# ---------------------------------------------------------------------------
# generators


def make_star(n: int) -> Graph:
    """Star with n edges: center 0, leaves 1..n, edge i-1 joining 0 and i."""
    if n < 1:
        raise ValueError("a star needs at least one edge")
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def make_complete(n: int) -> Graph:
    """Complete graph on n vertices, edges in lexicographic order."""
    if n < 1:
        raise ValueError("a complete graph needs at least one vertex")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def make_core_periphery(n: int) -> tuple[Graph, frozenset[int]]:
    """Complete core on vertices 0..n-1, each core vertex carrying n-1 leaves.

    Leaves of core vertex c are n + c*(n-1) .. n + (c+1)*(n-1) - 1, so
    |V| = n*n and |E| = C(n,2) + n*(n-1). Returns (graph, core vertex set).
    """
    if n < 2:
        raise ValueError("core-periphery construction needs n >= 2")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    leaf = n
    for c in range(n):
        for _ in range(n - 1):
            edges.append((c, leaf))
            leaf += 1
    return Graph(n * n, edges), frozenset(range(n))


def make_perfect_binary_tree(h: int) -> Graph:
    """Perfect binary tree of height h, heap-numbered from the root 0.

    Children of v are 2v+1 and 2v+2; edges appear in level order.
    """
    if h < 1:
        raise ValueError("height-0 tree has no edges to label")
    vertex_count = 2 ** (h + 1) - 1
    return Graph(vertex_count, [((v - 1) // 2, v) for v in range(1, vertex_count)])


def make_random_connected(vertex_count: int, edge_probability: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi graph, redrawn until connected."""
    if vertex_count < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    for attempt in range(10_000):
        rng = random.Random(f"{seed}:{attempt}")
        edges = [
            (u, v)
            for u in range(vertex_count)
            for v in range(u + 1, vertex_count)
            if rng.random() < edge_probability
        ]
        g = Graph(vertex_count, edges)
        if is_connected(g):
            return g
    raise ValueError(
        f"no connected draw in 10000 attempts (n={vertex_count}, p={edge_probability})"
    )


# ---------------------------------------------------------------------------
# edge-list text format: first line "V E", then E lines "u v"


def load_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format; edge id = line order. A line
    ends at '\\n' only, so a '\\r' before it is whitespace, like any other."""
    lines = text.removesuffix("\n").split("\n")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListParseError("line 1: expected header 'V E'")
    try:
        vertex_count, edge_count = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListParseError("line 1: header values must be integers") from None
    if vertex_count < 0 or edge_count < 0:
        raise EdgeListParseError("line 1: header values must be non-negative")
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(lines[1 : edge_count + 1], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: endpoints must be integers") from None
        edges.append((u, v))
    if len(edges) < edge_count:
        raise EdgeListParseError(
            f"line {len(lines) + 1}: expected {edge_count} edges, file ends after {len(edges)}"
        )
    for j, extra in enumerate(lines[edge_count + 1 :], start=edge_count + 2):
        if extra.strip():
            raise EdgeListParseError(f"line {j}: unexpected trailing content")
    try:
        return Graph(vertex_count, edges)
    except ValueError as exc:
        # Graph names a bad edge "edge {eid}: ..."; edge eid is on line eid + 2
        where, detail = str(exc).split(": ", 1)
        lineno = int(where.removeprefix("edge ")) + 2
        raise EdgeListParseError(f"line {lineno}: {detail}") from None


def emit_edge_list(g: Graph) -> str:
    """Serialize a graph in the format load_edge_list parses."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shortest paths


def _bfs(g: Graph, sources: Sequence[int], target: int | None = None) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from the distinct vertices sources, expanding
    neighbours in ascending vertex id: the one BFS every shortest-path and
    tree-level function reads from.

    Returns (dist, via, order): hops to the nearest source (-1 unreached),
    the id of the edge that first reached each vertex (-1 for sources and
    unreached ones), and the vertices in the order they were reached, sources
    first. Stops once target is discovered, at once if it is a source: then
    order holds the vertices reached so far, their dist and via entries are
    final, every other entry reads -1, and every vertex on target's via chain
    but target itself has been expanded.
    """
    dist = [-1] * g.vertex_count
    via = [-1] * g.vertex_count
    for source in sources:
        dist[source] = 0
    order = list(sources)
    if target in sources:
        return dist, via, order
    adjacency = g.adjacency
    for cur in order:
        d = dist[cur] + 1
        for nbr, eid in adjacency[cur]:
            if dist[nbr] < 0:
                dist[nbr] = d
                via[nbr] = eid
                order.append(nbr)
                if nbr == target:
                    return dist, via, order
    return dist, via, order


def bfs_distances(g: Graph, source: int) -> list[int]:
    """BFS hop counts from source; -1 marks unreachable vertices."""
    return _bfs(g, (source,))[0]


def is_connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    return len(_bfs(g, (0,))[2]) == g.vertex_count


def shortest_path(g: Graph, u: int, v: int) -> Path:
    """One shortest u-v path; ties broken by BFS expanding neighbors in
    ascending vertex id, parent = first discoverer. The BFS stops as soon as
    it discovers v, whose via chain back to u is then final."""
    if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
        raise ValueError("endpoint out of range")
    dist, via, _ = _bfs(g, (u,), v)
    if dist[v] < 0:
        raise NoPathError(f"no path from {u} to {v}")
    vertices = [v]
    edge_ids = []
    cur = v
    while cur != u:
        eid = via[cur]
        a, b = g.edges[eid]
        cur = a if b == cur else b
        vertices.append(cur)
        edge_ids.append(eid)
    vertices.reverse()
    edge_ids.reverse()
    return Path(tuple(vertices), tuple(edge_ids))


def count_shortest_paths(g: Graph) -> int:
    """Total number of shortest paths over all unordered vertex pairs.

    Exact integer arithmetic; counts overflow 64 bits for large graphs.
    """
    adjacency = g.adjacency
    total = 0
    for u in range(g.vertex_count):
        dist, _, order = _bfs(g, (u,))
        if len(order) < g.vertex_count:
            raise ValueError("graph is disconnected")
        ways = [0] * g.vertex_count
        ways[u] = 1
        for w in order:
            d = dist[w] + 1
            for nbr, _ in adjacency[w]:
                if dist[nbr] == d:
                    ways[nbr] += ways[w]
        total += sum(ways[u + 1 :])
    return total


def ceil_log2(count: int) -> int:
    """Smallest b with 2**b >= count, for count >= 1."""
    if count < 1:
        raise ValueError("count must be positive")
    return (count - 1).bit_length()


def theoretical_smallest_size(g: Graph) -> int:
    """Bits needed to distinguish the graph's shortest paths:
    ceil(log2(count_shortest_paths(g)))."""
    return ceil_log2(count_shortest_paths(g))
