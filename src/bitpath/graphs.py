"""Undirected simple graphs, deterministic generators, and shortest-path machinery.

Graphs are immutable after construction and safe to share between workers.
Vertex ids are 0..vertex_count-1; edge ids are positions in the edge list.
``Graph(...)`` and ``load_edge_list`` check every edge they are given; the
generators skip those checks, since they make only valid edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
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

    ``Graph(...)`` checks every edge it is given: in range, no self-loop, no
    repeated pair. The generators below skip those checks, because their
    edges are valid (low, high) pairs as they are made; a test compares each
    generated graph with ``Graph(g.vertex_count, g.edges)``.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        seen: set[tuple[int, int]] = set()
        normalized: list[tuple[int, int]] = []
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
        self._link(vertex_count, normalized)

    def _link(self, vertex_count: int, edges: list[tuple[int, int]]) -> Graph:
        """Store edges and build each vertex's sorted adjacency, the one place
        both are made; edges must be distinct in-range (low, high) pairs."""
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        for eid, (u, v) in enumerate(edges):
            adjacency[u].append((v, eid))
            adjacency[v].append((u, eid))
        for a in adjacency:
            a.sort()
        self.vertex_count = vertex_count
        self.edges: tuple[tuple[int, int], ...] = tuple(edges)
        self.adjacency: tuple[tuple[tuple[int, int], ...], ...] = tuple(map(tuple, adjacency))
        return self

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


# ---------------------------------------------------------------------------
# generators: each checks its own arguments, then links its edges unchecked

# 4x the largest graph a command builds from a table size, --star 1000000
_MAX_SIZE = 1 << 22


def _check_size(vertex_count: int, edge_count: int, error: type[ValueError] = ValueError, where: str = "") -> None:
    """Refuse a graph of more than _MAX_SIZE vertices or edges, before any list of them is made."""
    if vertex_count > _MAX_SIZE or edge_count > _MAX_SIZE:
        raise error(f"{where}a graph of {vertex_count} vertices and {edge_count} edges is over the limit of "
                    f"{_MAX_SIZE} vertices and {_MAX_SIZE} edges")


def _linked(vertex_count: int, edges: list[tuple[int, int]]) -> Graph:
    """The graph of edges already valid as made, without Graph's per-edge checks."""
    return Graph.__new__(Graph)._link(vertex_count, edges)


def make_star(n: int) -> Graph:
    """Star with n edges: center 0, leaves 1..n, edge i-1 joining 0 and i."""
    if n < 1:
        raise ValueError("a star needs at least one edge")
    _check_size(n + 1, n)
    return _linked(n + 1, [(0, i) for i in range(1, n + 1)])


def make_complete(n: int) -> Graph:
    """Complete graph on n vertices, edges in lexicographic order."""
    if n < 1:
        raise ValueError("a complete graph needs at least one vertex")
    _check_size(n, n * (n - 1) // 2)
    return _linked(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def make_core_periphery(n: int) -> tuple[Graph, frozenset[int]]:
    """Complete core on vertices 0..n-1, each core vertex carrying n-1 leaves.

    Leaves of core vertex c are n + c*(n-1) .. n + (c+1)*(n-1) - 1, so
    |V| = n*n and |E| = C(n,2) + n*(n-1). Returns (graph, core vertex set).
    """
    if n < 2:
        raise ValueError("core-periphery construction needs n >= 2")
    _check_size(n * n, n * (n - 1) // 2 + n * (n - 1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    leaf = n
    for c in range(n):
        for _ in range(n - 1):
            edges.append((c, leaf))
            leaf += 1
    return _linked(n * n, edges), frozenset(range(n))


def make_perfect_binary_tree(h: int) -> Graph:
    """Perfect binary tree of height h, heap-numbered from the root 0.

    Children of v are 2v+1 and 2v+2; edges appear in level order.
    """
    if h < 1:
        raise ValueError("height-0 tree has no edges to label")
    vertex_count = 2 ** (h + 1) - 1
    _check_size(vertex_count, vertex_count - 1)
    return _linked(vertex_count, [((v - 1) // 2, v) for v in range(1, vertex_count)])


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
        # a draw that leaves a vertex on no edge is disconnected; most failed
        # draws are, so skip linking and searching them
        if vertex_count > 1 and len(set(chain.from_iterable(edges))) < vertex_count:
            continue
        g = _linked(vertex_count, edges)
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
    _check_size(vertex_count, edge_count, EdgeListParseError, "line 1: ")
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


def _bfs(g: Graph, sources: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from the distinct vertices sources, expanding
    neighbours in ascending vertex id: the full search that the oracle,
    decompose, the distance and connectivity checks and the path count read
    from (shortest_path runs its own, which stops early).

    Returns (dist, via, order): hops to the nearest source (-1 unreached),
    the id of the edge that first reached each vertex (-1 for sources and
    unreached ones), and the vertices in the order they were reached, sources
    first.
    """
    dist = [-1] * g.vertex_count
    via = [-1] * g.vertex_count
    for source in sources:
        dist[source] = 0
    order = list(sources)
    adjacency = g.adjacency
    for cur in order:
        d = dist[cur] + 1
        for nbr, eid in adjacency[cur]:
            if dist[nbr] < 0:
                dist[nbr] = d
                via[nbr] = eid
                order.append(nbr)
    return dist, via, order


def _check_vertices(g: Graph, role: str, ids: Iterable[int], error: type[ValueError] = ValueError) -> None:
    """Raise error naming the first of ids outside g's vertex ids 0..V-1."""
    for v in ids:
        if not 0 <= v < g.vertex_count:
            raise error(f"{role} {v} outside a {g.vertex_count}-vertex graph")


def bfs_distances(g: Graph, source: int) -> list[int]:
    """BFS hop counts from source; -1 marks unreachable vertices."""
    _check_vertices(g, "source", (source,))
    return _bfs(g, (source,))[0]


def is_connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    return len(_bfs(g, (0,))[2]) == g.vertex_count


def shortest_path(g: Graph, u: int, v: int) -> Path:
    """One shortest u-v path; ties broken by BFS expanding neighbors in
    ascending vertex id, parent = first discoverer, which makes it the
    lexicographically smallest shortest vertex sequence: the via chain of
    _bfs(g, (u,)). Its own BFS from u keeps one vertex-sized list, via,
    and stops at the first neighbour x of v it discovers; the path is x's
    via chain plus the edge x-v. x is v's parent: BFS discovers in
    non-decreasing distance and expands in discovery order, so x is the
    first neighbour of v expanded. The BFS does not test its source, so u
    next to v is answered before it."""
    if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
        _check_vertices(g, "endpoint", (u, v))
    if u == v:
        return Path((u,), ())
    # v's neighbours and their edges to v
    near = dict(g.adjacency[v])
    if u in near:
        return Path((u, v), (near[u],))
    adjacency, edges = g.adjacency, g.edges
    # the edge that first reached each vertex, -1 if none has yet; u is
    # reached by no edge, and the walk back stops there before reading it
    via = [-1] * g.vertex_count
    via[u] = g.edge_count
    order = [u]
    for cur in order:
        for x, eid in adjacency[cur]:
            if via[x] < 0:
                via[x] = eid
                if x in near:
                    vertices, edge_ids = [v, x], [near[x]]
                    while x != u:
                        edge_ids.append(via[x])
                        a, b = edges[via[x]]
                        x = a + b - x
                        vertices.append(x)
                    return Path(tuple(vertices[::-1]), tuple(edge_ids[::-1]))
                order.append(x)
    raise NoPathError(f"no path from {u} to {v}")


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
