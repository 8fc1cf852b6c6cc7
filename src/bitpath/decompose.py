"""Core/periphery contraction, tree level decomposition, and combined labellings.

A combined labelling is one combine over a flat list of parts of the graph's
edges, each over its own universe: bit-per-vertex on an induced core, then a
star labelling per periphery level, the level stars left by contracting the
core to one vertex. The parts are found in the original graph's edge ids by
one BFS from every core vertex; contract builds the contracted graphs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, _bfs
from .labelling import Labelling, optimal_rank_float, star_labelling

CONTRACTED_VERTEX = 0  # id of the merged core inside every periphery graph


class DecompositionError(ValueError):
    """Contraction or combination cannot proceed on this input."""


class NotATreeError(ValueError):
    """An operation that needs a tree was given a cyclic or disconnected graph."""


@dataclass(frozen=True)
class Decomposition:
    """Core subgraph plus the core-contracted periphery, with id maps back
    into the original graph.

    Periphery vertex 0 is the contracted core; remaining vertices keep their
    relative order (renumbered by ascending original id). edge_map is a
    bijection from periphery edge ids onto the original non-core edges.
    """

    core: Graph
    core_vertex_map: tuple[int, ...]
    core_edge_map: tuple[int, ...]
    periphery: Graph
    periphery_vertex_map: tuple[int | None, ...]
    edge_map: tuple[int, ...]


def _split_core(g: Graph, core_vertices) -> tuple[list[int], list[int]]:
    """Ascending core ids and ids of the edges inside the core, once the core
    is a non-empty proper subset, no outside vertex has two core neighbours
    and the induced core is connected, checked in that order."""
    core_set = frozenset(core_vertices)
    if not core_set:
        raise DecompositionError("core must be non-empty")
    if not all(0 <= v < g.vertex_count for v in core_set):
        raise DecompositionError("core contains out-of-range vertex ids")
    if len(core_set) >= g.vertex_count:
        raise DecompositionError("core must be a proper subset of the vertices")
    core_ids = sorted(core_set)
    core_edges: list[int] = []
    attached: set[int] = set()  # outside vertices with a core neighbour so far
    for eid, (u, v) in enumerate(g.edges):
        if u in core_set and v in core_set:
            core_edges.append(eid)
        elif u in core_set or v in core_set:
            w = v if u in core_set else u
            if w in attached:
                # w's periphery vertex id: 1 plus the outside vertices below it
                raise DecompositionError(
                    f"contraction creates parallel edges at periphery vertex {w + 1 - bisect_left(core_ids, w)}"
                )
            attached.add(w)
    unreached = set(core_ids[1:])
    stack = core_ids[:1]
    for cur in stack:
        for nbr, _ in g.adjacency[cur]:
            if nbr in unreached:
                unreached.remove(nbr)
                stack.append(nbr)
    if unreached:
        raise DecompositionError("induced core is disconnected")
    return core_ids, core_edges


def contract(g: Graph, core_vertices) -> Decomposition:
    """Contract the induced core to one vertex.

    The induced core must be connected, and no non-core vertex may have two
    core neighbors (that would create parallel edges, which are rejected
    rather than merged so edge_map stays a bijection).
    """
    core_ids, core_edge_map = _split_core(g, core_vertices)
    core_index = {orig: i for i, orig in enumerate(core_ids)}
    outside = [v for v in range(g.vertex_count) if v not in core_index]
    periphery_index = dict.fromkeys(core_ids, CONTRACTED_VERTEX) | {v: i for i, v in enumerate(outside, 1)}
    edge_map = sorted(set(range(g.edge_count)).difference(core_edge_map))
    core_edges = [(core_index[u], core_index[v]) for u, v in map(g.edges.__getitem__, core_edge_map)]
    periphery_edges = [(periphery_index[u], periphery_index[v]) for u, v in map(g.edges.__getitem__, edge_map)]
    return Decomposition(
        core=Graph(len(core_ids), core_edges),
        core_vertex_map=tuple(core_ids),
        core_edge_map=tuple(core_edge_map),
        periphery=Graph(len(outside) + 1, periphery_edges),
        periphery_vertex_map=(None, *outside),
        edge_map=tuple(edge_map),
    )


def _star_levels(g: Graph, sources: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Level stars of g with the distinct vertices sources contracted to one
    center, by one multi-source BFS: entry i holds the ascending ids of the
    edges joining distances i and i+1. Raises NotATreeError unless the
    contracted graph is a tree."""
    dist, _, order = _bfs(g, sources)
    buckets: list[list[int]] = [[] for _ in range(dist[order[-1]])]
    for eid, (u, v) in enumerate(g.edges):
        d = dist[u] if dist[u] > dist[v] else dist[v]
        if d > 0:
            buckets[d - 1].append(eid)
    if len(order) < g.vertex_count or sum(map(len, buckets)) != g.vertex_count - len(sources):
        raise NotATreeError("input is not a connected acyclic graph")
    return tuple(map(tuple, buckets))


def tree_star_levels(tree: Graph, center: int) -> tuple[tuple[int, ...], ...]:
    """Partition a tree's edges into the stars obtained by repeatedly
    contracting the star around the (merged) center: entry i holds the
    ascending ids of the edges joining distances i and i+1 from it."""
    if not 0 <= center < tree.vertex_count:
        raise ValueError("center out of range")
    return _star_levels(tree, (center,))


def combine(edge_count: int, parts: Sequence[tuple[Labelling, Sequence[int]]]) -> Labelling:
    """Concatenate part labellings whose edge maps partition 0..edge_count-1.

    Part j's bits are shifted by the total width of the parts before it, so
    part universes stay disjoint and |W| is the sum of the part sizes.
    """
    owner = [-1] * edge_count
    for j, (part, edge_map) in enumerate(parts):
        if len(edge_map) != part.edge_count:
            raise DecompositionError(f"part {j}: edge map size differs from labelling")
        for ge in edge_map:
            if not 0 <= ge < edge_count:
                raise DecompositionError(f"part {j}: edge id {ge} out of range")
            if owner[ge] != -1:
                raise DecompositionError(f"edge {ge} covered by two parts")
            owner[ge] = j
    for ge, j in enumerate(owner):
        if j == -1:
            raise DecompositionError(f"edge {ge} not covered by any part")

    masks = [0] * edge_count
    offset = 0
    for part, edge_map in parts:
        for pe, ge in enumerate(edge_map):
            masks[ge] = part.masks[pe] << offset
        offset += part.width
    return Labelling(offset, masks)


def _star_parts(levels: Sequence[Sequence[int]]) -> list[tuple[Labelling, Sequence[int]]]:
    """A star labelling per level, of the rank and base optimal_rank_float
    picks, so built widths equal the sizing formulas below."""
    parts = []
    for edge_ids in levels:
        choice = optimal_rank_float(len(edge_ids))
        parts.append((star_labelling(len(edge_ids), choice.rank, base=choice.base), edge_ids))
    return parts


def label_tree(tree: Graph, center: int) -> Labelling:
    """Star-label each level of the tree and combine, center-most level first."""
    return combine(tree.edge_count, _star_parts(tree_star_levels(tree, center)))


def label_core_periphery(g: Graph, core_vertices) -> Labelling:
    """Combine flat parts of g's edges: bit-per-vertex on the core (bit i for
    the i-th smallest core id), then a star labelling per periphery level.
    Rejects what contract rejects, then a periphery that is not a tree after
    contraction; builds no contracted graph."""
    core_ids, core_edges = _split_core(g, core_vertices)
    try:
        levels = _star_levels(g, core_ids)
    except NotATreeError:
        raise DecompositionError("periphery after contraction is not a tree") from None
    bit = {orig: 1 << i for i, orig in enumerate(core_ids)}
    core_part = Labelling(len(core_ids), [bit[u] | bit[v] for u, v in map(g.edges.__getitem__, core_edges)])
    return combine(g.edge_count, [(core_part, core_edges), *_star_parts(levels)])


# ---------------------------------------------------------------------------
# sizing formulas mirroring the constructions (used by the tables, where
# building the labelling itself would be wasteful)


def perfect_tree_universe_size(h: int) -> int:
    """Width label_tree produces for a perfect binary tree of height h."""
    if h < 1:
        raise ValueError("height must be at least 1")
    try:
        return sum(optimal_rank_float(2**i).size for i in range(1, h + 1))
    except ValueError:
        raise ValueError(f"height {h} is too large for double-precision rank selection") from None


def core_periphery_universe_size(n: int) -> int:
    """Width label_core_periphery produces for make_core_periphery(n)."""
    if n < 2:
        raise ValueError("core-periphery construction needs n >= 2")
    try:
        return n + optimal_rank_float(n * (n - 1)).size
    except ValueError:
        raise ValueError(f"n={n} is too large for double-precision rank selection") from None
