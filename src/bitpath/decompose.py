"""Core/periphery contraction, tree level decomposition, and combined labellings.

A decomposition splits a graph into an induced core and the graph obtained by
contracting the core to a single vertex; disjoint per-part universes are then
concatenated into one labelling of the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, bfs_distances, is_connected
from .labelling import Labelling, bit_per_vertex, optimal_rank_float, star_labelling

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

    core_vertices: frozenset[int]
    core: Graph
    core_vertex_map: tuple[int, ...]
    core_edge_map: tuple[int, ...]
    periphery: Graph
    periphery_vertex_map: tuple[int | None, ...]
    edge_map: tuple[int, ...]


def contract(g: Graph, core_vertices) -> Decomposition:
    """Contract the induced core to one vertex.

    The induced core must be connected, and no non-core vertex may have two
    core neighbors (that would create parallel edges, which are rejected
    rather than merged so edge_map stays a bijection).
    """
    core_set = frozenset(core_vertices)
    if not core_set:
        raise DecompositionError("core must be non-empty")
    if not all(0 <= v < g.vertex_count for v in core_set):
        raise DecompositionError("core contains out-of-range vertex ids")
    if len(core_set) >= g.vertex_count:
        raise DecompositionError("core must be a proper subset of the vertices")

    core_ids = sorted(core_set)
    core_index = {orig: i for i, orig in enumerate(core_ids)}
    outside = [v for v in range(g.vertex_count) if v not in core_set]
    periphery_index = {orig: i + 1 for i, orig in enumerate(outside)}

    core_edges: list[tuple[int, int]] = []
    core_edge_map: list[int] = []
    periphery_edges: list[tuple[int, int]] = []
    edge_map: list[int] = []
    seen: set[tuple[int, int]] = set()
    for eid, (u, v) in enumerate(g.edges):
        u_in, v_in = u in core_set, v in core_set
        if u_in and v_in:
            core_edges.append((core_index[u], core_index[v]))
            core_edge_map.append(eid)
            continue
        pu = CONTRACTED_VERTEX if u_in else periphery_index[u]
        pv = CONTRACTED_VERTEX if v_in else periphery_index[v]
        pair = (pu, pv) if pu < pv else (pv, pu)
        if pair in seen:
            raise DecompositionError(
                f"contraction creates parallel edges at periphery vertex {max(pair)}"
            )
        seen.add(pair)
        periphery_edges.append(pair)
        edge_map.append(eid)

    core = Graph(len(core_ids), core_edges)
    if not is_connected(core):
        raise DecompositionError("induced core is disconnected")
    periphery = Graph(len(outside) + 1, periphery_edges)
    return Decomposition(
        core_vertices=core_set,
        core=core,
        core_vertex_map=tuple(core_ids),
        core_edge_map=tuple(core_edge_map),
        periphery=periphery,
        periphery_vertex_map=(None, *outside),
        edge_map=tuple(edge_map),
    )


@dataclass(frozen=True)
class StarLevel:
    """One ring of tree edges: level i holds the edges joining vertices at
    distance i-1 and i from the chosen center."""

    level: int
    edge_ids: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edge_ids)


def tree_star_levels(tree: Graph, center: int) -> tuple[StarLevel, ...]:
    """Partition a tree's edges into the stars obtained by repeatedly
    contracting the star around the (merged) center."""
    if not 0 <= center < tree.vertex_count:
        raise ValueError("center out of range")
    dist = bfs_distances(tree, center)
    if any(d < 0 for d in dist) or tree.edge_count != tree.vertex_count - 1:
        raise NotATreeError("input is not a connected acyclic graph")
    depth = max(dist)
    buckets: list[list[int]] = [[] for _ in range(depth)]
    for eid, (u, v) in enumerate(tree.edges):
        buckets[max(dist[u], dist[v]) - 1].append(eid)
    return tuple(StarLevel(i + 1, tuple(ids)) for i, ids in enumerate(buckets))


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


def label_tree(tree: Graph, center: int) -> Labelling:
    """Star-label each level of the tree and combine, center-most level first.

    Per-level ranks (and bases) come from optimal_rank_float, the selection
    the tree sizing tables are defined by, so the built width always equals
    perfect_tree_universe_size on perfect trees.
    """
    levels = tree_star_levels(tree, center)
    parts = []
    for lv in levels:
        choice = optimal_rank_float(lv.edge_count)
        part = star_labelling(lv.edge_count, choice.rank, base=choice.base)
        parts.append((part, lv.edge_ids))
    return combine(tree.edge_count, parts)


def label_core_periphery(g: Graph, core_vertices) -> Labelling:
    """Bit-per-vertex on the core, level stars on the contracted periphery,
    concatenated core-first."""
    d = contract(g, core_vertices)
    if d.periphery.edge_count != d.periphery.vertex_count - 1 or not is_connected(d.periphery):
        raise DecompositionError("periphery after contraction is not a tree")
    core_part = bit_per_vertex(d.core)
    periphery_part = label_tree(d.periphery, CONTRACTED_VERTEX)
    return combine(g.edge_count, [(core_part, d.core_edge_map), (periphery_part, d.edge_map)])


# ---------------------------------------------------------------------------
# sizing formulas mirroring the constructions (used by the tables, where
# building the labelling itself would be wasteful)


def perfect_tree_universe_size(h: int) -> int:
    """Width label_tree produces for a perfect binary tree of height h."""
    if h < 1:
        raise ValueError("height must be at least 1")
    return sum(optimal_rank_float(2**i).size for i in range(1, h + 1))


def core_periphery_universe_size(n: int) -> int:
    """Width label_core_periphery produces for make_core_periphery(n)."""
    if n < 2:
        raise ValueError("core-periphery construction needs n >= 2")
    return n + optimal_rank_float(n * (n - 1)).size
