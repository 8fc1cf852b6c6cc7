"""Tree level decomposition, the core/periphery split and combined labellings.

A combined labelling partitions a graph's edges by one BFS from the core,
each edge at the larger distance of its ends: bit-per-vertex on distance 0,
the core's own edges, then a star labelling on each level i, the edges
joining distances i and i+1. contract is the one code that makes that
split: label_core_periphery labels it, and label_tree a tree's split around
a one-vertex core. The split needs a connected core, no outside vertex with
two core neighbours, and a tree once the core is one vertex.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graphs import Graph, _bfs, _check_vertices
from .labelling import Labelling, optimal_rank_float, star_labelling


class DecompositionError(ValueError):
    """A core that is empty, out of range, every vertex, next to an outside
    vertex twice, disconnected, or under a periphery that is no tree once it
    is one vertex; or combine parts that do not partition the edges."""


class NotATreeError(ValueError):
    """An operation that needs a tree was given a cyclic or disconnected graph."""


class Decomposition(NamedTuple):
    """A graph's edges split around a core: the ascending core ids, the
    ascending ids of the edges inside the core, the level stars with the
    core contracted to one center (entry i holds the ascending ids of the
    edges joining distances i and i+1 from the core) and whether that
    contracted graph is a tree."""

    core: tuple[int, ...]
    core_edges: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]
    is_tree: bool


def contract(g: Graph, core_vertices) -> Decomposition:
    """Split g's edges around the core, once the core is non-empty, in range
    (naming its smallest bad id), a proper subset, no outside vertex has two
    core neighbours and the induced core is connected, checked in that
    order. One multi-source BFS from the core buckets every edge at the
    larger of its ends' distances. Two core neighbours would be parallel
    edges once the core is one vertex; they are rejected rather than merged.
    The neighbour check cannot fail on a tree and is skipped there; the
    connectivity walk is not, since a disconnected core can contract to a
    tree."""
    core_set = frozenset(core_vertices)
    core_ids = sorted(core_set)
    if not core_ids:
        raise DecompositionError("core must be non-empty")
    _check_vertices(g, "core vertex", core_ids, DecompositionError)
    if len(core_ids) >= g.vertex_count:
        raise DecompositionError("core must be a proper subset of the vertices")
    dist, _, order = _bfs(g, core_ids)
    buckets: list[list[int]] = [[] for _ in range(dist[order[-1]] + 1)]
    for eid, (u, v) in enumerate(g.edges):
        d = dist[u] if dist[u] > dist[v] else dist[v]
        if d >= 0:  # unreached edges only fail the tree check
            buckets[d].append(eid)
    inside, *levels = buckets
    is_tree = len(order) == g.vertex_count and sum(map(len, levels)) == g.vertex_count - len(core_ids)
    attached: set[int] = set()  # outside vertices with a core neighbour so far
    for u, v in map(g.edges.__getitem__, () if is_tree or not levels else levels[0]):
        if u in core_set or v in core_set:  # not an edge between two outside vertices
            w = v if u in core_set else u
            if w in attached:
                raise DecompositionError(f"contraction creates parallel edges at periphery vertex {w}")
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
    return Decomposition(tuple(core_ids), tuple(inside), tuple(map(tuple, levels)), is_tree)


def tree_star_levels(tree: Graph, center: int) -> tuple[tuple[int, ...], ...]:
    """Partition a tree's edges into the stars obtained by repeatedly
    contracting the star around the (merged) center, as contract splits it
    around the core (center,): entry i holds the ascending ids of the edges
    joining distances i and i+1 from it. A one-vertex tree has none."""
    _check_vertices(tree, "center", (center,))
    if tree.vertex_count == 1:
        return ()
    split = contract(tree, (center,))
    if not split.is_tree:
        raise NotATreeError("input is not a connected acyclic graph")
    return split.levels


def combine(edge_count: int, parts: Sequence[tuple[Labelling, Sequence[int]]]) -> Labelling:
    """Concatenate part labellings whose edge maps partition 0..edge_count-1.

    Part j's bits are shifted by the total width of the parts before it, so
    part universes stay disjoint and |W| is the sum of the part sizes. One
    walk per part checks its edge ids and places their masks.
    """
    masks = [0] * edge_count
    offset = 0
    for j, (part, edge_map) in enumerate(parts):
        if len(edge_map) != part.edge_count:
            raise DecompositionError(f"part {j}: edge map size differs from labelling")
        for ge, mask in zip(edge_map, part.masks):
            if not 0 <= ge < edge_count:
                raise DecompositionError(f"part {j}: edge id {ge} out of range")
            if masks[ge]:
                raise DecompositionError(f"edge {ge} covered by two parts")
            masks[ge] = mask << offset
        offset += part.width
    if 0 in masks:
        raise DecompositionError(f"edge {masks.index(0)} not covered by any part")
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
    """Label the split contract returns: bit-per-vertex on the core (bit i
    for the i-th smallest core id), then a star labelling per level. Rejects
    the cores contract rejects, in its order, then a periphery that is no
    tree once the core is one vertex."""
    core_ids, core_edges, levels, is_tree = contract(g, core_vertices)
    if not is_tree:
        raise DecompositionError("periphery after contraction is not a tree")
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
