"""Shared test oracles.

Everything here is deliberately independent of the library's own algorithms:
path enumeration is plain depth-limited DFS over adjacency, the exhaustive
star check packs bits and compares subsets on its own, the reference star
labelling sets each edge's bits from its digit tuple, and the reference Bloom
draw calls Random.sample once per edge. The contraction reference builds the
induced core and the core-contracted periphery as two Graphs from the core
ids and the edges with both ends among them, leaves the core checks to
contract, checks the periphery is a tree on its own, gives each core edge
its two ends' bits and each level of the periphery the reference star
labelling at the float rank search's choice, at offsets of its own; the
level reference buckets edges by single-source BFS distance. The premises
reference states the core rules with plain sets and a union-find. The
forwarding reference is the one-line candidate rule that tested the
incoming edge first. The oracle witness counts records from the chance that
a random label lies inside a union of random labels, with no enumeration.
The text
format references are the per-bit and per-token serializer and parser the
table-driven Labelling.to_text and from_text replaced, with a bit scan in
place of the library's bit iterator.
"""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from bitpath import (
    DecompositionError,
    Graph,
    Labelling,
    NotATreeError,
    Path,
    VerificationReport,
    bfs_distances,
    contract,
    is_connected,
    make_complete,
    make_random_connected,
    optimal_rank_float,
)


def brute_force_shortest_paths(g: Graph, u: int, v: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All shortest u-v paths, sorted by vertex sequence: simple-path DFS
    limited to 0, 1, 2, ... hops, stopping at the first limit at which some
    path reaches v (small graphs only)."""
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def walk(cur: int, vseq: list[int], eseq: list[int], hops_left: int) -> None:
        if cur == v:
            found.append((tuple(vseq), tuple(eseq)))
            return
        if hops_left == 0:
            return
        for nbr, eid in g.adjacency[cur]:
            if nbr not in vseq:
                vseq.append(nbr)
                eseq.append(eid)
                walk(nbr, vseq, eseq, hops_left - 1)
                vseq.pop()
                eseq.pop()

    for limit in range(g.vertex_count):
        walk(u, [u], [], limit)
        if found:
            break
    return sorted(found)


def candidates_reference(incident, masks, not_header: int, incoming: int | None) -> tuple[tuple[int, int], ...]:
    """The forwarding rule in one line, as routing._candidates stated it
    before it tested masks first: the (neighbour, edge id) entries of
    incident whose edge is not incoming and whose mask has no bit of
    not_header, in adjacency order."""
    return tuple((nbr, eid) for nbr, eid in incident if eid != incoming and masks[eid] & not_header == 0)


def validate_path(g: Graph, path: Path) -> None:
    """Assert that path is simple and that each of its edge ids joins the
    two vertices it sits between."""
    assert len(path.vertices) == len(path.edges) + 1, "path needs one more vertex than edges"
    assert len(set(path.vertices)) == len(path.vertices), "path revisits a vertex"
    for (a, b), eid in zip(zip(path.vertices, path.vertices[1:]), path.edges):
        assert set(g.edges[eid]) == {a, b}, f"edge {eid} does not join vertices {a} and {b}"


def brute_force_total_path_count(g: Graph) -> int:
    """Sum of shortest-path counts over all unordered vertex pairs."""
    total = 0
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            total += len(brute_force_shortest_paths(g, u, v))
    return total


def brute_force_false_positives(
    g: Graph, masks, path_cap: int | None = None
) -> tuple[list[tuple[int, int, int]], int, int]:
    """(u, v, edge) once per shortest u-v path whose header recognises an
    edge off that path, the number of shortest paths checked, and the number
    of pairs with more than path_cap shortest paths: the first path_cap
    paths (all without a cap) of brute_force_shortest_paths(g, v, u), in
    that order, subset tests on plain ints."""
    violations: list[tuple[int, int, int]] = []
    paths = cap_hits = 0
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            found = brute_force_shortest_paths(g, v, u)
            if path_cap is not None and len(found) > path_cap:
                cap_hits += 1
                found = found[:path_cap]
            for _, edge_ids in found:
                paths += 1
                header = 0
                for eid in edge_ids:
                    header |= masks[eid]
                for eid, mask in enumerate(masks):
                    if eid not in edge_ids and mask & ~header == 0:
                        violations.append((u, v, eid))
    return violations, paths, cap_hits


def connected_pair_count(g: Graph) -> int:
    """Unordered vertex pairs joined by some path: C(size, 2) summed over
    the components, found by a plain stack walk."""
    seen = [False] * g.vertex_count
    total = 0
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        stack, size = [start], 0
        while stack:
            cur = stack.pop()
            size += 1
            for nbr, _ in g.adjacency[cur]:
                if not seen[nbr]:
                    seen[nbr] = True
                    stack.append(nbr)
        total += size * (size - 1) // 2
    return total


def brute_force_report(g: Graph, masks, path_cap: int, fp_record_cap: int) -> VerificationReport:
    """The report verify_no_false_positives should return, from
    brute_force_false_positives and connected_pair_count: the first
    fp_record_cap violations in the reference's order, truncated when there
    are more."""
    violations, paths, cap_hits = brute_force_false_positives(g, masks, path_cap)
    return VerificationReport(
        path_cap=path_cap,
        fp_record_cap=fp_record_cap,
        pairs_checked=connected_pair_count(g),
        paths_checked=paths,
        subset_tests=g.edge_count * paths,
        false_positives=violations[:fp_record_cap],
        fp_truncated=len(violations) > fp_record_cap,
        path_cap_hits=cap_hits,
    )


def star_labelling_reference(n: int, rank: int, base: int) -> tuple[int, list[int]]:
    """(width, masks) of the star labelling, one edge at a time: edge e's
    base-k digit tuple d (most significant first) sets bit r*k + d[r] for
    every coordinate r, then bit (rank + t)*k + (d[r] + d[s]) mod k for the
    t-th coordinate pair r < s in lexicographic order."""
    k = base
    coordinate_pairs = [(r, s) for r in range(rank) for s in range(r + 1, rank)]
    masks = []
    for d in itertools.islice(itertools.product(range(k), repeat=rank), n):
        bits = 0
        for r in range(rank):
            bits |= 1 << (r * k + d[r])
        for t, (r, s) in enumerate(coordinate_pairs):
            bits |= 1 << ((rank + t) * k + (d[r] + d[s]) % k)
        masks.append(bits)
    return (rank + len(coordinate_pairs)) * k, masks


CONTRACTED_VERTEX = 0  # id of the merged core inside every periphery graph


@dataclass(frozen=True)
class ContractedGraphs:
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


def contracted_graphs(g: Graph, core_vertices) -> ContractedGraphs:
    """The induced core and the periphery with the core merged into one
    vertex, as two Graphs with id maps. contract is called for its core
    checks only (so their errors are contract's), and its NotATreeError is
    ignored: the core is the sorted core ids and the edges with both ends
    among them, every other edge goes to the periphery, and checking that it
    is a tree is left to the caller. Only two periphery edges that map to
    the same pair, which a simple Graph cannot hold, are refused here: they
    close a 2-cycle, so the periphery is not a tree."""
    try:
        contract(g, core_vertices)
    except NotATreeError:
        pass
    core_ids = sorted(set(core_vertices))
    core_index = {orig: i for i, orig in enumerate(core_ids)}
    core_edge_map = [eid for eid, (u, v) in enumerate(g.edges) if u in core_index and v in core_index]
    outside = [v for v in range(g.vertex_count) if v not in core_index]
    periphery_index = dict.fromkeys(core_ids, CONTRACTED_VERTEX) | {v: i for i, v in enumerate(outside, 1)}
    edge_map = sorted(set(range(g.edge_count)).difference(core_edge_map))
    core_edges = [(core_index[u], core_index[v]) for u, v in map(g.edges.__getitem__, core_edge_map)]
    periphery_edges = [(periphery_index[u], periphery_index[v]) for u, v in map(g.edges.__getitem__, edge_map)]
    if len(set(map(frozenset, periphery_edges))) != len(periphery_edges):
        raise DecompositionError("periphery after contraction is not a tree")
    return ContractedGraphs(
        core=Graph(len(core_ids), core_edges),
        core_vertex_map=tuple(core_ids),
        core_edge_map=tuple(core_edge_map),
        periphery=Graph(len(outside) + 1, periphery_edges),
        periphery_vertex_map=(None, *outside),
        edge_map=tuple(edge_map),
    )


def label_core_periphery_by_contraction(g: Graph, core_vertices) -> Labelling:
    """The combined labelling composed through contracted graphs:
    contracted_graphs and its own tree check, then bits u and v for each
    edge {u, v} of the core graph, then star_labelling_reference, at
    optimal_rank_float's rank and base, for each level of
    tree_star_levels_reference on the periphery around the merged core,
    shifted past the bits before it and mapped back through the edge map."""
    d = contracted_graphs(g, core_vertices)
    if d.periphery.edge_count != d.periphery.vertex_count - 1 or not is_connected(d.periphery):
        raise DecompositionError("periphery after contraction is not a tree")
    masks = [0] * g.edge_count
    for (u, v), ge in zip(d.core.edges, d.core_edge_map):
        masks[ge] = 1 << u | 1 << v
    offset = d.core.vertex_count
    for level in tree_star_levels_reference(d.periphery, CONTRACTED_VERTEX):
        choice = optimal_rank_float(len(level))
        width, level_masks = star_labelling_reference(len(level), choice.rank, choice.base)
        for pe, mask in zip(level, level_masks):
            masks[d.edge_map[pe]] = mask << offset
        offset += width
    return Labelling(offset, masks)


def core_periphery_premises(g: Graph, core: set[int]) -> str | None:
    """None if the non-empty in-range core meets the combined labelling's
    premises, else the message of the first it breaks, in this order: a
    connected induced core, and a periphery that is a tree once the core is
    one vertex. Plain sets and a union-find; no BFS."""
    start = min(core)
    parent = {v: v for v in range(g.vertex_count)}

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for u, v in g.edges:
        if u in core and v in core:
            parent[root(u)] = root(v)
    if any(root(v) != root(start) for v in core):
        return "induced core is disconnected"
    # merged, the core is one vertex: the rest is a tree iff it has one
    # edge fewer than its vertices and no edge closes a cycle, a 2-cycle
    # through an outside vertex next to two core vertices included
    outside_edges = [(u, v) for u, v in g.edges if u not in core or v not in core]
    if len(outside_edges) != g.vertex_count - len(core):
        return "periphery after contraction is not a tree"
    for u, v in outside_edges:
        a, b = root(u), root(v)
        if a == b:
            return "periphery after contraction is not a tree"
        parent[a] = b
    return None


def tree_star_levels_reference(tree: Graph, center: int) -> tuple[tuple[int, ...], ...]:
    """A tree's level stars from single-source BFS distances: edge {u, v}
    joins level max(dist[u], dist[v]), and each level lists ascending ids."""
    dist = bfs_distances(tree, center)
    levels: list[list[int]] = [[] for _ in range(max(dist))]
    for eid, (u, v) in enumerate(tree.edges):
        levels[max(dist[u], dist[v]) - 1].append(eid)
    return tuple(map(tuple, levels))


def label_inside_union(m: int, k: int, length: int) -> Fraction:
    """p(length): the chance that a uniform k-subset of {0..m-1} lies inside
    the union of length independent ones. The union's size is a chain from
    0: from size s, a label adds j new elements with probability
    C(m - s, j) C(s, k - j) / C(m, k); a union of size s then holds the
    label with probability C(s, k) / C(m, k)."""
    total = math.comb(m, k)
    sizes = {0: Fraction(1)}
    for _ in range(length):
        grown: Counter = Counter()
        for s, p in sizes.items():
            for j in range(k + 1):
                if ways := math.comb(m - s, j) * math.comb(s, k - j):
                    grown[s + j] += p * ways / total
        sizes = grown
    return sum(p * math.comb(s, k) for s, p in sizes.items()) / total


def expected_oracle_records(g: Graph, m: int, k: int) -> Fraction:
    """The exact expected number of uncapped oracle records on a connected
    graph with one shortest path per pair, under independent uniform
    k-subset labels of {0..m-1}: sum over L of N_L (E - L) p(L), N_L the
    pairs at distance L. Each of a pair's E - L off-path labels is
    independent of the L labels of its path, so it is recorded with
    probability p(L)."""
    pairs = Counter(d for u in range(g.vertex_count) for d in bfs_distances(g, u)[u + 1 :])
    return sum(n * (g.edge_count - length) * label_inside_union(m, k, length) for length, n in pairs.items())


def reference_to_text(width: int, masks) -> str:
    """'universe <width>', then 'edge <id>: <positions>' per mask: each set
    bit found by scanning every position below the mask's bit length and
    named by str."""
    lines = [f"universe {width}"]
    for eid, mask in enumerate(masks):
        positions = " ".join(map(str, [i for i in range(mask.bit_length()) if mask >> i & 1]))
        lines.append(f"edge {eid}: {positions}")
    return "\n".join(lines) + "\n"


def reference_from_text(text: str) -> tuple[int, tuple[int, ...]]:
    """(width, masks) of a labelling text, or the ValueError naming its
    first bad line, one int() per token; lines end at '\\n' only."""
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln.strip()]
    lineno, head = lines[0] if lines else (1, "")
    bad_header = f"line {lineno}: expected 'universe <size>'"
    fields = head.split()
    if len(fields) != 2 or fields[0] != "universe" or not head.startswith("universe"):
        raise ValueError(bad_header)
    try:
        width = int(fields[1])
    except ValueError:
        raise ValueError(bad_header) from None
    if width < 0:
        raise ValueError(f"line {lineno}: universe size must be non-negative, got {width}")
    masks = []
    for eid, (lineno, line) in enumerate(lines[1:]):
        prefix = f"edge {eid}:"
        if not line.startswith(prefix):
            raise ValueError(f"line {lineno}: expected '{prefix} ...'")
        bits = 0
        for tok in line[len(prefix) :].split():
            try:
                pos = int(tok)
            except ValueError:
                raise ValueError(f"line {lineno}: bit {tok!r} is not an integer") from None
            if not 0 <= pos < width:
                raise ValueError(f"line {lineno}: bit {pos} outside universe")
            bits |= 1 << pos
        if not bits:
            raise ValueError(f"line {lineno}: label must set at least one bit")
        masks.append(bits)
    return width, tuple(masks)


# single characters a mutation inserts or swaps in: digits and separators,
# the characters of non-canonical integers, the '\n' that ends a line and
# the '\r' of a CRLF break, and two characters that str.splitlines ends a
# line at but the text formats read as whitespace
MUTATION_CHARS = "0123456789 \t\n\r\x0c\u2028:_+-x\u0663"


@st.composite
def mutated(draw, texts: st.SearchStrategy[str]) -> str:
    """A text drawn from texts, then changed by up to three single character
    inserts, deletes or replacements. Single characters keep any number in
    the text within three digits of its original length, so no header asks
    for a huge graph or universe."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        char = "" if edit == "delete" else draw(st.sampled_from(MUTATION_CHARS))
        text = text[:i] + char + text[i + (edit != "insert") :]
    return text


def grow_forest(data, edges: list[tuple[int, int]], start: int, stop: int) -> Graph:
    """Add vertices start..stop-1 to the edge list, each joined to one
    uniformly drawn earlier vertex."""
    for v in range(start, stop):
        edges.append((data.draw(st.integers(0, v - 1), label=f"parent of {v}"), v))
    return Graph(stop, edges)


def draw_core_plus_forest(data) -> tuple[Graph, int]:
    """A complete or random connected core on vertices 0..c-1 plus a random
    forest hanging off it; returns (graph, c)."""
    c = data.draw(st.integers(2, 8), label="core vertices")
    if data.draw(st.booleans(), label="complete core"):
        core = make_complete(c)
    else:
        p = data.draw(st.floats(0.2, 0.9), label="edge probability")
        core = make_random_connected(c, p, data.draw(st.integers(0, 2**16), label="core seed"))
    n = c + data.draw(st.integers(1, 22), label="forest vertices")
    return grow_forest(data, list(core.edges), c, n), c


def line_count(text: str) -> int:
    """The number of lines of text: its '\\n'-separated pieces, less a final
    empty one. Never more than len(text.splitlines())."""
    lines = text.split("\n")
    return len(lines) - (lines[-1] == "")


def error_line(message: str) -> int:
    """N of an error message that starts 'line N: '."""
    head, sep, _ = message.partition(": ")
    assert sep and head.startswith("line ") and head[5:].isdigit() and head[5:].isascii(), message
    return int(head[5:])


def traced_peak(call):
    """(call(), the peak bytes tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def sample_draw_masks(rng: random.Random, edge_count: int, m: int, k: int) -> list[int]:
    """Bloom masks one edge at a time: each the OR of rng.sample(range(m), k)."""
    masks = []
    for _ in range(edge_count):
        bits = 0
        for b in rng.sample(range(m), k):
            bits |= 1 << b
        masks.append(bits)
    return masks


def sample_empirical_fpr(star_n: int, m: int, k: int, trials: int, seed: int) -> tuple[float, float]:
    """(rate, stderr) of the star experiment with sample_draw_masks: per
    trial, count the off-path edges whose label lies inside the header of a
    random leaf-to-leaf path, testing every edge but the two on the path."""
    hits = 0
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        masks = sample_draw_masks(rng, star_n, m, k)
        e1, e2 = rng.sample(range(star_n), 2)
        header = masks[e1] | masks[e2]
        for gid in range(star_n):
            if gid != e1 and gid != e2 and masks[gid] & ~header == 0:
                hits += 1
    observations = trials * (star_n - 2)
    rate = hits / observations
    return rate, math.sqrt(rate * (1.0 - rate) / observations)


STAR_CHUNK_BYTES = 1 << 24


def pack_masks(masks, width: int) -> np.ndarray:
    words = max(1, (width + 63) // 64)
    packed = np.zeros((len(masks), words), dtype=np.uint64)
    for i, mask in enumerate(masks):
        for w in range(words):
            packed[i, w] = (mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    return packed


def star_recognition_violations(masks, width: int) -> int:
    """Exhaustive subset-test oracle for a star labelling.

    Headers of every ordered edge pair (e, f) cover every leaf-to-leaf path
    (e != f) and every center-to-leaf path (e == f). Counts the (e, f, g)
    triples where "label g is a subset of the header" disagrees with
    g in {e, f}. Zero means no false positives and no false negatives.

    Label g lies outside header (e, f) when some 64-bit word of g has a bit
    the same word of the header lacks; the test runs one word at a time into
    a boolean accumulator, over chunks of g whose (e, f, g) word temporary
    stays near STAR_CHUNK_BYTES.
    """
    n = len(masks)
    packed = pack_masks(masks, width)
    not_headers = [~(word[:, None] | word[None, :]) for word in packed.T]
    ids = np.arange(n)
    violations = 0
    chunk = max(1, STAR_CHUNK_BYTES // (packed.itemsize * n * n))
    for g0 in range(0, n, chunk):
        g1 = min(n, g0 + chunk)
        outside = np.zeros((n, n, g1 - g0), dtype=bool)
        for word, not_header in zip(packed.T, not_headers):
            outside |= (not_header[:, :, None] & word[None, None, g0:g1]) != 0
        expected = (ids[g0:g1][None, None, :] == ids[:, None, None]) | (
            ids[g0:g1][None, None, :] == ids[None, :, None]
        )
        violations += int((outside == expected).sum())
    return violations


def random_graph_corpus() -> list[Graph]:
    """The 100 seeded connected graphs (8..40 vertices) used by the
    bit-per-vertex property suites."""
    graphs = []
    for seed in range(100):
        n = 8 + (seed * 7) % 33
        p = 0.10 + 0.015 * (seed % 14)
        graphs.append(make_random_connected(n, p, seed))
    return graphs


def grid_4x4() -> Graph:
    """The 4x4 grid, vertices row by row, horizontal edges first."""
    return Graph(16, [(v, v + 1) for v in range(16) if v % 4 < 3] + [(v, v + 4) for v in range(12)])


def shuffled_edge_ids(g: Graph, seed: int) -> Graph:
    """g with its edges renumbered in a seeded random order, so edge ids no
    longer follow the lexicographic order of the endpoint pairs."""
    edges = list(g.edges)
    random.Random(seed).shuffle(edges)
    return Graph(g.vertex_count, edges)
