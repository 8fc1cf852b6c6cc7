"""Shared test oracles.

Everything here is deliberately independent of the library's own algorithms:
path enumeration is plain depth-limited DFS over adjacency, the exhaustive
star check packs bits and compares subsets on its own, the reference star
labelling sets each edge's bits from its digit tuple, and the reference Bloom
draw calls Random.sample once per edge. The contraction reference builds the
combined labelling through contract's two graphs and a nested combine, and
the level reference buckets edges by single-source BFS distance. The text
format references are the per-bit and per-token serializer and parser the
table-driven Labelling.to_text and from_text replaced, with a bit scan in
place of the library's bit iterator.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
from hypothesis import strategies as st

from bitpath import (
    CONTRACTED_VERTEX,
    DecompositionError,
    Graph,
    Labelling,
    Path,
    VerificationReport,
    bfs_distances,
    bit_per_vertex,
    combine,
    contract,
    is_connected,
    label_tree,
    make_random_connected,
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


def label_core_periphery_by_contraction(g: Graph, core_vertices) -> Labelling:
    """The combined labelling composed through contracted graphs: contract,
    bit_per_vertex on the core graph, label_tree on the periphery around the
    merged core, then one combine of the two through contract's edge maps."""
    d = contract(g, core_vertices)
    if d.periphery.edge_count != d.periphery.vertex_count - 1 or not is_connected(d.periphery):
        raise DecompositionError("periphery after contraction is not a tree")
    core_part = bit_per_vertex(d.core)
    periphery_part = label_tree(d.periphery, CONTRACTED_VERTEX)
    return combine(g.edge_count, [(core_part, d.core_edge_map), (periphery_part, d.edge_map)])


def tree_star_levels_reference(tree: Graph, center: int) -> tuple[tuple[int, ...], ...]:
    """A tree's level stars from single-source BFS distances: edge {u, v}
    joins level max(dist[u], dist[v]), and each level lists ascending ids."""
    dist = bfs_distances(tree, center)
    levels: list[list[int]] = [[] for _ in range(max(dist))]
    for eid, (u, v) in enumerate(tree.edges):
        levels[max(dist[u], dist[v]) - 1].append(eid)
    return tuple(map(tuple, levels))


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
