"""Shared test oracles.

Everything here is deliberately independent of the library's own algorithms:
path enumeration is plain depth-limited DFS over adjacency, and the exhaustive
star check packs bits and compares subsets on its own.
"""

from __future__ import annotations

import numpy as np

from bitpath import Graph, make_random_connected


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
