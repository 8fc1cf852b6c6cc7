"""Output fingerprints and independent reference answers for the benchmark's checks.

Ops on fixed inputs are compared with goldens recorded once (goldens.json).
Ops on seed-dependent inputs are compared with the reference answers here,
which use their own BFS, path walks and subset tests, not bitpath's.
"""

from __future__ import annotations

import hashlib
from collections import deque


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def masks_digest(width: int, masks) -> str:
    return sha(f"{width}\n" + ",".join(format(m, "x") for m in masks))


def labelling_digest(labelling) -> str:
    return masks_digest(labelling.width, labelling.masks)


def graph_digest(g) -> str:
    return sha(f"{g.vertex_count}\n" + ";".join(f"{u},{v}" for u, v in g.edges))


def report_fingerprint(report, with_records: bool = True) -> dict:
    """VerificationReport fields; the record list itself only as a digest."""
    fields = {
        "pairs": report.pairs_checked,
        "paths": report.paths_checked,
        "subset_tests": report.subset_tests,
        "violations": len(report.false_positives),
        "truncated": report.fp_truncated,
        "path_cap_hits": report.path_cap_hits,
        "ok": report.ok,
    }
    if with_records:
        fields["records"] = sha(repr(report.false_positives))
    return fields


def trace_fingerprint(trace) -> list:
    return [list(trace.visited), trace.outcome, trace.at, trace.hop_count, list(trace.candidate_counts)]


# ---------------------------------------------------------------------------
# reference oracle


def _bfs(adjacency, source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for nbr, _ in adjacency[cur]:
            if dist[nbr] < 0:
                dist[nbr] = dist[cur] + 1
                queue.append(nbr)
    return dist


def reference_report(g, masks, path_cap: int = 1000, fp_record_cap: int = 1000):
    """What verify_no_false_positives must report, plus the set of every
    genuine (u, v, edge) violation, by walking each pair's shortest paths
    and subset-testing every edge against each header."""
    n, edge_count = g.vertex_count, g.edge_count
    adjacency = g.adjacency
    pairs = paths = cap_hits = total = 0
    genuine: set[tuple[int, int, int]] = set()
    for u in range(n):
        dist = _bfs(adjacency, u)
        preds = [[(x, e) for x, e in adjacency[w] if dist[x] == dist[w] - 1] for w in range(n)]
        for v in range(u + 1, n):
            if dist[v] < 0:
                continue
            pairs += 1
            produced = 0
            stack = [(v, 0, frozenset())]
            while stack:
                w, header, on_path = stack.pop()
                if w == u:
                    produced += 1
                    if produced > path_cap:
                        cap_hits += 1
                        break
                    paths += 1
                    outside = ~header
                    for e in range(edge_count):
                        if e not in on_path and masks[e] & outside == 0:
                            total += 1
                            genuine.add((u, v, e))
                    continue
                for x, e in preds[w]:
                    stack.append((x, header | masks[e], on_path | {e}))
    fields = {
        "pairs": pairs,
        "paths": paths,
        "subset_tests": paths * edge_count,
        "violations": min(total, fp_record_cap),
        "truncated": total > fp_record_cap,
        "path_cap_hits": cap_hits,
        "ok": total == 0 and cap_hits == 0,
    }
    return fields, genuine


def reference_exact_report(g) -> dict:
    """Report fields for an exact labelling: no violations, and one checked
    path per shortest path, counted by dynamic programming over BFS layers."""
    n, edge_count = g.vertex_count, g.edge_count
    pairs = paths = 0
    for u in range(n):
        dist = _bfs(g.adjacency, u)
        ways = [0] * n
        ways[u] = 1
        for w in sorted(range(n), key=dist.__getitem__):
            if dist[w] > 0:
                ways[w] = sum(ways[x] for x, _ in g.adjacency[w] if dist[x] == dist[w] - 1)
        for v in range(u + 1, n):
            if dist[v] >= 0:
                pairs += 1
                paths += ways[v]
    return {
        "pairs": pairs,
        "paths": paths,
        "subset_tests": paths * edge_count,
        "violations": 0,
        "truncated": False,
        "path_cap_hits": 0,
        "ok": True,
    }


# ---------------------------------------------------------------------------
# reference forwarding on graphs whose shortest paths are unique


def _edge_ids(g) -> dict:
    return {pair: eid for eid, pair in enumerate(g.edges)}


def core_periphery_path(g, n: int):
    """Path function for make_core_periphery(n): leaf -> its core vertex ->
    the other core vertex -> leaf, with repeated vertices dropped."""
    ids = _edge_ids(g)

    def core_of(x: int) -> int:
        return x if x < n else (x - n) // (n - 1)

    def path(u: int, v: int) -> list[int]:
        walk = [u]
        for w in (core_of(u), core_of(v), v):
            if w != walk[-1]:
                walk.append(w)
        return [ids[(min(a, b), max(a, b))] for a, b in zip(walk, walk[1:])]

    return path


def binary_tree_path(g):
    """Path function for a heap-numbered perfect binary tree: climb from
    the larger id until both ends meet at their lowest common ancestor."""
    ids = _edge_ids(g)

    def path(u: int, v: int) -> list[int]:
        up, down = [], []
        while u != v:
            if u > v:
                up.append(ids[((u - 1) // 2, u)])
                u = (u - 1) // 2
            else:
                down.append(ids[((v - 1) // 2, v)])
                v = (v - 1) // 2
        return up + down[::-1]

    return path


def _header(masks, path_edges: list[int]) -> int:
    header = 0
    for e in path_edges:
        header |= masks[e]
    return header


def header_popcount(masks, path_edges: list[int]) -> int:
    return _header(masks, path_edges).bit_count()


def reference_delivery(g, masks, path_edges: list[int], source: int, destination: int) -> list:
    """The trace fingerprint simulate_delivery must produce."""
    outside = ~_header(masks, path_edges)
    visited, counts = [source], []
    current, incoming, hops = source, None, 0
    while True:
        candidates = [
            e for _, e in g.adjacency[current] if e != incoming and masks[e] & outside == 0
        ]
        if len(candidates) != 1:
            counts.append(len(candidates))
            if candidates:
                outcome = "ambiguous"
            else:
                outcome = "delivered" if current == destination else "dead-end"
            return [visited, outcome, current, hops, counts]
        counts.append(1)
        a, b = g.edges[candidates[0]]
        current = b if current == a else a
        incoming = candidates[0]
        visited.append(current)
        hops += 1
        if hops > g.vertex_count:
            return [visited, "loop", current, hops, counts]
