"""Header construction, forwarding simulation, and the exhaustive
false-positive oracle.

A header is a plain int: the OR of its path's label masks. An edge is
recognised by a header when its label is a bit-subset of the header,
mask & ~header == 0. Forwarding inspects only the labels of the current
vertex's incident edges, exactly as a header-routed switch would.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import itemgetter, xor

from .graphs import Graph, Path, _bfs, shortest_path
from .labelling import Labelling, bit_positions


def encode_path(labelling: Labelling, path: Path) -> int:
    """Bitwise OR of the labels along the path (0 for an empty path)."""
    header = 0
    for eid in path.edges:
        header |= labelling.masks[eid]
    return header


def next_hop(
    g: Graph,
    labelling: Labelling,
    header: int,
    current: int,
    incoming: int | None = None,
) -> tuple[int, ...]:
    """Decide the next edge from the header alone: the recognised incident
    edges except the one the message arrived on, in the order of
    g.adjacency (ascending neighbour id). One candidate forwards, none
    terminates, several is ambiguous."""
    _check_cover(g, labelling)
    if not 0 <= current < g.vertex_count:
        raise ValueError(f"current vertex {current} outside a {g.vertex_count}-vertex graph")
    if header < 0 or header >> labelling.width:
        raise ValueError(f"header {header:#x} outside a {labelling.width}-bit universe")
    return _candidates(g.adjacency[current], labelling.masks, ~header, incoming)


def _candidates(incident, masks, not_header: int, incoming: int | None) -> tuple[int, ...]:
    """next_hop's decision without its checks: the edge ids of incident, a
    vertex's (neighbour, edge id) pairs, whose masks have no bit of
    not_header (the header's complement), except incoming. simulate_delivery
    calls it at every hop, having checked its inputs once."""
    return tuple(eid for _, eid in incident if eid != incoming and masks[eid] & not_header == 0)


def _check_cover(g: Graph, labelling: Labelling) -> None:
    """Raise ValueError unless the labelling has one label per edge of g."""
    if labelling.edge_count != g.edge_count:
        raise ValueError("labelling does not cover this graph's edges")


@dataclass(frozen=True)
class RoutingTrace:
    """Outcome of one simulated delivery.

    visited never repeats a vertex, and candidate_counts holds the number of
    recognised next edges at each visited vertex: 1 at every vertex but the
    last, where the walk stopped.
    """

    visited: tuple[int, ...]
    outcome: str  # "delivered" | "ambiguous" | "dead-end"
    candidate_counts: tuple[int, ...]

    @property
    def at(self) -> int:
        return self.visited[-1]

    @property
    def hop_count(self) -> int:
        return len(self.visited) - 1

    @property
    def delivered(self) -> bool:
        return self.outcome == "delivered"


def simulate_delivery(g: Graph, labelling: Labelling, source: int, destination: int) -> RoutingTrace:
    """Encode the shortest source-destination path and forward hop by hop
    while exactly one edge is recognised. Then several candidates mean
    "ambiguous", and none mean "delivered" at the destination and "dead-end"
    anywhere else. The walk never revisits a vertex: the edge back to it
    would have been a second candidate at the first visit.
    """
    _check_cover(g, labelling)
    not_header = ~encode_path(labelling, shortest_path(g, source, destination))
    adjacency, edges, masks = g.adjacency, g.edges, labelling.masks
    visited = [source]
    counts: list[int] = []
    current, incoming = source, None
    while True:
        candidates = _candidates(adjacency[current], masks, not_header, incoming)
        counts.append(len(candidates))
        if len(candidates) != 1:
            break
        (incoming,) = candidates
        u, v = edges[incoming]
        current = v if current == u else u
        visited.append(current)
    outcome = "ambiguous" if candidates else "delivered" if current == destination else "dead-end"
    return RoutingTrace(tuple(visited), outcome, tuple(counts))


# ---------------------------------------------------------------------------
# exhaustive verification


@dataclass
class VerificationReport:
    """What the brute-force oracle checked and every violation it found.

    A violation is a false positive: a (u, v, edge_id) triple where the edge
    is recognised by the header of some shortest u-v path it is not on.
    False negatives cannot occur: a header is the OR of its path's labels,
    so it contains every bit of every on-path label. The false_positives
    list is capped at fp_record_cap entries; fp_truncated says whether more
    existed. path_cap_hits counts pairs whose shortest paths were only
    partially enumerated.
    """

    path_cap: int
    fp_record_cap: int
    pairs_checked: int = 0
    paths_checked: int = 0
    subset_tests: int = 0
    false_positives: list[tuple[int, int, int]] = field(default_factory=list)
    fp_truncated: bool = False
    path_cap_hits: int = 0

    @property
    def ok(self) -> bool:
        return not self.false_positives and not self.fp_truncated and self.path_cap_hits == 0

    def summary(self) -> str:
        status = "ok" if self.ok else "VIOLATIONS"
        return (
            f"{status}: pairs={self.pairs_checked} paths={self.paths_checked} "
            f"subset_tests={self.subset_tests} false_positives={len(self.false_positives)}"
            f"{' (truncated)' if self.fp_truncated else ''} path_cap_hits={self.path_cap_hits}"
        )


def verify_no_false_positives(
    g: Graph,
    labelling: Labelling,
    path_cap: int = 1000,
    fp_record_cap: int = 1000,
) -> VerificationReport:
    """Check [e] subset-of [S] <=> e in S for every edge e of the graph and
    every shortest path S of every unordered vertex pair.

    A path is one int, header | edge_set << width: its labels' OR in the low
    width bits and bit width + e for each edge e on it, so one OR with
    steps[e] = masks[e] | 1 << width + e extends it by e. One BFS per source
    u (but the last, which has no partner above it), then one of two folds
    down its whole order, chosen by the number of edges in its BFS DAG.
    Every edge joins two reached or two unreached vertices and spans at most
    one BFS level, so the DAG's edges, one per predecessor of each reached
    vertex, are the edges with exactly one end at odd dist: the XOR of those
    vertices' incident edge sets. With fewer than len(order) of them no
    vertex has two predecessors, as from every source of a tree or of the
    paper's core-periphery graphs, and the parent-pointer fold keeps each
    vertex's one shortest w-u path: single[w] is single[parent] |
    steps[via[w]].
    Otherwise the list fold sets paths[w] to the first path_cap + 1 shortest
    w-u paths, lexicographic by vertex sequence, built from paths[x] of each
    predecessor x (ascending id) by OR-ing in steps[x-w]. Each v > u then
    checks single[v], or the first path_cap entries of paths[v]; a pair with
    more than path_cap shortest paths counts as a cap hit, not an error.
    Memory per source is at most path_cap + 1 paths per vertex.

    The subset tests run on an inverted index: carriers[b] holds, shifted
    like a path's edge set, the edges whose label has bit b, so the edges a
    header rejects are the union of carriers[b] over the bits b it lacks,
    and every other edge off S is recognised. That union is read byte by
    byte from tables built once per call: rejects[c][h] is the union of
    carriers[8c + i] over the bits i clear in the header byte h, each row
    built by doubling over the carriers (the entries with bit i set are the
    ones before them OR carriers[8c + i]) and then reversed, which
    complements the index. OR-ing them into the path int leaves its header
    bits alone and sets the bit of every rejected edge next to S's own, so
    the path is clean iff p | universe has every bit, and its false
    positives are the edges whose bits are still clear. Only edges off S
    can fail, since S's header holds every label on S. Once the record list
    is full, the first further false positive sets fp_truncated and later
    pairs are only counted.

    The sources are checked in shards, shard i of s taking every s-th source
    from i. The shards' reports merge exactly: the counts add up, and the
    records, stably sorted by source, are cut to fp_record_cap and truncated
    if a shard was or the cut dropped any, since each source's records come
    from one shard, in its order, and a shard's records are a prefix of its
    full list. From _SHARD_UNITS vertex pairs, _run_shards makes one shard
    per usable CPU where the process may fork: the first runs in this
    process, the others in forked children that inherit the tables and send
    back their report or the exception that stopped them, which the call
    raises. Children are joined (terminated first on error) before the call
    returns. Otherwise the call is one shard, run in this process.
    """
    if path_cap < 1:
        raise ValueError(f"path_cap must be at least 1, got {path_cap}")
    if fp_record_cap < 0:
        raise ValueError(f"fp_record_cap must be at least 0, got {fp_record_cap}")
    _check_cover(g, labelling)
    tables = _tables(g, labelling)
    n = g.vertex_count
    check = lambda sources: _check_sources(g, tables, sources, path_cap, fp_record_cap)
    reports = _run_shards("oracle", check, n - 1, n * (n - 1) // 2)
    return _merge(reports, path_cap, fp_record_cap)


# A unit is an oracle vertex pair, about 3 us at the oracle's fastest, or a
# drawn Bloom label, 1.5-2.8 us: from 10,000 units a second CPU saves at
# least 7.5 ms, more than the median cost of one forked worker (measured at
# _run_shards).
_SHARD_UNITS = 10_000


def _run_shards(name: str, work, stop: int, units: int) -> list:
    """[work(range(i, stop, s)) for i in range(s)]: the results of s shards,
    shard i taking every s-th index from i, in shard order.

    s is 1 below _SHARD_UNITS units of work, the callers' input size (an
    oracle's vertex pairs, or a Bloom measurement's drawn labels). From
    there, in a single-threaded, non-daemonic process where the fork start
    method and os.sched_getaffinity exist, s is the number of usable CPUs:
    the first shard runs in this process and each other one in a forked
    child, which inherits work's inputs and sends back its result or the
    exception that stopped it, raised here with the child's traceback as a
    note. Children are joined (terminated first on error) before the call
    returns.

    The cutoff is sized against the cost of one fork, measured on a 2-CPU
    host with Python 3.11.7: a median 4.6-5.8 ms and at most 22 ms to start,
    report and join a worker, in runs of 60 and 200, and a median 6.6 ms (at
    most 9.6 ms in 60 calls) for a two-shard empirical_fpr call with no work
    in a 77 MB process holding the build benchmark's inputs. In that process
    500 trials of the 20-edge bloom-table row (10,000 labels, the cutoff)
    took 22.1 ms in one shard and 16.7 ms in two, and of the 10-edge row
    (5,000 labels) 13.8 and 13.9 ms (medians of 11). The parent pays again
    later, since a fork write-protects its pages and the first write to each
    afterwards faults: in a 68 MB process holding the build benchmark's
    inputs, a build pass after a fork took about 5,200 more minor faults
    than one without, at about 1.4 us each.
    """
    shards = 1
    # fork only from one thread (a lock another thread held would stay held
    # in the child) and not from a daemonic process, such as a pool worker
    if units >= _SHARD_UNITS and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        import multiprocessing  # here, since the import adds 0.7 MB to a process's peak RSS

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            shards = len(os.sched_getaffinity(0))
    first, *others = (range(i, stop, shards) for i in range(shards))
    workers = []
    try:
        for shard in others:
            context = multiprocessing.get_context("fork")
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_send_result, args=(sender, name, work, shard))
            worker.start()
            workers.append((worker, receiver))
            sender.close()
        results = [work(first)]
        for worker, receiver in workers:
            try:
                results.append(receiver.recv())
            except EOFError:
                raise RuntimeError(f"{name} worker {worker.pid} exited without a report") from None
            if isinstance(results[-1], Exception):
                raise results[-1]
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, receiver in workers:
            worker.join()
            receiver.close()
    return results


def _tables(g: Graph, labelling: Labelling) -> tuple:
    """The per-call tables: width, steps, rejects, ends and incident."""
    masks = labelling.masks
    width = labelling.width
    steps = [mask | 1 << width + eid for eid, mask in enumerate(masks)]
    carriers = [0] * width
    for eid, mask in enumerate(masks):
        for b in bit_positions(mask):
            carriers[b] |= 1 << width + eid
    rejects = []
    for base in range(0, width, 8):
        row = [0]
        for c in carriers[base : base + 8]:
            row += [r | c for r in row]
        rejects.append(row[::-1])
    ends = [a ^ b for a, b in g.edges]
    incident = [sum(1 << eid for _, eid in nbrs) for nbrs in g.adjacency]
    return width, steps, rejects, ends, incident


def _send_result(sender, name: str, work, shard: range) -> None:
    """A forked worker's body: send work(shard), or the exception that
    stopped it (a RuntimeError naming it if it does not survive pickling)
    with the worker's traceback appended to its __notes__. Prints nothing."""
    try:
        result = work(shard)
    except Exception as exc:
        import pickle, traceback  # here, since only a failing worker needs them

        note = f"raised in {name} worker {os.getpid()}:\n{traceback.format_exc()}".rstrip()
        try:
            result = pickle.loads(pickle.dumps(exc))
        except Exception:
            result = RuntimeError(f"{name} worker raised {type(exc).__name__}: {exc}")
        result.__notes__ = [*getattr(result, "__notes__", ()), note]  # as add_note, which is 3.11+
    sender.send(result)


def _check_sources(g: Graph, tables: tuple, sources: range, path_cap: int, fp_record_cap: int) -> VerificationReport:
    """The report of the pairs (u, v), v > u, of every source u in sources."""
    width, steps, rejects, ends, incident = tables
    edge_count = g.edge_count
    byte_count = len(rejects)
    universe = (1 << width) - 1
    everything = (1 << width + edge_count) - 1
    adjacency = g.adjacency
    vertex_count = g.vertex_count

    pairs = paths_checked = cap_hits = 0
    false_positives: list[tuple[int, int, int]] = []
    truncated = False
    for u in sources:
        dist, via, order = _bfs(g, (u,))
        owners = [v for v in range(u + 1, vertex_count) if dist[v] >= 0]
        pairs += len(owners)
        if reduce(xor, compress(incident, map((1).__and__, dist)), 0).bit_count() < len(order):
            single = [0] * vertex_count
            for w in order[1:]:
                eid = via[w]
                single[w] = single[ends[eid] ^ w] | steps[eid]
            checked = list(map(single.__getitem__, owners))
        else:
            paths = [None] * vertex_count
            paths[u] = [0]
            for w in order[1:]:
                d = dist[w] - 1
                paths[w] = folded = []
                for x, eid in adjacency[w]:
                    if dist[x] == d:
                        folded += map(steps[eid].__or__, paths[x])
                        if len(folded) > path_cap:
                            del folded[path_cap + 1 :]
                            break
            checked = []
            for v in owners:
                found = paths[v]
                if len(found) > path_cap:
                    cap_hits += 1
                    del found[path_cap:]
                checked += found
            owners = [v for v in owners for _ in paths[v]]
        paths_checked += len(checked)
        if truncated:
            continue  # records full and truncated: later paths only add to the counts
        for v, p in zip(owners, checked):
            for row, b in zip(rejects, (p & universe).to_bytes(byte_count, "little")):
                p |= row[b]
            if p | universe == everything:
                continue
            false_positives += [(u, v, eid) for eid in bit_positions((everything & ~p) >> width)]
            if len(false_positives) > fp_record_cap:
                del false_positives[fp_record_cap:]
                truncated = True
                break
    return VerificationReport(
        path_cap, fp_record_cap, pairs, paths_checked, edge_count * paths_checked, false_positives, truncated, cap_hits
    )


def _merge(reports: list[VerificationReport], path_cap: int, fp_record_cap: int) -> VerificationReport:
    """One report of the shard reports of disjoint source sets."""
    records = sorted((fp for report in reports for fp in report.false_positives), key=itemgetter(0))
    merged = VerificationReport(path_cap, fp_record_cap, false_positives=records[:fp_record_cap])
    merged.fp_truncated = len(records) > fp_record_cap or any(report.fp_truncated for report in reports)
    for name in ("pairs_checked", "paths_checked", "subset_tests", "path_cap_hits"):
        setattr(merged, name, sum(getattr(report, name) for report in reports))
    return merged
