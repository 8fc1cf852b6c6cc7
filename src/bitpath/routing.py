"""Header construction, forwarding simulation, and the exhaustive
false-positive oracle.

A header is a plain int: the OR of its path's label masks. An edge is
recognised by a header when its label is a bit-subset of the header,
mask & ~header == 0. Forwarding inspects only the labels of the current
vertex's incident edges, exactly as a header-routed switch would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    edges except the one the message arrived on, in ascending edge id (the
    order of g.adjacency). One candidate forwards, none terminates, several
    is ambiguous."""
    if header < 0 or header >> labelling.width:
        raise ValueError(f"header {header:#x} outside a {labelling.width}-bit universe")
    not_header = ~header
    masks = labelling.masks
    return tuple(
        eid
        for _, eid in g.adjacency[current]
        if eid != incoming and masks[eid] & not_header == 0
    )


@dataclass(frozen=True)
class RoutingTrace:
    """Outcome of one simulated delivery.

    candidate_counts holds the number of recognised next edges at each
    visited vertex, including the terminal one.
    """

    visited: tuple[int, ...]
    outcome: str  # "delivered" | "ambiguous" | "dead-end" | "loop"
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
    """Encode the shortest source-destination path and forward hop by hop.

    Zero candidates at the destination means delivery; anywhere else it is a
    dead end. A hop budget of |V| turns pathological walks into a "loop"
    outcome instead of running forever.
    """
    header = encode_path(labelling, shortest_path(g, source, destination))
    visited = [source]
    counts: list[int] = []
    current, incoming, outcome = source, None, "loop"
    while len(visited) <= g.vertex_count + 1:
        candidates = next_hop(g, labelling, header, current, incoming)
        counts.append(len(candidates))
        if len(candidates) > 1:
            outcome = "ambiguous"
            break
        if not candidates:
            outcome = "delivered" if current == destination else "dead-end"
            break
        (incoming,) = candidates
        u, v = g.edges[incoming]
        current = v if current == u else u
        visited.append(current)
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

    One BFS per source u, then one fold down its order: paths[w] holds the
    (header, edge set) ints of the first path_cap + 1 shortest w-u paths,
    lexicographic by vertex sequence, built from paths[x] of each
    predecessor x (ascending id) by OR-ing in the label and bit of the edge
    x-w. Each v > u then checks the first path_cap entries of paths[v]; a
    pair with more than path_cap shortest paths counts as a cap hit, not an
    error. Memory per source is at most path_cap + 1 entries per vertex.

    The subset tests run on an inverted index: carriers[b] is the set of
    edges whose label has bit b, as one int, so the edges a header rejects
    are the union of carriers[b] over the bits b it lacks, and every other
    edge off S is recognised. That union is read byte by byte from tables
    built once per call: rejects[c][p] is the union of carriers[8c + i]
    over the set bits i of byte p. Only edges off S can fail, since S's
    header holds every label on S. Once the record list is full, the first
    further false positive sets fp_truncated and later pairs are only
    counted.
    """
    if path_cap < 1:
        raise ValueError(f"path_cap must be at least 1, got {path_cap}")
    report = VerificationReport(path_cap=path_cap, fp_record_cap=fp_record_cap)
    edge_count = g.edge_count
    if labelling.edge_count != edge_count:
        raise ValueError("labelling does not cover this graph's edges")
    if edge_count == 0:
        return report
    masks = labelling.masks
    width = labelling.width
    carriers = [0] * width
    for eid, mask in enumerate(masks):
        for b in bit_positions(mask):
            carriers[b] |= 1 << eid
    rejects = []
    for base in range(0, width, 8):
        row = [0] * (1 << min(8, width - base))
        for p in range(1, len(row)):
            row[p] = row[p & (p - 1)] | carriers[base + (p & -p).bit_length() - 1]
        rejects.append(row)
    byte_count = len(rejects)
    universe = (1 << width) - 1
    all_edges = (1 << edge_count) - 1
    adjacency = g._adjacency_by_vertex

    for u in range(g.vertex_count):
        dist, _, order = _bfs(g, u)
        paths = {u: [(0, 0)]}
        for w in order[1:]:
            d = dist[w] - 1
            paths[w] = folded = []
            for x, eid in adjacency[w]:
                if dist[x] == d:
                    mask, bit = masks[eid], 1 << eid
                    folded += [(h | mask, s | bit) for h, s in paths[x]]
                    if len(folded) > path_cap:
                        del folded[path_cap + 1 :]
                        break
        for v in range(u + 1, g.vertex_count):
            if dist[v] < 0:
                continue
            report.pairs_checked += 1
            checked = paths[v]
            if len(checked) > path_cap:
                report.path_cap_hits += 1
                checked = checked[:path_cap]
            report.paths_checked += len(checked)
            report.subset_tests += edge_count * len(checked)
            if report.fp_truncated:
                continue  # records full and truncated: later paths only add to the counts
            for header, rejected in checked:
                for row, p in zip(rejects, (universe & ~header).to_bytes(byte_count, "little")):
                    rejected |= row[p]
                if rejected == all_edges:
                    continue
                room = fp_record_cap - len(report.false_positives)
                if room <= 0:
                    report.fp_truncated = True
                    break
                found = bit_positions(all_edges & ~rejected)
                report.false_positives += [(u, v, eid) for eid in found[:room]]
                if len(found) > room:
                    report.fp_truncated = True
                    break
    return report
