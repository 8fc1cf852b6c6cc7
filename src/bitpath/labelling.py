"""Labellings and the constructive edge labellings.

A label is a bit set stored as a Python int over the universe of bits
0..width-1, and a Labelling is a width plus one such int per edge. All
constructors here are pure.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .graphs import Graph


def bit_positions(x: int) -> list[int]:
    """Ascending positions of the set bits of x >= 0: the one bit iterator.
    Peels the lowest set bit off x until none is left."""
    if x < 0:
        raise ValueError(f"bit set must be non-negative, got {x}")
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


class Labelling:
    """Edge-id -> label map: edge e's label is the bit set masks[e], a tuple
    entry, over the universe of bits 0..width-1."""

    def __init__(self, width: int, masks: Sequence[int]):
        if width < 0:
            raise ValueError(f"universe width must be non-negative, got {width}")
        masks = tuple(masks)
        # min and max check every mask; a failure walks them to name the first bad edge
        if masks and (min(masks) <= 0 or max(masks) >> width):
            for eid, mask in enumerate(masks):
                if mask <= 0:
                    raise ValueError(f"edge {eid}: label must set at least one bit")
                if mask >> width:
                    raise ValueError(f"edge {eid}: label exceeds universe width")
        self.width = width
        self.masks = masks

    @property
    def edge_count(self) -> int:
        return len(self.masks)

    def to_text(self) -> str:
        """Serialize as 'universe <size>' then one 'edge <id>: <positions>' line each."""
        lines = [f"universe {self.width}"]
        for eid, mask in enumerate(self.masks):
            positions = " ".join(map(str, bit_positions(mask)))
            lines.append(f"edge {eid}: {positions}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Labelling":
        """Parse the to_text format. Blank lines are skipped; an error names
        its line by position in text."""
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        lineno, head = lines[0] if lines else (1, "")
        bad_header = f"line {lineno}: expected 'universe <size>'"
        if not head.startswith("universe ") or len(head.split()) != 2:
            raise ValueError(bad_header)
        try:
            width = int(head.split()[1])
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
        return cls(width, masks)


# ---------------------------------------------------------------------------
# bit-per-edge and bit-per-vertex


def bit_per_edge(g: Graph) -> Labelling:
    """Universe = edge set; every edge labelled by its own singleton bit."""
    return Labelling(g.edge_count, [1 << e for e in range(g.edge_count)])


def bit_per_vertex(g: Graph) -> Labelling:
    """Universe = vertex set; edge {u, v} labelled by bits u and v."""
    masks = [(1 << u) | (1 << v) for u, v in g.edges]
    return Labelling(g.vertex_count, masks)


# ---------------------------------------------------------------------------
# star labelling


def ceil_nth_root(n: int, r: int) -> int:
    """Smallest k with k**r >= n, by exact integer arithmetic for every n.

    Integer Newton steps descend from 2**ceil(bits(n)/r), which is at least
    the r-th root, to the floor of the root; one comparison then settles the
    ceiling, so exact roots (e.g. 10**6 at r=6) never come out one too high.
    """
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    k = 1 << -(-n.bit_length() // r)
    while True:
        step = ((r - 1) * k + n // k ** (r - 1)) // r
        if step >= k:
            break
        k = step
    return k if k**r >= n else k + 1


def star_universe_size(n: int, rank: int) -> int:
    """(rank + rank*(rank-1)/2) * ceil(n ** (1/rank)), exact."""
    return (rank + rank * (rank - 1) // 2) * ceil_nth_root(n, rank)


def star_labelling(n: int, rank: int, base: int | None = None) -> Labelling:
    """Star labelling for make_star(n), edge ids 0..n-1.

    Universe: all (coordinate, digit) pairs in lexicographic order, then all
    (coordinate, coordinate, digit-sum mod base) triples. An edge with digits
    d sets the pair bit (r, d[r]) for every coordinate r and the triple bit
    (r, s, (d[r]+d[s]) mod base) for every r < s, giving every label exactly
    rank + rank*(rank-1)/2 bits. Edge e's digits are its rank digits in base
    k, most significant first, where k is base or, by default, the smallest
    k with k**rank >= n.

    The masks are built by a depth-first walk over digit prefixes in
    lexicographic order, which is edge-id order, keeping one prefix state
    per coordinate. A prefix d[0..i-1] carries the bits it has fixed (its
    pair bits and the triple bits of coordinate pairs inside it) and, for
    each later coordinate s, a row: the k-bit groups of pair (s) and of
    every triple (r, s) with r < i, each holding the one bit that digit
    d[s] = 0 would select. Appending digit d at coordinate i rotates every
    group of row i left by d, which moves each bit to (d[r] + d) mod k, and
    ORs it in; each later row s gains bit d of its group (i, s). A rotation
    is two shifts and two ANDs with masks precomputed per (coordinate,
    digit), so a leaf edge costs six big-int operations.
    """
    if n < 1 or rank < 1:
        raise ValueError("need n >= 1 and rank >= 1")
    k = ceil_nth_root(n, rank) if base is None else base
    if k < 1 or k**rank < n:
        raise ValueError(f"base {k} at rank {rank} cannot number {n} edges")
    # group g spans bits g*k .. g*k + k-1: pair groups 0..rank-1, then one
    # triple group per coordinate pair (r, s), r < s, in lexicographic order
    coordinate_pairs = [(r, s) for r in range(rank) for s in range(r + 1, rank)]
    triple_group = {pair: rank + t for t, pair in enumerate(coordinate_pairs)}
    # levels[i] = (rotate, units) of coordinate i. rotate[d] = (d, keep,
    # k - d, wrap): rotating each group of row i left by d is
    # (row << d) & keep | (row >> (k - d)) & wrap. units: the digit-0 bit of
    # group (i, s) for every s > i.
    levels = []
    for i in range(rank):
        ones = sum(1 << (g * k) for g in [i] + [triple_group[r, i] for r in range(i)])
        rotate = [(d, ones * ((1 << k) - (1 << d)), k - d, ones * ((1 << d) - 1)) for d in range(k)]
        units = [1 << (triple_group[i, s] * k) for s in range(i + 1, rank)]
        levels.append((rotate, units))
    masks: list[int] = []
    _walk_star_prefixes(masks, n, levels, 0, [1 << (s * k) for s in range(rank)])
    return Labelling((rank + len(coordinate_pairs)) * k, masks)


def _walk_star_prefixes(masks: list[int], n: int, levels: list, bits: int, rows: list[int]) -> None:
    """Append to masks, until it holds n, the star labels of every edge under
    one digit prefix: bits and rows are the prefix's state and levels the
    tables of the coordinates after it, as built by star_labelling."""
    row = rows[0]
    rotate, units = levels[0]
    if len(rows) == 1:
        masks.extend([bits | row << d & keep | row >> e & wrap for d, keep, e, wrap in rotate[: n - len(masks)]])
        return
    for d, keep, e, wrap in rotate:
        if len(masks) == n:
            return
        later_rows = [r | u << d for r, u in zip(rows[1:], units)]
        _walk_star_prefixes(masks, n, levels[1:], bits | row << d & keep | row >> e & wrap, later_rows)


# ---------------------------------------------------------------------------
# rank selection


class RankChoice(NamedTuple):
    rank: int
    base: int
    size: int


def admissible_ranks(n: int) -> range:
    """Ranks worth scoring: 1..floor(log2 n) (base 2 is the smallest usable)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return range(1, max(1, n.bit_length() - 1) + 1)


def _best_rank(n: int, root: Callable[[int, int], int]) -> RankChoice:
    """Rank minimizing the star universe size (rank + rank*(rank-1)/2) * base
    for base = root(n, rank); min keeps the first minimum, so ties go to the
    smaller rank, which also minimizes per-label popcount."""
    choices = []
    for r in admissible_ranks(n):
        k = root(n, r)
        choices.append(RankChoice(r, k, (r + r * (r - 1) // 2) * k))
    return min(choices, key=lambda choice: choice.size)


def optimal_rank(n: int) -> RankChoice:
    """Rank minimizing star_universe_size(n, rank), with exact roots."""
    return _best_rank(n, ceil_nth_root)


def _float_root(n: int, r: int) -> int:
    try:
        return math.ceil(n ** (1.0 / r))
    except OverflowError:
        raise ValueError(f"n={n} is too large for double-precision rank selection") from None


def optimal_rank_float(n: int) -> RankChoice:
    """Rank search scoring (rank + rank*(rank-1)/2) * ceil(n ** (1/rank)) in
    double precision.

    Agrees with optimal_rank everywhere except where n ** (1/rank) lands on
    the upper rounding boundary of an exact integer root: 32768 ** 0.2
    evaluates to 8.000000000000002, so rank 5 scores 135 instead of 120 and
    the search settles on rank 6 (base 6, size 126). The perfect-binary-tree
    and core-periphery sizing tables are produced with this selection.
    """
    return _best_rank(n, _float_root)
