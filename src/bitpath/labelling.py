"""Labellings and the constructive edge labellings.

A label is a bit set stored as a Python int over the universe of bits
0..width-1, and a Labelling is a width plus one such int per edge. All
constructors here are pure, and each refuses a labelling whose edge count
times width is over 2**32 before it makes any mask.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import or_
from typing import Callable, NamedTuple, Sequence

from .graphs import Graph, ceil_log2


def bit_positions(x: int) -> list[int]:
    """Ascending positions of the set bits of x >= 0: the one bit iterator.
    Peels the highest set bit off x until none is left, so x shrinks as it
    goes, then reverses the descending positions."""
    if x < 0:
        raise ValueError(f"bit set must be non-negative, got {x}")
    out = []
    while x:
        top = x.bit_length() - 1
        out.append(top)
        x ^= 1 << top
    out.reverse()
    return out


class _Table(dict):
    """A per-call lookup table filled from items when it is built: a missing
    key returns make(key) and stores nothing, so the table never grows."""

    def __init__(self, items, make: Callable):
        super().__init__(items)
        self.make = make

    def __missing__(self, key):
        return self.make(key)


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
        """Serialize as 'universe <size>' then one 'edge <id>: <positions>' line
        each, the positions in canonical decimal, ascending and single-spaced.
        A position's name comes from a per-call list of the names below the
        highest set bit when they are no more than the edges, each of which
        names at least one position, and otherwise from str."""
        top = max(self.masks, default=0).bit_length()
        name = [str(p) for p in range(top)].__getitem__ if top <= len(self.masks) else str
        lines = [f"universe {self.width}"]
        lines += [f"edge {eid}: {' '.join(map(name, bit_positions(mask)))}" for eid, mask in enumerate(self.masks)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Labelling":
        """Parse the to_text format; a bit may be any token int() reads as a
        position inside the universe, and any whitespace may separate the
        header's 'universe' from its size, as it may separate a line's bits.
        A line ends at '\\n' only, and blank lines are skipped; an error
        names its line by its position in text.

        A line's mask is the OR of its tokens' bits, looked up in a per-call
        _Table from token to bit, filled with the canonical names of the
        positions below min(width, 4 * isqrt(len(text))), so its bits take at
        most about len(text) bytes. Any other token is read by int() and its
        bit made on each lookup and not stored; the first bad token of a line
        names the error."""
        numbered = ((i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln and not ln.isspace())
        lineno, head = next(numbered, (1, ""))
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

        def bit(tok: str) -> int:
            try:
                pos = int(tok)
            except ValueError:
                raise ValueError(f"bit {tok!r} is not an integer") from None
            if not 0 <= pos < width:
                raise ValueError(f"bit {pos} outside universe")
            return 1 << pos

        named = min(width, 4 * math.isqrt(len(text)))
        lookup = _Table(((str(p), 1 << p) for p in range(named)), bit).__getitem__
        masks = []
        for eid, (lineno, line) in enumerate(numbered):
            prefix = f"edge {eid}:"
            if not line.startswith(prefix):
                raise ValueError(f"line {lineno}: expected '{prefix} ...'")
            try:
                bits = reduce(or_, map(lookup, line[len(prefix) :].split()), 0)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if not bits:
                raise ValueError(f"line {lineno}: label must set at least one bit")
            masks.append(bits)
        return cls(width, masks)


# ---------------------------------------------------------------------------
# bit-per-edge and bit-per-vertex

# 17x the largest labelling a table or benchmark size builds, the combined
# labelling of make_core_periphery(500): 374250 edges x 668 bits
_MAX_BITS = 1 << 32


def _check_bits(edge_count: int, width: int) -> None:
    """Refuse a labelling whose edge count times width is over _MAX_BITS,
    before any mask of it is made."""
    if edge_count * width > _MAX_BITS:
        raise ValueError(f"a labelling of {edge_count} edges and width {width} is over the limit of "
                         f"{_MAX_BITS} for edges times width")


def bit_per_edge(g: Graph) -> Labelling:
    """Universe = edge set; every edge labelled by its own singleton bit."""
    _check_bits(g.edge_count, g.edge_count)
    return Labelling(g.edge_count, [1 << e for e in range(g.edge_count)])


def bit_per_vertex(g: Graph) -> Labelling:
    """Universe = vertex set; edge {u, v} labelled by bits u and v."""
    _check_bits(g.edge_count, g.vertex_count)
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


def star_labelling(n: int, rank: int) -> Labelling:
    """Star labelling for make_star(n), edge ids 0..n-1.

    Universe: all (coordinate, digit) pairs in lexicographic order, then all
    (coordinate, coordinate, digit-sum mod base) triples. An edge with digits
    d sets the pair bit (r, d[r]) for every coordinate r and the triple bit
    (r, s, (d[r]+d[s]) mod base) for every r < s, giving every label exactly
    rank + rank*(rank-1)/2 bits. Edge e's digits are its rank digits in base
    k, most significant first, where k is the smallest k with k**rank >= n.

    The masks are built one coordinate at a time, over every digit prefix
    in lexicographic order, which is edge-id order. masks[j] holds the bits
    the j-th prefix d[0..i-1] has fixed (its pair bits and the triple bits
    of coordinate pairs inside it) and rows[s - i][j], for each later
    coordinate s, its row: the k-bit groups of pair (s) and of every triple
    (r, s) with r < i, each holding the one bit that digit d[s] = 0 would
    select. Appending digit d at coordinate i rotates every group of
    rows[0][j] left by d, which moves each bit to (d[r] + d) mod k, and ORs
    it into masks[j]; each later row s gains bit d of its group (i, s). A
    rotation is two shifts and two ANDs with masks precomputed per digit,
    so a last digit costs six big-int operations. After coordinate i only
    the first p = ceil(n / k**(rank-1-i)) prefixes, those of edges below n,
    are kept; p < k means one prefix, extended by digits 0..p-1 only. The
    prefixes live in flat lists of ints, which the cyclic GC does not track.
    """
    if n < 1 or rank < 1:
        raise ValueError("need n >= 1 and rank >= 1")
    k = ceil_nth_root(n, rank)
    width = (rank + rank * (rank - 1) // 2) * k
    _check_bits(n, width)
    # group g spans bits g*k .. g*k + k-1: pair groups 0..rank-1, then one
    # triple group per coordinate pair (r, s), r < s, in lexicographic order
    coordinate_pairs = [(r, s) for r in range(rank) for s in range(r + 1, rank)]
    triple_group = {pair: rank + t for t, pair in enumerate(coordinate_pairs)}
    masks = [0]
    rows = [[1 << (s * k)] for s in range(rank)]
    for i in range(rank):
        prefixes = -(-n // k ** (rank - 1 - i))
        # rotate[d] = (d, keep, k - d, wrap): rotating each group of row i
        # left by d is (row << d) & keep | (row >> (k - d)) & wrap
        ones = sum(1 << (g * k) for g in [i] + [triple_group[r, i] for r in range(i)])
        rotate = [(d, ones * ((1 << k) - (1 << d)), k - d, ones * ((1 << d) - 1)) for d in range(k)[:prefixes]]
        units = [[1 << (triple_group[i, s] * k + d) for d in range(k)[:prefixes]] for s in range(i + 1, rank)]
        masks = [bits | r << d & keep | r >> e & wrap for bits, r in zip(masks, rows[0]) for d, keep, e, wrap in rotate]
        rows = [[r | unit for r in column for unit in digit_units] for column, digit_units in zip(rows[1:], units)]
        for column in (masks, *rows):
            del column[prefixes:]
    return Labelling(width, masks)


# ---------------------------------------------------------------------------
# rank selection


class RankChoice(NamedTuple):
    rank: int
    base: int
    size: int


def admissible_ranks(n: int) -> range:
    """Ranks worth scoring and building, 1..max(1, ceil(log2 n)): the last is
    the first with base 2, the smallest usable; more ranks only add bits."""
    if n < 1:
        raise ValueError("need n >= 1")
    return range(1, max(1, ceil_log2(n)) + 1)


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
    """Rank of the narrowest star_labelling(n, rank), by exact roots."""
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

    At the rank it picks, its base is star_labelling's, ceil_nth_root(n,
    rank), for every n a graph here could hold: the first known exception is
    6**19 + 1, whose float root at rank 19 rounds down to 6, not 7.
    """
    return _best_rank(n, _float_root)
