"""Bit universes and the constructive edge labellings.

Labels are bit vectors stored as Python ints over a fixed-width universe.
All constructors here are pure and the resulting Labelling is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graphs import Graph


def bit_positions(x: int) -> list[int]:
    """Ascending positions of the set bits of x >= 0: the one bit iterator."""
    return [i for i, c in enumerate(bin(x)[:1:-1]) if c == "1"]


@dataclass(frozen=True)
class BitUniverse:
    """A fixed-width universe: one descriptive tag per bit position."""

    size: int
    element_names: tuple[str, ...]

    def __post_init__(self):
        if self.size != len(self.element_names):
            raise ValueError("universe size must match the number of element names")


@dataclass(frozen=True)
class EdgeLabel:
    """One edge's label as a bit vector of the universe's width."""

    bits: int
    width: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.width:
            raise ValueError(f"label bits {self.bits:#x} outside a {self.width}-bit universe")

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    def positions(self) -> tuple[int, ...]:
        return tuple(bit_positions(self.bits))


class Labelling:
    """Immutable edge-id -> label map over one bit universe."""

    def __init__(self, universe: BitUniverse, masks: Sequence[int]):
        for eid, mask in enumerate(masks):
            if mask <= 0:
                raise ValueError(f"edge {eid}: label must set at least one bit")
            if mask >> universe.size:
                raise ValueError(f"edge {eid}: label exceeds universe width")
        self.universe = universe
        self._masks = tuple(masks)

    @property
    def width(self) -> int:
        return self.universe.size

    @property
    def masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def edge_count(self) -> int:
        return len(self._masks)

    def label(self, edge_id: int) -> EdgeLabel:
        return EdgeLabel(self._masks[edge_id], self.width)

    def __len__(self) -> int:
        return len(self._masks)

    def to_text(self) -> str:
        """Serialize as 'universe <size>' then one 'edge <id>: <positions>' line each."""
        lines = [f"universe {self.width}"]
        for eid, mask in enumerate(self._masks):
            positions = " ".join(str(p) for p in bit_positions(mask))
            lines.append(f"edge {eid}: {positions}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Labelling":
        """Parse the to_text format; element names are synthesized."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("universe "):
            raise ValueError("line 1: expected 'universe <size>'")
        try:
            width = int(lines[0].split()[1])
        except (IndexError, ValueError):
            raise ValueError("line 1: expected 'universe <size>'") from None
        if width < 0:
            raise ValueError(f"line 1: universe size must be non-negative, got {width}")
        masks = []
        for i, line in enumerate(lines[1:]):
            prefix = f"edge {i}:"
            if not line.startswith(prefix):
                raise ValueError(f"line {i + 2}: expected '{prefix} ...'")
            bits = 0
            for tok in line[len(prefix) :].split():
                try:
                    pos = int(tok)
                except ValueError:
                    raise ValueError(f"line {i + 2}: bit {tok!r} is not an integer") from None
                if not 0 <= pos < width:
                    raise ValueError(f"line {i + 2}: bit {pos} outside universe")
                bits |= 1 << pos
            masks.append(bits)
        names = tuple(f"bit {i}" for i in range(width))
        return cls(BitUniverse(width, names), masks)


# ---------------------------------------------------------------------------
# bit-per-edge and bit-per-vertex


def bit_per_edge(g: Graph) -> Labelling:
    """Universe = edge set; every edge labelled by its own singleton bit."""
    names = tuple(f"edge {e}" for e in range(g.edge_count))
    return Labelling(BitUniverse(g.edge_count, names), [1 << e for e in range(g.edge_count)])


def bit_per_vertex(g: Graph) -> Labelling:
    """Universe = vertex set; edge {u, v} labelled by bits u and v."""
    names = tuple(f"vertex {v}" for v in range(g.vertex_count))
    masks = [(1 << u) | (1 << v) for u, v in g.edges]
    return Labelling(BitUniverse(g.vertex_count, names), masks)


# ---------------------------------------------------------------------------
# star labelling


def ceil_nth_root(n: int, r: int) -> int:
    """Smallest k with k**r >= n, by exact integer arithmetic.

    Floating-point powering is only used to seed the search; the boundary is
    settled with integer comparisons, so exact roots (e.g. 10**6 at r=6)
    never come out one too high.
    """
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    k = max(1, round(n ** (1.0 / r)))
    while k > 1 and (k - 1) ** r >= n:
        k -= 1
    while k**r < n:
        k += 1
    return k


@dataclass(frozen=True)
class StarParams:
    """Digit parameters for a star labelling: rank many digits in base
    ceil(edge_count ** (1/rank)), so base**rank >= edge_count."""

    edge_count: int
    rank: int
    base: int

    def __post_init__(self):
        if self.edge_count < 1 or self.rank < 1 or self.base < 1:
            raise ValueError("edge_count, rank, and base must all be positive")
        if self.base**self.rank < self.edge_count:
            raise ValueError("base**rank must cover every edge index")

    @classmethod
    def for_star(cls, edge_count: int, rank: int, base: int | None = None) -> "StarParams":
        if base is None:
            base = ceil_nth_root(edge_count, rank)
        return cls(edge_count, rank, base)


def star_digits(edge_index: int, params: StarParams) -> tuple[int, ...]:
    """Mixed-radix digits of the edge index, most significant first,
    zero-padded to the rank. Injective because base**rank >= edge_count."""
    if not 0 <= edge_index < params.edge_count:
        raise ValueError(f"edge index {edge_index} out of range")
    digits = []
    x = edge_index
    for _ in range(params.rank):
        digits.append(x % params.base)
        x //= params.base
    digits.reverse()
    return tuple(digits)


def star_universe_size(n: int, rank: int) -> int:
    """(rank + rank*(rank-1)/2) * ceil(n ** (1/rank)), exact."""
    return (rank + rank * (rank - 1) // 2) * ceil_nth_root(n, rank)


def star_labelling(n: int, rank: int, base: int | None = None) -> Labelling:
    """Star labelling for make_star(n), edge ids 0..n-1.

    Universe: all (coordinate, digit) pairs in lexicographic order, then all
    (coordinate, coordinate, digit-sum mod base) triples. An edge with digits
    d sets the pair bit (r, d[r]) for every coordinate r and the triple bit
    (r, s, (d[r]+d[s]) mod base) for every r < s, giving every label exactly
    rank + rank*(rank-1)/2 bits.
    """
    params = StarParams.for_star(n, rank, base)
    r_count, k = params.rank, params.base
    coordinate_pairs = [(r, s) for r in range(1, r_count + 1) for s in range(r + 1, r_count + 1)]
    names = [f"({r},{d})" for r in range(1, r_count + 1) for d in range(k)]
    names += [f"({r},{s},{d})" for r, s in coordinate_pairs for d in range(k)]
    triple_offset = r_count * k
    masks = []
    for e in range(n):
        d = star_digits(e, params)
        bits = 0
        for r in range(r_count):
            bits |= 1 << (r * k + d[r])
        for t, (r, s) in enumerate(coordinate_pairs):
            bits |= 1 << (triple_offset + t * k + (d[r - 1] + d[s - 1]) % k)
        masks.append(bits)
    return Labelling(BitUniverse(len(names), tuple(names)), masks)


# ---------------------------------------------------------------------------
# rank selection


class RankChoice(NamedTuple):
    rank: int
    size: int


class LevelRank(NamedTuple):
    rank: int
    base: int
    size: int


def admissible_ranks(n: int) -> range:
    """Ranks worth scoring: 1..floor(log2 n) (base 2 is the smallest usable)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return range(1, max(1, n.bit_length() - 1) + 1)


def optimal_rank(n: int) -> RankChoice:
    """Rank minimizing star_universe_size(n, rank); ties go to the smaller
    rank, which also minimizes per-label popcount."""
    best: RankChoice | None = None
    for r in admissible_ranks(n):
        size = star_universe_size(n, r)
        if best is None or size < best.size:
            best = RankChoice(r, size)
    assert best is not None
    return best


def optimal_rank_float(n: int) -> LevelRank:
    """Rank search scoring (rank + rank*(rank-1)/2) * ceil(n ** (1/rank)) in
    double precision.

    Agrees with optimal_rank everywhere except where n ** (1/rank) lands on
    the upper rounding boundary of an exact integer root: 32768 ** 0.2
    evaluates to 8.000000000000002, so rank 5 scores 135 instead of 120 and
    the search settles on rank 6 (base 6, size 126). The perfect-binary-tree
    and core-periphery sizing tables are produced with this selection.
    """
    best: LevelRank | None = None
    for r in admissible_ranks(n):
        k = math.ceil(n ** (1.0 / r))
        size = (r + r * (r - 1) // 2) * k
        if best is None or size < best.size:
            best = LevelRank(r, k, size)
    assert best is not None
    return best
