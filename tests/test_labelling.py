"""Labellings, constructive labellings, and rank selection."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitpath import (
    Labelling,
    admissible_ranks,
    bit_per_edge,
    bit_per_vertex,
    bloom_labelling,
    ceil_nth_root,
    label_core_periphery,
    label_tree,
    make_complete,
    make_core_periphery,
    make_perfect_binary_tree,
    make_star,
    optimal_rank,
    optimal_rank_float,
    star_labelling,
    tree_star_levels,
    verify_no_false_positives,
)
from bitpath import bloom, labelling
from bitpath.cli import main
from bitpath.labelling import _Table, bit_positions
from helpers import (
    error_line,
    line_count,
    mutated,
    reference_from_text,
    reference_to_text,
    star_labelling_reference,
    star_recognition_violations,
    traced_peak,
)


def brute_root(n: int, r: int) -> int:
    k = 1
    while k**r < n:
        k += 1
    return k


class TestExactRoots:
    def test_matches_brute_search_on_grid(self):
        for n in (1, 2, 3, 7, 10, 63, 64, 65, 100, 200, 9900, 10**6):
            for r in range(1, 9):
                assert ceil_nth_root(n, r) == brute_root(n, r)

    def test_exact_powers_stay_exact(self):
        assert ceil_nth_root(10**6, 6) == 10
        assert ceil_nth_root(32768, 5) == 8
        assert ceil_nth_root(10**4, 4) == 10

    def test_exact_past_double_range(self):
        # n beyond 2**1024, where a float seed overflows
        for n in (10**308, 2**1024, 10**400, 10**400 + 1):
            for r in (1, 2, 3, 7, 100, 1000, 1328):
                k = ceil_nth_root(n, r)
                assert k**r >= n and (k == 1 or (k - 1) ** r < n), (n, r)
        assert ceil_nth_root(10**400, 400) == 10
        assert ceil_nth_root(10**400 + 1, 400) == 11
        assert ceil_nth_root(10**400, 1) == 10**400
        assert ceil_nth_root(10**400, 2) == 10**200

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ceil_nth_root(0, 2)
        with pytest.raises(ValueError):
            ceil_nth_root(5, 0)


class TestStarDigits:
    """Each edge's base-k digits, most significant first, read back from its
    star label: coordinate r (from 0) with digit d sets bit r*k + d."""

    @staticmethod
    def digits(mask: int, rank: int, base: int) -> tuple[int, ...]:
        return tuple(p - r * base for r, p in enumerate(bit_positions(mask)[:rank]))

    def test_decimal_example(self):
        lab = star_labelling(100, 2)  # base 10
        assert lab.width == 3 * 10
        assert self.digits(lab.masks[23], 2, 10) == (2, 3)

    def test_index_zero_is_all_zero(self):
        for rank in (1, 2, 5):
            lab = star_labelling(9, rank)
            base = lab.width // (rank + rank * (rank - 1) // 2)
            # every pair bit and every digit-sum bit at digit 0
            assert bit_positions(lab.masks[0]) == list(range(0, lab.width, base))

    def test_binary_expansion_oracle(self):
        lab = star_labelling(8, 3)  # base 2
        assert lab.width == 6 * 2
        # edge 7 = 0b111: digit 1 at coordinates 0, 1, 2 -> bits 1, 3, 5;
        # digit sums (1+1) mod 2 = 0 for (0,1), (0,2), (1,2) -> bits 6, 8, 10
        assert bit_positions(lab.masks[7]) == [1, 3, 5, 6, 8, 10]
        assert self.digits(lab.masks[7], 3, 2) == tuple(int(b) for b in format(7, "03b"))

    def test_out_of_range(self):
        # one label per edge id 0..n-1, and no more
        assert star_labelling(10, 2).edge_count == 10

    def test_injective_over_all_indices(self):
        lab = star_labelling(50, 3)
        assert len({self.digits(mask, 3, 4) for mask in lab.masks}) == 50


class TestUniverseSize:
    def test_table_scale_values(self):
        assert star_labelling(10**4, 4).width == 100
        assert star_labelling(10**5, 6).width == 21 * 7 == 147

    def test_formula_with_root_oracle(self):
        assert star_labelling(16, 2).width == 3 * 4 == 12


class TestOptimalRank:
    def test_reference_column(self):
        expected = {
            10: (1, 10, 10),
            100: (2, 10, 30),
            1_000: (3, 10, 60),
            10_000: (4, 10, 100),
            100_000: (6, 7, 147),
            1_000_000: (6, 10, 210),
        }
        for n, (rank, base, size) in expected.items():
            assert optimal_rank(n) == (rank, base, size)

    def test_smallest_star(self):
        assert optimal_rank(2) == (1, 2, 2)

    def test_tie_breaks_to_smaller_rank(self):
        # ranks 3 and 4 both give 60 at n=1000
        assert star_labelling(1000, 3).width == star_labelling(1000, 4).width == 60
        assert optimal_rank(1000).rank == 3

    def test_admissible_ranks_range(self):
        assert list(admissible_ranks(1)) == [1]
        assert list(admissible_ranks(2)) == [1]
        assert list(admissible_ranks(100)) == [1, 2, 3, 4, 5, 6, 7]
        # up to ceil(log2 n): an exact power of two stops at its exponent
        assert (admissible_ranks(64)[-1], admissible_ranks(65)[-1]) == (6, 7)

    def test_growth_bound(self):
        samples = [2**i for i in range(4, 20)] + [10**i for i in range(2, 7)]
        for n in samples:
            assert optimal_rank(n).size <= 2 * math.log2(n) ** 2

    def test_float_variant_agrees_except_documented_boundary(self):
        for n in list(range(2, 1025)) + [9900, 39800, 10**5, 10**6]:
            assert optimal_rank_float(n).size == optimal_rank(n).size
        # the one divergence the tree tables rely on
        assert optimal_rank(32768) == (5, 8, 120)
        assert optimal_rank_float(32768) == (6, 6, 126)

    def test_float_base_is_the_exact_root_at_its_rank(self):
        """The float search's base is ceil_nth_root at the rank it picks, so
        star_labelling(s, rank) has the size it scores: on every s up to
        2**16 and every core-periphery level n(n-1), n = 100..500. The first
        known exception, 6**19 + 1, is far beyond any graph built here."""
        for s in [*range(1, 2**16 + 1), *(n * (n - 1) for n in range(100, 501))]:
            choice = optimal_rank_float(s)
            assert choice.base == ceil_nth_root(s, choice.rank), s
        assert optimal_rank_float(6**19 + 1)[:2] == (19, 6) and ceil_nth_root(6**19 + 1, 19) == 7


class TestBitPerEdge:
    def test_star_ten(self):
        lab = bit_per_edge(make_star(10))
        assert lab.width == 10
        assert all(mask.bit_count() == 1 for mask in lab.masks)

    def test_labels_are_distinct_singletons(self):
        lab = bit_per_edge(make_complete(6))
        assert len(set(lab.masks)) == lab.edge_count
        assert lab.masks[3] == 1 << 3


class TestBitPerVertex:
    def test_complete_hundred_width(self):
        assert bit_per_vertex(make_complete(100)).width == 100

    def test_every_label_has_two_bits(self):
        lab = bit_per_vertex(make_complete(20))
        assert all(mask.bit_count() == 2 for mask in lab.masks)

    def test_label_is_endpoint_pair(self):
        g = make_complete(10)
        lab = bit_per_vertex(g)
        eid = g.edges.index((3, 7))
        assert lab.masks[eid] == (1 << 3) | (1 << 7)

    def test_triangle_off_path_edge_not_subset(self):
        g = make_complete(3)
        lab = bit_per_vertex(g)
        header = lab.masks[g.edges.index((0, 1))]
        off = lab.masks[g.edges.index((0, 2))]
        assert off & ~header != 0

    def test_labels_distinct(self):
        lab = bit_per_vertex(make_complete(30))
        assert len(set(lab.masks)) == lab.edge_count


class TestStarLabelling:
    def test_rank_one_is_bit_per_edge(self):
        assert star_labelling(10, 1).masks == bit_per_edge(make_star(10)).masks

    def test_hundred_edges_rank_two(self):
        assert star_labelling(100, 2).width == 30

    def test_hand_evaluated_positions(self):
        # edge 23 at rank 2, base 10 has digits (2, 3): pair bits at
        # (1,2) -> 2 and (2,3) -> 13, triple bit (1,2,5) -> 20 + 5 = 25
        lab = star_labelling(100, 2)
        assert bit_positions(lab.masks[23]) == [2, 13, 25]

    def test_popcount_is_rank_plus_pairs(self):
        for n, rank in ((10, 1), (50, 2), (100, 3), (200, 4)):
            lab = star_labelling(n, rank)
            expected = rank + rank * (rank - 1) // 2
            assert all(mask.bit_count() == expected for mask in lab.masks)

    @pytest.mark.parametrize("n, width", [(10, 10), (100, 30), (1_000, 60), (10_000, 100), (100_000, 147)])
    def test_star_table_row(self, capsys, n, width):
        """The built labelling of a star-table row: its width is the printed
        universe_size cell, its n masks are distinct and each has the
        popcount of the optimal rank."""
        rank = optimal_rank(n).rank
        lab = star_labelling(n, rank)
        assert main(["star-table", str(n), "--format", "csv"]) == 0
        cell = capsys.readouterr().out.splitlines()[-1].split(",")[2]
        assert lab.width == int(cell) == width
        assert len(set(lab.masks)) == n
        assert {mask.bit_count() for mask in lab.masks} == {rank + rank * (rank - 1) // 2}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            star_labelling(0, 1)
        with pytest.raises(ValueError):
            star_labelling(10, 0)


class TestStarLabellingAgainstReference:
    """The coordinate loop builds the same masks as the per-edge digit loop."""

    def test_every_small_star_at_every_rank(self):
        for n in range(1, 301):
            for rank in admissible_ranks(n):
                lab = star_labelling(n, rank)
                assert (lab.width, list(lab.masks)) == star_labelling_reference(n, rank, brute_root(n, rank)), (n, rank)

    def test_tree_level_stars_at_the_float_rank(self):
        """Each level star of the trees h = 1..8, built at the rank the float
        search picks, equals the reference at the base that search picks."""
        seen = set()
        for h in range(1, 9):
            for edge_ids in tree_star_levels(make_perfect_binary_tree(h), 0):
                choice = optimal_rank_float(len(edge_ids))
                seen.add((len(edge_ids), choice.rank, choice.base))
        for n, rank, base in sorted(seen):
            lab = star_labelling(n, rank)
            assert (lab.width, list(lab.masks)) == star_labelling_reference(n, rank, base), (n, rank, base)

    @pytest.mark.parametrize("n, rank", [(5, 40), (2, 64), (3, 120), (1, 4)])
    def test_high_ranks(self, n, rank):
        lab = star_labelling(n, rank)
        assert (lab.width, list(lab.masks)) == star_labelling_reference(n, rank, brute_root(n, rank))

    def test_high_rank_memory_stays_small(self):
        # rank 200 has 20,100 groups of base 2, so each row is a 40,200-bit
        # int; the loop keeps one row per later coordinate of the one live
        # prefix, where a walk keeping every depth's rows peaked at 110 MiB
        _, peak = traced_peak(lambda: star_labelling(5, 200))
        assert peak < 16 << 20

    @pytest.mark.parametrize(
        "rank, digest",
        [
            (5, "9937fb50dfb43287daca247e59ac9724b00e2be930dd1bee0e83595b39140b15"),
            (6, "2b1ad221ed834c7943f976c4587e8acfe5d9e58827fd8f3f7ad56d4cbbf5e21f"),
        ],
        ids=["rank-5", "rank-6"],
    )
    def test_hundred_thousand_edges_by_digest(self, rank, digest):
        # sha256 of "<width>\n" + comma-joined hex masks, recorded from the
        # per-edge digit loop
        lab = star_labelling(10**5, rank)
        text = f"{lab.width}\n" + ",".join(format(m, "x") for m in lab.masks)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestNoFalsePositivesOnStars:
    def test_exhaustive_over_small_stars_and_all_ranks(self):
        for n in range(2, 61):
            for rank in admissible_ranks(n):
                lab = star_labelling(n, rank)
                assert star_recognition_violations(lab.masks, lab.width) == 0, (n, rank)

    def test_oracle_agrees_with_generic_verifier(self):
        for n in (2, 5, 11, 20):
            for rank in admissible_ranks(n):
                lab = star_labelling(n, rank)
                report = verify_no_false_positives(make_star(n), lab)
                assert report.ok
                assert star_recognition_violations(lab.masks, lab.width) == 0

    def test_oracle_flags_planted_false_positive(self):
        # duplicate one label: the duplicate is recognised by the other's path
        lab = star_labelling(10, 2)
        masks = list(lab.masks)
        masks[4] = masks[7]
        assert star_recognition_violations(masks, lab.width) > 0
        # an exact count pins the helper itself
        lab = star_labelling(50, 2)
        masks = list(lab.masks)
        masks[5] = masks[3]
        assert star_recognition_violations(masks, lab.width) == 194
        # the same plant on multi-word labellings: 200 bits (4 words), 84 bits (2)
        for n, rank, count in ((200, 1, 794), (150, 7, 594)):
            lab = star_labelling(n, rank)
            masks = list(lab.masks)
            masks[5] = masks[3]
            assert star_recognition_violations(masks, lab.width) == count


class TestLabellingType:
    def test_rejects_empty_label(self):
        with pytest.raises(ValueError, match="at least one bit"):
            Labelling(4, [0b0011, 0])

    def test_rejects_out_of_width_bits(self):
        with pytest.raises(ValueError, match="exceeds universe width"):
            Labelling(2, [0b100])

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError, match="non-negative"):
            Labelling(-1, [])

    @pytest.mark.parametrize(
        "masks, message",
        [
            ([1, 1 << 4, 0], "edge 1: label exceeds universe width"),
            ([1, 0, 1 << 4], "edge 1: label must set at least one bit"),
        ],
        ids=["too-wide-first", "empty-first"],
    )
    def test_names_first_bad_edge(self, masks, message):
        with pytest.raises(ValueError) as exc:
            Labelling(4, masks)
        assert str(exc.value) == message

    def test_accepts_empty_labelling(self):
        lab = Labelling(0, [])
        assert (lab.width, lab.masks) == (0, ())

    def test_edge_label_positions(self):
        label = 0b1001
        assert label.bit_count() == 2
        assert bit_positions(label) == [0, 3]

        wide = 1 | 1 << 63 | 1 << 64 | 1 << 130 | 1 << 199
        positions = bit_positions(wide)
        assert positions == [0, 63, 64, 130, 199]
        rebuilt = 0
        for p in positions:
            rebuilt |= 1 << p
        assert rebuilt == wide
        assert Labelling(200, [wide]).to_text() == "universe 200\nedge 0: 0 63 64 130 199\n"

    def test_bit_positions_rejects_negative(self):
        for x in (-1, -0b1001, -(1 << 200)):
            with pytest.raises(ValueError, match="non-negative"):
                bit_positions(x)

    def test_bit_positions_matches_bit_scan(self):
        def scan(x: int) -> list[int]:
            return [i for i in range(x.bit_length()) if x >> i & 1]

        rng = random.Random(12)
        values = [0, 1 << 64]
        values += [rng.getrandbits(rng.randrange(1, 601)) for _ in range(200)]
        values += [((1 << w) - 1) ^ (1 << rng.randrange(w)) for w in (2, 63, 64, 65, 600, 5000)]
        values += [1 | 1 << 501, 1 << 501, (1 << 502) - 1]
        for x in values:
            assert bit_positions(x) == scan(x)

    @pytest.mark.parametrize(
        "bits, message",
        [(-1, "at least one bit"), (1 << 9, "exceeds universe width")],
        ids=["negative", "past-width"],
    )
    def test_edge_label_rejects_out_of_range_bits(self, bits, message):
        with pytest.raises(ValueError, match=message):
            Labelling(4, [bits])

    def test_edge_label_accepts_its_top_bit(self):
        assert bit_positions(Labelling(65, [1 << 64]).masks[0]) == [64]


class TestSerialization:
    def test_golden_text(self):
        lab = bit_per_vertex(make_star(2))
        assert lab.to_text() == "universe 3\nedge 0: 0 1\nedge 1: 0 2\n"

    def test_round_trip(self):
        for lab in (star_labelling(20, 2), bit_per_vertex(make_complete(7))):
            again = Labelling.from_text(lab.to_text())
            assert again.width == lab.width
            assert again.masks == lab.masks

    @pytest.mark.parametrize(
        "text, message",
        [
            ("edges 3\n", "line 1"),
            ("universe -3\n", "line 1: .*non-negative"),
            ("universe 4 5\n", "line 1: expected 'universe <size>'"),
            ("\tuniverse 4\n", "line 1: expected 'universe <size>'"),
            ("universe4\n", "line 1: expected 'universe <size>'"),
        ],
        ids=["not-universe", "negative-size", "extra-token", "leading-whitespace", "no-whitespace"],
    )
    def test_parse_rejects_bad_header(self, text, message):
        with pytest.raises(ValueError, match=message):
            Labelling.from_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("universe 2\nedge 0: 5\n", "outside universe"),
            ("universe 4\nedge 0: 1 x\n", "line 2: .*'x'"),
            ("universe 4\n\nedge 0: 1 x\n", "line 3: .*'x'"),
            ("universe 4\nedge 0: 1\n\n\nedge 2: 1\n", "line 5: expected 'edge 1: ...'"),
            ("universe 4\nedge 0: 1\nedge 1:\n", "^line 3: label must set at least one bit$"),
        ],
        ids=["out-of-range", "not-an-integer", "after-blank-line", "edge-gap-after-blank-lines", "empty-label"],
    )
    def test_parse_rejects_out_of_range_bit(self, text, message):
        with pytest.raises(ValueError, match=message):
            Labelling.from_text(text)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_round_trip_any_labelling(self, data):
        width = data.draw(st.integers(0, 200), label="width")
        labels = st.lists(st.integers(1, (1 << width) - 1), max_size=20) if width else st.just([])
        masks = data.draw(labels, label="masks")
        lab = Labelling(width, masks)
        again = Labelling.from_text(lab.to_text())
        assert again.width == width
        assert again.masks == tuple(masks)

    def test_header_takes_any_whitespace_before_the_size(self):
        lab = Labelling.from_text("universe\t4\nedge 0:\t1\n")
        assert (lab.width, lab.masks) == (4, (2,))

    @pytest.mark.parametrize(
        "text, width, masks",
        [
            ("universe 4\nedge 0: 1\u20282\n", 4, (6,)),
            ("universe 2\nedge 0: 0\x851\n", 2, (3,)),
            ("universe 4\r\nedge 0: 1\r\nedge 1: 2 3\r\n", 4, (2, 12)),
        ],
        ids=["line-separator", "next-line", "crlf"],
    )
    def test_lines_end_at_newline_only(self, text, width, masks):
        lab = Labelling.from_text(text)
        assert (lab.width, lab.masks) == (width, masks)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("universe 4\x0cedge 0: 1\n", "line 1: expected 'universe <size>'"),
            ("universe 4\nedge 0: 1\x0cedge 1: 2\n", "line 2: bit 'edge' is not an integer"),
            ("universe 4\redge 0: 1\r", "line 1: expected 'universe <size>'"),
        ],
        ids=["form-feed-header", "form-feed-edge", "lone-cr"],
    )
    def test_other_breaks_stay_inside_a_line(self, text, message):
        with pytest.raises(ValueError) as raised:
            Labelling.from_text(text)
        assert str(raised.value) == message

    def test_parse_rejects_wrong_edge_order(self):
        with pytest.raises(ValueError, match="line 3"):
            Labelling.from_text("universe 2\nedge 0: 1\nedge 5: 0\n")


TEXT_WIDTHS = (0, 1, 7, 8, 9, 63, 64, 65, 502)


def text_format_labellings() -> list[Labelling]:
    """Every constructor at each width of TEXT_WIDTHS it can reach, the
    constructive schemes at several sizes, and hand-made masks at the ends of
    each width and at widths 4095-4097. to_text names positions from a list
    when the top bit is at most the edge count and through str otherwise,
    and both occur here."""
    labs = [Labelling(0, [])]
    for w in TEXT_WIDTHS[1:]:
        labs.append(bit_per_edge(make_star(w)))
        if w >= 2:
            labs.append(bit_per_vertex(make_star(w - 1)))
        labs.append(bloom_labelling(make_perfect_binary_tree(5), w, min(w, 13), w))
        labs.append(Labelling(w, [(1 << w) - 1, 1 << (w - 1), 1, 1 | 1 << (w - 1)]))
    labs += [star_labelling(100, r) for r in admissible_ranks(100)]
    labs += [star_labelling(1000, 3), star_labelling(1001, 3)]
    labs += [label_tree(make_perfect_binary_tree(h), 0) for h in range(1, 9)]
    labs += [label_core_periphery(*make_core_periphery(n)) for n in (2, 3, 5, 8)]
    labs.append(bloom_labelling(make_perfect_binary_tree(8), 502, 13, 1))
    labs += [Labelling(w, [1 << (w - 1), (1 << w) - 1]) for w in (4095, 4096, 4097)]
    return labs


def parse_outcome(parse, text: str):
    """('ok', (width, masks)) or ('error', message) of parse(text)."""
    try:
        result = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", (result.width, result.masks) if isinstance(result, Labelling) else result


# texts from_text must read exactly as the per-token reference:
# non-canonical integers, whitespace and line-break variants, every error
REFERENCE_TEXTS = [
    "universe 4\nedge 0: 03\n",
    "universe 4\nedge 0: 1 003 00\n",
    "universe 4\nedge 0: +3\n",
    "universe 20\nedge 0: 1_0\n",
    "universe 4\nedge 0: \u0663\n",
    "universe 4\nedge 0: 1 \u0663 2\n",
    "universe 4\nedge 0:\t1  3\t\nedge 1:   2\t \t0\n",
    "universe 4\nedge 0: 1\u00a02\n",
    "universe 4\r\nedge 0: 1\r\nedge 1: 2 3\r\n",
    "universe 4\x0cedge 0: 1\x0cedge 1: 2\n",
    "universe 4\nedge 0: 1\u20282\n",
    "universe 2\nedge 0: 0\x851\n",
    "universe 4\nedge 0: 1\x0cedge 1: 2\n",
    "universe 4\redge 0: 1\r",
    "universe 4\nedge 0:3\n",
    "universe 4\nedge 0:3 1\nedge 1:2\n",
    "universe 4\nedge 0: 1 1 3 3\n",
    "universe 4\nedge 0: -1\n",
    "universe 4\nedge 0: 1 -0\n",
    "universe 4\nedge 0: 4\n",
    "universe 4\nedge 0: 1 05 9\n",
    "universe 4\nedge 0: 9 x\n",
    "universe 4\nedge 0: 1 x\n",
    "universe 4\nedge 0: 1 3.0\n",
    "universe 4\nedge 0:\n",
    "universe 4\nedge 0:   \t\n",
    "universe 4\nedge 01: 3\n",
    "universe 4\nedge 0 : 3\n",
    "\n\nuniverse 4\n\n  \t\nedge 0: 1\n\n\nedge 1: 2\n \n",
    "",
    " \n\t\n",
    "edge 0: 1\n",
    "universe\n",
    "universe 4 5\n",
    "universe x\n",
    "universe -3\n",
    "universe 03\nedge 0: 2\n",
    "universe \u0663\nedge 0: 2\n",
    "universe 4 \nedge 0: 1\n",
    " universe 4\nedge 0: 1\n",
    "\tuniverse 4\nedge 0: 1\n",
    "universe\t4\nedge 0:\t1\n",
    "universe\u00a04\nedge 0: 1\n",
    "universe\t\nedge 0: 1\n",
    "universes 4\nedge 0: 1\n",
    "universe4\nedge 0: 1\n",
    "universe 0\n",
    "universe 0\nedge 0: 0\n",
    "universe 4\nedge 1: 1\n",
    "universe 4\nedge 0: 1\nedge 0: 2\n",
    "universe 4\nedge 0: 1\nedge 2: 2\n",
    "universe 5000\nedge 0: 4095 4096 4999\nedge 1: 0 4095\n",
    "universe 4097\nedge 0: 4096\n",
    "universe 1000000000000\nedge 0: 999999 0\n",
]


class TestTextFormatAgainstReference:
    """to_text and from_text against the per-bit and per-token references
    they replaced: the same bytes, masks and error messages."""

    def test_to_text_matches_reference(self):
        for lab in text_format_labellings():
            assert lab.to_text() == reference_to_text(lab.width, lab.masks), (lab.width, lab.edge_count)

    def test_round_trip_every_labelling(self):
        for lab in text_format_labellings():
            again = Labelling.from_text(lab.to_text())
            assert (again.width, again.masks) == (lab.width, lab.masks)

    @pytest.mark.parametrize("text", REFERENCE_TEXTS)
    def test_from_text_matches_reference(self, text):
        assert parse_outcome(Labelling.from_text, text) == parse_outcome(reference_from_text, text)

    def test_wide_sparse_universe_builds_no_wide_table(self):
        # a list of names up to the top bit would hold a million strings, and
        # a list of bits up to the width a trillion; both calls look up two
        lab = Labelling(1_000_000, [1 << 999_999, 1])

        def round_trip():
            text = lab.to_text()
            return text, Labelling.from_text(text.replace("universe 1000000", "universe 1000000000000"))

        (text, again), peak = traced_peak(round_trip)
        assert text == "universe 1000000\nedge 0: 999999\nedge 1: 0\n"
        assert again.masks == lab.masks
        assert peak < 8 << 20

    @pytest.mark.parametrize(
        "lab",
        [
            Labelling(50_000, [(1 << 50_000) - 1]),
            Labelling(2_000_000, [sum(1 << p for p in range(1_999_000, 2_000_000, 5))]),
            Labelling(20_000, [(1 << 20_000) - 1] + [1] * 19_999),
        ],
        ids=["one-dense-edge", "one-edge-of-high-bits", "one-dense-edge-among-many"],
    )
    def test_round_trip_stores_few_wide_bits(self, lab):
        # storing every bit from_text reads would hold about 150, 48 and
        # 24 MiB; the table holds only the bits below 4 * isqrt(len(text)),
        # filled before parsing, and makes every other bit per lookup
        again, peak = traced_peak(lambda: Labelling.from_text(lab.to_text()))
        assert again.masks == lab.masks
        assert peak < 8 << 20

    def test_spellings_of_one_position_share_its_bit(self):
        # 10,000 spellings of 5999 in ten digit scripts; a blank line of
        # 2.5 million spaces lifts the filled bound above 5999, so the table
        # holds the bits of all 6,000 canonical names, and a stored copy of
        # the bit per other spelling would add about 7.5 MiB
        zeros = [0x30, 0x660, 0x6F0, 0x966, 0x9E6, 0xA66, 0xAE6, 0xB66, 0xBE6, 0xFF10]
        spellings = ["".join(chr(z + int(d)) for z, d in zip(zs, "5999")) for zs in itertools.product(zeros, repeat=4)]
        text = f"universe 6000\n{' ' * 2_500_000}\nedge 0: {' '.join(spellings)}\n"
        lab, peak = traced_peak(lambda: Labelling.from_text(text))
        assert lab.masks == (1 << 5999,)
        assert peak < 8 << 20


def test_table_answers_from_its_items_and_never_grows():
    made = []

    def make(key):
        made.append(key)
        return key * 2

    table = _Table(((key, len(key)) for key in ("a", "bb")), make)
    assert (table["a"], table["bb"], made) == (1, 2, [])
    assert (table["c"], table["c"], made) == ("cc", "cc", ["c", "c"])
    assert table == {"a": 1, "bb": 2}


LABELLING_TOKENS = st.one_of(
    st.integers(0, 20).map(str),
    st.sampled_from(["05", "007", "+3", "-1", "-0", "1_0", "\u0663", "x", "3.0", "1e1", ""]),
)


@st.composite
def labelling_like_texts(draw) -> str:
    """Texts in or near the labelling format: a header, numbered edge lines
    with canonical and other tokens, assorted separators and line breaks."""
    header = draw(st.sampled_from(["universe "] * 6 + ["universe  ", "universe\t", "edges ", ""]))
    lines = [header + draw(st.sampled_from([str(w) for w in range(25)] + ["-2", "03", "x", "4 5", ""]))]
    for eid in range(draw(st.integers(0, 5))):
        name = draw(st.sampled_from([str(eid)] * 4 + [str(eid + 1), f"0{eid}"]))
        sep = draw(st.sampled_from([" ", "  ", "\t", "\u00a0", ""]))
        lines.append(f"edge {name}:" + sep + sep.join(draw(st.lists(LABELLING_TOKENS, max_size=5))))
    brk = draw(st.sampled_from(["\n", "\r\n", "\x0c", "\u2028", "\n\n", "\n \n"]))
    return brk.join(lines) + draw(st.sampled_from(["", brk]))


@st.composite
def labelling_texts(draw) -> str:
    """to_text of a small labelling."""
    width = draw(st.integers(0, 40))
    masks = draw(st.lists(st.integers(1, (1 << width) - 1), max_size=6)) if width else []
    return Labelling(width, masks).to_text()


class TestTextFormatFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mutated(st.one_of(labelling_texts(), labelling_like_texts())))
    def test_from_text_agrees_with_reference_and_names_a_line(self, text):
        outcome = parse_outcome(Labelling.from_text, text)
        assert outcome == parse_outcome(reference_from_text, text)
        if outcome[0] == "error":
            assert 1 <= error_line(outcome[1]) <= line_count(text) + 1


class Stopped(Exception):
    """Raised in place of building a labelling whose size passed the check."""


# (constructor and its arguments, the edge count and width it checks) as
# functions of the size n the limit bounds, and the largest n it accepts
LIMIT_CASES = [
    (lambda n: (bit_per_edge, make_star(n)), lambda n: (n, n), 1 << 16),
    (lambda n: (bit_per_vertex, make_star(n)), lambda n: (n, n + 1), (1 << 16) - 1),
    (lambda n: (star_labelling, n, 1), lambda n: (n, n), 1 << 16),
    (lambda m: (bloom_labelling, make_star(4), m, 1, 1), lambda m: (4, m), 1 << 30),
]
LIMIT_IDS = ["bit-per-edge", "bit-per-vertex", "star", "bloom"]


class TestSizeLimit:
    """bit_per_edge, bit_per_vertex, star_labelling and bloom_labelling
    refuse an edge count times width over 2**32 before making any mask. The
    large cases run under memory_cap, so a missing check fails with
    MemoryError instead of filling the host's memory."""

    @pytest.fixture
    def checked_sizes(self, monkeypatch):
        """The (edges, width) of every size check, which then goes on."""
        original, calls = labelling._check_bits, []

        def recording(edge_count, width):
            calls.append((edge_count, width))
            return original(edge_count, width)

        for module in (labelling, bloom):
            monkeypatch.setattr(module, "_check_bits", recording)
        return calls

    @pytest.mark.parametrize(
        "build",
        [
            lambda: bit_per_edge(make_complete(6)),
            lambda: bit_per_vertex(make_complete(6)),
            lambda: star_labelling(100, 3),
            lambda: bloom_labelling(make_complete(6), 40, 3, 1),
        ],
        ids=LIMIT_IDS,
    )
    def test_constructors_check_their_built_size(self, checked_sizes, build):
        lab = build()
        assert checked_sizes == [(lab.edge_count, lab.width)]

    @pytest.mark.parametrize("call, counts, n", LIMIT_CASES, ids=LIMIT_IDS)
    def test_largest_accepted_size(self, monkeypatch, memory_cap, checked_sizes, call, counts, n):
        fn, *args = call(n)
        recording = labelling._check_bits

        def check_then_stop(*sizes):
            recording(*sizes)
            raise Stopped

        for module in (labelling, bloom):
            monkeypatch.setattr(module, "_check_bits", check_then_stop)
        with pytest.raises(Stopped):
            fn(*args)
        assert checked_sizes == [counts(n)]

    @pytest.mark.parametrize("call, counts, n", LIMIT_CASES, ids=LIMIT_IDS)
    def test_smallest_refused_size(self, memory_cap, call, counts, n):
        fn, *args = call(n + 1)

        def refusal():
            with pytest.raises(ValueError) as raised:
                fn(*args)
            return raised.value

        error, peak = traced_peak(refusal)
        edges, width = counts(n + 1)
        assert type(error) is ValueError
        assert str(error) == (
            f"a labelling of {edges} edges and width {width} is over the limit of 4294967296 for edges times width"
        )
        assert peak < 1 << 20


@pytest.mark.parametrize(
    "call, args, message",
    [
        (admissible_ranks, (0,), "need n >= 1"),
        (admissible_ranks, (-3,), "need n >= 1"),
    ],
)
def test_input_checks(call, args, message):
    with pytest.raises(ValueError) as raised:
        call(*args)
    assert type(raised.value) is ValueError and str(raised.value) == message
