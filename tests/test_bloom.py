"""Random fixed-weight labels: sampling, analytics, and measured rates."""

import itertools
import math
import multiprocessing
import os
import random
import tracemalloc

import pytest

from bitpath import (
    analytic_fpr,
    at_least_one_fp,
    bloom_labelling,
    empirical_fpr,
    exact_two_label_fpr,
    make_star,
    optimal_label_weight,
    optimal_label_weight_int,
    optimal_rank,
)
from bitpath import bloom, routing
from bitpath.bloom import _draw_masks
from bitpath.cli import BLOOM_TABLE_DEFAULT
from helpers import sample_draw_masks, sample_empirical_fpr

LN2 = math.log(2.0)


def brute_force_two_label_fpr(m: int, k: int) -> float:
    """Average over every (A, B, C) triple of k-subsets of whether C is
    contained in A | B. Tiny m only."""
    subsets = [sum(1 << b for b in comb) for comb in itertools.combinations(range(m), k)]
    hits = 0
    for a in subsets:
        for b in subsets:
            union = a | b
            hits += sum(1 for c in subsets if c & ~union == 0)
    return hits / len(subsets) ** 3


class TestBloomLabelling:
    def test_same_seed_is_bit_identical(self):
        g = make_star(25)
        assert bloom_labelling(g, 21, 7, seed=42).masks == bloom_labelling(g, 21, 7, seed=42).masks

    def test_different_seed_differs(self):
        g = make_star(25)
        assert bloom_labelling(g, 21, 7, seed=1).masks != bloom_labelling(g, 21, 7, seed=2).masks

    def test_full_weight_saturates(self):
        g = make_star(6)
        lab = bloom_labelling(g, 5, 5, seed=0)
        assert all(mask == 0b11111 for mask in lab.masks)

    def test_every_label_has_exact_weight(self):
        lab = bloom_labelling(make_star(40), 21, 7, seed=1)
        assert all(mask.bit_count() == 7 for mask in lab.masks)

    def test_rejects_bad_weight(self):
        g = make_star(4)
        with pytest.raises(ValueError):
            bloom_labelling(g, 10, 11, seed=0)
        with pytest.raises(ValueError):
            bloom_labelling(g, 10, 0, seed=0)


def bloom_table_rows() -> list[tuple[int, int, int]]:
    """(star edges, universe size, label weight) of each default bloom-table row."""
    rows = []
    for e in BLOOM_TABLE_DEFAULT:
        m = optimal_rank(e).size
        rows.append((e, m, optimal_label_weight_int(m, 2)))
    return rows


class TestDrawMatchesSample:
    """_draw_masks must make the same getrandbits calls as Random.sample, so
    every mask and the generator's state afterwards match the reference."""

    @staticmethod
    def assert_same_draw(edge_count: int, m: int, k: int, seed) -> None:
        ours, reference = random.Random(seed), random.Random(seed)
        assert _draw_masks(ours, edge_count, m, k) == sample_draw_masks(reference, edge_count, m, k)
        assert ours.getstate() == reference.getstate()

    def test_every_small_universe_and_weight(self):
        # covers both of sample's branches: the pool swap (m at most its set
        # size threshold) and redraw-until-new (m above it)
        for m in range(1, 65):
            for k in range(1, m + 1):
                for seed in range(3):
                    self.assert_same_draw(4, m, k, seed)

    # 85 and 86 lie either side of sample's set-size threshold at k = 6; a
    # draw of m.bit_length() bits is out of range for 1 of 512 values at
    # m = 511 and for about half of them at 512 and 513
    @pytest.mark.parametrize(
        "m, k", [(502, 13), (68, 4), (21, 7), (85, 6), (86, 6), (511, 13), (512, 13), (513, 13), (4096, 3)]
    )
    def test_benchmark_shapes(self, m, k):
        self.assert_same_draw(300, m, k, 1)

    def test_sparse_universe_builds_no_wide_bit_list(self):
        # a list of every 1 << j below m = 20,000 would take about m**2 / 16
        # bytes, 25 MB, where three edges of weight 2 look up a few bits
        ours, reference = random.Random(1), random.Random(1)
        tracemalloc.start()
        try:
            masks = _draw_masks(ours, 3, 20_000, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert masks == sample_draw_masks(reference, 3, 20_000, 2)
        assert ours.getstate() == reference.getstate()
        assert peak < 4 << 20

    @pytest.mark.parametrize("star_n, m, k", bloom_table_rows())
    def test_bloom_table_rows(self, star_n, m, k):
        for t in range(50):
            self.assert_same_draw(star_n, m, k, f"7:{t}")

    @pytest.mark.parametrize("star_n, m, k", bloom_table_rows())
    def test_empirical_rate_matches_reference(self, star_n, m, k):
        assert tuple(empirical_fpr(star_n, m, k, trials=300, seed=7)) == sample_empirical_fpr(star_n, m, k, 300, 7)


class TestAnalytics:
    def test_reference_rates(self):
        assert analytic_fpr(10, 2, 5 * LN2) == pytest.approx(0.09051, abs=5e-5)
        assert analytic_fpr(18, 2, 9 * LN2) == pytest.approx(0.01324, abs=5e-5)

    def test_rate_approaches_one_for_huge_sets(self):
        assert analytic_fpr(10, 10**6, 3.0) == pytest.approx(1.0)

    def test_optimal_weight_values(self):
        assert optimal_label_weight(10, 2) == pytest.approx(3.4657, abs=1e-4)
        assert optimal_label_weight(21, 2) == pytest.approx(7.2780, abs=1e-4)
        assert optimal_label_weight_int(21, 2) == 7

    def test_optimal_weight_clamps_to_one(self):
        assert optimal_label_weight(5, 5) == pytest.approx(LN2)
        assert optimal_label_weight_int(5, 5) == 1

    def test_optimal_weight_simplifies_to_half_power(self):
        for m, n in ((10, 2), (15, 2), (21, 2), (64, 4), (100, 7)):
            k = optimal_label_weight(m, n)
            direct = analytic_fpr(m, n, k)
            assert direct == pytest.approx(0.5**k, rel=1e-12)
            assert direct == pytest.approx((2 ** -LN2) ** (m / n), rel=1e-12)

    def test_at_least_one(self):
        assert at_least_one_fp(0.006, 38) == pytest.approx(0.20442, abs=5e-5)
        assert at_least_one_fp(0.0, 10) == 0.0
        assert at_least_one_fp(1.0, 1) == 1.0

    def test_at_least_one_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            at_least_one_fp(1.5, 3)


class TestExactRate:
    def test_matches_brute_force_enumeration(self):
        for m, k in ((5, 2), (6, 2), (6, 3), (7, 3), (8, 2)):
            assert exact_two_label_fpr(m, k) == pytest.approx(
                brute_force_two_label_fpr(m, k), rel=1e-12
            )

    def test_frozen_reference_value(self):
        assert exact_two_label_fpr(10, 3) == pytest.approx(1415 / 14400, rel=1e-12)

    def test_saturated_weight_gives_certainty(self):
        assert exact_two_label_fpr(9, 9) == pytest.approx(1.0)

    def test_analytic_underestimates_at_small_universe(self):
        gap = exact_two_label_fpr(10, 3) - analytic_fpr(10, 2, 3.0)
        assert 0.005 < gap < 0.008


class TestEmpiricalRate:
    def test_deterministic_under_fixed_seed(self):
        a = empirical_fpr(10, 10, 3, trials=2000, seed=5)
        b = empirical_fpr(10, 10, 3, trials=2000, seed=5)
        assert a == b

    def test_seed_changes_the_draw(self):
        a = empirical_fpr(10, 10, 3, trials=2000, seed=5)
        b = empirical_fpr(10, 10, 3, trials=2000, seed=6)
        assert a.rate != b.rate

    def test_converges_to_exact_rate(self):
        rate, stderr = empirical_fpr(10, 10, 3, trials=20_000, seed=1)
        assert abs(rate - exact_two_label_fpr(10, 3)) <= 3 * stderr

    def test_converges_on_larger_star(self):
        rate, stderr = empirical_fpr(40, 21, 7, trials=5_000, seed=2)
        assert abs(rate - exact_two_label_fpr(21, 7)) <= 3 * stderr

    def test_saturated_weight(self):
        rate, stderr = empirical_fpr(10, 8, 8, trials=50, seed=0)
        assert rate == 1.0
        assert stderr == 0.0


def trial_shards(star_n: int, m: int, k: int, trials: int, seed: int, shards: int) -> list[int]:
    """The hit counts of empirical_fpr's shards, shard i taking every
    shards-th trial from i, each counted in this process."""
    return [bloom._trial_hits(star_n, m, k, seed, range(i, trials, shards)) for i in range(shards)]


def rate_of(hits: int, star_n: int, trials: int) -> tuple[float, float]:
    observations = trials * (star_n - 2)
    rate = hits / observations
    return rate, math.sqrt(rate * (1.0 - rate) / observations)


class TestTrialShards:
    """empirical_fpr adds the hit counts of trial shards taken by stride;
    every split gives the one-call rate."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("star_n, m, k", [*bloom_table_rows(), (10, 10, 3)])
    def test_summed_shards_equal_one_call(self, star_n, m, k, shards):
        trials = 300
        hits = sum(trial_shards(star_n, m, k, trials, 7, shards))
        assert rate_of(hits, star_n, trials) == tuple(empirical_fpr(star_n, m, k, trials, 7))


@pytest.mark.forks
@pytest.mark.usefixtures("deadline")
class TestEmpiricalWorkers:
    """Above the cutoff the trials run in forked workers, which end with the call."""

    STAR = (10, 10, 3)
    TRIALS = 2000  # 20,000 labels, above the cutoff

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_sharded_call_equals_in_process_count(self):
        star_n, m, k = self.STAR
        assert self.TRIALS * star_n >= routing._SHARD_UNITS
        (hits,) = trial_shards(star_n, m, k, self.TRIALS, 5, 1)
        assert tuple(empirical_fpr(star_n, m, k, self.TRIALS, 5)) == rate_of(hits, star_n, self.TRIALS)
        assert multiprocessing.active_children() == []

    def test_failing_worker_raises(self, monkeypatch, capfd):
        count = bloom._trial_hits

        def patched(star_n, m, k, seed, trials):
            if trials.start == 1:
                raise ValueError("trials from 1 failed")
            return count(star_n, m, k, seed, trials)

        monkeypatch.setattr(bloom, "_trial_hits", patched)
        with pytest.raises(ValueError, match="trials from 1 failed") as raised:
            empirical_fpr(*self.STAR, self.TRIALS, 5)
        assert multiprocessing.active_children() == []
        (note,) = raised.value.__notes__
        assert note.startswith("raised in Bloom worker ") and f"worker {os.getpid()}:" not in note
        assert ", in patched\n" in note and note.endswith("ValueError: trials from 1 failed")
        assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(
    "call, args, message",
    [
        (analytic_fpr, (0, 2, 1.0), "need m >= 1 and n >= 1"),
        (analytic_fpr, (4, 0, 1.0), "need m >= 1 and n >= 1"),
        (analytic_fpr, (4, 2, 0.0), "label weight must be positive"),
        (analytic_fpr, (4, 2, -1.0), "label weight must be positive"),
        (optimal_label_weight, (0, 2), "need m >= 1 and n >= 1"),
        (optimal_label_weight, (4, 0), "need m >= 1 and n >= 1"),
        (at_least_one_fp, (1.5, 3), "probability must lie in [0, 1]"),
        (at_least_one_fp, (0.5, -1), "edge count must be non-negative"),
        (exact_two_label_fpr, (4, 0), "label weight must satisfy 1 <= k <= universe size"),
        (exact_two_label_fpr, (4, 5), "label weight must satisfy 1 <= k <= universe size"),
        (exact_two_label_fpr, (0, 1), "universe size must be at least 1, got 0"),
        (exact_two_label_fpr, (-4, -9), "universe size must be at least 1, got -4"),
        (empirical_fpr, (2, 10, 3, 10, 0), "need star_n >= 3 for at least one off-path edge"),
        (empirical_fpr, (10, 10, 3, 0, 0), "trials must be positive"),
        (empirical_fpr, (10, 3, 10, 10, 0), "label weight must satisfy 1 <= k <= universe size"),
        (empirical_fpr, (5, 0, 1, 10, 1), "universe size must be at least 1, got 0"),
        (bloom_labelling, (make_star(3), 0, 1, 1), "universe size must be at least 1, got 0"),
        (bloom_labelling, (make_star(3), -4, -9, 1), "universe size must be at least 1, got -4"),
        (bloom_labelling, (make_star(3), 4, 5, 1), "label weight must satisfy 1 <= k <= universe size"),
    ],
)
def test_input_checks(call, args, message):
    with pytest.raises(ValueError) as raised:
        call(*args)
    assert type(raised.value) is ValueError and str(raised.value) == message
