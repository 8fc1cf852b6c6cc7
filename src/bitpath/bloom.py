"""Random fixed-weight edge labels and their false-positive arithmetic.

This is the probabilistic baseline the constructive labellings are compared
against: every edge gets a uniformly random k-subset of the universe, so
subset tests can misfire with a calculable probability.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .graphs import Graph
from .labelling import Labelling, _Table
from .routing import _run_shards


def _draw_masks(rng: random.Random, edge_count: int, m: int, k: int) -> list[int]:
    """One mask per edge, each the OR of rng.sample(range(m), k), drawn with
    exactly the getrandbits calls CPython's Random.sample makes: above its
    set-size threshold, redraw m.bit_length() bits while the value is out of
    range or already taken; at or below it, pool-swap over randbelow(n) for
    n = m, m - 1, ..., m - k + 1. The bits 1 << j come from a per-call list
    when the draw makes at least as many lookups as it has entries, which the
    pool swap needs, and otherwise from an empty _Table that stores none."""
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    masks = []
    bit = [1 << j for j in range(m)] if m <= max(setsize, edge_count * k) else _Table((), (1).__lshift__)
    if m > setsize:
        width = m.bit_length()
        for _ in range(edge_count):
            bits = 0
            for _ in range(k):
                j = getrandbits(width)
                while j >= m or bits & bit[j]:
                    j = getrandbits(width)
                bits |= bit[j]
            masks.append(bits)
    else:
        draws = [(n, n.bit_length(), n - 1) for n in range(m, m - k, -1)]
        for _ in range(edge_count):
            pool = bit[:]
            bits = 0
            for n, width, last in draws:
                j = getrandbits(width)
                while j >= n:
                    j = getrandbits(width)
                bits |= pool[j]
                pool[j] = pool[last]
            masks.append(bits)
    return masks


def _check_weight(m: int, k: int) -> None:
    """A Bloom universe has at least one bit and a label weight k fits it."""
    if m < 1:
        raise ValueError(f"universe size must be at least 1, got {m}")
    if not 1 <= k <= m:
        raise ValueError("label weight must satisfy 1 <= k <= universe size")


def bloom_labelling(g: Graph, m: int, k: int, seed: int) -> Labelling:
    """Independent uniform k-subsets of {0..m-1}, one per edge in edge-id
    order; the same seed reproduces the labelling bit for bit. Edge e's mask
    is the OR of the e-th Random(seed).sample(range(m), k) call, drawn with
    CPython's sample algorithm straight from getrandbits."""
    _check_weight(m, k)
    return Labelling(m, _draw_masks(random.Random(seed), g.edge_count, m, k))


def analytic_fpr(m: int, n: int, k: float) -> float:
    """The standard approximation (1 - e^(-k*n/m))^k; k may be real."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if k <= 0:
        raise ValueError("label weight must be positive")
    return (1.0 - math.exp(-k * n / m)) ** k


def optimal_label_weight(m: int, n: int) -> float:
    """The weight (m/n) * ln 2 minimizing analytic_fpr for sets of size n."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return m / n * math.log(2.0)


def optimal_label_weight_int(m: int, n: int) -> int:
    """optimal_label_weight rounded to the nearest usable integer (>= 1)."""
    return max(1, math.floor(optimal_label_weight(m, n) + 0.5))


def at_least_one_fp(per_edge_p: float, off_path_edges: int) -> float:
    """Probability that any of the independently-tested off-path edges is a
    false positive: 1 - (1-p)^count."""
    if not 0.0 <= per_edge_p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if off_path_edges < 0:
        raise ValueError("edge count must be non-negative")
    return 1.0 - (1.0 - per_edge_p) ** off_path_edges


def exact_two_label_fpr(m: int, k: int) -> float:
    """Exact probability that one uniform k-subset lies inside the union of
    two independent uniform k-subsets of {0..m-1}.

    Conditioning on the overlap j of the two on-path labels (hypergeometric)
    gives sum_j P(j) * C(2k-j, k) / C(m, k). This is what the star
    experiment converges to; analytic_fpr underestimates it noticeably for
    small m. Bose et al., "On the false-positive rate of Bloom filters"
    (Information Processing Letters 108(4), 2008), show the same formula is
    only a lower bound on the true rate of a hashed Bloom filter.
    """
    _check_weight(m, k)
    total_labels = math.comb(m, k)
    total = 0
    for j in range(k + 1):
        overlap_ways = math.comb(k, j) * math.comb(m - k, k - j)
        union_size = 2 * k - j
        total += overlap_ways * math.comb(union_size, k)
    return total / (total_labels * total_labels)


class EmpiricalRate(NamedTuple):
    rate: float
    stderr: float


def empirical_fpr(star_n: int, m: int, k: int, trials: int, seed: int) -> EmpiricalRate:
    """Measure the off-path recognition rate on a star with star_n edges.

    Each trial draws a fresh seeded labelling (trial t uses the derived seed
    "{seed}:{t}", so results do not depend on how trials are scheduled),
    picks a random leaf-to-leaf path, and counts how many of the star_n - 2
    off-path edges the 2-edge header recognises. stderr is the pooled
    binomial standard error over trials * (star_n - 2) observations; shared
    headers correlate observations within a trial, so it is a floor.

    The trials are split by stride, shard i of s taking trials range(i,
    trials, s), and the shards' hit counts add up, so the rate is the same
    for every split. From routing._SHARD_UNITS labels drawn (trials *
    star_n, at 1.5-2.8 us a label), routing._run_shards runs one shard per
    usable CPU, forked under the oracle's rules, and the call raises a
    worker's exception; _run_shards holds the measured cost of a fork.
    """
    if star_n < 3:
        raise ValueError("need star_n >= 3 for at least one off-path edge")
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_weight(m, k)
    work = lambda shard: _trial_hits(star_n, m, k, seed, shard)
    hits = sum(_run_shards("Bloom", work, trials, trials * star_n))
    observations = trials * (star_n - 2)
    rate = hits / observations
    stderr = math.sqrt(rate * (1.0 - rate) / observations)
    return EmpiricalRate(rate, stderr)


def _trial_hits(star_n: int, m: int, k: int, seed: int, trials: range) -> int:
    """The number of off-path edges recognised, summed over the trials."""
    hits = 0
    for t in trials:
        rng = random.Random(f"{seed}:{t}")
        masks = _draw_masks(rng, star_n, m, k)
        e1, e2 = rng.sample(range(star_n), 2)
        not_header = ~(masks[e1] | masks[e2])
        # both on-path labels always lie inside the header
        hits += sum(1 for mask in masks if mask & not_header == 0) - 2
    return hits
