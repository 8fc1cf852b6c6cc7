"""bitpath: false-positive-free bit-header encodings of shortest paths.

Edges of a network get fixed-width bit labels, a path is encoded as the
union of its edge labels, and forwarding is a bitwise subset test per
incident edge; labels and headers are plain Python ints. The constructive
labellings here (bit-per-edge, bit-per-vertex, star, and the combined
core/periphery scheme) recognise an edge if and only if it lies on the
encoded shortest path; the bloom module provides the random-label baseline
they are measured against.
"""

from .bloom import (
    EmpiricalRate,
    analytic_fpr,
    at_least_one_fp,
    bloom_labelling,
    empirical_fpr,
    exact_two_label_fpr,
    optimal_label_weight,
    optimal_label_weight_int,
)
from .decompose import (
    Decomposition,
    DecompositionError,
    NotATreeError,
    combine,
    contract,
    core_periphery_universe_size,
    label_core_periphery,
    label_tree,
    perfect_tree_universe_size,
    tree_star_levels,
)
from .graphs import (
    EdgeListParseError,
    Graph,
    NoPathError,
    Path,
    bfs_distances,
    ceil_log2,
    count_shortest_paths,
    emit_edge_list,
    is_connected,
    load_edge_list,
    make_complete,
    make_core_periphery,
    make_perfect_binary_tree,
    make_random_connected,
    make_star,
    shortest_path,
    theoretical_smallest_size,
)
from .labelling import (
    Labelling,
    RankChoice,
    admissible_ranks,
    bit_per_edge,
    bit_per_vertex,
    ceil_nth_root,
    optimal_rank,
    optimal_rank_float,
    star_labelling,
)
from .routing import (
    RoutingTrace,
    VerificationReport,
    encode_path,
    next_hop,
    simulate_delivery,
    verify_no_false_positives,
)

__version__ = "0.1.0"
