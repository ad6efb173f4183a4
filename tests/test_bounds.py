"""Every configured bound of an exhaustive search, one step over its default.

Each case calls a bounded entry point on the smallest input its default
bound refuses, with the function that starts its enumeration replaced by
one that fails the test: the entry point must raise LimitExceeded, naming
itself, the sized quantity and the bound, before it enumerates anything.
"""

import re

import pytest

from flipwidth import certificates, flips, games, params, twinwidth
from flipwidth.certificates import CopsHideout, RichDivision
from flipwidth.errors import LimitExceeded
from flipwidth.graphs import INF, Graph, OrderedGraph, generate

EVENS = sum(1 << v for v in range(0, 11, 2))
POINTS = tuple((v, v) for v in range(13))

# (id, module, function whose call starts the enumeration, entry point, message)
CASES = [
    ("enumerate_k_flips", flips, "rgs_partitions",
     lambda: list(flips.enumerate_k_flips(Graph(9), 3)),
     "enumerate_k_flips at k=3: n=9 exceeds the configured bound 8"),
    ("enumerate_definable_flips", flips, "_subsets_up_to",
     lambda: list(flips.enumerate_definable_flips(Graph(2), 4)),
     "enumerate_definable_flips: k=4 exceeds the configured bound 3"),
    # P10's sides give 372,122 raw flips at k=3, within the work limit;
    # P11's give 1,296,546
    ("enumerate_bipartite_flips", flips, "rgs_partitions",
     lambda: list(flips.enumerate_bipartite_flips(generate("path", 11), EVENS, 3)),
     "enumerate_bipartite_flips at k=3: n=11 exceeds the configured bound 8"),
    # 12 vertices at k=2 are admitted by the k-flip bound, 13 are not, and
    # neither by the (flip, cut) work limit
    ("enumerate_cut_flips", flips, "rgs_partitions",
     lambda: list(flips.enumerate_cut_flips(OrderedGraph(Graph(13)), 2)),
     "enumerate_cut_flips at k=2: n=13 exceeds the configured bound 12"),
    # the binary ordered game is bounded by its raw count alone: P8 gives
    # 209,419 raw flips at k=3, P9 654,931
    ("solve_ordered_binary", flips, "rgs_partitions",
     lambda: games.solve_ordered_binary(OrderedGraph(generate("path", 9)), 1, 3),
     "enumerate_binary_flips at k=3: raw=654931 exceeds the configured bound 500000"),
    ("solve_cops", games, "_reach_table", lambda: games.solve_cops(Graph(11), 1, 1),
     "solve_cops: n=11 exceeds the configured bound 10"),
    ("solve_isolation", games, "_reach_table", lambda: games.solve_isolation(Graph(11), 1, 1),
     "solve_isolation: n=11 exceeds the configured bound 10"),
    ("solve_copw_prime", games, "_reach_table",
     lambda: games.solve_copw_prime(Graph(11), 1, 1),
     "solve_copw_prime: n=11 exceeds the configured bound 10"),
    ("cop_width", games, "_reach_table", lambda: games.cop_width(Graph(11), INF),
     "cop_width: n=11 exceeds the configured bound 10"),
    ("isolation_width", games, "_reach_table", lambda: games.isolation_width(Graph(11), INF),
     "isolation_width: n=11 exceeds the configured bound 10"),
    ("copw_prime_width", games, "_reach_table", lambda: games.copw_prime_width(Graph(11), 1),
     "copw_prime_width: n=11 exceeds the configured bound 10"),
    ("generalized_coloring_number", params, "_wcol_exact",
     lambda: params.generalized_coloring_number(Graph(10), "wcol", 1),
     "generalized_coloring_number(wcol): n=10 exceeds the configured bound 9"),
    ("treewidth_small", params, "_exact_by_subset_dp", lambda: params.treewidth_small(Graph(13)),
     "treewidth_small: n=13 exceeds the configured bound 12"),
    ("rank_width_small", params, "cut_rank", lambda: params.rank_width_small(Graph(9)),
     "rank_width_small: n=9 exceeds the configured bound 8"),
    ("well_linked_check", params, "cut_rank",
     lambda: params.well_linked_check(Graph(15), range(15)),
     "well_linked_check: n=15 exceeds the configured bound 14"),
    ("vc_dimension", params, "_vc", lambda: params.vc_dimension(Graph(21)),
     "vc_dimension: n=21 exceeds the configured bound 20"),
    # every subset of 20 vertices is 2**20 subsets, of 21 vertices 2**21
    ("shatter_function", params, "mask_of", lambda: params.shatter_function(Graph(21), 21),
     "shatter_function: subsets=2097152 exceeds the configured bound 2000000"),
    ("symmetric_difference_param", params, "popcount",
     lambda: params.symmetric_difference_param(Graph(11)),
     "symmetric_difference_param: n=11 exceeds the configured bound 10"),
    ("functionality_param", params, "popcount", lambda: params.functionality_param(Graph(11)),
     "functionality_param: n=11 exceeds the configured bound 10"),
    ("tww_exact_small", twinwidth, "_red_degree_after_merge",
     lambda: twinwidth.tww_exact_small(Graph(11)),
     "tww_exact_small: n=11 exceeds the configured bound 10"),
    ("find_hideout_small", games, "_flip_outcomes",
     lambda: certificates.find_hideout_small(Graph(9), 1, 1, 1),
     "find_hideout_small: n=9 exceeds the configured bound 8"),
    ("verify_cops_hideout", certificates, "_cut_off",
     lambda: certificates.verify_cops_hideout(Graph(4), CopsHideout(frozenset({0, 1}), 1, 4)),
     "verify_cops_hideout: k=4 exceeds the configured bound 3"),
    ("order_cert_check", certificates, "_cut_off",
     lambda: certificates.order_cert_check(Graph(4), (0, 1, 2, 3), 1, 4),
     "order_cert_check: k=4 exceeds the configured bound 3"),
    ("verify_rich_division-parts", certificates, "_intervals_cover",
     lambda: certificates.verify_rich_division(OrderedGraph(Graph(13)),
                                               RichDivision(POINTS, POINTS, 1)),
     "verify_rich_division: parts=13 exceeds the configured bound 12"),
    ("verify_rich_division-k", certificates, "_intervals_cover",
     lambda: certificates.verify_rich_division(OrderedGraph(Graph(4)),
                                               RichDivision(((0, 3),), ((0, 3),), 4)),
     "verify_rich_division: k=4 exceeds the configured bound 3"),
]


@pytest.mark.parametrize("module, starts, call, message",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_one_step_over_the_default_bound_raises_before_enumerating(
        monkeypatch, module, starts, call, message):
    def enumerating(*args, **kwargs):
        pytest.fail(f"{starts} ran before the bound was checked")

    monkeypatch.setattr(module, starts, enumerating)
    with pytest.raises(LimitExceeded, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("n, k", [(6, 2), (6, 3), (10, 3), (20, 1)])
def test_bipartite_work_limit_admits_what_the_stream_counts(n, k):
    """Path sides within the work limit are admitted above the k-flip vertex
    bound (10 vertices at k=3, the sides of the half-graph H_5), and the
    raw count the limit reads is the stream's."""
    g = generate("path", n)
    left = sum(1 << v for v in range(0, n, 2))
    raw = sum(1 << len(pairs) for _, _, pairs, _ in flips.enumerate_bipartite_flips(g, left, k))
    assert raw == flips.count_bipartite_flips((n + 1) // 2, n // 2, k)
    assert raw <= flips.CUT_FLIP_WORK_LIMIT


def test_binary_raw_count_is_the_streams(monkeypatch):
    """count_binary_flips, which the binary ordered game's bound reads, is
    the stream's raw count: 2 edge choices times 3 order choices for each
    cross block pair a partition allows.  The bound is lifted so that the
    stream runs on every n <= 7 at k <= 4."""
    monkeypatch.setattr(flips, "CUT_FLIP_WORK_LIMIT", 1 << 40)
    for n in range(8):
        og = OrderedGraph(Graph(n))
        for k in range(1, 5):
            raw = sum(2 ** len(pairs) * 3 ** len(pairs)
                      for _, _, pairs, _ in flips.enumerate_binary_flips(og, k))
            assert raw == flips.count_binary_flips(n, k), (n, k)


def test_kept_table_bound_raises_before_sieving():
    """A kept table sieves 2**pairs subsets of the pairs a singleton's
    diagonal leaves free: 25 are allowed (five blocks a side in the
    bipartite game), and a partition into 7 blocks with two singletons
    has 26, so its table is refused and not built."""
    pairs = tuple(flips.block_pairs(7))
    with pytest.raises(LimitExceeded, match=re.escape(
            "kept flips over 7 blocks: pairs=26 exceeds the configured bound 25")):
        flips.kept_subsets(7, 0b11, pairs, ())
    assert (7, 0b11, pairs, ()) not in flips._KEPT
