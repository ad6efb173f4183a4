import pytest

import oracles
from conftest import atlas_graphs
from flipwidth.certificates import certificate_from_json
from flipwidth.errors import GenerationError
from flipwidth.flips import Partition, flip_masks
from oracles import FirstLegalEvader
from flipwidth.games import FLIPPER, pursuer_beats_every_evader, simulate_match
from flipwidth.graphs import Graph, generate
from flipwidth.params import shatter_function
from flipwidth.twinwidth import (ContractionSequence, TwinWidthFlipper,
                                 btww_flip_size_bound, red_graph,
                                 sequence_width, tww_exact_small)


def seq_all_merge_first(n):
    """Merge 0,1 then 0,2 ... down to one block."""
    return ContractionSequence(n, [(0, i) for i in range(1, n)])


def test_red_graph_clique_no_red():
    g = generate("clique", 5)
    cs = seq_all_merge_first(5)
    assert sequence_width(g, cs) == 0


def test_twins_merge_keeps_width_small():
    # K_4 minus a perfect matching: matched vertices are twins
    g = Graph(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
    # merging twin pairs (0,2) then (1,3) then the rest stays width <= 1;
    # red-degree trace oracle: every step's partition checked directly
    cs = ContractionSequence(4, [(0, 2), (1, 3), (0, 1)])
    trace = [red_graph(g, parts).max_degree() for parts in cs.partitions()]
    assert max(trace) == sequence_width(g, cs) <= 1


def test_p4_optimal_sequence_width_1():
    g = generate("path", 4)
    assert oracles.tww_exhaustive(g) == 1
    value, cs = tww_exact_small(g)
    assert value == 1
    assert sequence_width(g, cs) == 1


def test_tww_examples():
    assert tww_exact_small(generate("clique", 6))[0] == 0
    c6 = generate("cycle", 6)
    value, cs = tww_exact_small(c6)
    assert value == oracles.tww_exhaustive(c6)
    assert sequence_width(c6, cs) == value


def test_tww_matches_exhaustive(atlas5):
    for g in atlas5[:25]:
        if g.n < 2:
            continue
        assert tww_exact_small(g)[0] == oracles.tww_exhaustive(g)


def test_sequence_validation():
    with pytest.raises(GenerationError):
        ContractionSequence(3, [(0, 0)])
    with pytest.raises(GenerationError):
        ContractionSequence(3, [(0, 1), (1, 2)])    # 1 no longer a block


@pytest.mark.parametrize("merges", [[], [(0, 1)], [(1, 2)]])
def test_sequence_must_end_in_one_block(merges):
    with pytest.raises(GenerationError, match="not one"):
        ContractionSequence(3, merges)


def test_sequence_json_round_trip():
    cs = seq_all_merge_first(4)
    again = certificate_from_json({"kind": "contraction_sequence", **cs.to_json()}, 4)
    assert again.merges == cs.merges


def test_uncontraction_chain_shape():
    cs = seq_all_merge_first(4)
    chain = cs.uncontraction_chain()
    assert len(chain) == 4
    assert len(chain[0]) == 1 and len(chain[-1]) == 4
    for a, b in zip(chain, chain[1:]):
        assert len(b) == len(a) + 1


def test_btww_wins_on_k5():
    g = generate("clique", 5)
    _, cs = tww_exact_small(g)
    policy = TwinWidthFlipper(g, cs, 1)
    ok, rounds = pursuer_beats_every_evader("flip", g, 1, g.n, policy, 3 * g.n)
    assert ok
    assert rounds <= g.n


def test_btww_beats_best_response_with_invariant(atlas6):
    checked = 0
    for g in atlas6:
        if g.n < 2 or g.n > 6:
            continue
        checked += 1
        if checked > 25:
            break
        value, cs = tww_exact_small(g)
        policy = TwinWidthFlipper(g, cs, 1)
        bound = btww_flip_size_bound(g, policy.d, 1,
                                     lambda gg, m: shatter_function(gg, m))

        def on_round(rnd, move, newpos, legal):
            assert move.partition.size <= bound
            masks = tuple(flip_masks(g, move))
            assert policy.invariant_holds(rnd, masks, newpos)

        ok, rounds = pursuer_beats_every_evader("flip", g, 1, g.n, policy,
                                                3 * g.n, on_round=on_round)
        assert ok
        assert rounds <= g.n


def test_btww_literal_bound_when_d_ge_2():
    # the simplified bound pi(2(d+3)d^{2r-1}) + 2(d+3)d^{2r} holds once d >= 2
    g = generate("cycle", 6)
    value, cs = tww_exact_small(g)
    assert value == 2
    policy = TwinWidthFlipper(g, cs, 1)
    d = policy.d
    literal = shatter_function(g, 2 * (d + 3) * d) + 2 * (d + 3) * d * d

    def on_round(rnd, move, newpos, legal):
        assert move.partition.size <= literal

    ok, _ = pursuer_beats_every_evader("flip", g, 1, g.n, policy, 20,
                                       on_round=on_round)
    assert ok


def test_btww_idempotent_after_trap():
    g = generate("clique", 3)
    _, cs = tww_exact_small(g)
    policy = TwinWidthFlipper(g, cs, 1)
    state = policy.start()
    pos = 0
    for _ in range(8):      # run well past n rounds; moves stay well-formed
        move, state = policy.move(state, pos)
        assert move.partition.size >= 1
        assert len(move.partition.blocks) == g.n


def test_spattern_restriction_has_positive_tww():
    # the "eq" pattern is a perfect matching (twin-width 0); the inequality
    # symbols force inhomogeneity already on small vertex subsets
    import itertools
    og = generate("s_pattern", 4, "lel")
    g = og.graph
    found = 0
    for combo in itertools.combinations([0, 1, 5, 16, 17, 20, 21], 4):
        sub = g.subgraph(combo)
        if tww_exact_small(sub)[0] > 0:
            found = tww_exact_small(sub)[0]
            break
    assert found > 0
