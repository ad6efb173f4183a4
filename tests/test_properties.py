"""Property tests on random graphs with at most seven vertices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flipwidth.flips import (FlipSpec, Partition, apply_flip, block_pairs, compose_flips,
                             flip_masks)
from flipwidth.games import (FLIPPER, flip_width, simulate_match, solve_bipartite,
                             solve_cops, solve_copw_prime, solve_definable,
                             solve_flipper, solve_isolation, solve_ordered)
from flipwidth.graphs import (INF, Graph, OrderedGraph, ball_mask, complement,
                              parse_graph, write_graph6)

RADII = st.sampled_from([1, 2, INF])


@st.composite
def graphs(draw, max_n=6, min_n=0):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, kept in zip(pairs, keep) if kept])


# labels of mixed types, as the package's callers use them
LABELS = st.sampled_from([0, 1, 2, "n", ("a", 0), ("a", 1)])


@st.composite
def flips(draw, n):
    """A <= 3-flip of an n-vertex graph: a block label per vertex, then a
    subset of the block pairs."""
    part = Partition(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    pairs = block_pairs(part.size)
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return FlipSpec(part, [p for p, kept in zip(pairs, keep) if kept])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), graphs(max_n=7))
def test_flip_from_labels_toggles_the_listed_label_pairs(data, g):
    # label pairs may name labels that no vertex carries, and repeat
    labels = data.draw(st.lists(LABELS, min_size=g.n, max_size=g.n))
    label_pairs = data.draw(st.lists(st.tuples(LABELS, LABELS), max_size=8))
    spec = FlipSpec.from_labels(labels, label_pairs)
    assert oracles.edges_of(apply_flip(g, spec)) == oracles.flip_by_labels(
        g, labels, label_pairs)
    part, block = Partition.labelled(labels)
    assert spec.partition == part == Partition(labels)
    assert all(block[x] == b for x, b in zip(labels, part.blocks))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), graphs(max_n=7))
def test_compose_flips_is_applying_both(data, g):
    first, second = data.draw(flips(g.n)), data.draw(flips(g.n))
    assert flip_masks(g, compose_flips(g, first, second)) == flip_masks(
        apply_flip(g, first), second)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs(max_n=7))
def test_graph6_round_trips(g):
    text = write_graph6(g)
    assert parse_graph(text, fmt="graph6").adj == g.adj
    assert oracles.decode_graph6(text) == (g.n, oracles.edges_of(g))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), graphs(max_n=9, min_n=1), st.sampled_from([0, 1, 2, 3, INF]))
def test_ball_mask_is_the_ball_outside_the_blocked_set(data, g, r):
    v = data.draw(st.integers(0, g.n - 1))
    blocked = data.draw(st.integers(0, (1 << g.n) - 1))
    assert ball_mask(g.adj, v, r, blocked) == oracles.nx_blocked_ball(g, v, r, blocked)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(), RADII)
def test_flip_width_is_complement_invariant(g, r):
    # the complement is the width-1 flip of the whole vertex set
    assert flip_width(g, r) == flip_width(complement(g), r)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(), RADII, st.integers(1, 3))
def test_flipper_win_survives_a_wider_flip(g, r, k):
    # every k-flip is a (k+1)-flip, so a win stays a win in no more rounds
    sol = solve_flipper(g, r, k)
    wider = solve_flipper(g, r, k + 1)
    if sol.winner == FLIPPER:
        assert wider.winner == FLIPPER
        assert wider.rounds <= sol.rounds


def _solve(game, g, r, k, left):
    if game == "bipartite":
        return solve_bipartite(g, left, r, k)
    if game == "ordered":
        return solve_ordered(OrderedGraph(g), r, k)
    return {"flip": solve_flipper, "dfw": solve_definable, "cop": solve_cops,
            "copprime": solve_copw_prime, "isolation": solve_isolation}[game](g, r, k)


@pytest.mark.parametrize("game", ["flip", "dfw", "bipartite", "ordered", "cop",
                                  "copprime", "isolation"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(max_n=5, min_n=1), RADII, st.integers(1, 3), st.integers(0, 31))
def test_solver_witnesses_play_out_the_solve(game, g, r, k, left):
    # the winner's witness wins against the loser's witness: the pursuer
    # within the solve's rounds, the evader over the whole horizon
    left &= (1 << g.n) - 1
    sol = _solve(game, g, r, k, left)
    horizon = 3 * g.n + 5 if sol.rounds is None else sol.rounds
    trace = simulate_match(game, g, r, k, sol.witness_pursuer, sol.witness_evader,
                           horizon, left_mask=left)
    if sol.rounds is None:
        assert (trace.outcome, trace.rounds) == ("EVADER_SURVIVES", horizon)
    else:
        assert trace.outcome == "PURSUER_WINS"
        assert trace.rounds <= sol.rounds
