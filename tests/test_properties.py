"""Property tests on random graphs with at most six vertices."""

from hypothesis import given, settings
from hypothesis import strategies as st

from flipwidth.games import FLIPPER, flip_width, solve_flipper
from flipwidth.graphs import INF, Graph, complement

RADII = st.sampled_from([1, 2, INF])


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, kept in zip(pairs, keep) if kept])


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
