import itertools
import random
from functools import partial

import pytest

import oracles
from conftest import atlas_graphs, random_graphs
from oracles import FirstLegalEvader, solve_flipper_concrete
from flipwidth import games
from flipwidth.errors import GenerationError, IllegalMoveError, LimitExceeded
from flipwidth.flips import FlipSpec, Partition, identity_flip
from flipwidth.games import (COPS, FLIPPER, ROBBER, RUNNER, HalfGraphFlipper,
                             IdentityFlipper, RandomFlipper,
                             approx_flip_width, bipartite_flip_width,
                             cop_width, copw_prime_width, definable_flip_width,
                             flip_width, isolation_width, ordered_flip_width,
                             ordered_binary_flip_width,
                             pursuer_beats_every_evader, simulate_match,
                             solve_bipartite, solve_cops, solve_copw_prime,
                             solve_definable, solve_flipper, solve_isolation,
                             solve_ordered, solve_ordered_binary)
from flipwidth.graphs import (INF, Graph, OrderedGraph, bits, complement,
                              disjoint_union, generate)
from flipwidth.params import degeneracy, treewidth_small


# ---------------------------------------------------------------------------
# flipper game


def test_clique_one_flip_win():
    sol = solve_flipper(generate("clique", 5), INF, 1)
    assert sol.winner == FLIPPER
    assert sol.rounds == 1        # the complement flip isolates everyone


def test_edgeless_immediate_win():
    for r in (0, 1, INF):
        sol = solve_flipper(generate("edgeless", 4), r, 1)
        assert sol.winner == FLIPPER
        assert sol.rounds == 1


def test_halfgraph_k3_and_k4():
    h6 = generate("half_graph", 6)
    assert solve_flipper(h6, INF, 3, max_n=12).winner == FLIPPER


def _move_key(move):
    """A move as JSON: none for a Gaifman graph, or a flip, cut-flip or (S, flip)."""
    if isinstance(move, tuple):
        return move[0], move[1].to_json()
    return None if move is None else move.to_json()


def _outcome_key(outcomes):
    return [(_move_key(o.move), o.iso, o.balls) for o in outcomes]


def _outcome_cases(g, ks):
    """(label, engine, stream) for each flip family of g named in ks, at each
    of its widths there: engine(r) gives the outcome list of bulk and
    stream(r) the oracle stream's.  The families are flip, dfw, bipartite
    (when g has a 2-colouring), ordered (the cut-flips) and gaifman (the
    binary ordered game's Gaifman graphs)."""
    from flipwidth import bulk, games
    from flipwidth.flips import (enumerate_binary_flips, enumerate_bipartite_flips,
                                 enumerate_definable_flips, enumerate_k_flips)
    og = OrderedGraph(g)
    left = _bipartition(g)
    cases = []

    def add(label, engine, rules, moves):
        moves = list(moves)
        cases.append((label, engine,
                      lambda r: oracles.outcome_stream(rules(r), moves)))

    for k in ks.get("flip", ()):
        add(f"flip k={k}", partial(games._flip_outcomes, g, k=k, max_n=g.n),
            partial(games._FlipRules, g, k=k),
            oracles.distinct_flips(g, enumerate_k_flips(g, k, max_n=g.n)))
    for k in ks.get("dfw", ()):
        add(f"dfw k={k}", partial(games._definable_outcomes, g, k=k),
            partial(games._DefinableRules, g, k=k),
            oracles.distinct_flips(g, enumerate_definable_flips(g, k)))
    for k in ks.get("bipartite", ()) if left is not None else ():
        add(f"bipartite k={k}",
            lambda r, k=k: bulk.outcomes(g, r, enumerate_bipartite_flips(g, left, k)),
            partial(games._BipartiteRules, g, k=k, left_mask=left),
            oracles.distinct_flips(g, enumerate_bipartite_flips(g, left, k)))
    for k in ks.get("ordered", ()):
        add(f"ordered k={k}", partial(games._cut_flip_outcomes, og, k=k),
            partial(games._OrderedRules, og, k=k), oracles.cut_flip_stream(og, k))
    for k in ks.get("gaifman", ()):
        add(f"gaifman k={k}",
            lambda r, k=k: bulk.outcomes(g, r, enumerate_binary_flips(og, k), bulk.OrderLayer()),
            partial(games._OrderedBinaryRules, og, k=k),
            ((None, rows) for rows in oracles.gaifman_graphs(og, k)))
    return cases


def _assert_engine_matches_stream(g, ks, radii=(0, 1, 2, INF)):
    for label, engine, stream in _outcome_cases(g, ks):
        for r in radii:
            assert _outcome_key(engine(r)) == _outcome_key(stream(r)), (g.adj, label, r)


# every family at k = 1, for n = 0 and paths longer than uint16 rows hold
EVERY_FAMILY_AT_K1 = {f: (1,) for f in ("flip", "dfw", "bipartite", "ordered", "gaifman")}


def test_bulk_outcomes_match_stream():
    """At every radius the numpy engine gives the oracle stream's outcomes
    for every flip family: the same moves, isolated sets and balls, in the
    same order; n = 0 and paths on 17, 33 and 64 vertices included."""
    for g in atlas_graphs(5, min_n=0):
        small = g.n <= 4
        _assert_engine_matches_stream(g, {
            "flip": (1, 2, 3),
            # definable k=3 on five vertices streams 850k raw flips per graph
            "dfw": (0, 1, 2, 3) if small else (0, 1, 2),
            "bipartite": (1, 2, 3),
            "ordered": (1, 2, 3) if small else (1, 2),
            "gaifman": (1, 2, 3) if small else (1, 2)})
    for n in (17, 33):
        _assert_engine_matches_stream(generate("path", n), EVERY_FAMILY_AT_K1)
    _assert_engine_matches_stream(generate("path", 64), EVERY_FAMILY_AT_K1, radii=(0, 1))


def test_bulk_outcomes_do_not_depend_on_the_batch_size(monkeypatch):
    """With batches of 16 (flip, cut) pairs, partitions spread over many
    batches, a partition with 16 or more of them is sliced over several,
    and Gaifman graphs come 16 at a time; the outcomes stay the stream's."""
    from flipwidth import bulk
    monkeypatch.setattr(bulk, "BATCH", 16)
    for g in atlas_graphs(5, min_n=5)[::8]:
        _assert_engine_matches_stream(
            g, {"flip": (3,), "dfw": (2,), "ordered": (2,), "gaifman": (2,)},
            radii=(0, 2, INF))
    for g in atlas_graphs(4, min_n=4)[::3]:
        _assert_engine_matches_stream(g, {"ordered": (3,), "gaifman": (3,)}, radii=(0, 2, INF))
    _assert_engine_matches_stream(Graph(0, []), EVERY_FAMILY_AT_K1)
    for n in (17, 33):
        _assert_engine_matches_stream(generate("path", n), EVERY_FAMILY_AT_K1)
    _assert_engine_matches_stream(generate("path", 64), EVERY_FAMILY_AT_K1, radii=(0, 1))


def test_bulk_outcomes_do_not_depend_on_merges_between_batches(monkeypatch):
    """With batches of 16 pairs merged whenever the kept rows double, the
    rows and their partitions are pruned many times over a stream, and the
    partitions kept are sorted by where they start, once each; the outcomes
    and their moves stay the stream's.  Bipartite partitions allow pairs
    that differ from one partition to the next, so their batches end out
    of stream order."""
    from flipwidth import bulk
    monkeypatch.setattr(bulk, "BATCH", 16)
    monkeypatch.setattr(bulk, "FOLD", 1)
    merges = []
    merge = bulk._merge

    def counted(kept, sources):
        merges.append(len(kept))
        out = merge(kept, sources)
        offsets = [s[0] for s in sources]
        assert offsets == sorted(set(offsets))
        return out

    monkeypatch.setattr(bulk, "_merge", counted)
    for g in atlas_graphs(5, min_n=5)[::16]:
        _assert_engine_matches_stream(
            g, {"flip": (3,), "dfw": (2,), "ordered": (2,), "gaifman": (2,)},
            radii=(0, 2, INF))
    for g in (generate("path", 6), generate("cycle", 6)):
        _assert_engine_matches_stream(g, {"bipartite": (2, 3)}, radii=(0, 2, INF))
    _assert_engine_matches_stream(generate("path", 17), EVERY_FAMILY_AT_K1, radii=(1, INF))
    assert sum(1 for m in merges if m > 1) > 100


def test_radius_inf_solves_the_engine_does_not_take():
    """Graphs outside 1 <= n <= 16, where rows need a wider word than
    uint16: on the empty graph and a 17-vertex path, at r=inf and r=2, the
    engine gives the oracle stream's outcomes."""
    from flipwidth import bulk, games
    from flipwidth.flips import enumerate_k_flips
    for r in (INF, 0, 2):
        sol = solve_flipper(Graph(0, []), r, 1)
        assert (sol.winner, sol.rounds, sol.win_table) == (FLIPPER, 0, {})
    path = generate("path", 17)
    flips = list(oracles.distinct_flips(path, enumerate_k_flips(path, 1)))
    assert _outcome_key(bulk.component_outcomes(path, 1)) == _outcome_key(
        oracles.outcome_stream(games._FlipRules(path, INF, 1), flips))
    assert _outcome_key(bulk.outcomes(path, 2, enumerate_k_flips(path, 1))) == _outcome_key(
        oracles.outcome_stream(games._FlipRules(path, 2, 1), flips))
    assert solve_flipper(path, INF, 1).winner == RUNNER
    assert solve_flipper(path, 2, 1).winner == RUNNER
    with pytest.raises(GenerationError):
        solve_flipper(generate("cycle", 4), INF, 0)


def _engine_key(outcomes):
    """Each outcome's first stream index, iso, balls and move, in order."""
    return (outcomes._index.tolist(), outcomes.iso.tolist(), outcomes.balls.tolist(),
            [_move_key(outcomes[i].move) for i in range(len(outcomes))])


def _kept_and_raw_streams(g, k):
    """(label, stream, raw stream, layer) per flip family of g at width k:
    the package's stream, which skips non-canonical flips, and the
    oracle's, which keeps every pair subset.  The definable family runs to
    its bound k=3 on at most four vertices and the ordered one, which
    crosses each flip with up to 31 cuts, to k=4; on five vertices both
    stop at k=2, so that their raw streams stay short."""
    from flipwidth import bulk
    from flipwidth.flips import (enumerate_bipartite_flips, enumerate_cut_flips,
                                 enumerate_definable_flips, enumerate_k_flips, order_cuts)
    og = OrderedGraph(g)
    left = _bipartition(g)
    cases = [("flip", lambda: enumerate_k_flips(g, k, max_n=g.n),
              lambda: oracles.raw_k_flips(g.n, k), None)]
    if k < 3 or g.n <= 4:
        cases.append(("ordered", lambda: enumerate_cut_flips(og, k, max_n=g.n),
                      lambda: oracles.raw_k_flips(g.n, k), bulk.CutLayer(g.n, order_cuts(g.n, k))))
    if k < 3 or k == 3 and g.n <= 4:
        cases.append(("dfw", lambda: enumerate_definable_flips(g, k),
                      lambda: oracles.raw_definable_flips(g, k), None))
    if left is not None:
        cases.append(("bipartite", lambda: enumerate_bipartite_flips(g, left, k, max_n=g.n),
                      lambda: oracles.raw_bipartite_flips(g, left, k), None))
    return cases


def test_kept_flips_give_the_raw_streams_outcomes():
    """Skipping non-canonical flips changes no outcome: on every atlas graph
    with n <= 5, at k <= 4 (fewer as _kept_and_raw_streams says) and r in
    {0, 1, 2, inf}, the engine gives each family's outcomes with the same
    first stream index, rows and move over the package's stream as over
    the oracle's raw stream, whose partitions are built without
    flipwidth's enumerators."""
    from flipwidth import bulk
    for g in atlas_graphs(5, min_n=0):
        for k in range(1, 5):
            for label, stream, raw, layer in _kept_and_raw_streams(g, k):
                for r in (0, 1, 2, INF):
                    assert _engine_key(bulk.outcomes(g, r, stream(), layer)) == _engine_key(
                        bulk.outcomes(g, r, raw(), layer)), (g.adj, label, k, r)


def test_the_engine_slices_a_kept_array_over_several_batches(monkeypatch):
    """With batches of 16 flips, a partition keeping more than 16 pair
    subsets is reduced a slice at a time, and the outcomes stay those of
    the default batch size."""
    from flipwidth import bulk
    from flipwidth.flips import enumerate_k_flips
    g = generate("path", 5)
    whole = {r: _engine_key(bulk.outcomes(g, r, enumerate_k_flips(g, 4))) for r in (1, INF)}
    slices = []
    reduce = bulk._reduce

    def noted(base, r, batches, sources, layer):
        slices.extend((batch[0][0], len(subs)) for batch, subs in batches if len(batch) == 1)
        return reduce(base, r, batches, sources, layer)

    monkeypatch.setattr(bulk, "BATCH", 16)
    monkeypatch.setattr(bulk, "_reduce", noted)
    stream = list(enumerate_k_flips(g, 4))
    offsets = itertools.accumulate((1 << len(pairs) for _, _, pairs, _ in stream), initial=0)
    long = [(offset, len(kept)) for offset, (_, _, _, kept) in zip(offsets, stream)
            if len(kept) > 16]
    assert long
    for r in (1, INF):
        slices.clear()
        assert _engine_key(bulk.outcomes(g, r, enumerate_k_flips(g, 4))) == whole[r]
        for offset, size in long:
            parts = [m for o, m in slices if o == offset]
            assert len(parts) > 1 and sum(parts) == size and max(parts) <= 16


def test_the_engine_refuses_more_than_64_vertices():
    from flipwidth import bulk
    from flipwidth.flips import enumerate_k_flips
    path = generate("path", 65)
    with pytest.raises(LimitExceeded, match="bound of 64 vertices"):
        bulk.outcomes(path, 1, enumerate_k_flips(path, 1, max_n=65))
    with pytest.raises(LimitExceeded, match="bound of 64 vertices"):
        solve_definable(path, INF, 1)


def _fixpoint_key(won, init):
    """A fixpoint's win table as state -> (rounds, move JSON), and its winner."""
    table = {R: (rd, _move_key(o.move)) for R, (rd, o) in won.items()}
    return table, FLIPPER if all(R in won for R in init) else RUNNER


def test_array_fixpoint_matches_the_dict_fixpoint():
    """The package's array fixpoint gives the dict-based reference's win
    tables, moves and winners on random graphs with 6 to 9 vertices, and
    on paths with 17 and 20 vertices, whose states are uint64 words."""
    cases = [(generate("random_gnp", n, 0.5, seed), r, k)
             for n, seed in ((6, 1), (7, 2), (8, 3), (9, 0))
             for r in (1, 2, INF) for k in (2, 3)]
    cases += [(generate("path", n), r, 1) for n in (17, 20) for r in (1, 2, INF)]
    for g, r, k in cases:
        outcomes = games._flip_outcomes(g, r, k, max_n=g.n)
        init = games._initial_states(games._FlipRules(g, r, k))
        assert _fixpoint_key(games._abstract_solve(outcomes, init, g.n), init) == \
            _fixpoint_key(oracles.abstract_solve(outcomes, init, g.n), init), (g.adj, r, k)


def test_a_solve_builds_an_outcome_only_for_a_move_it_reads(monkeypatch):
    """The engine keeps its outcomes as arrays: a solve builds at most one
    Outcome per state of its win table, not one per distinct outcome."""
    from flipwidth import bulk
    built = []

    class Counted(bulk.Outcome):
        __slots__ = ()

        def __new__(cls, *args):
            built.append(1)
            return super().__new__(cls, *args)

    monkeypatch.setattr(bulk, "Outcome", Counted)
    sol = solve_flipper(generate("random_gnp", 8, 0.5, 0), 1, 3)
    assert 0 < len(built) <= len(sol.win_table)


def test_table_flipper_off_its_table_matches_the_loop():
    """Off its win table the solver's flipper plays the first outcome that
    covers most of the state, as the reference loop picks it; on 17
    vertices the states are uint64 words."""
    rng = random.Random(3)
    for g, r, k in ((generate("cycle", 5), 1, 1), (generate("random_gnp", 6, 0.5, 2), 2, 2),
                    (generate("random_gnp", 7, 0.5, 1), INF, 2), (generate("path", 17), 1, 1)):
        rules = games._FlipRules(g, r, k)
        outcomes = games._flip_outcomes(g, r, k)
        won = games._abstract_solve(outcomes, games._initial_states(rules), g.n)
        flipper = games.TableFlipper(rules, outcomes, won)
        states = [rng.getrandbits(g.n) for _ in range(100)] if g.n > 8 else range(1 << g.n)
        for R in states:
            if R not in won:
                assert flipper._greedy(R) is oracles.greedy_cover(outcomes, won, R), (g.adj, R)


def _random_won_table(rng, n, size):
    """A won table {state: (rounds, None)} on n vertices that keeps
    anti-tone: rounds grows with the state's meet with a random mask."""
    weight = rng.getrandbits(n)
    states = {rng.getrandbits(n) for _ in range(size)}
    return {R: (1 + bin(R & weight).count("1"), None) for R in states}


def _anti_tone_message(check, won):
    try:
        check(won)
    except AssertionError as e:
        return str(e)
    return None


def test_check_anti_tone_matches_the_loop():
    """On random won tables, with and without a planted violation, the
    package's check raises exactly when the reference loop does, naming
    the same first violating pair."""
    rng = random.Random(12)
    planted = 0
    for trial in range(60):
        big = trial % 10 < 2
        if big:
            # over a thousand states, so the package's check runs in chunks
            n, size = rng.choice((16, 64)), 1500
        else:
            n, size = rng.choice((4, 9, 16, 40, 64)), rng.choice((1, 20, 50, 200))
        won = _random_won_table(rng, n, size)
        # in every other table subsets of some states are won after them;
        # in a big one, only a state among the largest, past the first chunk
        plant = 0
        masks = sorted(won)
        for b in ([masks[-1]] if big else rng.sample(masks, min(len(won), 4))) if trial % 2 else ():
            a = b & ~(1 << (b.bit_length() - 1)) if big else b & rng.getrandbits(n)
            if a != b:
                won[a] = (won[b][0] + rng.randint(1, 3), None)
                plant += 1
        planted += plant
        expected = _anti_tone_message(oracles.check_anti_tone, won)
        assert (expected is not None) == (plant > 0)
        assert _anti_tone_message(games.check_anti_tone, won) == expected
    assert planted >= 50
    assert _anti_tone_message(games.check_anti_tone, {}) is None


def test_complement_invariance(atlas5):
    for g in atlas5:
        for r in (1, INF):
            assert flip_width(g, r) == flip_width(complement(g), r)


def test_disjoint_union_bound():
    for seed in range(5):
        g1 = generate("random_gnp", 3, 0.5, seed)
        g2 = generate("random_gnp", 2, 0.6, seed + 50)
        u = disjoint_union([g1, g2])
        for r in (1, INF):
            assert flip_width(u, r) <= max(flip_width(g1, r), flip_width(g2, r)) + 1


def test_fw_monotone_in_radius(atlas5):
    for g in atlas5[:20]:
        values = [flip_width(g, r) for r in (1, 2, 3)]
        assert values == sorted(values)
        assert flip_width(g, INF) >= values[-1] or True  # inf dominates finitely many
        assert values[0] <= values[1] <= values[2]


def test_fw_hereditary(atlas5):
    rng = random.Random(4)
    for g in atlas5[:20]:
        if g.n < 2:
            continue
        keep = sorted(rng.sample(range(g.n), g.n - 1))
        h = g.subgraph(keep)
        for r in (1, INF):
            assert flip_width(h, r) <= flip_width(g, r)


def test_abstract_matches_concrete_solver(atlas5):
    for g in atlas5[:20]:
        for r in (1, INF):
            for k in (1, 2):
                abstract = solve_flipper(g, r, k).winner
                concrete = solve_flipper_concrete(g, r, k)
                assert abstract == concrete


def test_fw_le_copw_plus_exp(atlas5):
    for g in atlas5[:20]:
        for r in (1, INF):
            cw = cop_width(g, r)
            assert flip_width(g, r) <= cw + 2 ** cw


def test_witness_match_reproduces_solution(atlas5):
    for g in atlas5[:12]:
        for r in (1, INF):
            k = flip_width(g, r)
            sol = solve_flipper(g, r, k)
            assert sol.winner == FLIPPER
            trace = simulate_match("flip", g, r, k, sol.witness_pursuer,
                                   sol.witness_evader, 3 * g.n + 5)
            assert trace.outcome == "PURSUER_WINS"
            assert trace.rounds == sol.rounds
            if k > 1:
                low = solve_flipper(g, r, k - 1)
                assert low.winner == RUNNER
                trace = simulate_match("flip", g, r, k - 1, low.witness_pursuer,
                                       low.witness_evader, 3 * g.n + 5)
                assert trace.outcome == "EVADER_SURVIVES"


def test_witness_flipper_beats_every_runner():
    for g in [generate("path", 4), generate("cycle", 5), generate("clique", 4)]:
        for r in (1, INF):
            k = flip_width(g, r)
            sol = solve_flipper(g, r, k)
            ok, worst = pursuer_beats_every_evader("flip", g, r, k,
                                                   sol.witness_pursuer, 4 * g.n)
            assert ok
            assert worst == sol.rounds


def test_identity_flipper_never_wins():
    g = generate("cycle", 4)
    trace = simulate_match("flip", g, 1, 1, IdentityFlipper(4), FirstLegalEvader(), 30)
    assert trace.outcome == "EVADER_SURVIVES"


def test_illegal_flip_width_rejected():
    g = generate("path", 4)

    class TooWide(IdentityFlipper):
        def move(self, state, position):
            return FlipSpec(Partition([0, 1, 2, 3]), []), None

    with pytest.raises(IllegalMoveError, match="round 1"):
        simulate_match("flip", g, 1, 2, TooWide(4), FirstLegalEvader(), 5)


def test_random_flipper_deterministic():
    g = generate("cycle", 5)
    t1 = simulate_match("flip", g, 1, 2, RandomFlipper(5, 2, 9), FirstLegalEvader(), 10)
    t2 = simulate_match("flip", g, 1, 2, RandomFlipper(5, 2, 9), FirstLegalEvader(), 10)
    assert t1.to_json() == t2.to_json()


# ---------------------------------------------------------------------------
# cops


def test_copw1_equals_degeneracy_plus_one(atlas5):
    for g in atlas5:
        assert cop_width(g, 1) == degeneracy(g)[0] + 1


def test_copw_inf_tree():
    tree = generate("path", 6)
    assert cop_width(tree, INF) == 2


def test_copw_star_radius1():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    # degeneracy oracle: star is 1-degenerate, so copw_1 = 2
    assert oracles.degeneracy_by_orders(star) == 1
    assert cop_width(star, 1) == 2


def test_copw_monotone_subgraphs(atlas5):
    rng = random.Random(8)
    for g in atlas5[:15]:
        if g.num_edges() == 0:
            continue
        edges = list(g.edges())
        drop = rng.choice(edges)
        h = Graph(g.n, [e for e in edges if e != drop])
        for r in (1, 2):
            assert cop_width(h, r) <= cop_width(g, r)


def test_copw_sandwich_random():
    from flipwidth.params import generalized_coloring_number
    for g in random_graphs(20, 7, seed=77):
        for r in (1, 2):
            adm, _ = generalized_coloring_number(g, "adm", r)
            wcol2r, _ = generalized_coloring_number(g, "wcol", 2 * r)
            cw = cop_width(g, r)
            assert adm + 1 <= cw <= wcol2r + 1


def test_copw_bounded_degree_example():
    # max-degree-d graphs have copw_r < d^{r+1}; spot-check cubic graphs
    for g in [generate("random_regular", 6, 3, 4),
              generate("random_regular", 6, 3, 11),
              generate("clique", 4)]:
        for r in (1, 2):
            assert cop_width(g, r) < 3 ** (r + 1)


def test_cop_witness_simulation():
    g = generate("cycle", 5)
    k = cop_width(g, 1)
    sol = solve_cops(g, 1, k)
    trace = simulate_match("cop", g, 1, k, sol.witness_pursuer,
                           sol.witness_evader, 3 * g.n)
    assert trace.outcome == "PURSUER_WINS"
    assert trace.rounds == sol.rounds
    low = solve_cops(g, 1, k - 1)
    trace = simulate_match("cop", g, 1, k - 1, low.witness_pursuer,
                           low.witness_evader, 3 * g.n)
    assert trace.outcome == "EVADER_SURVIVES"


def test_copw_inf_equals_treewidth_plus_one(atlas5):
    for g in atlas5:
        assert cop_width(g, INF) == treewidth_small(g) + 1


# ---------------------------------------------------------------------------
# copprime and isolation


def test_copprime_le_copw(atlas5):
    for g in atlas5[:20]:
        for r in (0, 1, 2, INF):
            assert copw_prime_width(g, r) <= cop_width(g, r)


def test_copprime_radius_inf_is_radius_n(atlas5):
    # no path in G is longer than n - 1 edges
    for g in atlas5:
        for k in (1, 2):
            inf, far = solve_copw_prime(g, INF, k), solve_copw_prime(g, max(g.n, 1), k)
            assert (inf.winner, inf.rounds, inf.win_table) == (far.winner, far.rounds,
                                                              far.win_table)


def test_copprime_sandwich(atlas5):
    from flipwidth.params import generalized_coloring_number
    for g in random_graphs(15, 7, seed=88):
        for r in (1, 2):
            adm, _ = generalized_coloring_number(g, "adm", r)
            scol, _ = generalized_coloring_number(g, "scol", r)
            assert adm + 1 <= copw_prime_width(g, r) <= scol + 1


def test_iw_k3():
    k3 = generate("clique", 3)
    assert isolation_width(k3, 1) == 2
    for k, cops_win in ((2, True), (1, False)):
        won = oracles.cop_game_oracle("isolation", k3, 1, k)
        assert all((frozenset(), v) in won for v in range(3)) == cops_win


COP_SOLVERS = {"cop": solve_cops, "isolation": solve_isolation, "copprime": solve_copw_prime}


@pytest.mark.parametrize("game", list(COP_SOLVERS))
def test_cop_games_match_the_oracle(game):
    """Every recorded state's rounds, and each won state's move (the win
    table's for copprime, the witness's otherwise), equal the explicit-state
    oracle's on atlas graphs with n <= 5, the empty graph included.  The cop
    and isolation games stop at k = 2 on five vertices, where the oracle's
    80 states take most of the time; the win-table digest pins k = 3."""
    for g in atlas_graphs(5, min_n=0):
        for r in (0, 1, 2, INF):
            for k in range(4 if game == "copprime" or g.n <= 4 else 3):
                sol = COP_SOLVERS[game](g, r, k)
                want = oracles.cop_game_oracle(game, g, r, k)
                if game == "copprime":
                    got = {v: (rd, frozenset(move["cops"]))
                           for v, (rd, move) in sol.win_table.items()}
                else:
                    got = {(frozenset(bits(s)), v): (rd, sol.witness_pursuer.move(s, v)[0])
                           for (s, v), (rd, _) in sol.win_table.items()}
                assert got == want, (game, g.n, sorted(g.edges()), r, k)
                starts = [v if game == "copprime" else (frozenset(), v) for v in range(g.n)]
                assert (sol.winner == COPS) == all(s in want for s in starts)


@pytest.mark.parametrize("game, width", [("cop", cop_width), ("isolation", isolation_width),
                                         ("copprime", copw_prime_width)])
def test_cop_width_searches_build_the_reach_table_once(monkeypatch, game, width):
    """A width search builds the reach table once, solves each k up to its
    value, and finds the least k at which the game's solver wins."""
    calls = {"reach": 0, "solves": 0}
    reach_table, solve_family = games._reach_table, games._solve_cops_family

    def counted_reach(*args):
        calls["reach"] += 1
        return reach_table(*args)

    def counted_solve(*args):
        calls["solves"] += 1
        return solve_family(*args)

    g = generate("random_gnp", 8, 0.5, 3)
    for r in (1, INF):
        want = next(k for k in range(1, g.n + 1) if COP_SOLVERS[game](g, r, k).winner == COPS)
        calls.update(reach=0, solves=0)
        with monkeypatch.context() as m:
            m.setattr(games, "_reach_table", counted_reach)
            m.setattr(games, "_solve_cops_family", counted_solve)
            assert width(g, r) == want
        assert calls == {"reach": 1, "solves": want}


def test_iw_edgeless():
    assert isolation_width(generate("edgeless", 4), 1) == 1


def test_iw_copw_sandwich(atlas6):
    for g in atlas6[:60]:
        for r in (1, 2):
            iw = isolation_width(g, r)
            cw = cop_width(g, r)
            assert iw <= cw <= 2 * iw


# ---------------------------------------------------------------------------
# definable game


def brute_definable_decision(g, r, k):
    return solve_flipper_concrete(g, r, k, definable=True)


def test_dfw_matches_bruteforce(atlas6):
    for g in atlas6[:40]:
        for k in (0, 1, 2):
            for r in (1,):
                assert solve_definable(g, r, k).winner == brute_definable_decision(g, r, k)


def test_dfw_trivial_bound(atlas5):
    for g in atlas5[:20]:
        for r in (1, INF):
            assert flip_width(g, r) <= 2 ** max(definable_flip_width(g, r), 0) \
                or definable_flip_width(g, r) == 0 and flip_width(g, r) <= 1


def test_dfw_edgeless_zero():
    assert definable_flip_width(generate("edgeless", 5), 1) == 0


def test_approx_upper_k8():
    verdict = approx_flip_width(generate("clique", 8), 1, 1)
    assert verdict.kind == "UPPER"
    assert verdict.bound == 2


def test_approx_lower_when_dfw_large():
    g = generate("gf2_dot_product", 2)
    verdict = approx_flip_width(g, 1, 0)
    expect = solve_definable(g, 1, 0).winner
    assert (verdict.kind == "UPPER") == (expect == FLIPPER)


def test_approx_consistent_with_exact(atlas5):
    for g in atlas5[:15]:
        for k in (0, 1, 2):
            verdict = approx_flip_width(g, 1, k)
            if verdict.kind == "UPPER":
                assert flip_width(g, 1) <= 2 ** k


# ---------------------------------------------------------------------------
# ordered game and binary structures


def all_ordered_graphs(n):
    out = []
    for edges in oracles.all_labeled_graphs(n):
        out.append(OrderedGraph(oracles.graph_from_edges(n, edges)))
    return out


def test_last_searches_on_the_empty_graph():
    # the empty graph is won at width 1, in one round when the runner picks
    # round 1 freely, as in the ordered game
    empty = OrderedGraph(Graph(0))
    assert bipartite_flip_width(Graph(0), 0, 1) == 1
    assert ordered_binary_flip_width(empty, 1) == 1
    binary = solve_ordered_binary(empty, 1, 1)
    ordered = solve_ordered(empty, 1, 1)
    assert (binary.winner, binary.rounds) == (ordered.winner, ordered.rounds) == (FLIPPER, 1)


def test_ordered_single_vertex():
    sol = solve_ordered(OrderedGraph(Graph(1)), 1, 1)
    assert sol.winner == FLIPPER
    assert sol.rounds == 1


def test_ordered_flip_width_inequality_n3():
    # sqrt(fw_r+1) <= fw_r^< + 1 <= fw_{3r+2}+1, instance-wise at r=1
    for og in all_ordered_graphs(3):
        fwo = ordered_flip_width(og, 1)
        fw1 = ordered_binary_flip_width(og, 1)
        fw5 = ordered_binary_flip_width(og, 5)
        assert (fw1 + 1) ** 0.5 <= fwo + 1 <= fw5 + 1


def test_ordered_k3_value():
    og = OrderedGraph(generate("clique", 3))
    v = ordered_flip_width(og, 1)
    assert 1 <= v <= 3


@pytest.mark.parametrize("family,n", [("path", 4), ("cycle", 5), ("path", 5)])
def test_ordered_witness_checked_exhaustively(family, n):
    # the table flipper's state is the last cut-flip's (weight0, weight1)
    # rows, which the exhaustive check memoises on
    og = OrderedGraph(generate(family, n))
    for k in (1, 2, 3):
        sol = solve_ordered(og, 1, k)
        ok, worst = pursuer_beats_every_evader("ordered", og.graph, 1, k,
                                               sol.witness_pursuer, 10)
        assert ok == (sol.winner == FLIPPER), k
        if ok:
            assert worst == sol.rounds, k


def _binary_game_bruteforce(og, r, k):
    """Literal binary-structure flipper game: enumerate ALL relation-level
    flips of E and < (asymmetric ones included), play on Gaifman graphs."""
    from flipwidth.graphs import ball_mask
    g = og.graph
    n = g.n
    base_edges = {(u, v) for u in range(n) for v in range(n)
                  if u != v and g.has_edge(u, v)}
    base_lt = {(u, v) for u in range(n) for v in range(n) if u < v}
    gaifmans = set()
    for blocks in _partitions_upto(n, k):
        b = max(blocks) + 1
        opairs = [(i, j) for i in range(b) for j in range(b)]
        for esub in range(1 << len(opairs)):
            eprime = set(base_edges)
            for t, (i, j) in enumerate(opairs):
                if (esub >> t) & 1:
                    for u in range(n):
                        for v in range(n):
                            if blocks[u] == i and blocks[v] == j:
                                eprime ^= {(u, v)}
            for lsub in range(1 << len(opairs)):
                lt = set(base_lt)
                for t, (i, j) in enumerate(opairs):
                    if (lsub >> t) & 1:
                        for u in range(n):
                            for v in range(n):
                                if blocks[u] == i and blocks[v] == j:
                                    lt ^= {(u, v)}
                masks = [0] * n
                for (u, v) in eprime | lt:
                    if u != v:
                        masks[u] |= 1 << v
                        masks[v] |= 1 << u
                gaifmans.add(tuple(masks))
    # abstract fixpoint over the collected Gaifman graphs
    outcomes = []
    for masks in sorted(gaifmans):
        iso = 0
        for v in range(n):
            if masks[v] == 0:
                iso |= 1 << v
        balls = tuple(ball_mask(masks, v, r) for v in range(n))
        outcomes.append((iso, balls))
    full = (1 << n) - 1
    won = set()
    while True:
        new = set()
        for R in range(1, full + 1):
            if R in won:
                continue
            for iso, balls in outcomes:
                ok = True
                m = R
                while m:
                    u = (m & -m).bit_length() - 1
                    m &= m - 1
                    if not (iso >> u) & 1 and balls[u] not in won:
                        ok = False
                        break
                if ok:
                    new.add(R)
                    break
        if not new:
            break
        won |= new
    return FLIPPER if full in won else RUNNER


def _partitions_upto(n, k):
    blocks = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(blocks)
            return
        for c in range(min(used + 1, k)):
            blocks[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(1, 1) if n > 1 else iter([(0,) * n])


def test_binary_gaifman_matches_literal_bruteforce():
    # the symmetric-flip Gaifman shortcut computes the same game decision as
    # literal (asymmetric included) relation flips; n=2,3 exhaustively
    from flipwidth.games import solve_ordered_binary
    for n in (2, 3):
        for og in all_ordered_graphs(n):
            for k in (1, 2):
                got = solve_ordered_binary(og, 1, k).winner
                want = _binary_game_bruteforce(og, 1, k)
                assert got == want, (og.graph.adj, k)


def test_order_layer_matches_the_reference_on_uint64_rows():
    """The engine's order masks on 17 to 64 vertices, where rows are uint64
    and the outcome tests reach only one block, equal oracles.order_layer
    for every order flip over random 2- and 3-block partitions."""
    import numpy as np
    from flipwidth import bulk
    rng = random.Random(5)
    for n in (17, 40, 64):
        for b in (2, 3):
            # every block is met: the last b vertices lie one in each
            parts = [Partition([rng.randrange(b) for _ in range(n - b)] + list(range(b)))
                     for _ in range(3)]
            blocks = np.array([p.blocks for p in parts], dtype=np.intp)
            bm = np.array([p.block_masks() for p in parts], dtype=np.uint64)
            masks = bulk.OrderLayer().masks(bm, blocks)
            cross = list(itertools.combinations(range(b), 2))
            for c, part in enumerate(parts):
                for j, choice in enumerate(itertools.product(range(3), repeat=len(cross))):
                    assert tuple(int(masks[v][c, j]) for v in range(n)) == oracles.order_layer(
                        part, part.block_masks(), cross, choice[::-1]), (n, b, c, j)


def test_ordered_runner_vs_pattern():
    # a verified 2-rich division forces the runner to win at k=1, r=1
    from flipwidth.certificates import pattern_rich_division, verify_rich_division
    og = generate("s_pattern", 2, "eq")       # 8 vertices, 1-rich division
    cert = pattern_rich_division(og, 2)
    assert verify_rich_division(og, cert)
    # richness k=1 means width-0 flippers fail; the solver value is >= 1
    assert solve_ordered(og, 1, 0 + 1).winner in (FLIPPER, RUNNER)


# ---------------------------------------------------------------------------
# bipartite game


def test_bipartite_fw_vs_fw(atlas4):
    # fw_r(bipartite g) <= 2 * bfw_r(g)
    for g in atlas4:
        if g.n < 2:
            continue
        side = _bipartition(g)
        if side is None:
            continue
        for r in (1, INF):
            bfw = bipartite_flip_width(g, side, r)
            assert flip_width(g, r) <= 2 * bfw


def _bipartition(g):
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in color:
                    if color[w] == color[u]:
                        return None
                else:
                    color[w] = 1 - color[u]
                    stack.append(w)
    mask = 0
    for v, c in color.items():
        if c == 0:
            mask |= 1 << v
    return mask


def test_position_set_abstraction_sound(atlas5):
    # n <= 5, k <= 2: abstract solver agrees with (flip, vertex) states
    for g in atlas5[8:28]:
        for k in (1, 2):
            assert solve_flipper(g, 1, k).winner == solve_flipper_concrete(g, 1, k)


def test_position_set_abstraction_sound_on_random_graphs():
    # n <= 6, r in {1, 2, inf}, k <= 2: the same agreement on random graphs
    for g in random_graphs(30, 6, seed=13):
        for r in (1, 2, INF):
            for k in (1, 2):
                assert solve_flipper(g, r, k).winner == solve_flipper_concrete(g, r, k), (
                    g.adj, r, k)


def test_solution_json_round_trip():
    g = generate("path", 4)
    sol = solve_flipper(g, 1, 2)
    obj = sol.to_json(witness=True)
    assert obj["game"] == "flip" and obj["k"] == 2
    assert isinstance(obj["witness"], dict) and obj["witness"]


def test_gf2_lower_verdict():
    # the 3-dimensional dot-product graph resists S = {} flips at k = 0
    g = generate("gf2_dot_product", 3)
    verdict = approx_flip_width(g, 1, 0)
    assert verdict.kind == "LOWER"
    assert solve_definable(g, 1, 0).winner == RUNNER
