import itertools

import pytest

from conftest import atlas_graphs
from oracles import distinct_flips
from flipwidth.errors import GenerationError, ParseError
from flipwidth.flips import FlipSpec, Partition, enumerate_k_flips
from flipwidth.games import (FLIPPER, RUNNER, bipartite_flip_width,
                             flip_width, pursuer_beats_every_evader,
                             simulate_match, solve_bipartite, solve_flipper)
from flipwidth.graphs import (INF, ColoredGraph, Graph, complement,
                              disjoint_union, generate, lexicographic_product,
                              semi_induced)
from flipwidth.transfer import (BipartiteSplitMap, FlipMap,
                                ModularLiftFlipper, SubstitutionNode,
                                TransferredFlipper, is_modular, parse_formula,
                                qf_interpret, quotient_graph,
                                substitution_build, substitution_strategy)


def colored(g, colors=None):
    return ColoredGraph(g, colors or [1] * g.n)


def test_parse_formula_syntax():
    f = parse_formula("!E(x,y) & (C1(x) | x=y)")
    assert "E(x,y)" in repr(f)
    with pytest.raises(ParseError):
        parse_formula("E(x,z)")
    with pytest.raises(ParseError):
        parse_formula("E(x,y) &")


def test_formula_symmetry_check():
    assert parse_formula("E(x,y)").is_symmetric((1, 1))
    assert parse_formula("!E(x,y)").is_symmetric((1, 1))
    assert not parse_formula("C1(x) & C2(y)").is_symmetric((1, 2))


def test_interpret_negation_is_complement(atlas4):
    neg = parse_formula("!E(x,y) & !x=y")
    for g in atlas4:
        assert qf_interpret(colored(g), neg).adj == complement(g).adj


def test_interpret_edge_is_identity(atlas4):
    ident = parse_formula("E(x,y)")
    for g in atlas4:
        assert qf_interpret(colored(g), ident).adj == g.adj


def test_interpret_color_clique():
    g = Graph(4)
    cg = ColoredGraph(g, (1, 1, 2, 1))
    phi = parse_formula("C1(x) & C1(y)")
    out = qf_interpret(cg, phi)
    # truth-table oracle: edges exactly between color-1 vertices
    expect = {frozenset((u, v)) for u in range(4) for v in range(4)
              if u < v and cg.colors[u] == 1 and cg.colors[v] == 1}
    assert {frozenset(e) for e in out.edges()} == expect


def test_interpret_rejects_missing_color():
    with pytest.raises(GenerationError):
        qf_interpret(colored(Graph(2)), parse_formula("C3(x)"))


# ---------------------------------------------------------------------------
# flip maps


def test_flip_map_complement_identity_flip():
    # on a graph with distant pairs, the identity flip maps to the
    # all-pairs-flipped flip of the complement, recovering G itself
    g = generate("path", 4)
    fm = FlipMap(colored(g), parse_formula("!E(x,y)"))
    mapped = fm.map(FlipSpec(Partition([0] * 4), []))
    from flipwidth.flips import apply_flip
    assert apply_flip(fm.target, mapped).adj == g.adj
    # on a complete graph no pair is distant, so nothing is forced
    k4 = generate("clique", 4)
    fmk = FlipMap(colored(k4), parse_formula("!E(x,y)"))
    assert fmk.map(FlipSpec(Partition([0] * 4), [])).pairs == frozenset()


def test_flip_map_width_bound():
    # a k-flip of a c-colored graph maps to a (k*c)-flip: T_0(k) = k per color
    g = generate("random_gnp", 6, 0.5, 3)
    cg = ColoredGraph(g, (1, 2, 1, 2, 1, 2))
    fm = FlipMap(cg, parse_formula("E(x,y) & C1(x) & C1(y)"))
    for spec, _ in distinct_flips(g, enumerate_k_flips(g, 2)):
        mapped = fm.map(spec)
        assert mapped.partition.size <= spec.partition.size * 2


def test_flip_map_stretch_invariant_all_pairs():
    g = generate("random_gnp", 6, 0.5, 11)
    cg = ColoredGraph(g, (1, 1, 2, 2, 1, 2))
    fm = FlipMap(cg, parse_formula("!E(x,y) & !(C2(x) & C2(y))"))
    from flipwidth.flips import flip_masks
    for spec, g_masks in distinct_flips(g, enumerate_k_flips(g, 2)):
        mapped = fm.map(spec)       # map() asserts the invariant internally
        h_masks = flip_masks(fm.target, mapped)
        for u in range(6):
            assert h_masks[u] & ~g_masks[u] == 0


def test_transfer_complement_wins(atlas5):
    for g in atlas5[:12]:
        for r in (1, INF):
            k = flip_width(g, r)
            sol = solve_flipper(g, r, k)
            fm = FlipMap(colored(g), parse_formula("!E(x,y)"))
            moved = TransferredFlipper(fm, sol.witness_pursuer, r)
            ok, _ = pursuer_beats_every_evader("flip", complement(g), r, k,
                                               moved, 4 * g.n + 4)
            assert ok


def test_transfer_k5_to_edgeless():
    g = generate("clique", 5)
    sol = solve_flipper(g, INF, 1)
    fm = FlipMap(colored(g), parse_formula("!E(x,y)"))
    moved = TransferredFlipper(fm, sol.witness_pursuer, INF)
    ok, rounds = pursuer_beats_every_evader("flip", complement(g), INF, 1,
                                            moved, 10)
    assert ok and rounds == 1


def test_stretch_composition():
    g = generate("cycle", 5)
    fm1 = FlipMap(colored(g), parse_formula("E(x,y)"))
    fm2 = FlipMap(colored(fm1.target), parse_formula("!E(x,y)"))
    assert fm1.stretch * fm2.stretch == 1


# ---------------------------------------------------------------------------
# bipartite split map


def test_semi_induced_transfer(atlas5):
    # disjoint X, Y: the part-splitting projection is sound
    import random
    rng = random.Random(23)
    for g in atlas5[5:17]:
        if g.n < 4:
            continue
        picks = rng.sample(range(g.n), 4)
        xs, ys = sorted(picks[:2]), sorted(picks[2:])
        fm = BipartiteSplitMap(g, xs, ys)
        for r in (1, INF):
            k = flip_width(g, r)
            bfw = bipartite_flip_width(fm.target, fm.left_mask(), r)
            assert bfw <= k


def test_semi_induced_overlap_counterexample():
    # overlapping copies break the part-splitting lemma: flips of G[X,Y] can
    # join the two copies of one vertex, which projects to a self-loop
    g = generate("clique", 3)
    sub, nx = semi_induced(g, [0, 2], [0, 2])
    left = (1 << nx) - 1
    assert flip_width(g, 1) == 1
    assert bipartite_flip_width(sub, left, 1) == 2


def test_split_map_paths_project():
    g = generate("cycle", 4)
    fm = BipartiteSplitMap(g, [0, 1], [1, 2])
    from flipwidth.flips import apply_flip
    for spec, src in distinct_flips(g, enumerate_k_flips(g, 2)):
        mapped = fm.map(spec)
        h = apply_flip(fm.target, mapped)
        origin = fm.xs + fm.ys
        for i in range(h.n):
            for j in h.neighbors(i):
                u, v = origin[i], origin[j]
                if u != v:
                    assert (src[u] >> v) & 1


# ---------------------------------------------------------------------------
# modular lifts and substitution


def test_is_modular():
    g = lexicographic_product(generate("clique", 2), generate("clique", 3))
    part = Partition([0, 0, 0, 1, 1, 1])
    assert is_modular(g, part)
    assert not is_modular(generate("path", 4), Partition([0, 0, 1, 1]))


def test_quotient_graph():
    g = lexicographic_product(generate("path", 3), generate("edgeless", 2))
    part = Partition([0, 0, 1, 1, 2, 2])
    q = quotient_graph(g, part)
    assert q.adj == generate("path", 3).adj


def test_modular_lift_wins_lex_k2_k3():
    h, kgraph = generate("clique", 2), generate("clique", 3)
    g = lexicographic_product(h, kgraph)
    part = Partition([0, 0, 0, 1, 1, 1])
    qsol = solve_flipper(h, INF, 1)
    bsols = {i: solve_flipper(kgraph, INF, 1).witness_pursuer for i in range(2)}
    policy = ModularLiftFlipper(g, part, qsol.witness_pursuer, bsols)
    width = max(1, 1 + 2)
    ok, rounds = pursuer_beats_every_evader("flip", g, INF, width, policy, 30)
    assert ok


def test_modular_lift_rejects_non_modular():
    g = generate("path", 4)
    with pytest.raises(GenerationError):
        ModularLiftFlipper(g, Partition([0, 0, 1, 1]), None, {})


def test_disjoint_union_via_trivial_quotient():
    g1 = generate("cycle", 3)
    g2 = generate("clique", 2)
    g = disjoint_union([g1, g2])
    part = Partition([0, 0, 0, 1, 1])
    q = quotient_graph(g, part)
    assert q.num_edges() == 0
    k1, k2 = flip_width(g1, INF), flip_width(g2, INF)
    kq = flip_width(q, INF)
    policy = ModularLiftFlipper(
        g, part, solve_flipper(q, INF, kq).witness_pursuer,
        {0: solve_flipper(g1, INF, k1).witness_pursuer,
         1: solve_flipper(g2, INF, k2).witness_pursuer})
    width = max(kq, max(k1, k2) + 2)
    ok, _ = pursuer_beats_every_evader("flip", g, INF, width, policy, 40)
    assert ok
    # the +1 disjoint-union bound re-derived via the exact solver
    assert flip_width(g, INF) <= max(k1, k2) + 1


def test_substitution_triangles_into_path():
    tri = generate("clique", 3)
    node = SubstitutionNode(generate("path", 3), {0: tri, 1: tri, 2: tri})
    graph, partition, children = substitution_build(node)
    assert graph.n == 9
    assert is_modular(graph, partition)

    def strategy_for(g):
        k = flip_width(g, 1)
        return solve_flipper(g, 1, k).witness_pursuer

    built, policy = substitution_strategy(node, 1, strategy_for)
    assert built.adj == graph.adj
    kbound = max(flip_width(generate("path", 3), 1), flip_width(tri, 1) + 2)
    ok, _ = pursuer_beats_every_evader("flip", built, 1, kbound, policy, 60)
    assert ok


def test_lemma_fw_bfw(atlas5):
    # fw_r(bipartite g) <= 2 bfw_r(g) on bipartite atlas graphs
    from test_games import _bipartition
    for g in atlas5[:20]:
        if g.n < 2:
            continue
        side = _bipartition(g)
        if side is None or side in (0, (1 << g.n) - 1):
            continue
        for r in (1, INF):
            assert flip_width(g, r) <= 2 * bipartite_flip_width(g, side, r)


def test_lemma_fw1_bip(atlas4):
    # bfw_r(G[X,Y]) <= fw_r(G) for sampled disjoint X, Y
    import random
    rng = random.Random(31)
    for g in atlas4[5:11]:
        if g.n < 4:
            continue
        picks = rng.sample(range(g.n), 4)
        xs, ys = sorted(picks[:2]), sorted(picks[2:])
        sub, nx = semi_induced(g, xs, ys)
        left = (1 << nx) - 1
        for r in (1, INF):
            assert bipartite_flip_width(sub, left, r) <= flip_width(g, r)
