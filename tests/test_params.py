import itertools
import random

import pytest

import oracles
from conftest import atlas_graphs, random_graphs
from oracles import decomposition_cut_ranks, order_back_degree
from flipwidth import params
from flipwidth.errors import GenerationError
from flipwidth.graphs import Graph, INF, complement, generate, mask_of, popcount
from flipwidth.params import (OrderWitness, adm_cost, cut_rank, degeneracy,
                              functionality_param, generalized_coloring_number,
                              least_excluded_biclique, near_twin_cliques,
                              near_twin_min, rank_width_small, scol_cost,
                              shatter_function, symmetric_difference_param,
                              treewidth_small, vc_dimension, wcol_cost,
                              weak_reach, well_linked_check)


def test_degeneracy_examples():
    assert degeneracy(generate("clique", 5))[0] == 4
    tree = generate("tree_comparability", [0])     # a single edge
    assert degeneracy(tree)[0] == 1
    assert degeneracy(generate("path", 6))[0] == 1
    assert degeneracy(generate("petersen"))[0] == 3


def test_degeneracy_matches_order_enumeration(atlas5):
    for g in atlas5:
        d, witness = degeneracy(g)
        assert d == oracles.degeneracy_by_orders(g)
        assert order_back_degree(g, witness.permutation) == d


def test_degeneracy_matches_networkx(atlas6):
    import networkx as nx
    for g in atlas6:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        core = max(nx.core_number(nxg).values(), default=0)
        assert degeneracy(g)[0] == core


def test_wcol1_p3():
    # brute force over all 6 orders: wcol_1(P3) = 1 with v itself excluded
    g = generate("path", 3)
    assert oracles.wcol_by_orders(g, 1) == 1
    value, witness = generalized_coloring_number(g, "wcol", 1)
    assert value == 1
    assert wcol_cost(g, witness.permutation, 1) == 1


def test_wcol_matches_order_enumeration():
    for g in atlas_graphs(5, min_n=2)[:30]:
        for r in (1, 2):
            value, witness = generalized_coloring_number(g, "wcol", r)
            assert value == oracles.wcol_by_orders(g, r)
            assert wcol_cost(g, witness.permutation, r) == value


def test_weak_reach_is_the_earlier_vertices_within_r_above_them(atlas6):
    """w is in WReach_r[v] when w comes before v and dist(v, w) <= r in the
    graph induced on w and the vertices after it; wcol_cost is the largest
    such set."""
    rng = random.Random(19)
    for g in atlas6:
        for _ in range(2):
            order = rng.sample(range(g.n), g.n)
            for r in (0, 1, 2, 3, INF):
                reach = weak_reach(g, order, r)
                assert reach == oracles.nx_weak_reach(g, order, r), (g.adj, order, r)
                if r is not INF:
                    assert wcol_cost(g, order, r) == max(map(popcount, reach))


def test_wcol1_equals_degeneracy(atlas5):
    for g in atlas5:
        assert generalized_coloring_number(g, "wcol", 1)[0] == degeneracy(g)[0]


def test_adm_matches_order_enumeration():
    for g in atlas_graphs(5, min_n=2)[:25]:
        for r in (1, 2):
            value, witness = generalized_coloring_number(g, "adm", r)
            assert value == oracles.adm_by_orders(g, r)
            assert adm_cost(g, witness.permutation, r) == value


def test_adm_le_wcol_random():
    for g in random_graphs(25, 7, seed=101):
        for r in (1, 2):
            adm, _ = generalized_coloring_number(g, "adm", r)
            wcol, _ = generalized_coloring_number(g, "wcol", r)
            assert adm <= wcol


def test_scol_between_adm_and_wcol_random():
    for g in random_graphs(25, 7, seed=202):
        for r in (1, 2):
            adm, _ = generalized_coloring_number(g, "adm", r)
            scol, witness = generalized_coloring_number(g, "scol", r)
            wcol, _ = generalized_coloring_number(g, "wcol", r)
            assert adm <= scol <= wcol
            assert scol_cost(g, witness.permutation, r) == scol


def test_greedy_mode_is_upper_bound():
    for g in random_graphs(10, 7, seed=33):
        for kind in ("wcol", "adm", "scol"):
            exact, _ = generalized_coloring_number(g, kind, 2)
            greedy, witness = generalized_coloring_number(g, kind, 2, mode="greedy")
            assert greedy >= exact
            assert isinstance(witness, OrderWitness)


def test_treewidth_examples():
    assert treewidth_small(generate("tree_comparability", [0, 0, 0])) == 1  # star
    assert treewidth_small(generate("path", 5)) == 1
    assert treewidth_small(generate("cycle", 5)) == 2
    assert treewidth_small(generate("clique", 6)) == 5


def test_treewidth_matches_elimination_oracle():
    for g in atlas_graphs(5, min_n=2)[:25]:
        assert treewidth_small(g) == oracles.treewidth_by_elimination(g)


def test_cut_rank_examples():
    assert cut_rank(Graph(4), [0, 1]) == 0
    # complete split graph: all-ones matrix has rank 1
    g = generate("clique", 5)
    assert cut_rank(g, [0, 1]) == 1
    # half-graph staircase has full rank 3
    h3 = generate("half_graph", 3)
    assert cut_rank(h3, [0, 1, 2]) == 3


def test_cut_rank_matches_numpy_oracle():
    rng = random.Random(7)
    for _ in range(40):
        g = generate("random_gnp", 7, 0.5, rng.randrange(10 ** 6))
        amask = rng.randrange(1, 1 << 7)
        a_set = {v for v in range(7) if (amask >> v) & 1}
        assert cut_rank(g, a_set) == oracles.cut_rank_oracle(g, a_set)


def test_rank_width_examples():
    assert rank_width_small(Graph(4))[0] == 0
    for n in (2, 3, 5):
        assert rank_width_small(generate("clique", n))[0] == 1
    value, tree = rank_width_small(generate("cycle", 5))
    assert value == oracles.rankwidth_by_trees(generate("cycle", 5)) == 2
    assert decomposition_cut_ranks(generate("cycle", 5), tree) == 2


def test_rank_width_matches_tree_oracle():
    for g in atlas_graphs(5, min_n=2)[10:25]:
        value, tree = rank_width_small(g)
        assert value == oracles.rankwidth_by_trees(g)
        assert decomposition_cut_ranks(g, tree) == value


def test_well_linked_trivial_cases():
    g = generate("cycle", 5)
    assert well_linked_check(g, set())
    edgeless = Graph(4)
    assert not well_linked_check(edgeless, {0, 1})


def test_well_linked_unknown_mode_raises_at_any_size():
    for n in (0, 1, 3):
        with pytest.raises(GenerationError, match="unknown mode 'bogus'"):
            well_linked_check(Graph(n), range(n), mode="bogus")


def test_well_linked_c5_bruteforce():
    g = generate("cycle", 5)
    # definitional brute force over all bipartitions
    expect = True
    for amask in range(1, 1 << 5):
        bmask = ((1 << 5) - 1) & ~amask
        if not bmask:
            continue
        need = min(bin(amask).count("1"), bin(bmask).count("1"))
        if oracles.cut_rank_oracle(g, {v for v in range(5) if (amask >> v) & 1}) < need:
            expect = False
    assert well_linked_check(g, set(range(5))) == expect
    assert expect      # V(C_5) is well-linked


def test_vc_examples():
    assert vc_dimension(Graph(4)) == 0
    assert vc_dimension(generate("clique", 5)) == oracles.vc_oracle(generate("clique", 5)) == 1


def test_vc_matches_oracle(atlas5):
    for g in atlas5[:30]:
        assert vc_dimension(g) == oracles.vc_oracle(g)


def test_two_vc_subdivided_k4():
    g, principal = generate("exact_subdivision", generate("clique", 4), 1)
    assert vc_dimension(g, two_vc=True) == 4


def test_two_vc_on_no_vertex_and_one():
    assert params._two_vc(Graph(0)) == 0
    assert params._two_vc(Graph(1)) == 1


def test_two_vc_at_least_vc(atlas4):
    for g in atlas4:
        if g.n == 0:
            continue
        assert vc_dimension(g, two_vc=True) >= vc_dimension(g)


def test_near_twin_examples():
    assert near_twin_min(generate("clique", 5)) == 0
    # Petersen: non-adjacent pairs share one neighbor: 3+3-2 = 4
    pet = generate("petersen")
    oracle_min = min(len((set(pet.neighbors(u)) ^ set(pet.neighbors(v))) - {u, v})
                     for u in range(10) for v in range(u + 1, 10))
    assert oracle_min == 4
    assert near_twin_min(pet) == 4
    g = generate("gf2_dot_product", 2)
    assert min(oracles.symdiff_oracle(g, u, v) for u in range(4) for v in range(u + 1, 4)) == 2


def test_near_twin_cliques():
    k5 = generate("clique", 5)
    found = near_twin_cliques(k5, 2, 1)
    assert found == {0, 1, 2}
    pet = generate("petersen")
    # no pair with symmetric difference <= 2 (b=1, k=1)
    assert near_twin_cliques(pet, 1, 1) is None


def test_girth5_min_degree_bound():
    # girth >= 5 and min degree delta give every pair a near-twin distance
    # >= 2(delta-1): non-adjacent pairs share at most one neighbor, adjacent
    # pairs none, and u, v are left out.  Petersen (delta=3) meets it with
    # equality; counting u and v, adjacent pairs reach 2*delta = 6.
    pet = generate("petersen")
    assert near_twin_min(pet) == 4 >= 2 * 2
    for u, v in pet.edges():
        assert oracles.symdiff_oracle(pet, u, v) >= 6


def test_sd_examples():
    assert symmetric_difference_param(generate("clique", 5)) == 0
    p4 = generate("path", 4)
    # oracle: direct max-over-subgraphs min-pair computation
    best = 0
    for msk in range(1 << 4):
        vs = [v for v in range(4) if (msk >> v) & 1]
        if len(vs) < 2:
            continue
        sub_min = min(len(((set(p4.neighbors(u)) ^ set(p4.neighbors(v))) & set(vs)) - {u, v})
                      for u, v in itertools.combinations(vs, 2))
        best = max(best, sub_min)
    assert symmetric_difference_param(p4) == best


def test_fun_le_sd_plus_one():
    for g in random_graphs(12, 8, seed=55):
        assert functionality_param(g) <= symmetric_difference_param(g) + 1


def test_shatter_examples():
    assert shatter_function(Graph(5), 3) == 1
    for n, m in ((4, 2), (5, 3)):
        assert shatter_function(generate("clique", n), m) == m + 1


def test_shatter_sauer_consistency(atlas5):
    # pi_G(m) <= sum_{i<=d} C(m, i) (exact Sauer-Shelah form)
    import math
    for g in atlas5[:25]:
        d = vc_dimension(g)
        for m in range(1, 4):
            bound = sum(math.comb(m, i) for i in range(min(d, m) + 1))
            assert shatter_function(g, m) <= bound


def test_least_excluded_biclique():
    assert least_excluded_biclique(generate("path", 4)) == 2
    assert least_excluded_biclique(generate("clique", 6)) == 4   # K_{3,3} fits


def test_fw_deg_sandwich_on_ktt_free():
    # degeneracy/(2 t^2) < fw_1 <= (degeneracy+1)^t on K_{t,t}-free samples
    from flipwidth.games import flip_width
    for g in random_graphs(12, 5, seed=404):
        t = least_excluded_biclique(g)
        d, _ = degeneracy(g)
        fw1 = flip_width(g, 1)
        assert d / (2 * t * t) < fw1 <= (d + 1) ** t
