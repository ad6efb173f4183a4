import subprocess
import sys

import pytest

import oracles
from flipwidth.errors import GenerationError, ParseError
from flipwidth.graphs import (INF, ColoredGraph, Graph, OrderedGraph, ball,
                              complement, components, disjoint_union,
                              exact_subdivision, generate,
                              lexicographic_product, parse_graph, popcount,
                              semi_induced, sniff_and_parse, write_graph,
                              write_graph6)


def test_parse_edge_list_path():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3
    assert oracles.edges_of(g) == {frozenset((0, 1)), frozenset((1, 2))}


def test_parse_duplicate_edges_collapse():
    g = parse_graph("3 3\n0 1\n0 1\n1 2")
    assert g.num_edges() == 2


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("2 1\n0 0")


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError, match="header"):
        parse_graph("banana")


def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_graph("2 1\n0 5")


def test_graph6_known_word():
    # expected edges computed by the independent decoder in oracles.py
    n, edges = oracles.decode_graph6("D?{")
    g = parse_graph("D?{", fmt="graph6")
    assert g.n == n == 5
    assert oracles.edges_of(g) == edges
    assert write_graph6(g) == "D?{"


def test_graph6_round_trip_random():
    g = generate("random_gnp", 9, 0.4, 7)
    again = parse_graph(write_graph(g, "graph6"), fmt="graph6")
    assert again.adj == g.adj


def test_edge_list_round_trip_random_seed7():
    g = generate("random_gnp", 8, 0.5, 7)
    again = parse_graph(write_graph(g, "edge-list"))
    assert again.adj == g.adj


def test_write_k2():
    assert write_graph(Graph(2, [(0, 1)])) == "2 1\n0 1\n"


def test_write_edgeless4():
    assert write_graph(Graph(4)) == "4 0\n"


def test_colored_round_trip():
    cg = ColoredGraph(Graph(3, [(0, 1)]), (2, 1, 1))
    text = write_graph(cg)
    back = parse_graph(text)
    assert isinstance(back, ColoredGraph)
    assert back.colors == (2, 1, 1)
    assert back.graph.adj == cg.graph.adj


def test_sniff_graph6_vs_edge_list():
    g = generate("clique", 4)
    assert sniff_and_parse(write_graph(g, "graph6")).adj == g.adj
    assert sniff_and_parse(write_graph(g, "edge-list")).adj == g.adj


def test_half_graph_figure_convention():
    g = generate("half_graph", 6)
    assert g.n == 12
    assert g.num_edges() == 21          # 6+5+...+1 with the diagonal included
    assert g.has_edge(0, 6)             # a_1 b_1
    strict = generate("half_graph", 6, strict=True)
    assert strict.num_edges() == 15
    assert not strict.has_edge(0, 6)


def test_gf2_dot_product_symmetric_difference():
    g = generate("gf2_dot_product", 2)
    assert g.n == 8
    # same-part pairs differ in exactly 2^{m-1} = 2 neighborhoods
    for part in (range(4), range(4, 8)):
        vs = list(part)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                assert oracles.symdiff_oracle(g, u, v) == 2


def test_exact_subdivision_k4():
    g, principal = exact_subdivision(generate("clique", 4), 1)
    assert g.n == 4 + 6
    assert principal == (0, 1, 2, 3)
    for v in range(4, g.n):
        assert g.degree(v) == 2
    # no two principal vertices stay adjacent
    for u in principal:
        for v in principal:
            assert u == v or not g.has_edge(u, v)


def test_petersen_shape():
    g = generate("petersen")
    assert g.n == 10
    assert all(g.degree(v) == 3 for v in range(10))
    assert g.num_edges() == 15


def test_random_regular_parity_error():
    with pytest.raises(GenerationError):
        generate("random_regular", 5, 3, 1)


def test_random_regular_degrees():
    g = generate("random_regular", 8, 3, 5)
    assert all(g.degree(v) == 3 for v in range(8))


def test_complement_involution(atlas4):
    for g in atlas4:
        assert complement(complement(g)).adj == g.adj


def test_complement_k4():
    assert complement(generate("clique", 4)).num_edges() == 0


def test_disjoint_union_counts():
    g = disjoint_union([generate("path", 2), generate("path", 2)])
    assert g.n == 4 and g.num_edges() == 2


def test_lexicographic_product_k2_edgeless3():
    g = lexicographic_product(generate("clique", 2), generate("edgeless", 3))
    # blowing up an edge into two independent triples gives K_{3,3}
    assert g.n == 6 and g.num_edges() == 9
    for u in range(3):
        for v in range(3, 6):
            assert g.has_edge(u, v)


def test_ball_examples():
    p5 = generate("path", 5)
    assert ball(p5, 2, 1) == {1, 2, 3}
    two_triangles = disjoint_union([generate("cycle", 3), generate("cycle", 3)])
    assert ball(two_triangles, 0, INF) == {0, 1, 2}


def test_ball_monotone_and_inf(atlas4):
    for g in atlas4:
        for v in range(g.n):
            prev = set()
            for r in range(g.n + 1):
                cur = ball(g, v, r)
                assert prev <= cur
                prev = cur
            assert ball(g, v, INF) == prev


def test_semi_induced_c4():
    c4 = generate("cycle", 4)
    got, nx = semi_induced(c4, [0, 1], [1, 2])
    n, edges = oracles.semi_induced_bruteforce(c4, [0, 1], [1, 2])
    assert got.n == n == 4 and nx == 2
    assert oracles.edges_of(got) == edges
    assert got.num_edges() == 2


def test_spattern_layout():
    og = generate("s_pattern", 4, "eq")
    assert isinstance(og, OrderedGraph)
    assert og.n == 32
    g = og.graph
    # A-side vertices only connect across to the B side
    for u in range(16):
        for v in range(16):
            assert u == v or not g.has_edge(u, v)
    # "=" pattern: each A vertex has exactly one B neighbor
    assert all(g.degree(u) == 1 for u in range(16))


def test_spattern_symbols_differ():
    seen = set()
    for s in ("eq", "neq", "lel", "gel", "ler", "ger"):
        seen.add(generate("s_pattern", 2, s).graph.adj)
    assert len(seen) == 6


def test_tree_comparability_is_half_graph_like():
    # a path-shaped tree gives the comparability graph of a chain = clique
    g = generate("tree_comparability", [0, 1, 2])
    assert g.num_edges() == 6 and g.n == 4


def test_invariants_after_constructors(atlas4):
    for g in atlas4:
        g._check()


def test_components_partition(atlas4):
    for g in atlas4:
        comps = components(g)
        assert sum(popcount(c) for c in comps) == g.n


def test_invariant_checks_survive_python_O():
    # the last line proves -O is on: it strips that assert statement
    code = """
from flipwidth.certificates import OrderCops
from flipwidth.games import check_anti_tone
from flipwidth.graphs import Graph, generate
checks = [lambda: check_anti_tone({1: (2, None), 3: (1, None)}),
          lambda: Graph.from_masks([1]),
          lambda: OrderCops(generate("path", 3), (0, 1, 2), 1).move((0, 0, 0, 9), 1)]
for check in checks:
    try:
        check()
        print("passed")
    except AssertionError:
        print("raised")
assert False
print("optimized")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True)
    assert proc.stdout.split() == ["raised", "raised", "raised", "optimized"], proc.stderr
