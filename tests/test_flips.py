import os
import random
import subprocess
import sys

import pytest

import oracles
from oracles import distinct_flips
from flipwidth.errors import GenerationError, LimitExceeded
from flipwidth.flips import (CutFlip, FlipSpec, Partition, apply_flip,
                             block_pairs, compose_flips, count_raw_flips,
                             cut_flip_ball, cut_flip_weighted,
                             enumerate_bipartite_flips, enumerate_cut_flips,
                             enumerate_definable_flips, enumerate_k_flips,
                             flip_masks, identity_flip, order_cuts,
                             rgs_partitions, s_types)
from flipwidth.graphs import (INF, Graph, OrderedGraph, complement, generate,
                              mask_of)


def spec_of(blocks, pairs):
    return FlipSpec(Partition(blocks), pairs)


def test_full_flip_is_complement(atlas4):
    for g in atlas4:
        spec = spec_of([0] * g.n, [(0, 0)])
        assert apply_flip(g, spec).adj == complement(g).adj


def test_isolating_flip():
    g = generate("cycle", 5)
    v = 0
    nmask = g.adj[v]
    blocks = []
    for u in range(5):
        if u == v:
            blocks.append(0)
        elif (nmask >> u) & 1:
            blocks.append(1)
        else:
            blocks.append(2)
    spec = spec_of(blocks, [(0, 1)])
    flipped = apply_flip(g, spec)
    assert flipped.degree(v) == 0
    # everything else untouched except edges at v
    for u in range(1, 5):
        for w in range(u + 1, 5):
            assert flipped.has_edge(u, w) == g.has_edge(u, w)


def test_identity_flip_is_identity(atlas4):
    for g in atlas4:
        assert apply_flip(g, identity_flip(g.n)).adj == g.adj


def test_flip_involution(atlas4):
    rng = random.Random(3)
    for g in atlas4:
        for _ in range(5):
            blocks = [rng.randrange(2) for _ in range(g.n)]
            part = Partition(blocks)
            pairs = [(i, j) for i in range(part.size) for j in range(i, part.size)
                     if rng.random() < 0.5]
            spec = FlipSpec(part, pairs)
            assert apply_flip(apply_flip(g, spec), spec).adj == g.adj


def test_enumerate_k1_two_flips():
    g = generate("path", 3)
    flips = list(distinct_flips(g, enumerate_k_flips(g, 1)))
    graphs = {apply_flip(g, s).adj for s, _ in flips}
    assert len(flips) == 2
    assert graphs == {g.adj, complement(g).adj}


def test_enumerate_identity_first(atlas4):
    for g in atlas4:
        first, rows = next(iter(distinct_flips(g, enumerate_k_flips(g, 2))))
        assert apply_flip(g, first).adj == rows == g.adj


def test_enumerate_k3_reaches_all_3vertex_graphs():
    g = generate("cycle", 3)
    got = {apply_flip(g, s).adj for s, _ in distinct_flips(g, enumerate_k_flips(g, 3))}
    want = {oracles.graph_from_edges(3, e).adj for e in oracles.all_labeled_graphs(3)}
    assert got == want


def test_raw_flip_count_n4_k2():
    # S(4,1)*2^1 + S(4,2)*2^3 = 1*2 + 7*8 = 58, per the counting oracle
    expected = (oracles.stirling2(4, 1) * 2 + oracles.stirling2(4, 2) * 8)
    assert expected == 58
    assert count_raw_flips(4, 2) == 58
    raw = sum(1 << len(block_pairs(part.size)) for part in rgs_partitions(4, 2))
    assert raw == 58


def test_enumerate_contains_complement(atlas4):
    for g in atlas4:
        graphs = {apply_flip(g, s).adj for s, _ in distinct_flips(g, enumerate_k_flips(g, 1))}
        assert complement(g).adj in graphs


def test_limit_exceeded():
    with pytest.raises(LimitExceeded, match="configured bound"):
        list(enumerate_k_flips(Graph(9), 3))


def test_enumerators_yield_each_edge_set_once_with_its_rows():
    g = generate("random_gnp", 5, 0.5, 2)
    streams = {
        "k": list(distinct_flips(g, enumerate_k_flips(g, 3))),
        "definable": [(spec, rows) for (_, spec), rows
                      in distinct_flips(g, enumerate_definable_flips(g, 2))],
        "bipartite": list(distinct_flips(g, enumerate_bipartite_flips(g, 0b00111, 2))),
    }
    for name, flips in streams.items():
        assert all(rows == flip_masks(g, spec) for spec, rows in flips), name
        assert len({rows for _, rows in flips}) == len(flips), name
    og = OrderedGraph(g)
    cut_flips = list(oracles.cut_flip_stream(og, 2))
    assert all(rows == cut_flip_weighted(og, cf) for cf, rows in cut_flips)
    # every distinct edge flip with every cut of size <= 2
    edge_sets = list(distinct_flips(g, enumerate_k_flips(g, 2)))
    assert len(order_cuts(5, 2)) == 1 + 5 + 10
    assert len(cut_flips) == len(edge_sets) * (1 + 5 + 10)
    # the ordered family's own stream is that of the <= 2-flips
    assert list(enumerate_cut_flips(og, 2)) == list(enumerate_k_flips(g, 2))


def test_kept_flips_are_one_per_flipped_graph():
    """The <= k-flips keep exactly one flip per distinct flipped graph for
    n <= 7 and k <= 4, and the bipartite flips of paths one per distinct
    flipped graph for n <= 8 and k <= 3, counted over the oracle's raw
    streams."""
    for n in range(8):
        for k in range(1, 5):
            kept = sum(len(subs) for _, _, _, subs in enumerate_k_flips(Graph(n), k, max_n=n))
            assert kept == oracles.distinct_toggles(oracles.raw_k_flips(n, k)), (n, k)
    for n in range(1, 9):
        g = generate("path", n)
        left = sum(1 << v for v in range(0, n, 2))
        for k in range(1, 4):
            kept = sum(len(subs) for _, _, _, subs in enumerate_bipartite_flips(g, left, k, max_n=n))
            raw = oracles.raw_bipartite_flips(g, left, k)
            assert kept == oracles.distinct_toggles(raw), (n, k)


def test_kept_tables_are_built_when_first_read():
    """Importing flipwidth builds no kept table; a stream builds each of its
    tables once, shared by every partition with the same key."""
    code = ("import flipwidth, flipwidth.cli, flipwidth.flips as f; "
            "assert not f._KEPT, len(f._KEPT); "
            "g = flipwidth.Graph(5); a = list(f.enumerate_k_flips(g, 3)); "
            "b = list(f.enumerate_k_flips(g, 3)); "
            "assert all(x[3] is y[3] for x, y in zip(a, b)); print(len(f._KEPT))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 0


def test_sequential_flip_equivalence():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = generate("random_gnp", n, 0.5, rng.randrange(10 ** 6))
        specs = []
        for _ in range(2):
            blocks = [rng.randrange(3) for _ in range(n)]
            part = Partition(blocks)
            pairs = [(i, j) for i in range(part.size) for j in range(i, part.size)
                     if rng.random() < 0.5]
            specs.append(FlipSpec(part, pairs))
        combined = compose_flips(g, specs[0], specs[1])
        two_step = apply_flip(apply_flip(g, specs[0]), specs[1])
        assert apply_flip(g, combined).adj == two_step.adj


# ---------------------------------------------------------------------------
# S-types


def test_s_types_empty():
    g = generate("clique", 4)
    assert s_types(g, []).size == 1


def test_s_types_k4_single():
    g = generate("clique", 4)
    part = s_types(g, [0])
    # oracle: N(v) & {0} splits {0} from the rest
    keys = {}
    for v in range(4):
        keys.setdefault(1 if 0 in set(g.neighbors(v)) else 0, set()).add(v)
    assert part.size == 2
    assert set(part.block_masks()) == {mask_of(s) for s in keys.values()}


def test_s_types_p4():
    g = generate("path", 4)            # 0-1-2-3
    part = s_types(g, [1])
    masks = set(part.block_masks())
    assert masks == {mask_of({0, 2}), mask_of({1, 3})}


def test_s_types_bound(atlas4):
    for g in atlas4:
        for smask in range(1 << g.n):
            s = [v for v in range(g.n) if (smask >> v) & 1]
            assert s_types(g, s).size <= 2 ** len(s)


def test_s_types_singleton_split_ktt_bound():
    # K_{t,t}-free graphs: |P_S| <= |S|^t for t >= 3
    from flipwidth.params import least_excluded_biclique
    rng = random.Random(9)
    for _ in range(20):
        g = generate("random_gnp", 7, 0.4, rng.randrange(10 ** 6))
        t = least_excluded_biclique(g)
        if t < 3:
            continue
        for _ in range(5):
            smask = rng.randrange(1, 1 << g.n)
            s = [v for v in range(g.n) if (smask >> v) & 1]
            if len(s) < 2:
                continue     # the s^t arithmetic needs |S| >= 2
            # the S-types with each vertex of S split off as a singleton
            smask = mask_of(s)
            part = Partition([("s", v) if v in s else g.adj[v] & smask for v in range(g.n)])
            assert part.size <= len(s) ** t


def test_definable_k0():
    g = generate("path", 4)
    flips = [apply_flip(g, spec).adj
             for (s, spec), _ in distinct_flips(g, enumerate_definable_flips(g, 0))]
    assert set(flips) == {g.adj, complement(g).adj}


def test_definable_flips_are_2k_flips(atlas4):
    for g in atlas4:
        for (s, spec), _ in distinct_flips(g, enumerate_definable_flips(g, 2)):
            assert spec.partition.size <= 2 ** len(s)


def test_definable_subset_of_k_flips():
    # every k-definable flip appears among the 2^k-flips (n <= 6, k <= 2)
    for g in [generate("path", 5), generate("cycle", 6), generate("random_gnp", 6, 0.5, 3)]:
        khats = {apply_flip(g, s).adj
                 for s, _ in distinct_flips(g, enumerate_k_flips(g, 4, max_n=6))}
        for (s, spec), _ in distinct_flips(g, enumerate_definable_flips(g, 2)):
            assert apply_flip(g, spec).adj in khats


def test_clique_plus_isolated_not_definable():
    # K_4 with 4 isolated vertices is a 2-flip of K_8 but not a 3-definable flip
    k8 = generate("clique", 8)
    target = Graph(8, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    blocks = [0] * 4 + [1] * 4
    spec = spec_of(blocks, [(1, 1), (0, 1)])
    assert apply_flip(k8, spec).adj == target.adj
    definable = {apply_flip(k8, s).adj
                 for (_, s), _ in distinct_flips(k8, enumerate_definable_flips(k8, 3))}
    assert target.adj not in definable


# ---------------------------------------------------------------------------
# cut flips


def og_path(n):
    return OrderedGraph(generate("path", n))


def test_cut_flip_ball_no_cut():
    og = og_path(3)
    cf = CutFlip(spec_of([0, 0, 0], [(0, 0)]), [])   # E' irrelevant: one class
    ball, iso = cut_flip_ball(og, CutFlip(identity_flip(3), []), 0, 0)
    assert ball == {0, 1, 2}
    assert not iso


def test_cut_flip_full_cut_isolates():
    og = og_path(3)
    # remove all edges, cut everything: each vertex alone
    comp = spec_of([0, 0, 0], [(0, 0)])
    g2 = apply_flip(og.graph, comp)
    # build E' = empty via flipping all edges of the path: use partition per vertex
    blocks = [0, 1, 2]
    spec = spec_of(blocks, [(0, 1), (1, 2)])
    assert apply_flip(og.graph, spec).num_edges() == 0
    cf = CutFlip(spec, [0, 1, 2])
    for v in range(3):
        ball, iso = cut_flip_ball(og, cf, v, 5)
        assert ball == {v}
        assert iso


def test_cut_flip_ball_hand_bfs():
    # ordered path 0-1-2 with S={1}, E' = original edges, r=1:
    # the hand oracle gives weight-0 classes {0},{1},{2}; one weight-1 step
    og = og_path(3)
    cf = CutFlip(identity_flip(3), [1])
    ball, iso = cut_flip_ball(og, cf, 0, 1)
    assert ball == {0, 1}
    assert not iso


def test_cut_flip_zero_weight_runs():
    og = OrderedGraph(Graph(5))
    cf = CutFlip(identity_flip(5), [2])
    # classes: {0,1}, {2}, {3,4}
    ball, _ = cut_flip_ball(og, cf, 0, 0)
    assert ball == {0, 1}
    ball2, iso2 = cut_flip_ball(og, cf, 2, 0)
    assert ball2 == {2}
    assert iso2
