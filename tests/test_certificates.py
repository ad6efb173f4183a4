import itertools
import json
import random

import pytest

from oracles import distinct_flips
from flipwidth import certificates, games
from flipwidth.certificates import (AdmissibilityRobber, CopsHideout,
                                    FlipHideout, HideoutRunner, OrderCert,
                                    OrderCops, RichDivision,
                                    RichDivisionRunner, WellLinkedCert,
                                    certificate_from_json,
                                    find_hideout_small, greedy_copprime_order,
                                    order_cert_check, pattern_rich_division,
                                    subdivision_hideout, verify_cops_hideout,
                                    verify_flip_hideout_report,
                                    verify_rich_division,
                                    well_linked_to_hideout)
from flipwidth.errors import CertificateInvalid, GenerationError, SchemaError
from flipwidth.flips import enumerate_k_flips
from flipwidth.games import (COPS, ROBBER, RUNNER, IdentityFlipper,
                             simulate_match, solve_cops, solve_copw_prime,
                             solve_flipper, solve_ordered)
from flipwidth.graphs import (INF, Graph, OrderedGraph, bits, exact_subdivision,
                              generate)
from flipwidth.params import generalized_coloring_number, near_twin_cliques, weak_reach


# ---------------------------------------------------------------------------
# flip hideouts


def test_thin_counts_match_the_members_loop():
    """The exhaustive hideout checks count thin U-members over the engine's
    balls array as _thin_members counts them per outcome; on 17 vertices
    the balls are uint64 words."""
    rng = random.Random(5)
    for g, r, k in ((generate("random_gnp", 7, 0.5, 1), 1, 2), (generate("cycle", 6), 2, 2),
                    (generate("path", 17), 2, 1)):
        outcomes = games._flip_outcomes(g, r, k)
        for _ in range(20):
            u = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
            cert = FlipHideout(u, r, k, rng.randint(0, 3))
            assert certificates._thin_counts(cert, outcomes.balls).tolist() == \
                [certificates._thin_members(cert, o.balls) for o in outcomes]


def test_hideout_precondition():
    g = generate("clique", 4)
    cert = FlipHideout(frozenset(range(4)), 1, 1, 5)
    with pytest.raises(GenerationError, match="precondition"):
        verify_flip_hideout_report(g, cert)


def test_subdivided_k5_hideout():
    base = generate("clique", 5)
    cert = subdivision_hideout(base, 2, 1)
    g, principal = exact_subdivision(base, 1)
    assert cert.u == frozenset(principal)
    assert cert == FlipHideout(frozenset(range(5)), 2, 1, 1)
    assert verify_flip_hideout_report(g, cert, max_n=15).valid


def test_subdivision_hideout_precondition():
    with pytest.raises(GenerationError, match="minimum degree"):
        subdivision_hideout(generate("clique", 3), 2, 1)
    with pytest.raises(GenerationError, match="radius"):
        subdivision_hideout(generate("clique", 5), 1, 1)


def test_near_twin_free_graphs_make_v_a_hideout():
    # no b+1 mutual 2bk-near-twins (b=1, k=1) makes V a (1,1,1)-hideout;
    # dense random graphs always have near-twins, so girth-5 graphs carry it
    candidates = [generate("petersen")]
    for seed in range(40):
        g = generate("random_regular", 10, 3, seed)
        if near_twin_cliques(g, 1, 1) is None:
            candidates.append(g)
        if len(candidates) >= 2:
            break
    for g in candidates:
        assert near_twin_cliques(g, 1, 1) is None
        cert = FlipHideout(frozenset(range(g.n)), 1, 1, 1)
        assert verify_flip_hideout_report(g, cert, max_n=10).valid


def test_hideout_duality_with_game(atlas5):
    for g in atlas5[:25]:
        for r in (1, 2):
            for k in (1, 2):
                for d in range(1, g.n):
                    cert = find_hideout_small(g, r, k, d)
                    if cert is not None:
                        assert solve_flipper(g, r, k).winner == RUNNER
                        break


def test_find_hideout_none_on_edgeless():
    g = generate("edgeless", 5)
    for k in (1, 2):
        assert find_hideout_small(g, 1, k, 1) is None


def test_find_hideout_c5_cross_check():
    g = generate("cycle", 5)
    cert = find_hideout_small(g, 1, 1, 1)
    # exact game value oracle: the runner wins at width 1 iff a hideout-like
    # escape exists; cross-check via the solver
    winner = solve_flipper(g, 1, 1).winner
    if cert is not None:
        assert winner == RUNNER
    else:
        # record-only direction (Question hideouts): no assertion
        assert winner in (FLIPPER, RUNNER)


def test_hideout_runner_survives():
    base = generate("clique", 5)
    g, principal = exact_subdivision(base, 1)
    cert = subdivision_hideout(base, 2, 1)
    sol = solve_flipper(g, 2, 1, max_n=15)
    assert sol.winner == RUNNER
    runner = HideoutRunner(g, cert)
    trace = simulate_match("flip", g, 2, 1, sol.witness_pursuer, runner, 10 * g.n)
    assert trace.outcome == "EVADER_SURVIVES"
    trace = simulate_match("flip", g, 2, 1, IdentityFlipper(g.n), runner, 40)
    assert trace.outcome == "EVADER_SURVIVES"


def test_corrupted_hideout_reports_refuting_flip():
    g = generate("clique", 4)
    bogus = FlipHideout(frozenset({0, 1, 2}), 1, 2, 1)
    report = verify_flip_hideout_report(g, bogus, max_n=6)
    assert not report.valid
    assert report.refutation is not None
    runner = HideoutRunner(g, bogus)
    sol = solve_flipper(g, 1, 2)
    with pytest.raises(CertificateInvalid) as err:
        simulate_match("flip", g, 1, 2, sol.witness_pursuer, runner, 40)
    assert err.value.refutation is not None


def test_sampled_verification_one_sided():
    base = generate("clique", 5)
    g, principal = exact_subdivision(base, 1)
    cert = subdivision_hideout(base, 2, 1)
    report = verify_flip_hideout_report(g, cert, mode="sampled", seed=5, trials=300)
    assert report.valid and report.mode == "sampled"


def test_well_linked_to_hideout_c5():
    g = generate("cycle", 5)
    cert = well_linked_to_hideout(g, range(5), 1)
    assert cert.r is INF and cert.k == 1 and cert.d == 1
    assert verify_flip_hideout_report(g, cert).valid
    with pytest.raises(GenerationError, match="3k"):
        well_linked_to_hideout(g, range(3), 1)


# ---------------------------------------------------------------------------
# cops hideouts, orders, copprime equivalence


def test_single_vertex_not_cops_hideout():
    g = generate("clique", 3)
    assert not verify_cops_hideout(g, CopsHideout(frozenset({0}), 1, 1))


def test_adm_witness_is_cops_hideout():
    # U from an adm witness with d disjoint paths is a (d, r)-hideout
    g = generate("clique", 4)
    # every vertex of K_4 has 3 disjoint length-1 paths into the rest
    cert = CopsHideout(frozenset(range(4)), 1, 3)
    assert verify_cops_hideout(g, cert)


def test_copprime_three_way_equivalence(atlas6):
    for g in atlas6[:40]:
        for r in (1, 2):
            for k in (1, 2):
                game_cops_win = solve_copw_prime(g, r, k).winner == COPS
                # no (k, r)-hideout?
                hideout_exists = False
                for size in range(2, g.n + 1):
                    for combo in itertools.combinations(range(g.n), size):
                        if verify_cops_hideout(g, CopsHideout(frozenset(combo), r, k)):
                            hideout_exists = True
                            break
                    if hideout_exists:
                        break
                order = greedy_copprime_order(g, r, k)
                order_exists = order is not None
                if order_exists:
                    assert order_cert_check(g, order, r, k)
                assert game_cops_win == (not hideout_exists) == order_exists


def test_order_cert_check_rejects_bad_order():
    g = generate("clique", 4)
    # k=1 means no deletions allowed: K_4 forces paths to earlier vertices
    assert not order_cert_check(g, tuple(range(4)), 1, 1)


def test_order_cert_check_needs_each_vertex_once():
    # no vertex of the empty order or of (0,) has an earlier vertex to cut off
    g = generate("petersen")
    for order in ((), (0,)):
        assert not order_cert_check(g, order, 2, 1)
        assert not order_cert_check(g, order, 1, 1)
    assert order_cert_check(Graph(3), (2, 0, 1), 1, 1)
    assert not order_cert_check(Graph(3), (2, 0), 1, 1)
    assert not order_cert_check(Graph(3), (2, 0, 0, 1), 1, 1)


# ---------------------------------------------------------------------------
# order-driven strategies


def test_order_cops_win_on_tree():
    g = generate("path", 6)
    value, witness = generalized_coloring_number(g, "wcol", 2)
    cops = OrderCops(g, witness.permutation, 1)
    k = value + 1
    sol = solve_cops(g, 1, k)
    trace = simulate_match("cop", g, 1, k, cops, sol.witness_evader, 3 * g.n)
    assert trace.outcome == "PURSUER_WINS"
    assert trace.rounds <= g.n


def test_order_cops_stand_on_v_and_its_weak_2r_reach(atlas5):
    """The order cops' set at v is WReach_2r[v] plus v, whatever came
    before; they need a finite radius."""
    rng = random.Random(5)
    for g in atlas5:
        order = rng.sample(range(g.n), g.n)
        for r in (0, 1, 2):
            cops = OrderCops(g, order, r)
            reach = weak_reach(g, order, 2 * r)
            for v in range(g.n):
                assert cops.move(cops.start(), v)[0] == frozenset(bits(reach[v] | 1 << v))
    with pytest.raises(GenerationError, match="finite radius"):
        OrderCops(generate("path", 3), (0, 1, 2), INF)


def test_degeneracy_order_cops_radius1():
    from flipwidth.params import degeneracy
    g = generate("cycle", 6)
    d, witness = degeneracy(g)
    cops = OrderCops(g, witness.permutation, 1)
    # wcol_2 of the degeneracy order bounds the cop count; d+1 suffices on C6
    sol = solve_cops(g, 1, d + 1 + 1)
    trace = simulate_match("cop", g, 1, 6, cops, sol.witness_evader, 20)
    assert trace.outcome == "PURSUER_WINS"


def test_adm_robber_survives():
    # K_{3,3} minus a perfect matching, degeneracy-many cops at r=1
    g = Graph(6, [(u, v + 3) for u in range(3) for v in range(3) if u != v])
    from flipwidth.params import degeneracy
    d, _ = degeneracy(g)
    adm, witness = generalized_coloring_number(g, "adm", 1)
    assert adm >= d
    robber = AdmissibilityRobber(range(6))
    sol = solve_cops(g, 1, d)
    assert sol.winner == ROBBER
    trace = simulate_match("cop", g, 1, d, sol.witness_pursuer, robber, 10 * g.n)
    assert trace.outcome == "EVADER_SURVIVES"


# ---------------------------------------------------------------------------
# rich divisions


def test_pattern_rich_division_all_symbols():
    for s in ("eq", "neq", "lel", "gel", "ler", "ger"):
        og = generate("s_pattern", 4, s)
        cert = pattern_rich_division(og, 4)
        assert cert.k == 2
        assert verify_rich_division(og, cert)


def test_pattern_rich_division_small():
    og = generate("s_pattern", 2, "eq")
    cert = pattern_rich_division(og, 2)
    assert cert.k == 1
    assert verify_rich_division(og, cert)


def test_degenerate_single_interval_division():
    og = OrderedGraph(Graph(1))
    cert = RichDivision(((0, 0),), ((0, 0),), 1)
    assert not verify_rich_division(og, cert)


def test_rich_division_runner_survives():
    og = generate("s_pattern", 4, "eq")
    cert = pattern_rich_division(og, 4)
    sol = solve_ordered(og, 1, 1)
    assert sol.winner == RUNNER
    runner = RichDivisionRunner(og, cert)
    trace = simulate_match("ordered", og.graph, 1, 1, sol.witness_pursuer,
                           runner, 50)
    assert trace.outcome == "EVADER_SURVIVES"


def test_rich_division_needs_interval_cover():
    og = generate("s_pattern", 2, "eq")
    bad = RichDivision(((0, 3),), ((0, 7),), 1)   # misses vertices
    assert not verify_rich_division(og, bad)


# ---------------------------------------------------------------------------
# JSON schemas


def test_certificate_json_round_trips():
    certs = [FlipHideout(frozenset({0, 2}), INF, 1, 1),
             CopsHideout(frozenset({1, 2}), 2, 2),
             RichDivision(((0, 1), (2, 3)), ((0, 2), (3, 3)), 1),
             WellLinkedCert(frozenset({0, 1, 2, 3}), 1),
             OrderCert((2, 0, 3, 1), 1, 2)]
    for cert in certs:
        blob = json.dumps(cert.to_json())
        again = certificate_from_json(json.loads(blob), 4)
        assert again == cert


def test_certificate_json_rejects_unknown():
    with pytest.raises(SchemaError):
        certificate_from_json({"kind": "mystery"}, 3)
    with pytest.raises(SchemaError):
        certificate_from_json({"no": "kind"}, 3)
    with pytest.raises(SchemaError):
        certificate_from_json({"kind": "flip_hideout", "U": [1]}, 3)


# ---------------------------------------------------------------------------
# structural flip probes (star forests, matchings, glued paths)


def _max_bipartite_matching(pairs, left, right):
    match = {}

    def try_augment(u, seen):
        for v in [y for (x, y) in pairs if x == u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match or try_augment(match[v], seen):
                match[v] = u
                return True
        return False

    count = 0
    for u in left:
        if try_augment(u, set()):
            count += 1
    return count


def test_matching_flip_probe():
    # every k-flip of a perfect matching keeps a matching covering all but k
    # left vertices
    n_pairs = 5
    g = Graph(2 * n_pairs, [(i, n_pairs + i) for i in range(n_pairs)])
    left = list(range(n_pairs))
    right = list(range(n_pairs, 2 * n_pairs))
    for k in (1, 2):
        for spec, _ in distinct_flips(g, enumerate_k_flips(g, k, max_n=10)):
            from flipwidth.flips import apply_flip
            flipped = apply_flip(g, spec)
            pairs = [(u, v) for u in left for v in right if flipped.has_edge(u, v)]
            assert _max_bipartite_matching(pairs, left, right) >= n_pairs - k


def test_path_flip_probe():
    # G_{r,l}: l disjoint paths of length r; every k-flip keeps >= l - rk
    # targets joined to some source by a path of length r
    r, length_count = 2, 4
    edges = []
    sources, targets = [], []
    for i in range(length_count):
        base = i * (r + 1)
        chain = list(range(base, base + r + 1))
        edges.extend(zip(chain, chain[1:]))
        sources.append(chain[0])
        targets.append(chain[-1])
    g = Graph(length_count * (r + 1), edges)
    from flipwidth.flips import apply_flip

    def has_r_path(h, s, t):
        frontier = {(s, frozenset((s,)))}
        for _ in range(r):
            frontier = {(w, used | {w}) for (u, used) in frontier
                        for w in h.neighbors(u) if w not in used}
        return any(u == t for u, _ in frontier)

    for k in (1, 2):
        for spec, _ in distinct_flips(g, enumerate_k_flips(g, k, max_n=12)):
            flipped = apply_flip(g, spec)
            good = sum(1 for t in targets
                       if any(has_r_path(flipped, s, t) for s in sources))
            assert good >= length_count - r * k


def test_star_forest_flip_probe():
    # star forest with root degrees >= l: every k-flip admits X covering all
    # but k roots and a bijection pi with each root adjacent to >= ceil(l/2)
    # children of pi(root)
    import itertools as it
    leaves_per_root, roots = 4, 3
    edges = []
    children = {}
    nxt = roots
    for rt in range(roots):
        children[rt] = list(range(nxt, nxt + leaves_per_root))
        edges.extend((rt, c) for c in children[rt])
        nxt += leaves_per_root
    g = Graph(nxt, edges)
    from flipwidth.flips import apply_flip
    need = (leaves_per_root + 1) // 2
    for k in (1, 2):
        for spec, _ in distinct_flips(g, enumerate_k_flips(g, k, max_n=g.n)):
            flipped = apply_flip(g, spec)
            covers = [(x, y) for x in range(roots) for y in range(roots)
                      if sum(1 for c in children[y] if flipped.has_edge(x, c)) >= need]
            found = False
            for size in range(roots, max(roots - k, 0) - 1, -1):
                for xs in it.combinations(range(roots), size):
                    sub = [(a, b) for a, b in covers if a in xs and b in xs]
                    if _max_bipartite_matching(sub, list(xs), list(xs)) == size:
                        found = True
                        break
                if found:
                    break
            assert found
