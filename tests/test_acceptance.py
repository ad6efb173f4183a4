"""Acceptance suite: every criterion is one test that prints a pass/fail
line.  Tolerances are exact equalities and inequalities throughout; nothing
is sampled except where the criterion itself fixes a seeded sample.

Criterion 9 checks the near-twin bound on the atlas (n <= 5) and two
Petersen values.  Petersen is srg(10,3,0,1), so with u and v left out every
pair is at near-twin distance 4: non-adjacent pairs share one neighbor
(3+3-2) and adjacent pairs share none (2+2).  The near-twin route alone
therefore gives only fw_1(Petersen) >= 2 (4 > 2*1); the exact width-2 game
solve in the same test gives fw_1(Petersen) >= 3.
"""

import itertools

from conftest import atlas_graphs, random_graphs
from oracles import solve_flipper_concrete
from flipwidth.certificates import (CopsHideout, HideoutRunner,
                                    RichDivisionRunner, find_hideout_small,
                                    greedy_copprime_order, order_cert_check,
                                    pattern_rich_division, subdivision_hideout,
                                    verify_cops_hideout,
                                    verify_flip_hideout_report,
                                    verify_rich_division)
from flipwidth.flips import flip_masks
from flipwidth.games import (COPS, FLIPPER, ROBBER, RUNNER, HalfGraphFlipper,
                             approx_flip_width, cop_width, definable_flip_width,
                             flip_width, isolation_width,
                             ordered_binary_flip_width, ordered_flip_width,
                             pursuer_beats_every_evader, simulate_match,
                             solve_cops, solve_copw_prime, solve_definable,
                             solve_flipper, solve_ordered)
from flipwidth.graphs import (INF, ColoredGraph, OrderedGraph, complement,
                              exact_subdivision, generate,
                              lexicographic_product)
from flipwidth.params import (degeneracy, generalized_coloring_number,
                              near_twin_min, rank_width_small,
                              shatter_function, treewidth_small, vc_dimension)
from flipwidth.transfer import (FlipMap, ModularLiftFlipper,
                                TransferredFlipper, parse_formula)
from flipwidth.flips import Partition


def report(num, description, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"criterion {num:2d} [{status}] {description}")
    for v in violations[:5]:
        print(f"             violation: {v}")
    return violations


def test_criterion_01_degeneracy_identity():
    violations = []
    for g in atlas_graphs(7):
        d, _ = degeneracy(g)
        if solve_cops(g, 1, d + 1).winner != COPS:
            violations.append(f"{list(g.edges())}: {d + 1} cops do not win")
        if d >= 1 and solve_cops(g, 1, d).winner != ROBBER:
            violations.append(f"{list(g.edges())}: robber loses vs {d} cops")
    assert not report(1, "copw_1(G) = degeneracy(G)+1 for all n <= 7", violations)


def test_criterion_02_seymour_thomas():
    violations = []
    for g in atlas_graphs(7):
        tw = treewidth_small(g)
        if solve_cops(g, INF, tw + 1).winner != COPS:
            violations.append(f"{list(g.edges())}: {tw + 1} cops do not win at r=inf")
        if tw >= 1 and solve_cops(g, INF, tw).winner != ROBBER:
            violations.append(f"{list(g.edges())}: robber loses vs {tw} cops at r=inf")
    assert not report(2, "copw_inf(G) = treewidth(G)+1 for all n <= 7", violations)


def test_criterion_03_adm_copw_wcol_sandwich():
    violations = []
    for g in random_graphs(200, 7, seed=1729):
        for r in (1, 2):
            adm, _ = generalized_coloring_number(g, "adm", r)
            wcol2r, _ = generalized_coloring_number(g, "wcol", 2 * r)
            cw = cop_width(g, r)
            if not (adm + 1 <= cw <= wcol2r + 1):
                violations.append(
                    f"{list(g.edges())} r={r}: adm+1={adm + 1}, copw={cw}, "
                    f"wcol_2r+1={wcol2r + 1}")
    assert not report(3, "adm_r+1 <= copw_r <= wcol_2r+1 on 200 seeded graphs",
                      violations)


def test_criterion_04_rankwidth_sandwich():
    violations = []
    for g in atlas_graphs(5):
        rw, _ = rank_width_small(g)
        fw = flip_width(g, INF)
        if not rw <= 3 * fw + 1:
            violations.append(f"{list(g.edges())}: rw={rw}, fw_inf={fw}")
    assert not report(4, "rw(G) <= 3 fw_inf(G)+1 for all n <= 5", violations)


def test_criterion_05_complement_invariance():
    violations = []
    for g in atlas_graphs(5):
        for r in (1, INF):
            a, b = flip_width(g, r), flip_width(complement(g), r)
            if a != b:
                violations.append(f"{list(g.edges())} r={r}: {a} vs {b}")
    assert not report(5, "fw_r(complement) = fw_r(G), r in {1,inf}, n <= 5",
                      violations)


def test_criterion_06_half_graph():
    violations = []
    h6 = generate("half_graph", 6)
    sol = solve_flipper(h6, INF, 4, max_n=12)
    if sol.winner != FLIPPER:
        violations.append(f"solver winner {sol.winner} at k=4")
    ok, rounds = pursuer_beats_every_evader("flip", h6, INF, 4,
                                            HalfGraphFlipper(6), 10)
    if not ok:
        violations.append("scripted strategy loses to some runner")
    elif rounds > 7:
        violations.append(f"scripted strategy needs {rounds} rounds")
    assert not report(6, "fw_inf(H_6) <= 4 by solver; scripted strategy wins "
                         "within 7 rounds", violations)


def test_criterion_07_hideout_duality():
    violations = []
    for g in atlas_graphs(5):
        if g.n < 2:
            continue
        for r in (1, 2):
            for k in (1, 2):
                sol = None
                for d in range(1, g.n):
                    cert = find_hideout_small(g, r, k, d)
                    if cert is None:
                        continue
                    if sol is None:
                        sol = solve_flipper(g, r, k)
                    if sol.winner != RUNNER:
                        violations.append(
                            f"{list(g.edges())} (r={r},k={k},d={d}): hideout "
                            f"exists but flipper wins")
                        continue
                    runner = HideoutRunner(g, cert)
                    trace = simulate_match("flip", g, r, k,
                                           sol.witness_pursuer, runner, 10 * g.n)
                    if trace.outcome != "EVADER_SURVIVES":
                        violations.append(
                            f"{list(g.edges())} (r={r},k={k},d={d}): hideout "
                            f"runner trapped at round {trace.rounds}")
    assert not report(7, "hideout => runner wins; hideout runner survives 10n "
                         "rounds (n <= 5)", violations)


def test_criterion_08_subdivision_lower_bound():
    violations = []
    base5 = generate("clique", 5)
    g5, principal5 = exact_subdivision(base5, 1)
    cert5 = subdivision_hideout(base5, 2, 1)
    if cert5.u != frozenset(principal5) or cert5.r != 2 or cert5.d != 1:
        violations.append("K_5 certificate malformed")
    rep = verify_flip_hideout_report(g5, cert5, mode="exhaustive", max_n=15)
    if not rep.valid:
        violations.append(f"K_5 subdivision refuted by {rep.refutation}")
    base9 = generate("clique", 9)
    g9, principal9 = exact_subdivision(base9, 1)
    cert9 = subdivision_hideout(base9, 2, 2)
    rep9 = verify_flip_hideout_report(g9, cert9, mode="sampled", seed=1729,
                                      trials=10000)
    if not rep9.valid:
        violations.append(f"K_9 subdivision sampled refutation {rep9.refutation}")
    assert not report(8, "subdivided K_5 is a (2,1,1)-hideout (exhaustive); "
                         "K_9 at (2,2,2) sampled 10^4", violations)


def test_criterion_09_near_twins():
    violations = []
    for g in atlas_graphs(5):
        if g.n < 2:
            continue
        k = flip_width(g, 1)
        if g.n > k and near_twin_min(g) > 2 * k:
            violations.append(
                f"{list(g.edges())}: fw_1={k} but min symdiff {near_twin_min(g)}")
    pet = generate("petersen")
    if solve_flipper(pet, 1, 2).winner != RUNNER:
        violations.append("fw_1(Petersen) < 3: width-2 flipper wins")
    # independent path: networkx's Petersen graph, u and v left out
    import networkx as nx
    nxpet = nx.petersen_graph()
    if not nx.is_isomorphic(nxpet, nx.Graph(list(pet.edges()))):
        violations.append("generate('petersen') is not the Petersen graph")
    oracle = min(len((set(nxpet[u]) ^ set(nxpet[v])) - {u, v})
                 for u, v in itertools.combinations(nxpet, 2))
    mindiff = near_twin_min(pet)
    if mindiff != 4 or oracle != 4:
        violations.append(
            f"Petersen min near-twin distance: computed {mindiff}, networkx "
            f"{oracle}, derived 4 (srg(10,3,0,1): non-adjacent pairs share one "
            f"neighbor, 3+3-2; adjacent pairs share none, 2+2)")
    assert not report(9, "near-twin pair with symdiff <= 2 fw_1 (n <= 5); "
                         "Petersen values", violations)


def test_criterion_10_vc_bounds():
    violations = []
    for g in atlas_graphs(5):
        fw1 = flip_width(g, 1)
        if vc_dimension(g) > 8 * fw1:
            violations.append(f"{list(g.edges())}: VC > 8 fw_1")
        fw2 = flip_width(g, 2)
        if vc_dimension(g, two_vc=True) > 8 * fw2 + 2:
            violations.append(f"{list(g.edges())}: 2VC > 8 fw_2 + 2")
    assert not report(10, "VCdim <= 8 fw_1 and 2VCdim <= 8 fw_2 + 2, n <= 5",
                      violations)


def test_criterion_11_definable_game():
    violations = []
    for g in atlas_graphs(6):
        for k in (0, 1, 2):
            got = solve_definable(g, 1, k).winner
            want = solve_flipper_concrete(g, 1, k, definable=True)
            if got != want:
                violations.append(f"{list(g.edges())} k={k}: {got} vs {want}")
    for g in atlas_graphs(5):
        for r in (1, INF):
            dfw = definable_flip_width(g, r)
            fw = flip_width(g, r)
            if fw > 2 ** dfw:
                violations.append(f"{list(g.edges())} r={r}: fw={fw} > 2^{dfw}")
    for g in atlas_graphs(5):
        for k in (0, 1, 2):
            verdict = approx_flip_width(g, 1, k)
            if verdict.kind == "UPPER" and flip_width(g, 1) > 2 ** k:
                violations.append(f"{list(g.edges())} k={k}: UPPER verdict wrong")
            if verdict.kind == "LOWER" and \
               solve_flipper_concrete(g, 1, k, definable=True) == FLIPPER:
                violations.append(f"{list(g.edges())} k={k}: LOWER verdict wrong")
    assert not report(11, "dfw = brute force (n <= 6, k <= 2); fw <= 2^dfw; "
                          "approx verdicts consistent (n <= 5)", violations)


def test_criterion_12_twin_width_bridge():
    from flipwidth.twinwidth import (TwinWidthFlipper, btww_flip_size_bound,
                                     tww_exact_small)
    violations = []
    for g in atlas_graphs(6, min_n=2):
        value, cs = tww_exact_small(g)
        policy = TwinWidthFlipper(g, cs, 1)
        bound = btww_flip_size_bound(g, policy.d, 1, shatter_function)
        bad = []

        def on_round(rnd, move, newpos, legal):
            if move.partition.size > bound:
                bad.append(f"round {rnd}: flip size {move.partition.size} > {bound}")
            masks = tuple(flip_masks(g, move))
            if not policy.invariant_holds(rnd, masks, newpos):
                bad.append(f"round {rnd}: ball invariant broken")

        ok, rounds = pursuer_beats_every_evader("flip", g, 1, g.n, policy,
                                                3 * g.n, on_round=on_round)
        if not ok:
            violations.append(f"{list(g.edges())}: best-response runner survives")
        elif rounds > g.n:
            violations.append(f"{list(g.edges())}: {rounds} rounds > n")
        violations.extend(f"{list(g.edges())}: {b}" for b in bad[:1])
    assert not report(12, "twin-width strategy beats best response within n "
                          "rounds, flip sizes bounded, invariant holds (n <= 6)",
                      violations)


def test_criterion_13_ordered_duality():
    violations = []
    for s in ("eq", "neq", "lel", "gel", "ler", "ger"):
        og = generate("s_pattern", 4, s)
        cert = pattern_rich_division(og, 4)
        if not verify_rich_division(og, cert):
            violations.append(f"pattern {s}: division does not verify")
            continue
        sol = solve_ordered(og, 1, 1)
        if sol.winner != RUNNER:
            violations.append(f"pattern {s}: flipper wins at width 1")
            continue
        runner = RichDivisionRunner(og, cert)
        trace = simulate_match("ordered", og.graph, 1, 1, sol.witness_pursuer,
                               runner, 50)
        if trace.outcome != "EVADER_SURVIVES":
            violations.append(f"pattern {s}: runner trapped at {trace.rounds}")
    import oracles
    for n in (1, 2, 3, 4):
        for edges in oracles.all_labeled_graphs(n):
            og = OrderedGraph(oracles.graph_from_edges(n, edges))
            fwo = ordered_flip_width(og, 1)
            fw1 = ordered_binary_flip_width(og, 1)
            fw5 = ordered_binary_flip_width(og, 5)
            if not ((fw1 + 1) ** 0.5 <= fwo + 1 <= fw5 + 1):
                violations.append(
                    f"ordered n={n} {sorted(map(sorted, edges))}: "
                    f"fw_1={fw1}, fw^<_1={fwo}, fw_5={fw5}")
    assert not report(13, "pattern divisions verify and their runners survive; "
                          "ordered flip-width inequality (n <= 4)", violations)


def test_criterion_14_copprime_and_isolation():
    violations = []
    for g in atlas_graphs(6, min_n=2):
        for r in (1, 2):
            for k in (1, 2):
                cops_win = solve_copw_prime(g, r, k).winner == COPS
                hideout = None
                for size in range(2, g.n + 1):
                    for combo in itertools.combinations(range(g.n), size):
                        cand = CopsHideout(frozenset(combo), r, k)
                        if verify_cops_hideout(g, cand):
                            hideout = cand
                            break
                    if hideout:
                        break
                order = greedy_copprime_order(g, r, k)
                if order is not None and not order_cert_check(g, order, r, k):
                    violations.append(f"{list(g.edges())} r={r} k={k}: bad order")
                if cops_win != (hideout is None) or cops_win != (order is not None):
                    violations.append(
                        f"{list(g.edges())} r={r} k={k}: game={cops_win}, "
                        f"hideout={hideout is not None}, order={order is not None}")
    for g in atlas_graphs(6, min_n=2):
        for r in (1, 2):
            iw = isolation_width(g, r)
            cw = cop_width(g, r)
            if not iw <= cw <= 2 * iw:
                violations.append(f"{list(g.edges())} r={r}: iw={iw}, copw={cw}")
    assert not report(14, "copw' game = no-hideout = order (n <= 6, k <= 2, "
                          "r <= 2); iw <= copw <= 2 iw", violations)


def test_criterion_15_transfer_soundness():
    violations = []
    neg = parse_formula("!E(x,y)")
    for g in atlas_graphs(5, min_n=2):
        for r in (1, INF):
            k = flip_width(g, r)
            sol = solve_flipper(g, r, k)
            fm = FlipMap(ColoredGraph(g, [1] * g.n), neg)
            moved = TransferredFlipper(fm, sol.witness_pursuer, r)
            ok, _ = pursuer_beats_every_evader("flip", complement(g), r, k,
                                               moved, 4 * g.n + 4)
            if not ok:
                violations.append(f"{list(g.edges())} r={r}: transfer loses")
    g = lexicographic_product(generate("clique", 2), generate("clique", 3))
    part = Partition([0, 0, 0, 1, 1, 1])
    quotient_sol = solve_flipper(generate("clique", 2), INF, 1)
    block_sol = solve_flipper(generate("clique", 3), INF, 1)
    policy = ModularLiftFlipper(g, part, quotient_sol.witness_pursuer,
                                {0: block_sol.witness_pursuer,
                                 1: block_sol.witness_pursuer})
    ok, _ = pursuer_beats_every_evader("flip", g, INF, max(1, 1 + 2), policy, 40)
    if not ok:
        violations.append("modular lift loses on lex(K_2, K_3)")
    assert not report(15, "complement transfers win (n <= 5); modular lift "
                          "wins on lex(K_2,K_3) within width 3", violations)
