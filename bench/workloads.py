"""The benchmark's four workloads: their inputs, operations and checks.

Graphs are fixed per workload (networkx atlas graphs, seeded G(n, 1/2) and
half-graphs), so every run does the same work.  The run's --seed relabels
the vertices of each graph and shuffles the order of the operations; it
never changes which graphs are solved, because flip-width, cop-width and
every count the trace reports are invariant under relabelling.
"""

import contextlib
import io
import json
import random
import sys

import networkx as nx

from flipwidth import cli, games, params
from flipwidth.graphs import INF, Graph, half_graph

import checks

NAMES = ("fw-small", "flip-large", "flip-bulk", "cop-params")


class Workload:
    """A fixed batch of operations and the check over their answers.

    ops is a list of (key, thunk); each thunk runs one operation and returns
    its answer.  warmup is the key of a small op, the same on every seed,
    run untimed during set-up.  check(answers) takes a dict key -> answer
    and returns violations.
    """

    def __init__(self, name, ops, warmup, check):
        self.name = name
        self.ops = ops
        self.warmup = warmup
        self.check = check


def build(name, seed, reduced=False):
    """Build workload `name` from `seed`; `reduced` gives a quick pass with
    one small instance of each kind of operation, for the tests."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, reduced)


def relabel(h, rng):
    """h with its vertices renamed by a random permutation of 0..n-1."""
    perm = list(range(h.number_of_nodes()))
    rng.shuffle(perm)
    return permute(h, perm)


def permute(h, perm):
    out = nx.Graph()
    out.add_nodes_from(range(len(perm)))
    out.add_edges_from((perm[u], perm[v]) for u, v in h.edges())
    return out


def to_graph(h):
    return Graph(h.number_of_nodes(), list(h.edges()))


def graph6(h):
    return nx.to_graph6_bytes(h, nodes=range(h.number_of_nodes()),
                              header=False).decode().strip()


def gnp(n, seed):
    return nx.gnp_random_graph(n, 0.5, seed=seed)


def half(n):
    g = half_graph(n)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _radius(r):
    return INF if r == checks.INF else int(r)


# ---------------------------------------------------------------------------
# fw-small: value searches through the CLI entry point


def run_cli(argv, stdin_text):
    """One in-process `flipwidth` command; returns the parsed JSON output."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"flipwidth {' '.join(argv)} exited {code}: "
                           f"{err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _value_op(graph6, game, r):
    argv = ["game", "-", game, "--r", r, "--value"]

    def op():
        obj = run_cli(argv, graph6)
        if obj.get("game") != game or str(obj.get("r")) != r:
            raise RuntimeError(f"unexpected output {obj} for {argv}")
        return obj["value"]
    return op


def _small_graphs(reduced):
    """(id, graph) base inputs: atlas graphs whose complements are not
    among them, so each base graph and its complement form a pair."""
    atlas = nx.graph_atlas_g()
    five = [(i, h) for i, h in enumerate(atlas)
            if h.number_of_nodes() == 5 and h.number_of_edges() <= 4]
    six = [(i, h) for i, h in enumerate(atlas)
           if h.number_of_nodes() == 6 and h.number_of_edges() <= 7][::6]
    if reduced:
        five, six = five[-1:], six[-1:]
    return five, six


def _fw_small(rng, reduced):
    five, six = _small_graphs(reduced)
    graphs, pairs, ops = {}, [], []
    for i, h in five + six:
        gid, cid = f"atlas{i}", f"atlas{i}c"
        pairs.append((gid, cid))
        co = nx.complement(h)
        # one permutation for G and co-G keeps them a complement pair; the
        # ordered game depends on the vertex order, so it runs on the atlas
        # labelling, where the pair shares one order too
        perm = list(range(h.number_of_nodes()))
        rng.shuffle(perm)
        for vid, base in ((gid, h), (cid, co)):
            moved = permute(base, perm)
            graphs[vid] = moved
            g6 = graph6(moved)
            for r in ("1", "2", checks.INF):
                ops.append(((vid, "flip", r), _value_op(g6, "flip", r)))
            ops.append(((vid, "dfw", "1"), _value_op(g6, "dfw", "1")))
            if base.number_of_nodes() == 5:
                g6 = graph6(base)
                ops.append(((vid, "ordered", "1"), _value_op(g6, "ordered", "1")))
    warmup = ops[0][0]
    rng.shuffle(ops)

    def check(answers):
        return checks.check_value_searches(graphs, pairs, answers)
    return Workload("fw-small", ops, warmup, check)


# ---------------------------------------------------------------------------
# flip-large and flip-bulk: fixed-width flipper solves


def _solve_op(g, r, k, max_n):
    def op():
        sol = games.solve_flipper(g, r, k, max_n=max_n)
        return sol.winner, sol.rounds, sol.win_table
    return op


def _flip_workload(name, instances, rng, scripted=None):
    """instances: (id, networkx graph, r, k), each won by the flipper; the
    first is the smallest and serves as the warm-up."""
    graphs, ops = {}, []
    for iid, h, r, k in instances:
        moved = relabel(h, rng)
        graphs[iid] = moved
        g = to_graph(moved)
        ops.append(((iid, r, k), _solve_op(g, _radius(r), k, g.n)))

    def check(answers):
        out = []
        for (iid, r, k), answer in answers.items():
            out += [f"{iid} r={r} k={k}: {v}"
                    for v in checks.check_flip_certificate(graphs[iid], r, k, answer)]
        if scripted is not None:
            out += scripted()
        return out
    return Workload(name, ops, ops[0][0], check)


def _flip_large(rng, reduced):
    # BULK_THRESHOLD is 2,000,000 raw flips: all of these stay on the stream
    # path (62,842 raw 3-flips at n=8, 195,642 at n=9)
    instances = [("gnp8s0", gnp(8, 0), "1", 3),
                 ("gnp8s2", gnp(8, 2), "2", 3),
                 ("half4", half(4), checks.INF, 3),
                 ("gnp9s0", gnp(9, 0), "1", 3)]
    if reduced:
        instances = [("gnp7s0", gnp(7, 0), "1", 3)]
    return _flip_workload("flip-large", instances, rng)


def _half5_scripted():
    """The scripted half-graph strategy must beat every runner on H_5 at
    width 4, agreeing with the solver's flipper win."""
    ok, _ = games.pursuer_beats_every_evader(
        "flip", to_graph(half(5)), INF, 4, games.HalfGraphFlipper(5), 10)
    return [] if ok else ["HalfGraphFlipper(5) loses to some runner at width 4"]


def _flip_bulk(rng, reduced):
    # all above BULK_THRESHOLD: 4,965,690 raw 5-flips at n=7, 8,152,122 raw
    # 4-flips at n=9 and 35,524,730 at n=10
    instances = [("gnp7s1", gnp(7, 1), checks.INF, 5),
                 ("gnp9s0", gnp(9, 0), checks.INF, 4),
                 ("half5", half(5), checks.INF, 4)]
    if reduced:
        instances = instances[:1]
    return _flip_workload("flip-bulk", instances, rng,
                          scripted=None if reduced else _half5_scripted)


# ---------------------------------------------------------------------------
# cop-params: cop-width searches with their parameter oracles


def _cop_op(g, r):
    def op():
        answer = {"copw": games.cop_width(g, _radius(r))}
        if r == "1":
            answer["degeneracy"] = params.degeneracy(g)[0]
        if r == checks.INF:
            answer["treewidth"] = params.treewidth_small(g)
        else:
            answer["adm"] = params.generalized_coloring_number(g, "adm", int(r))[0]
            answer["wcol"] = params.generalized_coloring_number(g, "wcol", 2 * int(r))[0]
        return answer
    return op


def _cop_params(rng, reduced):
    specs = [(n, s) for n in (8, 9) for s in range(6)]
    if reduced:
        specs = [(7, 0)]
    graphs, ops = {}, []
    for n, s in specs:
        gid = f"gnp{n}s{s}"
        moved = relabel(gnp(n, s), rng)
        graphs[gid] = moved
        g = to_graph(moved)
        for r in ("1", "2", checks.INF):
            ops.append(((gid, r), _cop_op(g, r)))
    warmup = ops[0][0]
    rng.shuffle(ops)

    def check(answers):
        out = []
        for gid, h in graphs.items():
            mine = {r: a for (i, r), a in answers.items() if i == gid}
            out += [f"{gid}: {v}" for v in checks.check_cop_widths(h, mine)]
        return out
    return Workload("cop-params", ops, warmup, check)


_BUILDERS = {"fw-small": _fw_small, "flip-large": _flip_large,
             "flip-bulk": _flip_bulk, "cop-params": _cop_params}
