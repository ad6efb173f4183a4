"""Checks on the answers the benchmark's operations return.

Every check works from networkx, from code in this file, or from a property
the method must have; none compares against a stored copy of an earlier
output.  Each function returns a list of violations, empty when the answers
pass, so a test can feed it a wrong answer and see it complain.
"""

import itertools

import networkx as nx

INF = "inf"


def mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(m):
    out = []
    v = 0
    while m:
        if m & 1:
            out.append(v)
        m >>= 1
        v += 1
    return out


def ball(h, v, r):
    """Radius-r ball of v in h as a bitmask; the component when r is "inf"."""
    if r == INF:
        return mask(nx.node_connected_component(h, v))
    return mask(nx.single_source_shortest_path_length(h, v, cutoff=int(r)))


def degeneracy(h):
    """Degeneracy as the largest core number."""
    return max(nx.core_number(h).values(), default=0)


def near_twin_min(h):
    """Least |N(u) ^ N(v)| over pairs u != v, with u and v left out."""
    return min(len((set(h[u]) ^ set(h[v])) - {u, v})
               for u, v in itertools.combinations(h, 2))


def treewidth(h):
    """Exact treewidth over elimination orders, by dynamic programming on
    the set of vertices already eliminated.

    Eliminating v after the set S costs the number of vertices outside
    S + {v} that v reaches through S; the width of an order is its largest
    cost.
    """
    nodes = sorted(h)
    if not nodes:
        return 0
    best = {frozenset(): -1}
    for size in range(1, len(nodes) + 1):
        layer = {}
        for subset in itertools.combinations(nodes, size):
            s = frozenset(subset)
            layer[s] = min(max(best[s - {v}], _elimination_degree(h, s - {v}, v))
                           for v in subset)
        best = layer
    return max(best[frozenset(nodes)], 0)


def _elimination_degree(h, eliminated, v):
    seen = {v}
    stack = [v]
    outside = set()
    while stack:
        u = stack.pop()
        for w in h[u]:
            if w in seen:
                continue
            seen.add(w)
            if w in eliminated:
                stack.append(w)
            else:
                outside.add(w)
    return len(outside)


def flipped_graph(h, move):
    """The graph a flip move's JSON describes: h with adjacency inverted
    between the listed block pairs."""
    blocks = move["blocks"]
    flipped = {(min(i, j), max(i, j)) for i, j in move["pairs"]}
    out = nx.Graph()
    out.add_nodes_from(h)
    for u, v in itertools.combinations(sorted(h), 2):
        pair = (min(blocks[u], blocks[v]), max(blocks[u], blocks[v]))
        if h.has_edge(u, v) != (pair in flipped):
            out.add_edge(u, v)
    return out


def check_flip_certificate(h, r, k, answer):
    """Check a flipper win at width k as a certificate.

    answer is (winner, rounds, win_table) with win_table mapping a state
    bitmask R to (t, move-json).  For every entry, every vertex of R must be
    isolated in the move's graph or have a radius-r ball there that the
    table wins in fewer than t rounds; every initial ball of h must be won,
    and rounds must be the worst of those.
    """
    winner, rounds, table = answer
    n = h.number_of_nodes()
    out = []
    if winner != "flipper":
        return [f"winner is {winner!r}, expected the flipper at k={k}"]
    initial = [ball(h, v, r) for v in range(n)]
    missing = [v for v, b in enumerate(initial) if b not in table]
    if missing:
        out.append(f"initial balls of vertices {missing} are not won")
    elif rounds != max(table[b][0] for b in initial):
        out.append(f"rounds {rounds} is not the worst initial entry")
    graphs = {}
    for state, (t, move) in table.items():
        blocks = move["blocks"]
        if len(blocks) != n or len(set(blocks)) > k:
            out.append(f"state {vertices_of(state)}: move {move} is not a {k}-flip of {n} vertices")
            continue
        key = (tuple(blocks), tuple(map(tuple, move["pairs"])))
        if key not in graphs:
            graphs[key] = flipped_graph(h, move)
        flipped = graphs[key]
        for v in vertices_of(state):
            if flipped.degree(v) == 0:
                continue
            b = ball(flipped, v, r)
            entry = table.get(b)
            if entry is None or entry[0] >= t:
                out.append(f"state {vertices_of(state)} (round {t}): vertex {v} "
                           f"lands in {vertices_of(b)}, not won before round {t}")
                break
    return out


def check_value_searches(graphs, pairs, values):
    """Check fw-small's value searches.

    graphs maps an input id to its networkx graph, pairs lists (G, co-G)
    id pairs and values maps (id, game, r) to the value the CLI printed.
    Flip-width and ordered flip-width are invariant under complement; flip
    width grows with the radius; fw_1 <= 2^dfw_1; and when n > fw_1 some
    pair of vertices is at near-twin distance <= 2 fw_1.
    """
    out = []
    partner = dict(pairs)
    for (gid, game, r), value in values.items():
        if not (0 if game == "dfw" else 1) <= value <= graphs[gid].number_of_nodes():
            out.append(f"{gid}: {game} r={r} value {value} outside its range")
        other = values.get((partner.get(gid), game, r))
        if game != "dfw" and other is not None and other != value:
            out.append(f"{gid} vs complement {partner[gid]}: {game} r={r} gives "
                       f"{value} and {other}")
    for gid, h in graphs.items():
        fw = [values.get((gid, "flip", r)) for r in ("1", "2", INF)]
        if None not in fw and not fw[0] <= fw[1] <= fw[2]:
            out.append(f"{gid}: fw_1, fw_2, fw_inf = {fw} not monotone")
        dfw = values.get((gid, "dfw", "1"))
        if fw[0] is not None and dfw is not None and fw[0] > 2 ** dfw:
            out.append(f"{gid}: fw_1 = {fw[0]} > 2^dfw_1 = {2 ** dfw}")
        if fw[0] is not None and h.number_of_nodes() > fw[0] and near_twin_min(h) > 2 * fw[0]:
            out.append(f"{gid}: fw_1 = {fw[0]} but no pair at near-twin "
                       f"distance <= {2 * fw[0]}")
    return out


def check_cop_widths(h, answers):
    """Check cop-width searches and the parameter oracles beside them.

    answers maps the radius ("1", "2", "inf") to a dict with the cop width
    and the oracle values the operation computed.  copw_1 = degeneracy + 1
    (from networkx core numbers), copw_inf = treewidth + 1 (from this
    file), adm_r + 1 <= copw_r <= wcol_2r + 1, and copw grows with r.
    """
    out = []
    one, two, inf = (answers.get(r) for r in ("1", "2", INF))
    if one is not None:
        d = degeneracy(h)
        if one["degeneracy"] != d:
            out.append(f"degeneracy {one['degeneracy']}, networkx cores give {d}")
        if one["copw"] != d + 1:
            out.append(f"copw_1 = {one['copw']}, degeneracy + 1 = {d + 1}")
    if inf is not None:
        tw = treewidth(h)
        if inf["treewidth"] != tw:
            out.append(f"treewidth {inf['treewidth']}, exact search gives {tw}")
        if inf["copw"] != tw + 1:
            out.append(f"copw_inf = {inf['copw']}, treewidth + 1 = {tw + 1}")
    for r, a in (("1", one), ("2", two)):
        if a is not None and not a["adm"] + 1 <= a["copw"] <= a["wcol"] + 1:
            out.append(f"r={r}: adm+1 = {a['adm'] + 1}, copw = {a['copw']}, "
                       f"wcol_2r+1 = {a['wcol'] + 1}")
    widths = [a["copw"] for a in (one, two, inf) if a is not None]
    if widths != sorted(widths):
        out.append(f"copw_1, copw_2, copw_inf = {widths} not monotone")
    return out
