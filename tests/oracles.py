"""Independent oracles used to compute expected test values.

Everything here is deliberately written from the definitions, sharing no
code path with the package: different data structures (sets/dicts instead
of bitmasks), different algorithms (order enumeration instead of DP,
path enumeration instead of incremental BFS).

The flip-outcome stream at the end is the reference the package's outcome
engine (flipwidth.bulk) is tested against.  It is the oracle's own: the
package no longer reduces flips this way, so the two share no reduction
code.  The stream takes its flips from the package enumerators, which
test_flips.py checks against brute force, and its balls and isolation from
the games' rules objects: plain bitmask walks, apart from the engine's
numpy kernels (test_flips.py checks the cut-flip walk by hand).
solve_flipper_concrete, an oracle for the position-set abstraction of the
game solvers, reads its flips from the same stream.  gaifman_graphs, last,
is the reference for the binary ordered game: it builds every flip of the
order relation with its own loops, and every edge flip over all block
pairs, the diagonal ones included, where the package's stream has the
cross pairs only.  abstract_solve and check_anti_tone are the dict-based
fixpoint over position sets and its monotonicity check, as the package
ran them before its fixpoint moved to arrays: the reference the package's
array fixpoint is tested against.  greedy_cover is the table flipper's
move off its table, as that loop chose it.
"""

import functools
import itertools
from collections import deque, namedtuple

from flipwidth.flips import (CutFlip, Partition, block_pairs, enumerate_definable_flips,
                             enumerate_k_flips, flip_masks, order_cuts, order_rows,
                             rgs_partitions, subset_flip)
from flipwidth.games import FLIPPER, RUNNER, Evader
from flipwidth.graphs import INF, bits, popcount


def decode_graph6(text):
    """Independent graph6 decoder: returns (n, set of frozenset edges)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(c) - 63 for c in s]
    n = data[0]
    stream = []
    for val in data[1:]:
        stream.extend((val >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    edges = set()
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if stream[pos]:
                edges.add(frozenset((row, col)))
            pos += 1
    return n, edges


def edges_of(g):
    return {frozenset((u, v)) for u, v in g.edges()}


def flip_by_labels(g, labels, label_pairs):
    """Edge set of g with each pair u != v toggled whose labels, in either
    order, form one of the listed label pairs."""
    listed = {frozenset(p) for p in label_pairs}
    edges = edges_of(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if frozenset((labels[u], labels[v])) in listed:
                edges ^= {frozenset((u, v))}
    return edges


def adjacency_dict(g):
    return {v: set(g.neighbors(v)) for v in range(g.n)}


def semi_induced_bruteforce(g, xs, ys):
    """(vertex count, edge set) of the semi-induced bipartite graph by the
    duplication definition."""
    nx = len(xs)
    edges = set()
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if frozenset((x, y)) in edges_of(g) and x != y:
                edges.add(frozenset((i, nx + j)))
    return nx + len(ys), edges


def ball_by_paths(g, v, r):
    """Radius-r ball via frontier layers (finite r only)."""
    out = {v}
    frontier = {v}
    for _ in range(r):
        frontier = {w for u in frontier for w in g.neighbors(u)} - out
        out |= frontier
    return out


def nx_distances(g, v, keep):
    """networkx shortest-path distances from v in the subgraph of g induced
    on the vertex set keep, which holds v."""
    import networkx as nx
    keep = set(keep)
    h = nx.Graph()
    h.add_nodes_from(keep)
    h.add_edges_from((u, w) for u in keep for w in g.neighbors(u) if w in keep)
    return nx.single_source_shortest_path_length(h, v)


def nx_blocked_ball(g, v, r, blocked):
    """Mask of the distance-r ball of v in G - (blocked - {v}), by networkx."""
    keep = [u for u in range(g.n) if u == v or not (blocked >> u) & 1]
    return sum(1 << w for w, d in nx_distances(g, v, keep).items() if r is INF or d <= r)


def nx_weak_reach(g, order, r):
    """Per vertex v, the mask of the w before v with dist(v, w) <= r in the
    subgraph induced on w and the vertices after it, by networkx."""
    reach = [0] * g.n
    for i, w in enumerate(order):
        for v, d in nx_distances(g, w, order[i:]).items():
            if v != w and (r is INF or d <= r):
                reach[v] |= 1 << w
    return reach


def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


def set_partitions(items):
    """All set partitions of a list, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def all_labeled_graphs(n):
    """Every labeled graph on n vertices as an edge set."""
    pairs = list(itertools.combinations(range(n), 2))
    for sub in range(1 << len(pairs)):
        yield {frozenset(p) for i, p in enumerate(pairs) if (sub >> i) & 1}


def graph_from_edges(n, edges):
    from flipwidth.graphs import Graph
    return Graph(n, [tuple(sorted(e)) for e in edges])


def degeneracy_by_orders(g):
    """Degeneracy as min over ALL orders of the max back-degree."""
    best = None
    for order in itertools.permutations(range(g.n)):
        pos = {v: i for i, v in enumerate(order)}
        worst = max((sum(1 for u in g.neighbors(v) if pos[u] < pos[v])
                     for v in order), default=0)
        best = worst if best is None else min(best, worst)
    return best


def order_back_degree(g, order):
    """Max number of neighbors a vertex has before it; degeneracy checker."""
    pos = {v: i for i, v in enumerate(order)}
    return max((sum(1 for u in g.neighbors(v) if pos[u] < pos[v])
                for v in order), default=0)


def wcol_by_orders(g, r):
    """wcol_r by order enumeration and literal path checks (w < v only)."""
    best = None
    vertices = list(range(g.n))
    for order in itertools.permutations(vertices):
        pos = {v: i for i, v in enumerate(order)}
        worst = 0
        for v in vertices:
            count = 0
            for w in vertices:
                if pos[w] >= pos[v]:
                    continue
                if any(all(pos[x] >= pos[w] for x in path)
                       for path in simple_paths(g, v, w, r)):
                    count += 1
            worst = max(worst, count)
        best = worst if best is None else min(best, worst)
    return best


def simple_paths(g, a, b, max_len):
    """All simple paths from a to b of length <= max_len, as vertex lists."""
    out = []

    def walk(path):
        last = path[-1]
        if last == b and len(path) > 1:
            out.append(list(path))
            return
        if len(path) - 1 >= max_len:
            return
        for w in g.neighbors(last):
            if w not in path:
                path.append(w)
                walk(path)
                path.pop()

    if a == b:
        out.append([a])
    walk([a])
    return out


def adm_by_orders(g, r):
    best = None
    for order in itertools.permutations(range(g.n)):
        pos = {v: i for i, v in enumerate(order)}
        worst = 0
        for v in range(g.n):
            targets = [w for w in range(g.n) if pos[w] < pos[v]]
            paths = []
            for w in targets:
                paths.extend(tuple(p) for p in simple_paths(g, v, w, r))
            worst = max(worst, max_packing(paths, v))
        best = worst if best is None else min(best, worst)
    return best


def max_packing(paths, pivot):
    """Max number of paths pairwise sharing only the pivot vertex."""
    best = 0

    def rec(i, used, count):
        nonlocal best
        best = max(best, count)
        for j in range(i, len(paths)):
            body = set(paths[j]) - {pivot}
            if body & used:
                continue
            rec(j + 1, used | body, count + 1)

    rec(0, set(), 0)
    return best


def treewidth_by_elimination(g):
    """Treewidth as min over all elimination orders of max fill degree."""
    best = None
    for order in itertools.permutations(range(g.n)):
        adj = {v: set(g.neighbors(v)) for v in range(g.n)}
        width = 0
        for v in order:
            nbrs = adj[v]
            width = max(width, len(nbrs))
            for a in nbrs:
                adj[a].discard(v)
            for a, b in itertools.combinations(nbrs, 2):
                adj[a].add(b)
                adj[b].add(a)
            del adj[v]
        best = width if best is None else min(best, width)
    return best


def gf2_rank_numpy(rows, width):
    """GF(2) rank via numpy row reduction on explicit 0/1 matrices."""
    import numpy as np
    if not rows:
        return 0
    mat = np.zeros((len(rows), width), dtype=np.uint8)
    for i, row in enumerate(rows):
        for j in range(width):
            mat[i, j] = (row >> j) & 1
    rank = 0
    col = 0
    r = 0
    while r < mat.shape[0] and col < width:
        pivots = [i for i in range(r, mat.shape[0]) if mat[i, col]]
        if not pivots:
            col += 1
            continue
        mat[[r, pivots[0]]] = mat[[pivots[0], r]]
        for i in range(mat.shape[0]):
            if i != r and mat[i, col]:
                mat[i] ^= mat[r]
        r += 1
        rank += 1
        col += 1
    return rank


def cut_rank_oracle(g, a_set):
    a_list = sorted(a_set)
    rest = [v for v in range(g.n) if v not in a_set]
    rows = []
    for a in a_list:
        row = 0
        for j, b in enumerate(rest):
            if g.has_edge(a, b):
                row |= 1 << j
        rows.append(row)
    return gf2_rank_numpy(rows, len(rest))


def unordered_binary_trees(leaves):
    """All unordered rooted binary trees over the given leaf list, as nested
    frozensets of leaf pairs."""
    leaves = list(leaves)
    if len(leaves) == 1:
        yield leaves[0]
        return
    first, rest = leaves[0], leaves[1:]
    for size in range(0, len(rest)):
        for combo in itertools.combinations(rest, size):
            left_leaves = [first] + list(combo)
            right_leaves = [x for x in rest if x not in combo]
            if not right_leaves:
                continue
            for lt in unordered_binary_trees(left_leaves):
                for rt in unordered_binary_trees(right_leaves):
                    yield (lt, rt)


def rankwidth_by_trees(g):
    """Exhaustive decomposition search over rooted binary trees."""
    if g.n <= 1:
        return 0
    best = None
    for tree in unordered_binary_trees(range(g.n)):
        worst = 0

        def walk(t):
            nonlocal worst
            if isinstance(t, int):
                return {t}
            left = walk(t[0])
            right = walk(t[1])
            for side in (left, right, left | right):
                worst = max(worst, cut_rank_oracle(g, side))
            return left | right

        walk(tree)
        best = worst if best is None else min(best, worst)
    return best


def decomposition_cut_ranks(g, tree):
    """Max cut-rank over all subtree cuts; checker for rank_width_small."""
    best = 0

    def walk(t):
        nonlocal best
        if isinstance(t, int):
            return {t}
        left = walk(t[0])
        right = walk(t[1])
        best = max(best, cut_rank_oracle(g, left), cut_rank_oracle(g, right))
        return left | right

    walk(tree)
    return best


def shattered_sets(g, size):
    """All size-`size` shattered vertex sets (direct definition)."""
    nbhd = [set(g.neighbors(v)) for v in range(g.n)]
    out = []
    for xs in itertools.combinations(range(g.n), size):
        xset = set(xs)
        traces = {frozenset(nb & xset) for nb in nbhd}
        if len(traces) == 1 << size:
            out.append(xs)
    return out


def vc_oracle(g):
    d = 0
    while shattered_sets(g, d + 1):
        d += 1
    return d


def symdiff_oracle(g, u, v):
    return len(set(g.neighbors(u)) ^ set(g.neighbors(v)))


def tww_exhaustive(g):
    """Twin-width by full DFS over merge orders (no memo, no pruning)."""
    def homog(parts, i, j, adj):
        a, b = parts[i], parts[j]
        flags = {frozenset((u, w)) in adj for u in a for w in b}
        return len(flags) == 1

    adj = edges_of(g)

    def red_deg(parts):
        worst = 0
        for i in range(len(parts)):
            deg = sum(1 for j in range(len(parts)) if j != i and not homog(parts, i, j, adj))
            worst = max(worst, deg)
        return worst

    best = [None]

    def rec(parts, cur):
        if len(parts) == 1:
            if best[0] is None or cur < best[0]:
                best[0] = cur
            return
        if best[0] is not None and cur >= best[0]:
            return
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                merged = [p for idx, p in enumerate(parts) if idx not in (i, j)]
                merged.append(parts[i] | parts[j])
                rec(merged, max(cur, red_deg(merged)))

    rec([frozenset((v,)) for v in range(g.n)], 0)
    return best[0]


def cop_game_oracle(game, g, r, k):
    """Least fixpoint of the cop, isolation or copprime game on explicit
    states, from the definitions.

    A cop or isolation state is (S, v), for every S subset of V and v not
    in S: the cops stand on S and the robber on v.  The cops announce S2
    with |S2| <= k, the robber runs along a path of length <= r whose
    vertices avoid the grounded cops (S & S2 in the cop game, S in the
    isolation game), and is caught on S2; else the state becomes (S2, u).
    A copprime state is the robber's vertex v: against the cop set A the
    robber stays on v when v is not in A, or moves along a path of length
    1..r whose vertices after v avoid A, and is caught when no response is
    left.

    Returns {state: (round, move)}: the round the state is won in, counted
    from 1, and its first winning move in enumeration order, by size and
    then by the largest differing vertex (the order of the bitmasks).
    """
    vertices = range(g.n)
    adj = adjacency_dict(g)
    subsets = [frozenset(c) for size in range(g.n + 1)
               for c in itertools.combinations(vertices, size)]
    moves = sorted((s for s in subsets if len(s) <= k),
                   key=lambda s: (len(s), sorted(s, reverse=True)))

    @functools.cache
    def run(v, blocked):
        """v and the vertices at distance 1..r from v in G - blocked, BFS."""
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            if r is not INF and dist[u] == r:
                continue
            for w in adj[u]:
                if w not in dist and w not in blocked:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return frozenset(dist)

    def escapes(state, move):
        """The states the robber's responses to move lead to, captures left out."""
        if game == "copprime":
            return [u for u in run(state, move) if u not in move]
        cops, v = state
        grounded = cops & move if game == "cop" else cops
        return [(move, u) for u in run(v, grounded) if u not in move]

    if game == "copprime":
        states = list(vertices)
    else:
        states = [(s, v) for s in subsets for v in vertices if v not in s]
    options = {state: [(move, escapes(state, move)) for move in moves] for state in states}
    won = {}
    rnd = 0
    while True:
        rnd += 1
        new = {}
        for state in states:
            if state in won:
                continue
            for move, nexts in options[state]:
                if all(nxt in won for nxt in nexts):
                    new[state] = (rnd, move)
                    break
        if not new:
            return won
        won.update(new)


class FirstLegalEvader(Evader):
    def respond(self, state, move, legal):
        return legal[0], state


def _ball_of(rows, v, r):
    """Mask of the vertices within distance r of v in the graph with
    adjacency rows (r=INF: its component), by BFS layers."""
    dist = {v: 0}
    frontier = [v]
    while frontier and (r is INF or dist[frontier[0]] < r):
        nxt = []
        for u in frontier:
            for w in range(len(rows)):
                if (rows[u] >> w) & 1 and w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return sum(1 << w for w in dist)


def solve_flipper_concrete(g, r, k, definable=False, max_n=None):
    """Flipper game solved over concrete (flip, vertex) states; returns only
    the winner.

    State (f, v): flip f was announced and the runner stands at v.  The
    flipper wins there when some next flip isolates or wins every vertex
    of v's radius-r ball in f; the runner first walks in g itself.
    """
    if definable:
        flips = distinct_flips(g, enumerate_definable_flips(g, k, max_n=max_n))
    else:
        flips = distinct_flips(g, enumerate_k_flips(g, k, max_n=max_n))
    rows = [masks for _, masks in flips]
    balls = [[_ball_of(masks, v, r) for v in range(g.n)] for masks in rows]
    # done[f]: the vertices v that f isolates or whose state (f, v) is won
    done = [sum(1 << v for v, row in enumerate(masks) if row == 0) for masks in rows]

    def covered(ball):
        return any(ball & ~d == 0 for d in done)

    changed = True
    while changed:
        changed = False
        for f in range(len(rows)):
            for v in range(g.n):
                if not (done[f] >> v) & 1 and covered(balls[f][v]):
                    done[f] |= 1 << v
                    changed = True
    flipper_wins = all(covered(_ball_of(g.adj, v, r)) for v in range(g.n))
    return FLIPPER if flipper_wins else RUNNER


# ---------------------------------------------------------------------------
# raw flip streams: partition streams in the package's format that keep
# every pair subset, from partitions built here


def restricted_growth(n, k):
    """Every labelling of 0..n-1 by blocks below k in which each label is at
    most one above every label before it, in lexicographic order: the
    labellings of itertools.product that pass that test."""
    for labels in itertools.product(range(k), repeat=n):
        top = -1
        for b in labels:
            if b > top + 1:
                break
            top = max(top, b)
        else:
            yield labels


@functools.lru_cache(maxsize=None)
def _every_subset(count):
    """Every subset number of count pairs, one shared array per count, so
    that the engine batches the partitions that share it."""
    import numpy as np
    return np.arange(1 << count)


def raw_k_flips(n, k):
    """The <= k-flips with no skip: every restricted-growth partition into
    at most k blocks times every subset of its block pairs (i, j), i <= j,
    listed i-major."""
    for labels in restricted_growth(n, k):
        part = Partition(labels)
        pairs = tuple((i, j) for i in range(part.size) for j in range(i, part.size))
        yield None, part, pairs, _every_subset(len(pairs))


def raw_definable_flips(g, k):
    """The definable flips with no skip: for every S of at most k vertices,
    by size and then by mask, the partition into classes of equal
    neighbourhood in S, tagged with S, times every subset of its block
    pairs."""
    for size in range(min(k, g.n) + 1):
        for s_set in sorted(itertools.combinations(range(g.n), size),
                            key=lambda s: sum(1 << v for v in s)):
            part = Partition([frozenset(u for u in s_set if (g.adj[v] >> u) & 1)
                              for v in range(g.n)])
            pairs = tuple((i, j) for i in range(part.size) for j in range(i, part.size))
            yield s_set, part, pairs, _every_subset(len(pairs))


def raw_bipartite_flips(g, left_mask, k):
    """The bipartite flips with no skip: every restricted-growth partition of
    each side into at most k blocks, blocks numbered by first vertex over
    both sides, times every subset of the pairs (left block, right block),
    left-major."""
    sides = ([v for v in range(g.n) if (left_mask >> v) & 1],
             [v for v in range(g.n) if not (left_mask >> v) & 1])
    for left in restricted_growth(len(sides[0]), k):
        for right in restricted_growth(len(sides[1]), k):
            labels = [None] * g.n
            for side, blocks in zip(sides, (("L", left), ("R", right))):
                for v, b in zip(side, blocks[1]):
                    labels[v] = (blocks[0], b)
            part, block = Partition.labelled(labels)
            pairs = tuple((block[("L", i)], block[("R", j)])
                          for i in range(len(set(left))) for j in range(len(set(right))))
            yield None, part, pairs, _every_subset(len(pairs))


def distinct_toggles(parts):
    """The number of distinct flipped graphs of a raw partition stream: each
    flip as the set of vertex pairs it toggles, one bit per pair u < v."""
    import numpy as np
    found = [np.zeros(0, dtype=np.int64)]
    for _, part, pairs, subs in parts:
        vertex_pairs = list(itertools.combinations(range(len(part.blocks)), 2))
        toggles = np.zeros(len(subs), dtype=np.int64)
        for t, (i, j) in enumerate(pairs):
            bit = sum(1 << e for e, (u, v) in enumerate(vertex_pairs)
                      if sorted((part.blocks[u], part.blocks[v])) == sorted((i, j)))
            toggles |= ((subs >> t) & 1) * bit
        found.append(toggles)
    return len(np.unique(np.concatenate(found)))


# ---------------------------------------------------------------------------
# the flip-outcome stream


def partition_flips(g, part, pairs, seen):
    """(FlipSpec, rows) for every subset of `pairs` flipped over part, pair
    subsets in binary counting order; rows are computed once per flip, and a
    flip whose rows are already in `seen` is skipped (seen is extended)."""
    for sub in range(1 << len(pairs)):
        spec = subset_flip(part, pairs, sub)
        masks = flip_masks(g, spec)
        if masks not in seen:
            seen.add(masks)
            yield spec, masks


def distinct_flips(g, parts):
    """Stream (move, rows) over a partition stream from flipwidth.flips, one
    per distinct edge set, the first flip of each kept; the move is the
    FlipSpec when the stream's tag is None and (tag, FlipSpec) otherwise.
    Every pair subset is read: the stream's kept numbers are not."""
    seen = set()
    for tag, part, pairs, _ in parts:
        for spec, masks in partition_flips(g, part, pairs, seen):
            yield (spec if tag is None else (tag, spec)), masks


def cut_flip_stream(og, k):
    """Stream (CutFlip, (weight0, weight1)): every distinct <= k edge flip,
    its rows as the weight-1 rows, crossed with every cut |S| <= k."""
    g = og.graph
    weight0 = [(cut, order_rows(g.n, cut)) for cut in order_cuts(g.n, k)]
    for spec, w1 in distinct_flips(g, enumerate_k_flips(g, k, max_n=g.n)):
        for cut, w0 in weight0:
            yield CutFlip(spec, cut), (w0, w1)


StreamOutcome = namedtuple("StreamOutcome", "move iso balls")


def outcome_stream(rules, moves):
    """Distinct (iso, ballmap) outcomes over a stream of (move, masks), each
    with the first move that gives it, under the rules' ball and trapped."""
    n, ball, trapped = rules.n, rules.ball, rules.trapped
    seen = set()
    order = []
    for move, masks in moves:
        iso = 0
        for v in range(n):
            if trapped(masks, v):
                iso |= 1 << v
        key = (iso, tuple(ball(masks, v) for v in range(n)))
        if key not in seen:
            seen.add(key)
            order.append(StreamOutcome(move, *key))
    return order


def gaifman_graphs(og, k):
    """The distinct Gaifman graphs of the k-flips of (V, E, <) as a binary
    structure, as adjacency rows, in order of first occurrence: each edge
    flip over a partition combined with each flip of the order relation
    over it.  Edge flips are the usual symmetric ones."""
    g = og.graph
    graphs = {}
    for part in rgs_partitions(g.n, k):
        bm = part.block_masks()
        pairs = block_pairs(part.size)
        cross = [(i, j) for i, j in pairs if i < j]
        elayers = dict.fromkeys(flip_masks(g, subset_flip(part, pairs, sub))
                                for sub in range(1 << len(pairs)))
        # the first block pair's choice varies fastest
        llayers = dict.fromkeys(order_layer(part, bm, cross, choice[::-1]) for choice
                                in itertools.product(range(3), repeat=len(cross)))
        for em in elayers:
            for lm in llayers:
                graphs[tuple(e | o for e, o in zip(em, lm))] = None
    return list(graphs)


def order_layer(part, bm, cross, choice):
    """Gaifman rows of a flip of the order relation over part.  Within a
    block the order pairs always survive; between blocks i < j the flip
    keeps every pair (choice 0), or drops exactly the pairs whose smaller
    endpoint lies in i (1) or in j (2)."""
    rows = [bm[b] & ~(1 << v) for v, b in enumerate(part.blocks)]
    for (i, j), c in zip(cross, choice):
        for u in bits(bm[i]):
            for w in bits(bm[j]):
                if c == 0 or (c == 1) != (u < w):
                    rows[u] |= 1 << w
                    rows[w] |= 1 << u
    return tuple(rows)


def abstract_solve(outcomes, init_states, n):
    """Least fixpoint of Win over position sets reachable from init_states.

    Returns a dict mapping each won state to (rounds, outcome), where
    rounds is the entry iteration and outcome is the enumeration-first
    move whose kill set covers the state with respect to the table one
    iteration before entry (so replaying it strictly decreases rounds).
    """
    states = set(init_states)
    for o in outcomes:
        states.update(o.balls)
    won = {}
    iteration = 0
    pending = set(states)
    while True:
        iteration += 1
        new = {}
        prev_won = won
        kills = []
        kill_seen = set()
        for o in outcomes:
            kill = o.iso
            for v in range(n):
                if o.balls[v] in prev_won:
                    kill |= 1 << v
            if kill not in kill_seen:
                kill_seen.add(kill)
                kills.append((kill, o))
        for R in pending:
            for kill, o in kills:
                if R & ~kill == 0:
                    new[R] = (iteration, o)
                    break
        if not new:
            break
        won = dict(won)
        won.update(new)
        pending -= set(new)
        if not pending:
            break
    if len(won) <= 2000:
        check_anti_tone(won)
    return won


def check_anti_tone(won):
    """R subset R' with Win(R') forces Win(R) with no more rounds, over the
    recorded (reachable) states."""
    masks = sorted(won)
    for a in masks:
        for b in masks:
            if a != b and a & ~b == 0:
                if won[a][0] > won[b][0]:
                    raise AssertionError(f"anti-tone violated: {a:#x} within {b:#x} "
                                         f"but won later ({won[a][0]} > {won[b][0]})")


def greedy_cover(outcomes, won, R):
    """The first outcome, in stream order, whose kill under the won table
    covers most of R."""
    best = None
    best_cover = -1
    for o in outcomes:
        kill = o.iso
        for v in bits(R & ~kill):
            if o.balls[v] in won:
                kill |= 1 << v
        cover = popcount(R & kill)
        if cover > best_cover:
            best_cover = cover
            best = o
    return best
