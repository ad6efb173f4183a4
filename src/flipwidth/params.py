"""Oracles for the classical width parameters the games are measured against.

Exactness at small n is the contract; greedy modes are labelled upper
bounds.  Ties everywhere break toward the smallest vertex index.
"""

import itertools
import math
from collections import namedtuple

from .errors import GenerationError, check_bound
from .graphs import INF, ball_mask, bits, mask_of, popcount

ORDER_SEARCH_MAX_N = 9
TREEWIDTH_MAX_N = 12
RANKWIDTH_MAX_N = 8
WELL_LINKED_MAX_N = 14
VC_MAX_N = 20
SD_FUN_MAX_N = 10
SHATTER_MAX_SUBSETS = 2_000_000
ADM_MAX_PATHS = 10_000
ADM_PACK_MAX_NODES = 1_000_000

OrderWitness = namedtuple("OrderWitness", "permutation kind r")


# ---------------------------------------------------------------------------
# degeneracy


def degeneracy(g):
    """Exact degeneracy by repeated minimum-degree removal.

    Returns (d, OrderWitness); the order is the reverse removal order, so
    every vertex has at most d neighbors before it.
    """
    n = g.n
    alive = (1 << n) - 1
    removal = []
    d = 0
    for _ in range(n):
        best, best_deg = -1, n + 1
        for v in range(n):
            if not (alive >> v) & 1:
                continue
            deg = popcount(g.adj[v] & alive)
            if deg < best_deg:
                best, best_deg = v, deg
        d = max(d, best_deg)
        removal.append(best)
        alive &= ~(1 << best)
    order = tuple(reversed(removal))
    return d, OrderWitness(order, "degeneracy", 1)


# ---------------------------------------------------------------------------
# generalized coloring numbers


def weak_reach(g, order, r):
    """WReach_r under order, one mask per vertex: w is in v's mask when w
    comes before v and some path of length <= r joins v to w through
    vertices no earlier than w, which is w's ball avoiding the vertices
    placed before it."""
    reach = [0] * g.n
    placed = 0
    for w in order:
        for u in bits(ball_mask(g.adj, w, r, placed) & ~(1 << w)):
            reach[u] |= 1 << w
        placed |= 1 << w
    return reach


def wcol_cost(g, order, r):
    """Max over v of |WReach_r[v]|, the earlier vertices weakly r-reachable
    from v (v excluded)."""
    return max(map(popcount, weak_reach(g, order, r)), default=0)


def _order_cost(order, cost_at):
    """Max over the order of cost_at(v, placed), placed the mask of the
    vertices before v."""
    best = placed = 0
    for v in order:
        best = max(best, cost_at(v, placed))
        placed |= 1 << v
    return best


def _scol_cost_at(g, r):
    """scol's cost of placing v after `placed`: the placed vertices that a
    path of length <= r from v reaches through unplaced vertices only."""
    return lambda v, placed: popcount(_reach_out(g, v, ~placed, r))


def scol_cost(g, order, r):
    """Strong coloring cost of an order: max over v of |SReach_r[v]|, the
    earlier vertices that a path of length <= r from v reaches through later
    vertices only."""
    return _order_cost(order, _scol_cost_at(g, r))


def _paths_from(g, v, r):
    """The paths of length 1..r from v, as (end, mask of the path without
    v), sorted by size; listed depth first, ascending neighbours first,
    and the sort is stable."""
    paths = []
    stack = [(v, 0)]
    while stack:
        last, mask = stack.pop()
        if last != v:
            paths.append((last, mask))
            check_bound(f"adm paths from vertex {v} at r={r}", "paths", len(paths), ADM_MAX_PATHS)
        if popcount(mask) < r:
            nxt = g.adj[last] & ~mask & ~(1 << v)
            stack.extend((w, mask | 1 << w) for w in reversed(list(bits(nxt))))
    paths.sort(key=lambda path: popcount(path[1]))
    return paths


def _adm_cost_at(g, r):
    """adm's cost of placing v after `placed`: the most paths of length <= r
    from v into placed that pairwise share only v.  v's paths are listed
    once; a call packs those that end in placed, depth first, each branch
    taking a path and keeping the later ones disjoint from it.  Such paths
    leave v by distinct neighbours and end at distinct placed vertices of
    v's ball, which bounds the packing."""
    paths = [_paths_from(g, v, r) for v in range(g.n)]
    balls = [ball_mask(g.adj, v, r) for v in range(g.n)]

    def cost_at(v, placed):
        masks = [mask for end, mask in paths[v] if (placed >> end) & 1]
        limit = min(popcount(g.adj[v]), popcount(balls[v] & placed))
        best = nodes = 0
        stack = [[masks, 0, 0]]      # depth first: [candidates, next index, count]
        while stack and best < limit:
            top = stack[-1]
            cands, j, count = top
            if count + len(cands) - j <= best:
                stack.pop()
                continue
            top[1] += 1
            nodes += 1
            check_bound(f"adm packing at vertex {v}", "nodes", nodes, ADM_PACK_MAX_NODES)
            best = max(best, count + 1)
            stack.append([[c for c in cands[j + 1:] if not c & cands[j]], 0, count + 1])
        return best

    return cost_at


def adm_cost(g, order, r):
    """r-admissibility cost of an order: max over v of the most paths of
    length <= r from v to earlier vertices that pairwise share only v."""
    return _order_cost(order, _adm_cost_at(g, r))


def _exact_by_subset_dp(n, cost_at):
    """min over orders of the max of cost_at(v, the mask of the vertices
    before v), when that cost depends on the set before v only, with an
    order attaining it.  One pass over the masks in increasing order, since
    a mask without one of its vertices is smaller; the strict < over
    ascending vertices puts the smallest vertex last among ties."""
    value = [0] * (1 << n)
    last = [0] * (1 << n)
    for m in range(1, 1 << n):
        best = math.inf
        for v in bits(m):
            prev = m & ~(1 << v)
            val = max(value[prev], cost_at(v, prev))
            if val < best:
                best, last[m] = val, v
        value[m] = best
    order, m = [], (1 << n) - 1
    while m:
        order.insert(0, last[m])
        m ^= 1 << last[m]
    return value[-1], tuple(order)


def _wcol_exact(g, r):
    """Branch and bound over orders built smallest-first."""
    n = g.n
    greedy = degeneracy(g)[1].permutation
    best_val, best_order = wcol_cost(g, greedy, r), greedy
    counts = [0] * n
    order = []
    seen = {}

    def rec(placed_mask, fmax):
        nonlocal best_val, best_order
        if fmax >= best_val:
            return
        unplaced = [u for u in range(n) if not (placed_mask >> u) & 1]
        if not unplaced:
            best_val, best_order = fmax, tuple(order)
            return
        lb = max([fmax] + [counts[u] for u in unplaced])
        if lb >= best_val:
            return
        snapshot = (fmax, tuple(counts[u] for u in unplaced))
        bucket = seen.setdefault(placed_mask, [])
        for old in bucket:
            if old[0] <= snapshot[0] and all(a <= b for a, b in zip(old[1], snapshot[1])):
                return
        bucket.append(snapshot)
        for v in unplaced:
            nf = max(fmax, counts[v])
            if nf >= best_val:
                continue
            touched = list(bits(ball_mask(g.adj, v, r, placed_mask) & ~(1 << v)))
            for u in touched:
                counts[u] += 1
            order.append(v)
            rec(placed_mask | (1 << v), nf)
            order.pop()
            for u in touched:
                counts[u] -= 1

    rec(0, 0)
    return best_val, best_order


def generalized_coloring_number(g, kind, r, mode="exact"):
    """wcol/scol/adm number of radius r; exact by order search or DP, or a
    greedy upper bound."""
    if kind not in ("wcol", "scol", "adm"):
        raise GenerationError(f"unknown coloring-number kind {kind!r}")
    if r is INF or r < 1:
        raise GenerationError("generalized coloring numbers need a finite radius >= 1")
    if mode == "greedy":
        order = degeneracy(g)[1].permutation
        value = {"wcol": wcol_cost, "scol": scol_cost, "adm": adm_cost}[kind](g, order, r)
        return value, OrderWitness(order, kind, r)
    check_bound(f"generalized_coloring_number({kind})", "n", g.n, ORDER_SEARCH_MAX_N)
    if kind == "wcol":
        value, order = _wcol_exact(g, r)
    else:
        cost_at = {"scol": _scol_cost_at, "adm": _adm_cost_at}[kind](g, r)
        value, order = _exact_by_subset_dp(g.n, cost_at)
    return value, OrderWitness(order, kind, r)


def _reach_out(g, v, through, r=INF):
    """Mask of the vertices outside `through` reachable from v by a path of
    length <= r whose inner vertices all lie in `through`."""
    reached = frontier = 1 << v
    out = 0
    steps = 0
    while frontier and (r is INF or steps < r):
        nxt = 0
        for u in bits(frontier):
            nxt |= g.adj[u]
        nxt &= ~reached
        reached |= nxt
        out |= nxt & ~through
        frontier = nxt & through
        steps += 1
    return out


# ---------------------------------------------------------------------------
# treewidth


def treewidth_small(g):
    """Exact treewidth via DP over elimination prefixes: eliminating v after
    S costs the vertices outside S+{v} reachable from v through S."""
    check_bound("treewidth_small", "n", g.n, TREEWIDTH_MAX_N)
    return _exact_by_subset_dp(g.n, lambda v, S: popcount(_reach_out(g, v, S)))[0]


# ---------------------------------------------------------------------------
# cut-rank and rank-width


def cut_rank(g, a_set):
    """GF(2) rank of the A x (V-A) biadjacency matrix: each nonzero row
    popped is a pivot and clears its lowest column from the other rows."""
    amask = mask_of(a_set) if not isinstance(a_set, int) else a_set
    rows = [g.adj[a] & ~amask for a in bits(amask)]
    rank = 0
    while rows:
        prow = rows.pop()
        if prow:
            rank += 1
            low = prow & -prow
            rows = [row ^ prow if row & low else row for row in rows]
    return rank


def rank_width_small(g):
    """Exact rank-width plus an optimal decomposition tree (nested tuples).

    One pass over the vertex sets S in increasing order, since both sides
    of a split of S are smaller than S; S's width is the least, over its
    splits with S's lowest vertex on side A, of the sides' widths and
    cut-ranks, the first split found among ties."""
    check_bound("rank_width_small", "n", g.n, RANKWIDTH_MAX_N)
    n = g.n
    if n <= 1:
        return 0, tuple(range(n))
    size = 1 << n
    rk = [cut_rank(g, m) for m in range(size)]
    width = [0] * size
    split = [0] * size
    for S in range(1, size):
        low = S & -S
        rest = sub = S & ~low
        best = math.inf if rest else 0
        while sub:
            sub = (sub - 1) & rest
            a_side = low | sub
            b_side = S & ~a_side
            val = max(width[a_side], width[b_side], rk[a_side], rk[b_side])
            if val < best:
                best, split[S] = val, a_side
        width[S] = best

    def build(S):
        if S == S & -S:
            return S.bit_length() - 1
        return (build(split[S]), build(S & ~split[S]))

    return width[-1], build(size - 1)


def well_linked_check(g, u_set, mode="exhaustive", seed=0, trials=1000):
    """rk(A,B) >= min(|A∩U|, |B∩U|) over bipartitions; exhaustive is exact,
    sampled can only refute, and draws at least one bipartition."""
    import random as _random
    if mode not in ("exhaustive", "sampled"):
        raise GenerationError(f"unknown mode {mode!r}")
    if mode == "sampled" and trials < 1:
        raise GenerationError(f"sampled mode needs trials >= 1, got {trials}")
    umask = mask_of(u_set) if not isinstance(u_set, int) else u_set
    n = g.n
    full = (1 << n) - 1
    if n < 2:
        return True
    if mode == "exhaustive":
        check_bound("well_linked_check", "n", n, WELL_LINKED_MAX_N)
        # vertex 0 pinned to side A kills mirror duplicates
        cuts = (m << 1 | 1 for m in range(1 << (n - 1)))
    else:
        rng = _random.Random(seed)
        cuts = (rng.randrange(1, full) for _ in range(trials))

    def linked(a):
        need = min(popcount(a & umask), popcount(full & ~a & umask))
        return not need or cut_rank(g, a) >= need

    return all(linked(a) for a in cuts)


# ---------------------------------------------------------------------------
# VC dimension and shatter function


def vc_dimension(g, two_vc=False):
    check_bound("vc_dimension", "n", g.n, VC_MAX_N)
    return _two_vc(g) if two_vc else _vc(g)


def _grow(n, size, passes):
    """Grow size from its start while some subset of range(n) one larger
    passes."""
    while size < n and any(passes(xs) for xs in itertools.combinations(range(n), size + 1)):
        size += 1
    return size


def _vc(g):
    def shattered(xs):
        xmask = mask_of(xs)
        return len({row & xmask for row in g.adj}) == 1 << len(xs)

    return _grow(g.n, 0, shattered)


def _two_vc(g):
    def pairs_shattered(xs):
        xmask = mask_of(xs)
        traces = {row & xmask for row in g.adj}
        return all((1 << a) | (1 << b) in traces for a, b in itertools.combinations(xs, 2))

    # a single vertex has no pair to realise, so the size starts at 1 (0 when n = 0)
    return _grow(g.n, min(g.n, 1), pairs_shattered)


def shatter_function(g, m):
    """Exact pi_G(m) = max over |X| <= m of the number of neighborhood traces."""
    if m < 0:
        raise GenerationError(f"the shatter function needs m >= 0, got {m}")
    n = g.n
    check_bound("shatter_function", "subsets",
                sum(math.comb(n, i) for i in range(min(m, n) + 1)), SHATTER_MAX_SUBSETS)
    best = 0
    for size in range(min(m, n) + 1):
        for xs in itertools.combinations(range(n), size):
            xmask = mask_of(xs)
            best = max(best, len({row & xmask for row in g.adj}))
    return best


# ---------------------------------------------------------------------------
# near-twins, symmetric difference, functionality


def near_twin_distance(g, u, v):
    """|N(u) symmetric-difference N(v)| with u, v themselves discounted, so
    true twins (adjacent, same other neighbors) are at distance 0."""
    return popcount((g.adj[u] ^ g.adj[v]) & ~(1 << u) & ~(1 << v))


def near_twin_min(g):
    """Min over vertex pairs of the near-twin distance."""
    if g.n < 2:
        raise GenerationError("near_twin_min needs at least two vertices")
    return min(near_twin_distance(g, u, v)
               for u in range(g.n) for v in range(u + 1, g.n))


def near_twin_cliques(g, b, k):
    """First (lexicographic) set of b+1 mutual 2bk-near-twins, or None."""
    bound = 2 * b * k
    for xs in itertools.combinations(range(g.n), b + 1):
        if all(near_twin_distance(g, u, v) <= bound
               for u, v in itertools.combinations(xs, 2)):
            return set(xs)
    return None


def symmetric_difference_param(g):
    """sd(G): max over induced subgraphs of the min pair symmetric difference."""
    check_bound("symmetric_difference_param", "n", g.n, SD_FUN_MAX_N)
    best = 0
    for m in range(1 << g.n):
        if popcount(m) < 2:
            continue
        vs = list(bits(m))
        local = min(popcount((g.adj[u] ^ g.adj[v]) & m & ~(1 << u) & ~(1 << v))
                    for u, v in itertools.combinations(vs, 2))
        best = max(best, local)
    return best


def _function_cost(g, hmask, v):
    """Least |S| inside H making v a function of S."""
    others = [w for w in bits(hmask) if w != v]
    for size in range(len(others) + 1):
        for s_set in itertools.combinations(others, size):
            smask = mask_of(s_set)
            groups = {}
            ok = True
            for w in others:
                if (smask >> w) & 1:
                    continue
                key = g.adj[w] & smask
                bit = (g.adj[w] >> v) & 1
                if groups.setdefault(key, bit) != bit:
                    ok = False
                    break
            if ok:
                return size
    return len(others)


def functionality_param(g):
    """fun(G): max over induced subgraphs of min over v of the least |S|
    such that v is a function of S."""
    check_bound("functionality_param", "n", g.n, SD_FUN_MAX_N)
    best = 0
    for m in range(1, 1 << g.n):
        if popcount(m) < 2:
            continue
        local = min(_function_cost(g, m, v) for v in bits(m))
        best = max(best, local)
    return best


def least_excluded_biclique(g):
    """Smallest t such that K_{t,t} is not a subgraph of g."""
    t = 1
    while _has_biclique(g, t):
        t += 1
    return t


def _has_biclique(g, t):
    if t == 0:
        return True
    n = g.n
    for a_side in itertools.combinations(range(n), t):
        common = (1 << n) - 1
        for a in a_side:
            common &= g.adj[a]
        common &= ~mask_of(a_side)
        if popcount(common) >= t:
            return True
    return False
