"""Flip algebra: partitions, k-flips, definable flips, bipartite flips and
ordered cut-flips.

A partition's blocks are numbered by first occurrence, whatever labels name
them.  Code that builds a flip by naming its parts (colour and block, side
and block, module and neighbourhood) labels each vertex and names the
flipped parts by label pairs: `Partition.labelled(labels)` gives the
partition and the block of each label, and
`FlipSpec.from_labels(labels, label_pairs)` the flip, dropping a pair that
names a label no vertex carries.

Each flip family has one enumerator, which streams (tag, Partition, pairs,
kept): the flips over the partition by every subset of `pairs`, subsets
numbered in binary counting order, announced as the FlipSpec when tag is
None and as (tag, FlipSpec) otherwise: the <= k-flips, the definable and
the bipartite flips.  The ordered cut-flips stream the <= k-flips, which
the outcome engine in `bulk` crosses with every cut of `order_cuts`; the
binary ordered game streams the edge flips over cross block pairs, which
`bulk` crosses with every flip of the order relation.

kept holds the subset numbers, ascending, of the flips worth building:
`kept_subsets` leaves out a flip when an earlier flip of the same stream
gives the same flipped graph, by one of two rules.  A singleton block
flipping its diagonal pair changes nothing; and two blocks i, j that flip
alike against every other block, and whose diagonals agree with the pair
(i, j) (a singleton's diagonal matching either value), flip as their union
does, over a partition that comes earlier in restricted-growth order.  So
the first flip of each distinct flipped graph is always kept, and on the
<= k-flips exactly one flip per flipped graph.  Each family applies the
rules its streams allow: both for the <= k-flips, the merge rule within a
side for the bipartite flips, the singleton rule for the definable flips
(whose coarsenings are not S-type partitions), and neither for the binary
ordered game, whose order-relation masks depend on the blocks.  The
definable stream also keeps nothing for an S-type partition an earlier S
gave.  `bulk` builds only the kept flips and keeps the first flip of each
distinct outcome.
"""
import itertools

from .errors import GenerationError, check_bound
from .graphs import Graph, INF, bits, mask_of

# Default exhaustive-enumeration bounds: the largest n enumerated per width
# k.  The k-flip, bipartite and cut-flip enumerators take max_n, which the
# CLI's --max-n sets, in place of this default; the definable enumerator's
# k bound is fixed.  Width 1 only ever yields the graph and its complement,
# so it is bounded by the interchange format, not by enumeration cost.
FLIP_ENUM_MAX_N = {1: 62, 2: 12, 3: 8}
FLIP_ENUM_MAX_N_DEFAULT = 7
DEFINABLE_MAX_K = 3
# a bound on raw flip counts, not on vertices: with max_n unset it admits the
# bipartite flips on any n whose raw count is within it, and it is the binary
# ordered game's only bound
RAW_FLIP_LIMIT = 500_000
# free pairs whose 2**pairs subsets a kept table may sieve: the 25 cross
# pairs of five blocks a side in the bipartite game, 2**25 flips of one
# partition
KEPT_MAX_PAIRS = 25


def flip_enum_limit(k):
    return FLIP_ENUM_MAX_N.get(k, FLIP_ENUM_MAX_N_DEFAULT)


def check_flip_enum(what, n, k, max_n=None, raw=None):
    """Raise unless `what` may enumerate the width-k flips of an n-vertex
    graph.  With max_n unset, a family that gives its raw flip count (the
    bipartite flips) is admitted on any n whose count is within
    RAW_FLIP_LIMIT; otherwise n must be at most max_n, or flip_enum_limit(k)
    when max_n is unset."""
    if k < 1:
        raise GenerationError("flip width must be >= 1")
    if max_n is None and raw is not None and raw <= RAW_FLIP_LIMIT:
        return
    check_bound(f"{what} at k={k}", "n", n, flip_enum_limit(k) if max_n is None else max_n)


class Partition:
    """Vertex partition in canonical restricted-growth form."""

    __slots__ = ("blocks", "size")

    def __init__(self, blocks):
        blocks = tuple(blocks)
        relabel = {}
        canon = []
        for b in blocks:
            if b not in relabel:
                relabel[b] = len(relabel)
            canon.append(relabel[b])
        self.blocks = tuple(canon)
        self.size = len(relabel)

    @classmethod
    def labelled(cls, labels):
        """The partition into classes of equal labels (any hashables), and
        the block of each label: blocks are numbered by first occurrence."""
        labels = list(labels)
        part = cls(labels)
        return part, dict(zip(labels, part.blocks))

    def block_masks(self):
        masks = [0] * self.size
        for v, b in enumerate(self.blocks):
            masks[b] |= 1 << v
        return masks

    def singletons(self):
        """Mask of the blocks with one vertex."""
        seen = twice = 0
        for b in self.blocks:
            twice |= seen & (1 << b)
            seen |= 1 << b
        return seen & ~twice

    def __eq__(self, other):
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Partition({list(self.blocks)})"


class FlipSpec:
    """A partition plus flipped block pairs; (i,i) flips within a block."""

    __slots__ = ("partition", "pairs")

    def __init__(self, partition, pairs):
        norm = set()
        for i, j in pairs:
            if not (0 <= i < partition.size and 0 <= j < partition.size):
                raise GenerationError(f"flip pair ({i},{j}) references a missing block")
            norm.add((min(i, j), max(i, j)))
        self.partition = partition
        self.pairs = frozenset(norm)

    @classmethod
    def from_labels(cls, labels, label_pairs):
        """The flip over Partition.labelled(labels) complementing each pair of
        labels in label_pairs; a pair naming a label no vertex carries is
        dropped."""
        part, block = Partition.labelled(labels)
        return cls(part, [(block[a], block[b]) for a, b in label_pairs
                          if a in block and b in block])

    def to_json(self):
        return {"blocks": list(self.partition.blocks),
                "pairs": sorted(list(p) for p in self.pairs)}

    def __eq__(self, other):
        return (isinstance(other, FlipSpec) and self.partition == other.partition
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.partition, self.pairs))

    def __repr__(self):
        return f"FlipSpec({self.partition!r}, pairs={sorted(self.pairs)})"


def identity_flip(n):
    return FlipSpec(Partition([0] * n), [])


class CutFlip:
    """Ordered-graph move: an edge flip plus a cut set S of size <= k."""

    __slots__ = ("flip", "cut")

    def __init__(self, flip, cut):
        self.flip = flip
        self.cut = frozenset(cut)

    def to_json(self):
        obj = self.flip.to_json()
        obj["cut"] = sorted(self.cut)
        return obj

    def __eq__(self, other):
        return isinstance(other, CutFlip) and self.flip == other.flip and self.cut == other.cut

    def __hash__(self):
        return hash((self.flip, self.cut))


def flip_masks(base, spec):
    """Adjacency bitmasks of the flipped graph as a tuple (no materialized
    Graph)."""
    blocks = spec.partition.blocks
    if len(blocks) != base.n:
        raise GenerationError("flip partition does not cover the vertex set")
    bm = spec.partition.block_masks()
    toggle = [0] * spec.partition.size
    for i, j in spec.pairs:
        toggle[i] |= bm[j]
        toggle[j] |= bm[i]
    return tuple((base.adj[v] ^ toggle[blocks[v]]) & ~(1 << v) for v in range(base.n))


def apply_flip(g, spec):
    return Graph.from_masks(flip_masks(g, spec))


# ---------------------------------------------------------------------------
# enumeration


def rgs_partitions(n, kmax):
    """Set partitions of 0..n-1 into <= kmax blocks, in restricted-growth
    lexicographic order.  Vertex 0 always takes block 0, so one vertex has
    its partition even at kmax = 0, where more vertices have none."""
    if n == 0:
        yield Partition([])
        return
    if kmax < 1 and n > 1:
        return
    top = kmax - 1
    blocks = [0] * n
    used = [0] + [1] * n    # used[i]: the blocks among vertices 0..i-1
    while True:
        part = object.__new__(Partition)
        part.blocks = tuple(blocks)
        part.size = used[n]
        yield part
        # the last vertex that can take a higher block does; the ones after it restart at 0
        i = n - 1
        while i and blocks[i] >= min(used[i], top):
            i -= 1
        if not i:
            return
        blocks[i] += 1
        blocks[i + 1:] = [0] * (n - 1 - i)
        used[i + 1:] = [max(used[i], blocks[i] + 1)] * (n - i)


def block_pairs(b):
    return [(i, j) for i in range(b) for j in range(i, b)]


def count_raw_flips(n, k):
    """Raw (partition, pair-subset) count before dedup."""
    row = _stirling_row(n, min(k, n))
    return sum(row[b] << (b * (b + 1) // 2) for b in range(1, len(row)))


def count_binary_flips(n, k):
    """Raw flips of the binary ordered game: a partition into b <= k blocks,
    and for each of its b(b-1)/2 cross block pairs one of 2 edge choices
    and one of 3 order choices."""
    row = _stirling_row(n, min(k, n))
    return sum(row[b] * 6 ** (b * (b - 1) // 2) for b in range(len(row)))


def count_bipartite_flips(n_left, n_right, k):
    """Raw bipartite flips: a partition of each side into <= k blocks, and a
    subset of the cross-side block pairs."""
    left, right = _stirling_row(n_left, min(k, n_left)), _stirling_row(n_right, min(k, n_right))
    return sum(sl * sr << (a * b) for a, sl in enumerate(left) for b, sr in enumerate(right))


def _stirling_row(n, k):
    """[S(n, 0), ..., S(n, k)] by the recurrence S(n,k) = S(n-1,k-1) + k*S(n-1,k)."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, k + 1)]
    return row


# (block count, singleton mask, pairs, mergeable block pairs) -> kept subset
# numbers, each table built the first time its key occurs
_KEPT = {}


def kept_subsets(b, singles, pairs, merge):
    """The subset numbers, ascending, of the flips over a partition into b
    blocks by subsets of pairs that are canonical: no singleton block
    (bit i of singles) flips a listed diagonal pair (i, i), and no block
    pair (i, j) of merge is mergeable, that is flips alike against every
    other block, with T[i][i] = T[j][j] = T[i][j] where T holds the
    flipped pairs, a pair not listed is never flipped, and a singleton's
    diagonal matches either value.  One shared array per key."""
    key = (b, singles, pairs, merge)
    kept = _KEPT.get(key)
    if kept is None:
        kept = _KEPT[key] = _canonical(b, singles, pairs, merge)
    return kept


def _canonical(b, singles, pairs, merge):
    """kept_subsets' array: the subsets with no singleton diagonal, by
    depositing the bits of every number below 2**(free pairs), sieved by
    the merge rule in chunks of 2**20."""
    import numpy as np
    pos = {(min(i, j), max(i, j)): t for t, (i, j) in enumerate(pairs)}
    free = [t for t, (i, j) in enumerate(pairs) if not (i == j and (singles >> i) & 1)]
    check_bound(f"kept flips over {b} blocks", "pairs", len(free), KEPT_MAX_PAIRS)
    chunk = 1 << min(len(free), 20)
    out = []
    for lo in range(0, 1 << len(free), chunk):
        ar = np.arange(lo, lo + chunk, dtype=np.int64)
        subs = np.zeros(chunk, dtype=np.int64)
        for s, t in enumerate(free):
            subs |= ((ar >> s) & 1) << t

        def flipped(i, j):
            t = pos.get((min(i, j), max(i, j)))
            return 0 if t is None else (subs >> t) & 1

        keep = np.ones(chunk, dtype=bool)
        for i, j in merge:
            alike = np.ones(chunk, dtype=bool)
            for x in range(b):
                if x != i and x != j:
                    alike &= flipped(i, x) == flipped(j, x)
                elif not (singles >> x) & 1:
                    alike &= flipped(x, x) == flipped(i, j)
            keep &= ~alike
        out.append(subs[keep])
    return np.concatenate(out)


def subset_flip(part, pairs, sub):
    """The FlipSpec over part flipping the pairs whose bit is set in sub."""
    return FlipSpec(part, [pairs[t] for t in range(len(pairs)) if (sub >> t) & 1])


def random_flip(n, k, rng):
    """A <= k-flip drawn from rng: a uniform block label per vertex, then each
    block pair of the partition flipped with probability 1/2."""
    if k < 1:
        raise GenerationError("flip width must be >= 1")
    part = Partition([rng.randrange(k) for _ in range(n)])
    return FlipSpec(part, [p for p in block_pairs(part.size) if rng.random() < 0.5])


def enumerate_k_flips(g, k, max_n=None):
    """Partition stream of the <= k-flips of g: partitions in restricted-growth
    lexicographic order, every block pair allowed, so the identity comes
    first; both rules of kept_subsets apply."""
    check_flip_enum("enumerate_k_flips", g.n, k, max_n)
    sizes = range(min(k, g.n) + 1)
    pairs = [tuple(block_pairs(b)) for b in sizes]
    merge = [tuple(itertools.combinations(range(b), 2)) for b in sizes]
    kept = {}       # (block count, singleton mask) -> kept_subsets, read once per stream
    for part in rgs_partitions(g.n, k):
        key = b, singles = part.size, part.singletons()
        if key not in kept:
            kept[key] = kept_subsets(b, singles, pairs[b], merge[b])
        yield None, part, pairs[b], kept[key]


def compose_flips(g, first, second):
    """Single FlipSpec over the common refinement equivalent to applying
    first then second: its parts are labelled (first block, second block)."""
    labels = [(first.partition.blocks[v], second.partition.blocks[v]) for v in range(g.n)]
    keys = list(dict.fromkeys(labels))

    def flipped(spec, i, j):
        return (min(i, j), max(i, j)) in spec.pairs

    return FlipSpec.from_labels(labels, [
        (a, b) for t, a in enumerate(keys) for b in keys[t:]
        if flipped(first, a[0], b[0]) != flipped(second, a[1], b[1])])


# ---------------------------------------------------------------------------
# S-types and definable flips


def s_types(g, s_set):
    """Partition of V by the equivalence v ~ u iff N(v) ∩ S = N(u) ∩ S."""
    smask = mask_of(s_set)
    return Partition([g.adj[v] & smask for v in range(g.n)])


def enumerate_definable_flips(g, k, max_n=None):
    """Partition stream of the definable flips: for every S with |S| <= k, by
    size and then numerically, the S-types of g tagged with S, every block
    pair allowed, only the singleton rule of kept_subsets applying.  An S
    whose S-types an earlier S gave keeps no flip, since each of its flips
    repeats one of the earlier S.  k is bounded by DEFINABLE_MAX_K, and n
    by max_n when it is given."""
    if k < 0:
        raise GenerationError("definable flip width must be >= 0")
    check_bound("enumerate_definable_flips", "k", k, DEFINABLE_MAX_K)
    if max_n is not None:
        check_bound("enumerate_definable_flips", "n", g.n, max_n)
    pairs = [tuple(block_pairs(b)) for b in range(g.n + 1)]
    seen = set()
    for smask in _subsets_up_to(g.n, k):
        s_set = tuple(bits(smask))
        part = s_types(g, s_set)
        b = part.size
        kept = kept_subsets(b, part.singletons(), pairs[b], ())
        if part in seen:
            kept = kept[:0]
        seen.add(part)
        yield s_set, part, pairs[b], kept


def enumerate_bipartite_flips(g, left_mask, k, max_n=None):
    """Partition stream of the bipartite flips: partitions refine the sides,
    <= k blocks per side, and only cross-side block pairs are allowed: the
    parts are labelled by their left block, or by the left block count plus
    their right block.  The merge rule of kept_subsets applies to two
    blocks of one side.  Bounded as check_flip_enum says, by the raw count
    of count_bipartite_flips."""
    left = [v for v in range(g.n) if (left_mask >> v) & 1]
    right = [v for v in range(g.n) if not (left_mask >> v) & 1]
    check_flip_enum("enumerate_bipartite_flips", g.n, k, max_n,
                    count_bipartite_flips(len(left), len(right), k))
    rparts = list(rgs_partitions(len(right), k))
    for lp in rgs_partitions(len(left), k):
        for rp in rparts:
            labels = [0] * g.n
            for v, b in zip(left, lp.blocks):
                labels[v] = b
            for v, b in zip(right, rp.blocks):
                labels[v] = lp.size + b
            part, block = Partition.labelled(labels)
            sides = ([block[i] for i in range(lp.size)],
                     [block[lp.size + j] for j in range(rp.size)])
            pairs = tuple((i, j) for i in sides[0] for j in sides[1])
            merge = tuple(p for side in sides for p in itertools.combinations(side, 2))
            yield None, part, pairs, kept_subsets(part.size, 0, pairs, merge)


def _subsets_up_to(n, k):
    """Subset masks of 0..n-1 with popcount <= k: by size, then numerically."""
    for size in range(min(k, n) + 1):
        masks = sorted(mask_of(c) for c in itertools.combinations(range(n), size))
        yield from masks


# ---------------------------------------------------------------------------
# ordered cut-flips


def order_rows(n, cut):
    """Weight-0 adjacency masks of a cut: each ~_S class, a vertex of S or a
    maximal S-free run, is a clique."""
    w0 = [0] * n
    start = 0
    for v in range(n + 1):
        if v == n or v in cut:
            run = ((1 << v) - 1) & ~((1 << start) - 1)     # start..v-1
            for u in range(start, v):
                w0[u] = run & ~(1 << u)
            start = v + 1
    return tuple(w0)


def cut_flip_weighted(og, cf):
    """(weight0, weight1) adjacency masks of the cut-flip's weighted graph."""
    g = og.graph
    return order_rows(g.n, cf.cut), flip_masks(g, cf.flip)


def _weighted_ball(w0, w1, v, r):
    """v's reach in a cut-flip's weighted graph: weight-0 edges are free and
    at most r weight-1 edges are taken.  The weight-0 rows join each ~S
    class into a clique, so one pass over them closes a set."""
    def close(mask):
        for u in bits(mask):
            mask |= w0[u]
        return mask

    cur, steps = close(1 << v), 0
    while r is INF or steps < r:
        nxt = cur
        for u in bits(cur):
            nxt |= w1[u]
        nxt = close(nxt)
        if nxt == cur:
            break
        cur, steps = nxt, steps + 1
    return cur


def cut_flip_ball(og, cf, v, r):
    """Weighted ball as a set, plus whether v is isolated in the weighted graph."""
    w0, w1 = cut_flip_weighted(og, cf)
    isolated = w0[v] == 0 and w1[v] == 0
    return set(bits(_weighted_ball(w0, w1, v, r))), isolated


def order_cuts(n, k):
    """The cuts of the ordered game on n vertices: every S with |S| <= k, by
    size and then numerically."""
    return [frozenset(bits(cmask)) for cmask in _subsets_up_to(n, k)]


def enumerate_cut_flips(og, k, max_n=None):
    """Partition stream of the edge flips of the ordered cut-flips: the
    <= k-flips of og's graph, each of which stands crossed with every cut
    of order_cuts(n, k).  Bounded as the k-flips are, by the vertex bound
    or max_n."""
    check_flip_enum("enumerate_cut_flips", og.graph.n, k, max_n)
    yield from enumerate_k_flips(og.graph, k, max_n=og.graph.n)


def enumerate_binary_flips(og, k):
    """Partition stream of the edge flips of the binary ordered game on
    (V, E, <): the <= k-flip partitions, only block pairs i < j allowed,
    since each block is a clique of the order's Gaifman graph and a pair
    (i, i) changes nothing there.  Every pair subset is kept, since the
    order-relation masks differ between partitions.  Bounded by
    count_binary_flips alone."""
    n = og.graph.n
    check_bound(f"enumerate_binary_flips at k={k}", "raw", count_binary_flips(n, k),
                RAW_FLIP_LIMIT)
    for part in rgs_partitions(n, k):
        pairs = tuple(itertools.combinations(range(part.size), 2))
        yield None, part, pairs, kept_subsets(part.size, 0, pairs, ())
