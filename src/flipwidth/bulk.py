"""The outcome engine: every flip family's flips reduced to their outcomes.

`outcomes` reduces each kept flip of every family's partition stream from
`flips` to its outcome at any radius: the set of vertices it isolates and
each vertex's ball.  A stream item names a partition, its allowed block
pairs and the pair subsets to build, kept by `flips.kept_subsets`; the
flips it leaves out give the graph of an earlier flip, so they cost
neither rows nor outcomes.  The two ordered families cross each flip with
a layer of per-vertex masks ORed into its rows, flip-major and
mask-minor: every cut's ~S classes (CutLayer), or every flip of the order
relation (OrderLayer).  Flips are built in numpy batches, one row array
per vertex, partitions sharing a block count, allowed pairs and kept
subsets together; the batches pending go to one kernel call of at most
BATCH (flip, mask) pairs, and a partition keeping more subsets than that
is sliced over calls of its own:

- at r=inf a ball is a component, found by min-label propagation;
- at finite r a ball takes r hops of masked OR over the rows;
- under a cut the weight-0 edges join each ~S class into a clique: the
  rows hold them too, and each ball is closed under the classes at the
  start and after every hop.

Each batch keeps its distinct (iso, *balls) rows with the stream index
of each row's first (flip, mask), and notes the partitions they come from
with the index of each one's subset 0.  The index is all a row keeps of
its flip: the partition is the last to start at or before it, and the
subset and mask are the quotient and remainder of the distance by the
partition's layer size.  Indices count every pair subset, kept or not, so
they are those of the raw stream.  A merge sorts the rows by index, keeps
the first of each distinct row, in stream order, and keeps the partitions
those come from, once each and sorted by offset.  It runs at the end, and
before a kernel call whenever the rows kept pass FOLD and have more than
doubled since the last merge, so they stay within a few times the
distinct outcomes however long the stream.  The merged rows come back as
an Outcomes sequence, which builds a row's Outcome (and its move) only
when the row is read.  At r=inf the outcomes are far fewer than the flips
(the half-graph H_6 has ~6.3e8 raw 4-flips but only a few thousand
distinct component partitions).  Rows are uint16 up to 16 vertices and
uint64 up to MAX_N = 64, and larger graphs are refused.

The flip-family fixpoint reads the Outcomes arrays through `state_ids`
and `kills`, and the witnesses and hideout checks through `popcounts`.
"""

import bisect
import itertools
from collections import namedtuple

import numpy as np

from .errors import LimitExceeded
from .flips import CutFlip, enumerate_k_flips, order_rows, subset_flip
from .graphs import INF

BATCH = 1 << 18     # kept (flip, mask) pairs per kernel call at most, or per slice
FOLD = 1 << 14      # rows kept before batches are merged ahead of the end
MAX_N = 64


Outcome = namedtuple("Outcome", "move iso balls")
Outcome.__doc__ = """One distinct outcome as Python values: its first move, as
the family's enumerator announces it, a CutFlip, or None for the binary
ordered game; iso masks the vertices the move isolates, and balls[v] is
the runner's reach from v."""


class Outcomes:
    """The distinct outcomes of a flip stream, in the order of each one's
    first (flip, mask): iso[i] and balls[i, v] in the engine's word.  Row
    i's first (flip, mask) is number index[i] of the stream, decoded over
    sources, the (offset, tag, partition, pairs) of the partitions the rows
    come from, sorted by offset.  Indexing builds row i's Outcome when first
    read and keeps it, so the rows that are never read cost no Python
    objects."""

    def __init__(self, index, table, sources, layer):
        self.iso = table[:, 0]
        self.balls = table[:, 1:]
        self._index = index
        self._sources = sources
        self._offsets = [s[0] for s in sources]
        self._layer = layer
        self._built = {}

    def __len__(self):
        return len(self.iso)

    def __getitem__(self, i):
        o = self._built.get(i)
        if o is None:
            index = int(self._index[i])
            offset, tag, part, pairs = self._sources[bisect.bisect_right(self._offsets, index) - 1]
            layer = self._layer
            sub, j = divmod(index - offset, 1 if layer is None else layer.size(part.size))
            spec = subset_flip(part, pairs, sub)
            if layer is not None:
                move = layer.move(spec, j)
            else:
                move = spec if tag is None else (tag, spec)
            o = self._built[i] = Outcome(move, int(self.iso[i]), tuple(self.balls[i].tolist()))
        return o


def popcounts(x):
    """The number of set bits of each word of an array."""
    x = np.ascontiguousarray(x)
    return np.unpackbits(x.view(np.uint8).reshape(*x.shape, -1), axis=-1).sum(axis=-1)


def kills(iso, won):
    """Per outcome, the vertices it isolates or whose ball won[i, v] marks."""
    word = iso.dtype.type
    return iso | won @ (word(1) << np.arange(won.shape[1], dtype=word))


def state_ids(init, balls, n):
    """Index the position-set states, init and every ball: the mask of
    each state id, the id of each ball, and the ids of every state.  Up to
    16 vertices a state's id is its mask, over a table of every mask."""
    init = np.array(init, dtype=balls.dtype)
    if balls.dtype == np.uint16:
        seen = np.zeros(1 << n, dtype=bool)
        seen[balls] = True
        seen[init] = True
        return np.arange(1 << n, dtype=np.uint16), balls, np.flatnonzero(seen)
    states, ids = np.unique(np.concatenate([init, balls.ravel()]), return_inverse=True)
    return states, ids[len(init):].reshape(balls.shape), np.arange(len(states))


def _word(n):
    """The row dtype for n vertices; more than MAX_N is refused."""
    if n > MAX_N:
        raise LimitExceeded(f"outcome engine: n={n} exceeds its bound of {MAX_N} vertices")
    return np.uint16 if n <= 16 else np.uint64


def component_outcomes(g, k, max_n=None):
    """`outcomes` at r=inf over the <= k-flips of g: each ball is a component."""
    return outcomes(g, INF, enumerate_k_flips(g, k, max_n))


def outcomes(g, r, parts, layer=None):
    """Distinct outcomes of the flips of g in a partition stream.

    parts yields (tag, Partition, pairs, kept), standing for the flips over
    the partition by every subset of pairs in binary counting order, of
    which only those numbered in kept are built.  With a layer, the pair
    (flip number i, mask j) of a partition whose layer has L masks comes
    i * L + j-th in its share of the stream.  Returns the Outcomes, one
    per distinct (iso, balls) of the kept flips, in the order of each
    one's first flip in the stream: iso is the mask of vertices the flip
    isolates and balls[v] the radius-r ball of v in the flipped graph.
    """
    n = g.n
    word = _word(n)
    base = np.array(g.adj, dtype=word)
    kept = []       # (stream index, (iso, *balls) table) per kernel call
    sources = []    # (offset, tag, partition, pairs) of the partitions kept rows come from
    merged = 0      # rows of kept at the last merge

    def reduce(batches):
        nonlocal kept, merged
        if sum(len(rows[0]) for rows in kept) > max(2 * merged, FOLD):
            # fold the batches since the last merge into it, so what is kept
            # stays within a few times the distinct outcomes
            kept = [_merge(kept, sources)]
            merged = len(kept[0][0])
        kept.append(_reduce(base, r, batches, sources, layer))

    if n == 0:
        # the empty graph's one outcome comes from the stream's first flip, if any
        sources = [(0,) + flip[:3] for flip in itertools.islice(parts, 1)]
        parts = ()
    pending = {}    # (block count, pairs, id of kept) -> ([(offset, tag, partition, pairs)], kept)
    pooled = 0      # rows of the pending batches

    def flush():
        nonlocal pending, pooled
        if pending:
            reduce(_pooled(pending, layer))
        pending, pooled = {}, 0

    offset = 0
    for tag, part, pairs, subs in parts:
        L = _layer_size(layer, part.size)
        step = BATCH // L or 1
        source = (offset, tag, part, pairs)
        if len(subs) >= step:
            # so many kept subsets fill batches by themselves, a slice each
            for lo in range(0, len(subs), step):
                reduce([([source], subs[lo:lo + step])])
        elif len(subs):
            if pooled + len(subs) * L > BATCH:
                flush()
            pending.setdefault((part.size, tuple(pairs), id(subs)), ([], subs))[0].append(source)
            pooled += len(subs) * L
        offset += (1 << len(pairs)) * L
    flush()
    if not kept:
        kept = [(np.zeros(len(sources), np.int64), np.zeros((len(sources), n + 1), word))]
    return Outcomes(*_merge(kept, sources), sources, layer)


def _pooled(pending, layer):
    """The pending batches, by (block count, pairs, kept), for one kernel
    call.  The batches of one (block count, pairs) become one batch over
    the union of their kept subsets, its partitions in stream order, when
    that batch has under FOLD rows: a flip outside its partition's kept
    ones repeats the outcome of an earlier flip that is built too, so the
    union costs a few rows but changes no outcome, and a short stream
    builds rows once per block count rather than once per kept array."""
    groups = {}
    for key, batch in pending.items():
        groups.setdefault(key[:2], []).append(batch)
    out = []
    for (b, _), group in groups.items():
        if len(group) > 1:
            sources = sorted((s for batch, _ in group for s in batch), key=lambda s: s[0])
            subs = np.unique(np.concatenate([subs for _, subs in group]))
            if len(sources) * len(subs) * _layer_size(layer, b) < FOLD:
                out.append((sources, subs))
                continue
        out.extend(group)
    return out


def _merge(kept, sources):
    """Batches' (index, table) as one: the row of earliest stream index of
    each distinct outcome, in stream order.  sources is sorted by offset
    and keeps the partitions those rows come from, once each, though a
    partition sliced over several batches was noted once per slice."""
    index, table = map(np.concatenate, zip(*kept))
    order = np.argsort(index)
    order = order[np.sort(_first_rows(table[order]))]
    index = index[order]
    sources.sort(key=lambda s: s[0])
    # the last partition to start at or before each index: one of equal offsets
    used = np.zeros(len(sources), dtype=bool)
    used[np.searchsorted([s[0] for s in sources], index, side="right") - 1] = True
    sources[:] = itertools.compress(sources, used)
    return index, table[order]


class CutLayer:
    """The ordered cut-flips' layer, one mask per cut (a vertex set): the
    weight-0 edges that join each ~S class into a clique.  Balls are
    closed under the classes, and a move records its cut."""

    closed = True

    def __init__(self, n, cuts):
        self.cuts = cuts
        self.classes = list(zip(*(order_rows(n, cut) for cut in cuts)))    # [v][cut]

    def size(self, b):
        return len(self.cuts)

    def masks(self, bm, blocks):
        """masks[v][0, j]: the ~S class of v under cut number j, v left out."""
        return [np.array([row], dtype=bm.dtype) for row in self.classes]

    def move(self, spec, j):
        return CutFlip(spec, self.cuts[j])


class OrderLayer:
    """The binary ordered game's layer, one mask per flip of the order
    relation over the partition, as Gaifman rows: each block is a clique,
    and between blocks i < j a flip keeps every pair (choice 0) or drops
    those whose smaller end lies in i (1) or in j (2).  Digit t of mask j
    in base 3 is cross pair t's choice.  Its flips keep no move."""

    closed = False

    @staticmethod
    def size(b):
        return 3 ** (b * (b - 1) // 2)

    def masks(self, bm, blocks):
        """masks[v][c, j]: v's order row under mask j over partition c."""
        C, b = bm.shape
        word = bm.dtype.type
        cross = [(i, j) for i in range(b) for j in range(i + 1, b)]
        digits = np.arange(self.size(b)) // 3 ** np.arange(len(cross))[:, None] % 3
        out = []
        for v in range(blocks.shape[1]):
            a = blocks[:, v]
            below = word((1 << v) - 1)
            rows = (bm[np.arange(C), a] & ~word(1 << v))[:, None] | np.zeros(digits.shape[1], word)
            for t, (i, j) in enumerate(cross):
                # v in i keeps partner vertices below it under choice 1, v in j above it
                partner = np.where(a == i, bm[:, j], np.where(a == j, bm[:, i], word(0)))
                keep = np.where(a == i, below, ~below)
                rows |= np.stack([partner, partner & keep, partner & ~keep], axis=1)[:, digits[t]]
            out.append(rows)
        return out

    @staticmethod
    def move(spec, j):
        return None


def _layer_size(layer, b):
    return 1 if layer is None else layer.size(b)


def _reduce(base, r, batches, sources, layer):
    """The distinct outcomes of batches of partitions in one kernel call.
    Each batch is ([(offset, tag, partition, pairs)], subs): partitions
    sharing (block count, pairs), offset the stream index of a
    partition's subset 0, by the pair subsets numbered in subs and crossed
    with the layer's masks.  Returns, per outcome, its earliest stream
    index and its (iso, *balls) row; sources gains the partitions these
    rows come from, and only those."""
    n = base.shape[0]
    built = [_rows(base, batch, subs, layer) for batch, subs in batches]
    if len(built) == 1:
        rows, classes = built[0]
    else:
        rows = [np.concatenate(vs) for vs in zip(*(rv for rv, _ in built))]
        classes = None if built[0][1] is None else [
            np.concatenate(vs) for vs in zip(*(cv for _, cv in built))]
    del built
    sizes = [len(batch) * len(subs) * _layer_size(layer, batch[0][2].size)
             for batch, subs in batches]
    starts = np.cumsum([0] + sizes)
    # rows are in stream order within a batch only, so each batch keeps
    # its own first row of each outcome, and _merge the earliest of those
    first, table = _kernel(rows, n, r, classes, starts)
    at = np.searchsorted(starts, first, side="right") - 1
    index = np.empty(len(first), dtype=np.int64)
    for t in np.unique(at).tolist():
        batch, subs = batches[t]
        L = _layer_size(layer, batch[0][2].size)
        sel = at == t
        c, rest = np.divmod(first[sel] - starts[t], len(subs) * L)
        s, j = np.divmod(rest, L)
        offsets = np.array([o for o, _, _, _ in batch], dtype=np.int64)
        index[sel] = offsets[c] + subs[s] * L + j
        used = np.zeros(len(batch), dtype=bool)
        used[c] = True
        sources.extend(itertools.compress(batch, used))
    return index, table


def _rows(base, batch, subs, layer):
    """Per vertex, the adjacency rows of a batch's flips crossed with the
    layer's masks, partition-major, then subset, then mask; and the ~S
    class of each vertex under those masks when the layer closes balls
    under them, else None."""
    n = base.shape[0]
    word = base.dtype.type
    pairs = batch[0][3]
    b = batch[0][2].size
    m = len(subs)
    C = len(batch)
    blocks = np.array([part.blocks for _, _, part, _ in batch], dtype=np.intp)   # (C, n)

    bm = np.zeros((C, b), dtype=word)
    for v in range(n):
        bm[np.arange(C), blocks[:, v]] |= word(1 << v)

    # toggle[c, s, a]: xor mask applied to rows of block a under subset s
    toggle = np.zeros((C, m, b), dtype=word)
    for pi, (i, j) in enumerate(pairs):
        sel = ((subs >> pi) & 1).astype(bool)
        toggle[:, sel, i] |= bm[:, None, j]
        toggle[:, sel, j] |= bm[:, None, i]

    ar = np.arange(C)[:, None]
    full = np.iinfo(word).max
    rows = []
    for v in range(n):
        rv = base[v] ^ toggle[ar, :, blocks[:, v][:, None]]
        rv &= word(~(1 << v) & full)
        rows.append(rv.reshape(C, m, 1))
    del toggle

    if layer is None:
        return [rv.reshape(-1) for rv in rows], None
    # flip-major, layer-minor: the rows of flip s under mask j
    masks = layer.masks(bm, blocks)
    L = masks[0].shape[1]
    rows = [(rv | mv[:, None, :]).reshape(-1) for rv, mv in zip(rows, masks)]
    if not layer.closed:
        return rows, None
    return rows, [np.broadcast_to(mv[:, None, :] | word(1 << v), (C, m, L)).reshape(-1)
                  for v, mv in enumerate(masks)]


def _first_rows(table, bounds=None):
    """Position of the first occurrence of each distinct row of table, as
    _first_keys gives it."""
    return _first_keys(table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel(),
                       bounds)


def _first_keys(keys, bounds=None):
    """Position of the first occurrence of each distinct key, within each
    span bounds[t]:bounds[t + 1] when bounds are given."""
    if bounds is None:
        return np.unique(keys, return_index=True)[1]
    return np.concatenate([lo + np.unique(keys[lo:hi], return_index=True)[1]
                           for lo, hi in zip(bounds[:-1], bounds[1:])])


def _kernel(rows, n, r, classes, bounds):
    """First position, within each span bounds[t]:bounds[t + 1], and
    (iso, *balls) row of each distinct outcome of the rows, balls closed
    under classes when given; the 4-bit component labels hold 16
    vertices, so above that r=inf takes n - 1 hops."""
    if r is not INF:
        return _balls(rows, n, r, classes, bounds)
    if n <= 16:
        return _components(rows, n, bounds)
    return _balls(rows, n, n - 1, classes, bounds)


def _hop(balls, rows, bit):
    """Each ball grown by rows[w] for every w it holds: one masked-OR pass."""
    word = bit.dtype.type
    grown = []
    for ball in balls:
        cur = ball.copy()
        for w, row in enumerate(rows):
            # cur |= rows[w] wherever w lies in the ball
            np.right_shift(ball, word(w), out=bit)
            bit &= word(1)
            np.negative(bit, out=bit)
            bit &= row
            cur |= bit
        grown.append(cur)
    return grown


def _balls(rows, n, r, classes, bounds):
    """First position and (iso, *balls) row of each distinct outcome at
    finite r: the iso column comes from rows == 0, since at r=0 a ball does
    not show isolation.  Without classes the first hop is one OR; with
    them a ball starts as its vertex's class and is closed again after
    every hop."""
    B = rows[0].shape[0]
    word = rows[0].dtype.type
    iso = np.zeros(B, dtype=word)
    for v in range(n):
        iso |= (rows[v] == 0).astype(word) << word(v)
    bit = np.empty(B, dtype=word)
    if classes is not None:
        balls = classes
        for _ in range(min(r, n - 1)):
            balls = _hop(_hop(balls, rows, bit), classes, bit)
    else:
        if r == 0:
            balls = [np.full(B, 1 << v, dtype=word) for v in range(n)]
        else:
            balls = [rows[v] | word(1 << v) for v in range(n)]
        for _ in range(min(r, n - 1) - 1):
            balls = _hop(balls, rows, bit)
    table = np.stack([iso] + balls, axis=1)
    first = _first_rows(table, bounds)
    return first, table[first]


def _components(rows, n, bounds):
    """First position and (iso, *balls) row of each distinct outcome at
    r=inf, where balls are components and iso the singleton ones."""
    B = rows[0].shape[0]
    # adjacency rows are static during the closure: precompute the bit tests
    # once, then min-label propagation on uint8 labels gives the canonical
    # component signature (smallest vertex per component) directly
    # blockers[(v,w)]: 0 where v~w, 255 otherwise, so non-neighbors never win
    # the running minimum
    blockers = {}
    for v in range(n):
        for w in range(v + 1, n):
            adj = ((rows[v] >> np.uint16(w)) & np.uint16(1)).astype(np.uint8)
            blockers[(v, w)] = (adj - np.uint8(1))    # 0 -> 255, 1 -> 0
    labels = [np.full(B, v, dtype=np.uint8) for v in range(n)]
    cand = np.empty(B, dtype=np.uint8)
    order_fwd = list(range(n))
    order_bwd = list(reversed(order_fwd))
    prev_total = None
    while True:
        for sweep in (order_fwd, order_bwd):
            for v in sweep:
                lv = labels[v]
                for w in range(n):
                    if w == v:
                        continue
                    blk = blockers[(v, w)] if v < w else blockers[(w, v)]
                    np.bitwise_or(labels[w], blk, out=cand)
                    np.minimum(lv, cand, out=lv)
        cur = sum(int(np.add.reduce(lab, dtype=np.int64)) for lab in labels)
        if cur == prev_total:
            break
        prev_total = cur

    sig = np.zeros(B, dtype=np.uint64)
    for v in range(n):
        sig |= labels[v].astype(np.uint64) << np.uint64(4 * v)
    first = _first_keys(sig, bounds)
    # only the distinct labellings become (iso, *balls) rows
    lab = np.stack([labels[v][first] for v in range(n)], axis=1)      # (U, n)
    pow2 = np.uint32(1) << np.arange(n, dtype=np.uint32)
    balls = ((lab[:, :, None] == lab[:, None, :]) * pow2).sum(axis=2, dtype=np.uint32)
    iso = ((balls == pow2) * pow2).sum(axis=1, dtype=np.uint32)
    return first, np.column_stack([iso, balls]).astype(np.uint16)
