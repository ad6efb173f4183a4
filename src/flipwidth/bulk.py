"""Vectorized outcome reduction for the flip families that flip g itself.

`outcomes` takes a family's partition stream from `flips` (the <= k-flips,
the definable flips or the bipartite flips) and reduces every flip it
stands for to its outcome, at any radius: the set of vertices the flip
isolates and each vertex's ball.  The flips are built in numpy batches of
about BATCH flips, one uint16 row array per vertex, partitions that share
a block count and allowed pairs together (a partition with more pair
subsets than that is sliced over several batches):

- at r=inf a ball is a component, found by min-label propagation;
- at finite r a ball takes r hops of masked OR over the rows.

Each batch is deduplicated with np.unique, and every distinct outcome keeps
the first flip that gives it in the stream's order.  At r=inf the outcomes
are far fewer than the flips (the half-graph H_6 has ~6.3e8 raw 4-flips but
only a few thousand distinct component partitions).

Rows are uint16 and component labels 4 bits wide, so the engine takes
graphs on 1 <= n <= 16 vertices (`supports`); the solvers keep the others
on the Python stream.
"""

import numpy as np

from .errors import LimitExceeded
from .flips import enumerate_k_flips
from .graphs import INF

BATCH = 1 << 18     # raw flips per batch, give or take one partition's


def supports(n):
    """Whether the engine takes graphs on n vertices."""
    return 1 <= n <= 16


def component_outcomes(g, k, max_n=None):
    """`outcomes` at r=inf over the <= k-flips of g: each ball is a component."""
    return outcomes(g, INF, enumerate_k_flips(g, k, max_n))


def outcomes(g, r, parts):
    """Distinct outcomes of the flips of g in a partition stream.

    parts yields (tag, Partition, pairs), standing for the flips over the
    partition by every subset of pairs in binary counting order.  Returns a
    list of ((tag, partition, pairs, subset), iso, balls), one per distinct
    (iso, balls), in the order of each one's first flip in the stream: iso
    is the mask of vertices the flip isolates and balls[v] the radius-r
    ball of v in the flipped graph.
    """
    n = g.n
    if not supports(n):
        raise LimitExceeded(f"bulk: n={n} is outside 1..16")
    base = np.array(g.adj, dtype=np.uint16)
    found = {}      # (iso, *balls) -> (first index, (tag, partition, pairs, subset))
    pending = {}    # (block count, pairs) -> [(tag, partition, pairs, first index)]
    offset = 0
    for tag, part, pairs in parts:
        key = (part.size, tuple(pairs))
        nsub = 1 << len(pairs)
        if nsub >= BATCH:
            # so many pair subsets fill batches by themselves, a slice each
            for lo in range(0, nsub, BATCH):
                _reduce(base, r, key, [(tag, part, pairs, offset + lo)],
                        range(lo, min(lo + BATCH, nsub)), found)
        else:
            batch = pending.setdefault(key, [])
            batch.append((tag, part, pairs, offset))
            if len(batch) * nsub >= BATCH:
                _reduce(base, r, key, pending.pop(key), range(nsub), found)
        offset += nsub
    for key, batch in pending.items():
        _reduce(base, r, key, batch, range(1 << len(key[1])), found)
    ranked = sorted(found.items(), key=lambda kv: kv[1][0])
    return [(flip, out[0], out[1:]) for out, (_, flip) in ranked]


def _reduce(base, r, key, batch, subs, found):
    """Reduce the flips of a batch of partitions sharing (block count, pairs),
    by the pair subsets in the range subs, into `found`, keeping the earliest
    index of each outcome; each partition comes with the index of its flip
    by subs.start."""
    n = base.shape[0]
    b, pairs = key
    nsub = len(subs)
    C = len(batch)
    blocks = np.array([part.blocks for _, part, _, _ in batch], dtype=np.intp)   # (C, n)
    offsets = np.array([o for _, _, _, o in batch], dtype=np.int64)

    bm = np.zeros((C, b), dtype=np.uint16)
    for v in range(n):
        bm[np.arange(C), blocks[:, v]] |= np.uint16(1 << v)

    subsets = np.arange(subs.start, subs.stop)
    # toggle[c, s, a]: xor mask applied to rows of block a under subset s
    toggle = np.zeros((C, nsub, b), dtype=np.uint16)
    for pi, (i, j) in enumerate(pairs):
        sel = ((subsets >> pi) & 1).astype(bool)
        toggle[:, sel, i] |= bm[:, None, j]
        toggle[:, sel, j] |= bm[:, None, i]

    ar = np.arange(C)[:, None]
    rows = []
    for v in range(n):
        rv = base[v] ^ toggle[ar, :, blocks[:, v][:, None]]
        rv &= np.uint16(~(1 << v) & 0xFFFF)
        rows.append(np.ascontiguousarray(rv.reshape(-1)))
    del toggle

    first, table = _components(rows, n) if r is INF else _balls(rows, n, r)
    c, s = np.divmod(first, nsub)
    index = offsets[c] + s
    for row, gi, ci, si in zip(table.tolist(), index.tolist(), c.tolist(), s.tolist()):
        out = tuple(row)
        prev = found.get(out)
        if prev is None or gi < prev[0]:
            found[out] = (gi, batch[ci][:3] + (subs.start + si,))


def _balls(rows, n, r):
    """First position and (iso, *balls) row of each distinct outcome at
    finite r: the iso column comes from rows == 0, since at r=0 a ball does
    not show isolation."""
    B = rows[0].shape[0]
    iso = np.zeros(B, dtype=np.uint16)
    for v in range(n):
        iso |= (rows[v] == 0).astype(np.uint16) << np.uint16(v)
    if r == 0:
        balls = [np.full(B, 1 << v, dtype=np.uint16) for v in range(n)]
    else:
        balls = [rows[v] | np.uint16(1 << v) for v in range(n)]
    bit = np.empty(B, dtype=np.uint16)
    for _ in range(min(r, n - 1) - 1):
        grown = []
        for v in range(n):
            cur = balls[v].copy()
            for w in range(n):
                # cur |= rows[w] wherever w lies in the ball
                np.right_shift(balls[v], np.uint16(w), out=bit)
                bit &= np.uint16(1)
                np.negative(bit, out=bit)
                bit &= rows[w]
                cur |= bit
            grown.append(cur)
        balls = grown
    table = np.stack([iso] + balls, axis=1)
    _, first = np.unique(table.view(np.dtype((np.void, 2 * (n + 1)))).ravel(),
                         return_index=True)
    return first, table[first]


def _components(rows, n):
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
    _, first = np.unique(sig, return_index=True)
    # only the distinct labellings become (iso, *balls) rows
    lab = np.stack([labels[v][first] for v in range(n)], axis=1)      # (U, n)
    pow2 = np.uint32(1) << np.arange(n, dtype=np.uint32)
    balls = ((lab[:, :, None] == lab[:, None, :]) * pow2).sum(axis=2, dtype=np.uint32)
    iso = ((balls == pow2) * pow2).sum(axis=1, dtype=np.uint32)
    return first, np.column_stack([iso, balls]).astype(np.uint16)
