"""Vectorized enumeration of flip outcomes for radius-infinity solves.

Streams every (partition, pair-subset) combination in batches through
numpy, reducing each flip to its component partition.  Outcome spaces
collapse by many orders of magnitude (the half-graph H_6 has ~6.3e8 raw
4-flips but only a few thousand distinct component partitions), after
which the game fixpoint is cheap.

The flipper solver sends every r=inf solve on 1 <= n <= 16 vertices here
(`supports`): rows are uint16 and component labels 4 bits wide.  Larger
graphs, reachable at width 1 or with a raised max_n, stay on the Python
stream.
"""

import numpy as np

from .errors import LimitExceeded
from .flips import FlipSpec, Partition, block_pairs, rgs_partitions

def supports(n):
    """Whether component_outcomes takes graphs on n vertices."""
    return 1 <= n <= 16


def component_outcomes(g, k):
    """Distinct component partitions over all <= k-flips of g.

    Returns a list of (blocks, pair_subset, comp_masks) in first-occurrence
    order of the canonical flip enumeration (restricted growth partitions x
    binary-counted pair subsets).  comp_masks is the tuple of component
    bitmasks, ascending by smallest vertex.
    """
    n = g.n
    if not supports(n):
        raise LimitExceeded(f"component_outcomes: n={n} is outside 1..16")
    base = np.array(g.adj, dtype=np.uint16)
    found = {}  # signature -> (first_index, blocks, subset)

    # bucket partitions by block count; indices stay true enumeration offsets
    offset = 0
    pending = {}
    target = 1 << 18

    def flush(b):
        metas = pending.pop(b, [])
        if metas:
            _process(base, n, metas, found)

    for part in rgs_partitions(n, k):
        b = part.size
        nsub = 1 << (b * (b + 1) // 2)
        pending.setdefault(b, []).append((part.blocks, offset, nsub))
        offset += nsub
        if len(pending[b]) * nsub >= target:
            flush(b)
    for b in sorted(pending):
        flush(b)

    return [(blocks, sub, _sig_to_comps(sig, n))
            for sig, (_, blocks, sub) in sorted(found.items(), key=lambda kv: kv[1][0])]


def _process(base, n, metas, found):
    """Handle a batch of partitions sharing one block count."""
    blocks_arr = np.array([m[0] for m in metas], dtype=np.int64)   # (C, n)
    offsets = np.array([m[1] for m in metas], dtype=np.int64)
    nsub = metas[0][2]
    b = int(blocks_arr.max()) + 1
    C = blocks_arr.shape[0]
    pairs = block_pairs(b)
    P = len(pairs)

    bm = np.zeros((C, b), dtype=np.uint16)
    for v in range(n):
        np.bitwise_or.at(bm, (np.arange(C), blocks_arr[:, v]),
                         np.uint16(1) << np.uint16(v))

    subbits = ((np.arange(nsub, dtype=np.uint32)[:, None] >> np.arange(P)[None, :]) & 1)
    # toggle[c, s, a]: xor mask applied to rows of block a under subset s
    toggle = np.zeros((C, nsub, b), dtype=np.uint16)
    for pi, (i, j) in enumerate(pairs):
        sel = subbits[:, pi].astype(bool)
        toggle[:, sel, i] |= bm[:, None, j]
        toggle[:, sel, j] |= bm[:, None, i]

    # adjacency rows are static during the closure: precompute the bit tests
    # once, then min-label propagation on uint8 labels gives the canonical
    # component signature (smallest vertex per component) directly
    ar = np.arange(C)[:, None]
    rows = []
    for v in range(n):
        rv = base[v] ^ toggle[ar, :, blocks_arr[:, v][:, None]]
        rv &= np.uint16(~(1 << v) & 0xFFFF)
        rows.append(np.ascontiguousarray(rv.reshape(-1)))
    B = rows[0].shape[0]
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

    uq, first = np.unique(sig, return_index=True)
    flat_offsets = np.repeat(offsets, nsub) + np.tile(np.arange(nsub, dtype=np.int64), C)
    for u_, i_ in zip(uq.tolist(), first.tolist()):
        gi = int(flat_offsets[i_])
        prev = found.get(u_)
        if prev is None or gi < prev[0]:
            ci, si = divmod(i_, nsub)
            found[u_] = (gi, tuple(int(x) for x in blocks_arr[ci]), int(si))


def _sig_to_comps(sig, n):
    comps = {}
    for v in range(n):
        label = (int(sig) >> (4 * v)) & 0xF
        comps.setdefault(label, 0)
        comps[label] |= 1 << v
    return tuple(comps[label] for label in sorted(comps))


def outcome_to_flipspec(blocks, subset):
    part = Partition(blocks)
    pairs = block_pairs(part.size)
    chosen = [pairs[t] for t in range(len(pairs)) if (subset >> t) & 1]
    return FlipSpec(part, chosen)
