"""Contraction sequences, exact small-instance twin-width, and the flipper
strategy built from an uncontraction sequence."""

from .errors import GenerationError, check_bound
from .flips import FlipSpec, Partition, identity_flip
from .games import Pursuer
from .graphs import bits, lowest_bit, mask_of, popcount

TWW_MAX_N = 10


class ContractionSequence:
    """Merges (i, j) of block representatives (smallest vertex ids), taking
    the singleton partition down to one block."""

    kind = "contraction_sequence"

    def __init__(self, n, merges):
        self.n = n
        self.merges = tuple((min(i, j), max(i, j)) for i, j in merges)
        self._validate()

    def _validate(self):
        reps = {v: 1 << v for v in range(self.n)}
        for i, j in self.merges:
            if i == j or i not in reps or j not in reps:
                raise GenerationError(f"invalid merge ({i},{j}): not current blocks")
            reps[i] = reps[i] | reps[j]
            del reps[j]
        if len(reps) > 1:
            raise GenerationError(f"the merges leave {len(reps)} blocks, not one")

    def partitions(self):
        """Contraction-order chain: singletons first, one block last."""
        parts = {v: 1 << v for v in range(self.n)}
        chain = [tuple(sorted(parts.values()))]
        for i, j in self.merges:
            parts[i] |= parts[j]
            del parts[j]
            chain.append(tuple(sorted(parts.values())))
        return chain

    def uncontraction_chain(self):
        """P_1..P_n: starts with one part, ends with singletons, one split
        per step."""
        return list(reversed(self.partitions()))

    def to_json(self):
        return {"merges": [list(m) for m in self.merges]}


def homogeneous(g, xmask, ymask):
    """Disjoint sets X, Y are complete or anticomplete in g."""
    complete = True
    anti = True
    for u in bits(xmask):
        row = g.adj[u] & ymask
        if row != ymask:
            complete = False
        if row != 0:
            anti = False
        if not complete and not anti:
            return False
    return True


class RedGraph:
    """Partition with red edges between inhomogeneous part pairs."""

    def __init__(self, parts, red):
        self.parts = parts            # tuple of vertex masks
        self.red = red                # red[i]: bitmask over part indices

    def max_degree(self):
        return max((popcount(row) for row in self.red), default=0)


def red_graph(g, partition):
    if isinstance(partition, Partition):
        parts = tuple(partition.block_masks())
    else:
        parts = tuple(partition)
    b = len(parts)
    red = [0] * b
    for i in range(b):
        for j in range(i + 1, b):
            if not homogeneous(g, parts[i], parts[j]):
                red[i] |= 1 << j
                red[j] |= 1 << i
    return RedGraph(parts, tuple(red))


def sequence_width(g, cs):
    """Max red degree over every partition the sequence visits."""
    return max(red_graph(g, parts).max_degree() for parts in cs.partitions())


def _red_degree_after_merge(g, parts, i, j):
    merged = list(parts)
    merged[i] = parts[i] | parts[j]
    del merged[j]
    return red_graph(g, merged).max_degree(), tuple(sorted(merged))


def tww_exact_small(g):
    """Exact twin-width plus an optimal contraction sequence.

    Branch and bound over merge pairs, memoized on the canonical partition;
    merges are explored in ascending resulting-red-degree order and pruned
    against the running minimum, which keeps the memo path-independent.
    """
    check_bound("tww_exact_small", "n", g.n, TWW_MAX_N)
    if g.n <= 1:
        return 0, ContractionSequence(g.n, [])
    memo = {}
    choice = {}

    def future(parts):
        if len(parts) == 1:
            return 0
        if parts in memo:
            return memo[parts]
        options = []
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                deg, merged = _red_degree_after_merge(g, parts, a, b)
                options.append((deg, a, b, merged))
        options.sort(key=lambda t: t[0])
        best = None
        best_merge = None
        for deg, a, b, merged in options:
            if best is not None and deg >= best:
                break
            val = max(deg, future(merged))
            if best is None or val < best:
                best = val
                best_merge = (lowest_bit(parts[a]), lowest_bit(parts[b]))
        memo[parts] = best
        choice[parts] = best_merge
        return best

    start = tuple(sorted(1 << v for v in range(g.n)))
    value = future(start)
    merges = []
    parts = start
    while len(parts) > 1:
        i, j = choice[parts]
        merges.append((i, j))
        by_rep = {lowest_bit(p): p for p in parts}
        by_rep[min(i, j)] = by_rep[i] | by_rep[j]
        del by_rep[max(i, j)]
        parts = tuple(sorted(by_rep.values()))
    return value, ContractionSequence(g.n, merges)


# ---------------------------------------------------------------------------
# flipper strategy from an uncontraction sequence


def _red_ball_parts(red, start_parts, radius):
    """Part indices within red-graph distance radius of start_parts."""
    cur = 0
    for i in start_parts:
        cur |= 1 << i
    for _ in range(radius):
        nxt = cur
        for i in bits(cur):
            nxt |= red.red[i]
        if nxt == cur:
            break
        cur = nxt
    return cur


def _geom_sum(d, m):
    return sum(d ** i for i in range(m + 1))


def btww_flip_size_bound(g, d, r, shatter):
    """Flip-size ceiling per round: geometric-sum form, valid for every d."""
    return shatter(g, (d + 3) * _geom_sum(d, 2 * r - 1)) + (d + 3) * _geom_sum(d, 2 * r)


class TwinWidthFlipper(Pursuer):
    """Flipper policy driven by an uncontraction sequence (round i works in
    the i-th partition of the chain), per the red-ball residue
    construction; wins within n rounds, and each round's flip size obeys
    btww_flip_size_bound."""

    def __init__(self, g, cs, r):
        if not isinstance(r, int) or r < 1:
            raise GenerationError("the twin-width strategy needs a finite radius >= 1")
        self.g = g
        self.r = r
        if cs.n != g.n:
            raise GenerationError(f"the sequence contracts {cs.n} vertices, not {g.n}")
        self.chain = cs.uncontraction_chain()   # P_1 .. P_n
        self.d = sequence_width(g, cs)
        self._reds = [red_graph(g, parts) for parts in self.chain]

    def start(self):
        return 1

    def move(self, state, position):
        i = min(state, len(self.chain))
        if i == 1:
            return identity_flip(self.g.n), state + 1
        spec = self.round_flip(i, position)
        return spec, state + 1

    def round_flip(self, i, c_prev):
        g = self.g
        red = self._reds[i - 1]
        parts = red.parts
        prev_parts = self.chain[i - 2]
        part_of = {}
        for idx, p in enumerate(parts):
            for v in bits(p):
                part_of[v] = idx
        # the split pair: parts of P_i whose union is a part of P_{i-1}
        prev_set = set(prev_parts)
        cur_set = set(parts)
        split_union = next(p for p in prev_set - cur_set)
        ab = [idx for idx, p in enumerate(parts) if p & split_union]
        family = {part_of[c_prev]}
        family.update(ab)
        for idx, p in enumerate(parts):
            if idx in family:
                continue
            if not homogeneous(g, p, split_union):
                family.add(idx)
        ball_2r = _red_ball_parts(red, family, 2 * self.r)
        ball_2rm1 = _red_ball_parts(red, family, 2 * self.r - 1)
        reps = mask_of(lowest_bit(parts[idx]) for idx in bits(ball_2rm1))
        rest = 0
        for idx in range(len(parts)):
            if not (ball_2r >> idx) & 1:
                rest |= parts[idx]
        classes = {}
        for v in bits(rest):
            classes.setdefault(g.adj[v] & reps, []).append(v)
        new_parts = [parts[idx] for idx in bits(ball_2r)]
        new_parts.extend(mask_of(vs) for _, vs in sorted(classes.items()))
        labels = [0] * g.n
        for bidx, p in enumerate(new_parts):
            for v in bits(p):
                labels[v] = bidx
        m = len(new_parts)
        return FlipSpec.from_labels(labels, [
            (a, b) for a in range(m) for b in range(a + 1, m)
            if _complete(g, new_parts[a], new_parts[b])])

    def invariant_holds(self, i, flip_masks_now, c_i):
        """A_i subset of the union of red balls of radius r around c_i's part."""
        from .graphs import ball_mask
        red = self._reds[min(i, len(self.chain)) - 1]
        part_idx = next(idx for idx, p in enumerate(red.parts) if (p >> c_i) & 1)
        allowed_parts = _red_ball_parts(red, [part_idx], self.r)
        allowed = 0
        for idx in bits(allowed_parts):
            allowed |= red.parts[idx]
        a_i = ball_mask(flip_masks_now, c_i, self.r)
        return a_i & ~allowed == 0


def _complete(g, xmask, ymask):
    return all(g.adj[u] & ymask == ymask for u in bits(xmask))
