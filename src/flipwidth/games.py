"""Exact fixpoint solvers for the pursuit games, value search, the
definable-game approximation routine, and the strategy simulation harness.

Flipper-style games (flip / definable / bipartite / ordered) are solved
over abstract PositionSet states: R is the set of vertices the runner may
land on, and

    Win(R)  iff  exists move f such that every u in R is trapped by f
                 or Win(ball_f(u)).

A solve needs each family's distinct (isolated set, ball map) outcomes,
each with the first move that gives it.  The families that flip g itself
(flip, definable, bipartite) get them from the numpy engine in `bulk`,
which reduces their partition streams from `flips` at every radius on
1 <= n <= 16 vertices.  Everything else (other n, the ordered cut-flips and
the Gaifman graphs of the binary ordered game) goes through
`_outcome_stream`, which reduces a stream of (move, masks) pairs, one per
distinct edge set, as `flips.distinct_flips` and the cut-flip enumerator
yield them.

Cops-style games keep their concrete states ((cops, robber) or just the
robber vertex for the no-announcement variant).
"""

import random
from collections import namedtuple

from .errors import IllegalMoveError, LimitExceeded
from .flips import (CutFlip, FlipSpec, Partition, _weighted_ball,
                    block_pairs, cut_flip_weighted, distinct_flips,
                    enumerate_bipartite_flips, enumerate_cut_flips,
                    enumerate_definable_flips, enumerate_k_flips, flip_masks,
                    identity_flip, partition_flips, rgs_partitions, s_types,
                    subset_flip)
from .graphs import INF, ball_mask, bits, mask_of, popcount

FLIPPER = "flipper"
RUNNER = "runner"
COPS = "cops"
ROBBER = "robber"


class Outcome:
    """What a move does: iso masks the vertices it isolates and balls[v] is
    the runner's reach from v.  `move` is the first move that does it; an
    outcome from the numpy engine keeps its (tag, partition, pairs, subset)
    and builds the move, through FlipSpec's checks, when it is first read."""

    __slots__ = ("iso", "balls", "_move", "_flip")

    def __init__(self, move, iso, balls, flip=None):
        self._move = move
        self.iso = iso
        self.balls = balls
        self._flip = flip

    @property
    def move(self):
        if self._flip is not None:
            tag, part, pairs, sub = self._flip
            spec = subset_flip(part, pairs, sub)
            self._move = spec if tag is None else (tag, spec)
            self._flip = None
        return self._move


class GameSolution:
    """Result of an exact solve.

    win_table maps each reachable winning state to (rounds, move-json),
    where rounds is the least-fixpoint iteration at which the state was
    won; `rounds` on the solution is the pursuer's worst case over initial
    states (None when the evader wins).  The witnesses replay the table
    deterministically and the losing side gets a maximally-surviving
    policy.
    """

    def __init__(self, game, r, k, winner, rounds, win_table, witness_pursuer,
                 witness_evader, initial_states):
        self.game = game
        self.r = r
        self.k = k
        self.winner = winner
        self.rounds = rounds
        self.win_table = win_table
        self.witness_pursuer = witness_pursuer
        self.witness_evader = witness_evader
        self.initial_states = initial_states

    @property
    def witness_flipper(self):
        return self.witness_pursuer

    @property
    def witness_runner(self):
        return self.witness_evader

    def to_json(self, witness=False):
        obj = {"game": self.game,
               "r": "inf" if self.r is INF else self.r,
               "k": self.k,
               "winner": self.winner,
               "rounds": self.rounds}
        if witness:
            obj["witness"] = self._witness_table_json()
        return obj

    def _witness_table_json(self):
        table = {}
        for state, (rounds, move_json) in sorted(self.win_table.items(),
                                                 key=lambda kv: repr(kv[0])):
            table[_state_key(state)] = {"rounds": rounds, "move": move_json}
        return table

    def __repr__(self):
        return (f"GameSolution(game={self.game!r}, r={self.r!r}, k={self.k}, "
                f"winner={self.winner!r}, rounds={self.rounds})")


def _state_key(state):
    if isinstance(state, int):
        return ",".join(str(v) for v in bits(state))
    s, v = state
    return ",".join(str(u) for u in bits(s)) + "|" + str(v)


# ---------------------------------------------------------------------------
# strategies


class Strategy:
    """Deterministic policy with explicit, hashable internal state."""

    side = None

    def start(self):
        return None


class Pursuer(Strategy):
    side = "pursuer"

    def move(self, state, position):
        """Return (move, next_state); position may be None (ordered round 1)."""
        raise NotImplementedError


class Evader(Strategy):
    side = "evader"

    def initial(self, state):
        """Initial vertex for games where the evader starts (default: 0)."""
        return 0, state

    def respond(self, state, move, legal):
        """Pick a vertex from legal (sorted tuple), knowing the announced move."""
        raise NotImplementedError


class IdentityFlipper(Pursuer):
    def __init__(self, n):
        self.spec = identity_flip(n)

    def move(self, state, position):
        return self.spec, None


class RandomFlipper(Pursuer):
    """Uniform random legal flip each round; deterministic per seed."""

    def __init__(self, n, k, seed):
        self.n = n
        self.k = k
        self.seed = seed

    def start(self):
        return 0

    def move(self, state, position):
        rng = random.Random(self.seed * 1000003 + state)
        blocks = [rng.randrange(self.k) for _ in range(self.n)]
        part = Partition(blocks)
        pairs = block_pairs(part.size)
        chosen = [p for p in pairs if rng.random() < 0.5]
        return FlipSpec(part, chosen), state + 1


class FirstLegalEvader(Evader):
    def respond(self, state, move, legal):
        return legal[0], state


class HalfGraphFlipper(Pursuer):
    """Scripted 4-part strategy for the half-graph of order n.

    Round i flips ({a_1..a_{i-1}}, {b_i..b_n}) and ({a_i}, {b_i..b_n}),
    isolating a_i and b_i and splitting the rest; the runner is pushed
    rightwards and trapped within n rounds.
    """

    def __init__(self, n):
        self.n = n

    def start(self):
        return 1

    def move(self, state, position):
        n = self.n
        i = min(state, n)
        blocks = []
        for v in range(2 * n):
            if v < n:    # a_{v+1}
                if v + 1 < i:
                    blocks.append(0)
                elif v + 1 == i:
                    blocks.append(1)
                else:
                    blocks.append(3)
            else:        # b_{v-n+1}
                blocks.append(2 if v - n + 1 >= i else 3)
        part = Partition(blocks)
        # block ids after canonicalization depend on first occurrence; map them
        ids = {}
        for v, raw in enumerate(blocks):
            ids.setdefault(raw, part.blocks[v])
        pairs = []
        if 0 in ids and 2 in ids:
            pairs.append((ids[0], ids[2]))
        if 1 in ids and 2 in ids:
            pairs.append((ids[1], ids[2]))
        return FlipSpec(part, pairs), state + 1


# ---------------------------------------------------------------------------
# flip-family outcome tables


def _outcome_stream(n, r, moves, ball, trapped):
    """Distinct (iso, ballmap) outcomes over a stream of (move, masks), each
    with the first move that gives it.  ball(masks, v, r) is the runner's
    reach from v and trapped(masks, v) whether the move isolates v."""
    seen = set()
    order = []
    for move, masks in moves:
        iso = 0
        for v in range(n):
            if trapped(masks, v):
                iso |= 1 << v
        key = (iso, tuple(ball(masks, v, r) for v in range(n)))
        if key not in seen:
            seen.add(key)
            order.append(Outcome(move, *key))
    return order


def _engine_outcomes(found):
    """Outcomes of the numpy engine's ((tag, partition, pairs, subset), iso,
    balls) entries; each move is announced as its family's enumerator
    announces it."""
    return [Outcome(None, iso, balls, flip) for flip, iso, balls in found]


def _family_outcomes(g, r, parts):
    """Outcomes of the flips of g in a partition stream from `flips`, first
    flip of each in the stream's order: from the numpy engine whenever it
    takes n, else the Python stream."""
    from . import bulk
    if bulk.supports(g.n):
        return _engine_outcomes(bulk.outcomes(g, r, parts))
    return _outcome_stream(g.n, r, distinct_flips(g, parts), ball_mask, _trapped)


def _flip_outcomes(g, r, k, max_n=None):
    """Outcomes of every <= k-flip of g.  At r=inf the engine is entered
    through `bulk.component_outcomes`: bench/spans.py times that entry as
    the engine layer and `enumerate_k_flips` as flip enumeration."""
    from . import bulk
    if r is INF and bulk.supports(g.n):
        return _engine_outcomes(bulk.component_outcomes(g, k, max_n))
    return _family_outcomes(g, r, enumerate_k_flips(g, k, max_n=max_n))


def _definable_outcomes(g, r, k, max_k=None):
    return _family_outcomes(g, r, enumerate_definable_flips(g, k, max_k=max_k))


def _cut_flip_outcomes(og, r, k, max_n=None):
    return _outcome_stream(og.n, r, enumerate_cut_flips(og, k, max_n=max_n),
                           _cut_ball, _cut_trapped)


# ---------------------------------------------------------------------------
# abstract fixpoint


def _abstract_solve(outcomes, init_states, n):
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
        check_anti_tone({R: (rd, o) for R, (rd, o) in won.items()})
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


# A move's masks, as the simulation rules compute them, are adjacency masks
# for a flip and a (weight-0, weight-1) pair of masks for a cut-flip.


def _trapped(masks, v):
    return masks[v] == 0


def _cut_ball(w, v, r):
    return _weighted_ball(w[0], w[1], v, r)


def _cut_trapped(w, v):
    return w[0][v] == 0 and w[1][v] == 0


class TableFlipper(Pursuer):
    """Witness pursuer for flip-family games, replaying the solve table.

    Its state is the masks of the last move played (`start` before the
    first, None when the runner picks round 1 freely); ball(masks, v, r)
    is the runner's reach from v and masks_of(move) the masks a move
    gives.  A state off the table gets the move that covers most of it.
    """

    def __init__(self, n, r, outcomes, won, masks_of, ball, start=None):
        self.full = (1 << n) - 1
        self.r = r
        self.outcomes = outcomes
        self.won = won
        self.masks_of = masks_of
        self.ball = ball
        self.initial_masks = start

    def start(self):
        return self.initial_masks

    def move(self, state, position):
        if state is None or position is None:
            R = self.full
        else:
            R = self.ball(state, position, self.r)
        chosen = self.won[R][1] if R in self.won else self._greedy(R)
        return chosen.move, self.masks_of(chosen.move)

    def _greedy(self, R):
        best = None
        best_cover = -1
        for o in self.outcomes:
            kill = o.iso
            for v in bits(R & ~kill):
                if o.balls[v] in self.won:
                    kill |= 1 << v
            cover = popcount(R & kill)
            if cover > best_cover:
                best_cover = cover
                best = o
        return best


class TableRunner(Evader):
    """Maximally-surviving evader for flip-family games: it starts where the
    win table is latest or silent, and answers each move the same way over
    the legal vertices; trapped(masks, u) tells the move's isolated ones."""

    def __init__(self, r, won, init_states, masks_of, ball, trapped):
        self.r = r
        self.won = won
        self.init_states = init_states
        self.masks_of = masks_of
        self.ball = ball
        self.trapped = trapped

    def initial(self, state):
        best_v, best_score = 0, -2
        for v, R in enumerate(self.init_states):
            entry = self.won.get(R)
            score = float("inf") if entry is None else entry[0]
            if score > best_score:
                best_v, best_score = v, score
        return best_v, state

    def respond(self, state, move, legal):
        masks = self.masks_of(move)
        best_u, best_score = None, -2
        for u in legal:
            if self.trapped(masks, u):
                score = -1
            else:
                entry = self.won.get(self.ball(masks, u, self.r))
                score = float("inf") if entry is None else entry[0]
            if score > best_score:
                best_u, best_score = u, score
        return best_u, state


# ---------------------------------------------------------------------------
# flip-family solvers


def least_width(solve, winner, stop, start=1):
    """Least k >= start at which solve(k) is won by `winner`.

    Widths are tried upwards to stop; with stop None the search ends only
    on a win or when the solver raises, such as LimitExceeded at its
    enumeration bound.
    """
    k = start
    while stop is None or k <= stop:
        if solve(k).winner == winner:
            return k
        k += 1
    raise AssertionError(f"no {winner} win at any k <= {stop}")


def _solve_table(game, r, k, n, outcomes, init, move_json, witnesses=None):
    """Solve a flip-family game over its outcomes and package the result.

    The pursuer wins when every initial position set is won, in the worst
    of their rounds.  The win table gives each won state its rounds and
    move_json of its move; witnesses(won), when given, returns the
    (pursuer, evader) pair that replays it.
    """
    won = _abstract_solve(outcomes, init, n)
    wins = all(R in won for R in init)
    rounds = max((won[R][0] for R in init), default=0) if wins else None
    table = {R: (rd, move_json(o.move)) for R, (rd, o) in won.items()}
    pursuer, evader = witnesses(won) if witnesses else (None, None)
    return GameSolution(game, r, k, FLIPPER if wins else RUNNER, rounds, table,
                        pursuer, evader, init)


def _solve_on_graph(game, g, r, k, outcomes, move_json):
    """_solve_table for the games that flip g itself (flip, dfw, bipartite):
    the runner starts in a radius-r ball of g, and a move is a FlipSpec or
    an (S, FlipSpec) pair."""
    init = [ball_mask(g.adj, v, r) for v in range(g.n)]

    def masks_of(move):
        return flip_masks(g, move[1] if isinstance(move, tuple) else move)

    def witnesses(won):
        return (TableFlipper(g.n, r, outcomes, won, masks_of, ball_mask, tuple(g.adj)),
                TableRunner(r, won, init, masks_of, ball_mask, _trapped))
    return _solve_table(game, r, k, g.n, outcomes, init, move_json, witnesses)


def solve_flipper(g, r, k, max_n=None):
    """Exact flipper-game solve on g with radius r and width k."""
    return _solve_on_graph("flip", g, r, k, _flip_outcomes(g, r, k, max_n=max_n),
                           FlipSpec.to_json)


def flip_width(g, r, max_n=None):
    """Least k with a flipper win; always <= max(n, 1)."""
    return least_width(lambda k: solve_flipper(g, r, k, max_n=max_n), FLIPPER, max(g.n, 1))


def solve_definable(g, r, k, max_k=None):
    """Definable flipper game: flips restricted to S-definable ones, |S| <= k."""
    return _solve_on_graph("dfw", g, r, k, _definable_outcomes(g, r, k, max_k=max_k),
                           lambda move: {"s": list(move[0]), "flip": move[1].to_json()})


def definable_flip_width(g, r, max_k=None):
    return least_width(lambda k: solve_definable(g, r, k, max_k=max_k), FLIPPER,
                       None, start=0)


def solve_bipartite(g, left_mask, r, k):
    """Bipartite flipper game on a bipartite graph with the given side mask."""
    outcomes = _family_outcomes(g, r, enumerate_bipartite_flips(g, left_mask, k))
    return _solve_on_graph("bipartite", g, r, k, outcomes, FlipSpec.to_json)


def bipartite_flip_width(g, left_mask, r):
    return least_width(lambda k: solve_bipartite(g, left_mask, r, k), FLIPPER, max(g.n, 1))


def solve_ordered(og, r, k, max_n=None):
    """Ordered flipper game with k-cut-flips; the runner picks round 1 freely."""
    outcomes = _cut_flip_outcomes(og, r, k, max_n=max_n)
    init = [(1 << og.n) - 1]

    def masks_of(cf):
        return cut_flip_weighted(og, cf)

    def witnesses(won):
        return (TableFlipper(og.n, r, outcomes, won, masks_of, _cut_ball),
                TableRunner(r, won, init, masks_of, _cut_ball, _cut_trapped))
    return _solve_table("ordered", r, k, og.n, outcomes, init, CutFlip.to_json, witnesses)


def ordered_flip_width(og, r, max_n=None):
    return least_width(lambda k: solve_ordered(og, r, k, max_n=max_n), FLIPPER,
                       max(og.n, 1))


# ---------------------------------------------------------------------------
# ordered graphs as binary structures (edge + order relation flips)


def _binary_gaifman_outcomes(og, r, k):
    """Distinct outcomes of the Gaifman graphs of k-flips of (V, E, <) as a
    binary structure.

    Between two blocks the flipped order relation keeps all Gaifman pairs,
    or drops exactly the pairs whose smaller endpoint lies in a chosen
    block; within a block order pairs always survive.  Edge flips are the
    usual symmetric ones; the two layers combine independently.
    """
    g = og.graph
    n = g.n

    def gaifman_graphs():
        graphs = set()
        for part in rgs_partitions(n, k):
            b = part.size
            bm = part.block_masks()
            elayers = [masks for _, masks in
                       partition_flips(g, part, block_pairs(b), set())]
            # distinct <-layers: per unordered block pair choose
            #   0 keep all, 1 drop lower-in-A pairs, 2 drop lower-in-B pairs
            cross = [(i, j) for i in range(b) for j in range(i + 1, b)]
            lseen = set()
            llayers = []
            for choice in _ternary(len(cross)):
                masks = [0] * n
                for v in range(n):
                    same = bm[part.blocks[v]] & ~(1 << v)
                    masks[v] |= same
                for (i, j), c in zip(cross, choice):
                    for u in bits(bm[i]):
                        for w in bits(bm[j]):
                            lo, hi = (u, w) if u < w else (w, u)
                            lo_in_i = part.blocks[lo] == i
                            if c == 0 or (c == 1 and not lo_in_i) or (c == 2 and lo_in_i):
                                masks[u] |= 1 << w
                                masks[w] |= 1 << u
                t = tuple(masks)
                if t not in lseen:
                    lseen.add(t)
                    llayers.append(t)
            for em in elayers:
                for lm in llayers:
                    gm = tuple(em[v] | lm[v] for v in range(n))
                    if gm not in graphs:     # a repeated Gaifman graph repeats its outcome
                        graphs.add(gm)
                        yield None, gm
    return _outcome_stream(n, r, gaifman_graphs(), ball_mask, _trapped)


def _ternary(m):
    state = [0] * m
    while True:
        yield tuple(state)
        i = 0
        while i < m and state[i] == 2:
            state[i] = 0
            i += 1
        if i == m:
            return
        state[i] += 1


def solve_ordered_binary(og, r, k):
    """Flipper game on the ordered graph as a binary structure (Gaifman moves)."""
    outcomes = _binary_gaifman_outcomes(og, r, k)
    init = [(1 << og.n) - 1]
    return _solve_table("ordered-binary", r, k, og.n, outcomes, init, lambda move: None)


def ordered_binary_flip_width(og, r):
    return least_width(lambda k: solve_ordered_binary(og, r, k), FLIPPER, max(og.n, 1))


# ---------------------------------------------------------------------------
# cops-style solvers


COPS_MAX_N = 10


def _reach_table(g, r, avoid_self=False):
    """reach[v][B]: vertices reachable from v by a path of length <= r in
    G - B (v itself always included; callers never query v in B)."""
    n = g.n
    table = [[0] * (1 << n) for _ in range(n)]
    for v in range(n):
        row = table[v]
        for B in range(1 << n):
            if (B >> v) & 1:
                continue
            masks = [g.adj[u] & ~B for u in range(n)]
            row[B] = ball_mask(masks, v, r)
    return table


def _subset_masks(n, k):
    out = [m for m in range(1 << n) if popcount(m) <= k]
    out.sort(key=lambda m: (popcount(m), m))
    return out


def solve_cops(g, r, k, max_n=None):
    """Cops and Robber with announced moves: robber runs at speed r through
    vertices free of grounded cops (the old-and-new intersection)."""
    limit = COPS_MAX_N if max_n is None else max_n
    if g.n > limit:
        raise LimitExceeded(f"solve_cops: n={g.n} exceeds the configured bound {limit}")
    return _solve_cops_family("cop", g, r, k, grounded=lambda S, S2: S & S2)


def solve_isolation(g, r, k, max_n=None):
    """Isolation game: the robber's path avoids all previous cop positions."""
    limit = COPS_MAX_N if max_n is None else max_n
    if g.n > limit:
        raise LimitExceeded(f"solve_isolation: n={g.n} exceeds bound {limit}")
    return _solve_cops_family("isolation", g, r, k, grounded=lambda S, S2: S)


def _solve_cops_family(game, g, r, k, grounded):
    import numpy as np
    n = g.n
    nstates = 1 << n
    reach = _reach_table(g, r)
    reach_np = np.array(reach, dtype=np.uint32)
    moves = _subset_masks(n, k)
    masks_arr = np.arange(nstates, dtype=np.uint32)
    win = np.zeros(nstates, dtype=np.uint32)       # bit v: cops win at (S, v)
    rounds = {}
    iteration = 0
    while True:
        iteration += 1
        allowed = {s2: np.uint32(s2 | int(win[s2])) for s2 in moves}
        new = np.zeros(nstates, dtype=np.uint32)
        for s2 in moves:
            a = allowed[s2]
            B = grounded(masks_arr, np.uint32(s2))
            for v in range(n):
                rv = reach_np[v][B]
                ok = (rv & ~a) == 0
                new |= ok.astype(np.uint32) << np.uint32(v)
        new &= ~masks_arr          # states require v not in S
        new &= ~win
        if not new.any():
            break
        idx = np.nonzero(new)[0]
        for s in idx.tolist():
            m = int(new[s])
            for v in bits(m):
                rounds[(s, v)] = iteration
        win |= new
    empty_bits = int(win[0])
    cops_win = all((empty_bits >> v) & 1 for v in range(n))
    value_rounds = max((rounds[(0, v)] for v in range(n)), default=0) if cops_win else None
    win_table = {}
    for (s, v), rd in rounds.items():
        win_table[(s, v)] = (rd, None)
    sol = GameSolution(game, r, k, COPS if cops_win else ROBBER, value_rounds,
                       win_table, None, None, [(0, v) for v in range(n)])
    sol.witness_pursuer = CopTable(reach, rounds, moves, grounded)
    sol.witness_evader = RobberTable(g, rounds)
    return sol


class CopTable(Pursuer):
    """Witness cop policy: round-decreasing, enumeration-first cop sets."""

    def __init__(self, reach, rounds, moves, grounded):
        self.reach = reach
        self.rounds = rounds
        self.moves = moves
        self.grounded = grounded

    def start(self):
        return 0   # current cop set mask

    def move(self, state, position):
        S = state
        t = self.rounds.get((S, position))
        for s2 in self.moves:
            B = self.grounded(S, s2)
            rv = self.reach[position][B]
            ok = True
            for u in bits(rv & ~s2):
                ru = self.rounds.get((s2, u))
                if ru is None or (t is not None and ru >= t):
                    ok = False
                    break
            if ok:
                return frozenset(bits(s2)), s2
        # losing side: grab the reachable set greedily
        best, best_cover = self.moves[0], -1
        for s2 in self.moves:
            B = self.grounded(S, s2)
            rv = self.reach[position][B]
            cover = popcount(rv & s2)
            if cover > best_cover:
                best, best_cover = s2, cover
        return frozenset(bits(best)), best


class RobberTable(Evader):
    """Maximally-surviving robber: escape the win table if possible."""

    def __init__(self, g, rounds):
        self.g = g
        self.rounds = rounds

    def initial(self, state):
        best_v, best_score = 0, -1
        for v in range(self.g.n):
            rd = self.rounds.get((0, v))
            score = float("inf") if rd is None else rd
            if score > best_score:
                best_v, best_score = v, score
        return best_v, 0

    def respond(self, state, move, legal):
        s2 = mask_of(move)
        best_u, best_score = None, -2
        for u in legal:
            if (s2 >> u) & 1:
                score = -1
            else:
                rd = self.rounds.get((s2, u))
                score = float("inf") if rd is None else rd
            if score > best_score:
                best_u, best_score = u, score
        return best_u, s2


def cop_width(g, r, max_n=None):
    return least_width(lambda k: solve_cops(g, r, k, max_n=max_n), COPS, max(g.n, 1))


def isolation_width(g, r, max_n=None):
    return least_width(lambda k: solve_isolation(g, r, k, max_n=max_n), COPS, max(g.n, 1))


def _copprime_responses(g, r, v, A):
    """Legal robber responses in the no-announcement game: stay if v not in
    A, or move along a path of length 1..r whose non-start vertices avoid A."""
    legal = 0
    if not (A >> v) & 1:
        legal |= 1 << v
    frontier = g.adj[v] & ~A
    reached = frontier
    steps = 1
    while frontier and steps < r:
        nxt = 0
        for u in bits(frontier):
            nxt |= g.adj[u]
        nxt &= ~A & ~reached
        nxt &= ~(1 << v)
        reached |= nxt
        frontier = nxt
        steps += 1
    legal |= reached
    return legal


def solve_copw_prime(g, r, k, max_n=None):
    """No-announcement cop variant: memoryless states, cops pick A each round."""
    limit = COPS_MAX_N if max_n is None else max_n
    if g.n > limit:
        raise LimitExceeded(f"solve_copw_prime: n={g.n} exceeds bound {limit}")
    n = g.n
    moves = _subset_masks(n, k)
    won = {}
    iteration = 0
    while True:
        iteration += 1
        new = {}
        for v in range(n):
            if v in won:
                continue
            for A in moves:
                legal = _copprime_responses(g, r, v, A)
                if legal == 0 or all(u in won for u in bits(legal)):
                    new[v] = (iteration, A)
                    break
        if not new:
            break
        won.update(new)
    cops_win = len(won) == n
    rounds = max((rd for rd, _ in won.values()), default=0) if cops_win else None
    table = {v: (rd, {"cops": sorted(bits(A))}) for v, (rd, A) in won.items()}
    sol = GameSolution("copprime", r, k, COPS if cops_win else ROBBER, rounds,
                       table, None, None, list(range(n)))
    sol.witness_pursuer = CopPrimeTable(g, r, moves, won)
    sol.witness_evader = CopPrimeRobber(g, won)
    return sol


class CopPrimeTable(Pursuer):
    def __init__(self, g, r, moves, won):
        self.g = g
        self.r = r
        self.moves = moves
        self.won = won

    def move(self, state, position):
        entry = self.won.get(position)
        if entry is not None:
            t = entry[0]
            for A in self.moves:
                legal = _copprime_responses(self.g, self.r, position, A)
                if legal == 0 or all(u in self.won and self.won[u][0] < t
                                     for u in bits(legal)):
                    return frozenset(bits(A)), None
        best, best_score = self.moves[0], -1
        for A in self.moves:
            legal = _copprime_responses(self.g, self.r, position, A)
            score = sum(1 for u in bits(legal) if u in self.won)
            if score > best_score:
                best, best_score = A, score
        return frozenset(bits(best)), None


class CopPrimeRobber(Evader):
    def __init__(self, g, won):
        self.g = g
        self.won = won

    def initial(self, state):
        for v in range(self.g.n):
            if v not in self.won:
                return v, None
        best = max(range(self.g.n), key=lambda v: self.won[v][0])
        return best, None

    def respond(self, state, move, legal):
        best_u, best_score = None, -1
        for u in legal:
            entry = self.won.get(u)
            score = float("inf") if entry is None else entry[0]
            if score > best_score:
                best_u, best_score = u, score
        return best_u, None


def copw_prime_width(g, r, max_n=None):
    return least_width(lambda k: solve_copw_prime(g, r, k, max_n=max_n), COPS, max(g.n, 1))


# ---------------------------------------------------------------------------
# approximation


class ApproxVerdict(namedtuple("ApproxVerdict", "kind r k dfw bound note")):
    def to_json(self):
        if self.kind == "UPPER":
            return {"verdict": "UPPER", "r": self.r, "k": self.k,
                    "dfw": self.dfw, "guarantee": f"fw_{self.r} <= {self.bound}"}
        return {"verdict": "LOWER", "r": self.r, "k": self.k, "dfw": self.dfw,
                "guarantee": f"fw_{5 * self.r} >= C*k^(1/3) with k={self.k}",
                "note": self.note}


def approx_flip_width(g, r, k, max_k=None):
    """Run the definable-game decision; conclude UPPER (fw_r <= 2^k) or
    LOWER (fw_5r >= C k^(1/3), constant symbolic)."""
    sol = solve_definable(g, r, k, max_k=max_k)
    if sol.winner == FLIPPER:
        return ApproxVerdict("UPPER", r, k, True, 2 ** k, None)
    return ApproxVerdict("LOWER", r, k, False, None,
                         "the constant C is not fixed numerically")


# ---------------------------------------------------------------------------
# simulation harness


class Trace:
    """Round-by-round record of one match."""

    def __init__(self, game, outcome, rounds, events, winner_side):
        self.game = game
        self.outcome = outcome          # "PURSUER_WINS" | "EVADER_SURVIVES"
        self.rounds = rounds
        self.events = events
        self.winner_side = winner_side

    def to_json(self):
        return {"game": self.game, "outcome": self.outcome,
                "rounds": self.rounds, "trace": self.events}


def _move_json(move):
    if isinstance(move, FlipSpec):
        return move.to_json()
    if isinstance(move, CutFlip):
        return move.to_json()
    if isinstance(move, frozenset):
        return {"cops": sorted(move)}
    if isinstance(move, tuple) and len(move) == 2 and isinstance(move[1], FlipSpec):
        return {"s": sorted(move[0]), "flip": move[1].to_json()}
    return repr(move)


class _FlipRules:
    """Flipper game: moves are <= k-flips, runner walks in the previous flip."""

    game = "flip"
    evader_starts = True

    def __init__(self, g, r, k):
        self.g = g
        self.r = r
        self.k = k
        self.prev = g.adj

    def check_move(self, move, rnd):
        if not isinstance(move, FlipSpec):
            raise IllegalMoveError(f"round {rnd}: flip game expects a FlipSpec")
        if len(move.partition.blocks) != self.g.n:
            raise IllegalMoveError(f"round {rnd}: flip partition does not cover V")
        if move.partition.size > self.k:
            raise IllegalMoveError(
                f"round {rnd}: flip uses {move.partition.size} parts, width is {self.k}")
        return flip_masks(self.g, move)

    def legal(self, pos, move_masks):
        return tuple(bits(ball_mask(self.prev, pos, self.r)))

    def trapped(self, move_masks, pos):
        return move_masks[pos] == 0

    def advance(self, move_masks):
        self.prev = move_masks


class _DefinableRules(_FlipRules):
    game = "dfw"

    def check_move(self, move, rnd):
        if not (isinstance(move, tuple) and len(move) == 2):
            raise IllegalMoveError(f"round {rnd}: definable game expects (S, FlipSpec)")
        s_set, spec = move
        if len(s_set) > self.k:
            raise IllegalMoveError(f"round {rnd}: |S|={len(s_set)} exceeds width {self.k}")
        if spec.partition != s_types(self.g, s_set):
            raise IllegalMoveError(f"round {rnd}: flip partition is not the S-type partition")
        return flip_masks(self.g, spec)


class _BipartiteRules(_FlipRules):
    game = "bipartite"

    def __init__(self, g, r, k, left_mask):
        super().__init__(g, r, k)
        self.left_mask = left_mask

    def check_move(self, move, rnd):
        if not isinstance(move, FlipSpec):
            raise IllegalMoveError(f"round {rnd}: bipartite game expects a FlipSpec")
        part = move.partition
        side_of_block = {}
        for v in range(self.g.n):
            side = (self.left_mask >> v) & 1
            b = part.blocks[v]
            if side_of_block.setdefault(b, side) != side:
                raise IllegalMoveError(f"round {rnd}: block {b} mixes the two sides")
        counts = [0, 0]
        for b, side in side_of_block.items():
            counts[side] += 1
        if max(counts) > self.k:
            raise IllegalMoveError(f"round {rnd}: {max(counts)} blocks on one side, width {self.k}")
        for i, j in move.pairs:
            if side_of_block.get(i) == side_of_block.get(j):
                raise IllegalMoveError(f"round {rnd}: flip pair ({i},{j}) is not cross-side")
        return flip_masks(self.g, move)


class _OrderedRules:
    """Ordered flipper game: k-cut-flips, weighted walks, free first pick."""

    game = "ordered"
    evader_starts = False

    def __init__(self, og, r, k):
        from .graphs import OrderedGraph
        if not hasattr(og, "graph"):
            og = OrderedGraph(og)
        self.og = og
        self.r = r
        self.k = k
        self.prev = None

    def check_move(self, move, rnd):
        if not isinstance(move, CutFlip):
            raise IllegalMoveError(f"round {rnd}: ordered game expects a CutFlip")
        if len(move.cut) > self.k or move.flip.partition.size > self.k:
            raise IllegalMoveError(f"round {rnd}: cut-flip exceeds width {self.k}")
        return cut_flip_weighted(self.og, move)

    def legal(self, pos, move_masks):
        if self.prev is None or pos is None:
            return tuple(range(self.og.n))
        w0, w1 = self.prev
        return tuple(bits(_weighted_ball(w0, w1, pos, self.r)))

    def trapped(self, move_masks, pos):
        w0, w1 = move_masks
        return w0[pos] == 0 and w1[pos] == 0

    def advance(self, move_masks):
        self.prev = move_masks


class _CopRules:
    """Cops and Robber: the robber's path avoids grounded cops (S old-and-new)."""

    game = "cop"
    evader_starts = True

    def __init__(self, g, r, k):
        self.g = g
        self.r = r
        self.k = k
        self.prev = 0

    def check_move(self, move, rnd):
        if not isinstance(move, (frozenset, set)):
            raise IllegalMoveError(f"round {rnd}: cop game expects a vertex set")
        if len(move) > self.k:
            raise IllegalMoveError(f"round {rnd}: {len(move)} cops exceed width {self.k}")
        return mask_of(move)

    def legal(self, pos, s2):
        blocked = self.prev & s2
        masks = [self.g.adj[u] & ~blocked for u in range(self.g.n)]
        return tuple(bits(ball_mask(masks, pos, self.r)))

    def trapped(self, s2, pos):
        return bool((s2 >> pos) & 1)

    def advance(self, s2):
        self.prev = s2


class _IsolationRules(_CopRules):
    game = "isolation"

    def legal(self, pos, s2):
        blocked = self.prev
        masks = [self.g.adj[u] & ~blocked for u in range(self.g.n)]
        return tuple(bits(ball_mask(masks, pos, self.r)))


class _CopPrimeRules:
    """No-announcement variant: capture when the robber has no legal response."""

    game = "copprime"
    evader_starts = True

    def __init__(self, g, r, k):
        self.g = g
        self.r = r
        self.k = k

    def check_move(self, move, rnd):
        if not isinstance(move, (frozenset, set)):
            raise IllegalMoveError(f"round {rnd}: copprime expects a vertex set")
        if len(move) > self.k:
            raise IllegalMoveError(f"round {rnd}: {len(move)} cops exceed width {self.k}")
        return mask_of(move)

    def legal(self, pos, a_mask):
        return tuple(bits(_copprime_responses(self.g, self.r, pos, a_mask)))

    def trapped(self, a_mask, pos):
        return False    # capture happens through an empty legal set

    def advance(self, a_mask):
        pass


_RULES = {"flip": _FlipRules, "dfw": _DefinableRules, "cop": _CopRules,
          "copprime": _CopPrimeRules, "isolation": _IsolationRules,
          "ordered": _OrderedRules, "bipartite": _BipartiteRules}


def make_rules(game, g, r, k, left_mask=None):
    if game == "bipartite":
        return _BipartiteRules(g, r, k, left_mask)
    try:
        cls = _RULES[game]
    except KeyError:
        raise IllegalMoveError(f"unknown game kind {game!r}") from None
    return cls(g, r, k)


def simulate_match(game, g, r, k, pursuer, evader, max_rounds, left_mask=None,
                   on_round=None):
    """Deterministic round-by-round match between two policies.

    Returns a Trace; raises IllegalMoveError when a policy breaks the rules,
    naming the round and move.
    """
    rules = make_rules(game, g, r, k, left_mask=left_mask)
    pstate = pursuer.start()
    estate = evader.start()
    pos = None
    if rules.evader_starts:
        pos, estate = evader.initial(estate)
        if not isinstance(pos, int) or not 0 <= pos < rules_n(rules):
            raise IllegalMoveError(f"round 0: illegal initial vertex {pos!r}")
    events = []
    for rnd in range(1, max_rounds + 1):
        move, pstate = pursuer.move(pstate, pos)
        move_masks = rules.check_move(move, rnd)
        legal = rules.legal(pos, move_masks)
        if not legal:
            events.append({"round": rnd, "move": _move_json(move),
                           "response": None, "trapped": True})
            return Trace(rules.game, "PURSUER_WINS", rnd, events, "pursuer")
        newpos, estate = evader.respond(estate, move, legal)
        if newpos not in legal:
            raise IllegalMoveError(
                f"round {rnd}: evader moved to {newpos}, legal set {list(legal)}")
        trapped = rules.trapped(move_masks, newpos)
        events.append({"round": rnd, "move": _move_json(move),
                       "response": newpos, "trapped": trapped})
        if on_round is not None:
            on_round(rnd, move, newpos, legal)
        if trapped:
            return Trace(rules.game, "PURSUER_WINS", rnd, events, "pursuer")
        rules.advance(move_masks)
        pos = newpos
    return Trace(rules.game, "EVADER_SURVIVES", max_rounds, events, "evader")


def rules_n(rules):
    return rules.og.n if hasattr(rules, "og") else rules.g.n


def pursuer_beats_every_evader(game, g, r, k, pursuer, horizon, left_mask=None,
                               on_round=None):
    """Exhaustive best-response check against a deterministic pursuer policy.

    Explores every evader play; a revisited in-progress node means the
    evader can cycle forever.  Returns (pursuer_always_wins, worst_rounds).
    """
    sys_rules = make_rules(game, g, r, k, left_mask=left_mask)
    n = rules_n(sys_rules)

    memo = {}
    GRAY, ESCAPE = "gray", None

    def explore(pstate, rules, pos, depth):
        key = (pstate, getattr(rules, "prev", 0), pos)
        if key in memo:
            val = memo[key]
            if val == GRAY:
                return None   # cycle: evader survives
            return val
        memo[key] = GRAY
        move, pst2 = pursuer.move(pstate, pos)
        move_masks = rules.check_move(move, 0)
        legal = rules.legal(pos, move_masks)
        if not legal:
            memo[key] = 1
            return 1
        worst = 0
        for u in legal:
            if on_round is not None:
                on_round(depth + 1, move, u, legal)
            if rules.trapped(move_masks, u):
                worst = max(worst, 1)
                continue
            if depth + 1 > horizon:
                memo[key] = None
                return None
            child = _advanced(rules, move_masks)
            sub = explore(pst2, child, u, depth + 1)
            if sub is None:
                memo[key] = None
                return None
            worst = max(worst, 1 + sub)
        memo[key] = worst
        return worst

    def _advanced(rules, move_masks):
        child = make_rules(game, g, r, k, left_mask=left_mask)
        child.advance(move_masks)
        return child

    if sys_rules.evader_starts:
        starts = range(n)
    else:
        starts = [None]
    worst_total = 0
    for v in starts:
        rules = make_rules(game, g, r, k, left_mask=left_mask)
        res = explore(pursuer.start(), rules, v, 0)
        if res is None:
            return False, None
        worst_total = max(worst_total, res)
    return True, worst_total
