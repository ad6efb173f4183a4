"""Exact fixpoint solvers for the pursuit games, value search, the
definable-game approximation routine, and the strategy simulation harness.

Flipper-style games (flip / definable / bipartite / ordered) are solved
over abstract PositionSet states: R is the set of vertices the runner may
land on, and

    Win(R)  iff  exists move f such that every u in R is trapped by f
                 or Win(ball_f(u)).

A solve needs each family's distinct (isolated set, ball map) outcomes,
each with the first move that gives it.  Every family's flips are a
partition stream from `flips`, and `bulk.outcomes` reduces them all: the
ordered cut-flips crossed with the cuts, and the binary ordered game's
edge flips crossed with the flips of the order relation, whose Gaifman
graphs the runner walks in.

The three cop games (cop, isolation and the no-announcement copprime)
share one least fixpoint over (cop set S, robber vertex v) states.  Each
step tests every (S, move) pair at once, walking back from the vertices
off the move's allowed set through a table of neighbourhood unions; the
table of the robber's reach around each blocked set serves the witness.
The copprime state forgets the cop set, so its table has one row that
every move reads.

Each game's rules are stated once, in a stateless rules object (the
`_*Rules` classes, built by `make_rules`): the move before round 1, what a
move does (`masks`), how far the evader may go (`ball`, `legal`), when it is
caught (`trapped`) and the state a response leads to (`after`).  The
solvers, their witnesses (`TableFlipper`, `CopTable` and the one
`TableEvader`) and the simulation harness all read that object; the
harness carries the previous move itself.
"""

import random
from collections import namedtuple

from .errors import GenerationError, IllegalMoveError, check_bound
from .flips import (CutFlip, FlipSpec, _subsets_up_to, _weighted_ball, cut_flip_weighted,
                    enumerate_binary_flips, enumerate_bipartite_flips,
                    enumerate_cut_flips, enumerate_definable_flips,
                    enumerate_k_flips, flip_masks, identity_flip, order_cuts,
                    random_flip, s_types)
from .graphs import INF, OrderedGraph, ball_mask, bits, mask_of, popcount

FLIPPER = "flipper"
RUNNER = "runner"
COPS = "cops"
ROBBER = "robber"


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
                 witness_evader):
        self.game = game
        self.r = r
        self.k = k
        self.winner = winner
        self.rounds = rounds
        self.win_table = win_table
        self.witness_pursuer = witness_pursuer
        self.witness_evader = witness_evader

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
            table[_state_key(self.game, state)] = {"rounds": rounds, "move": move_json}
        return table

    def __repr__(self):
        return (f"GameSolution(game={self.game!r}, r={self.r!r}, k={self.k}, "
                f"winner={self.winner!r}, rounds={self.rounds})")


def _state_key(game, state):
    """A win-table state as text: the copprime robber's vertex, a position
    set's vertices, or a cop state's cops and robber as "cops|robber"."""
    if game == "copprime":
        return str(state)
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
        return random_flip(self.n, self.k, rng), state + 1


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
        i = min(state, self.n)
        a = [0 if j < i else 1 if j == i else 3 for j in range(1, self.n + 1)]
        b = [2 if j >= i else 3 for j in range(1, self.n + 1)]
        return FlipSpec.from_labels(a + b, [(0, 2), (1, 2)]), state + 1


# ---------------------------------------------------------------------------
# rules


class _FlipRules:
    """Flipper game: moves are <= k-flips and the runner walks at most r
    steps in the flip announced the round before.

    A rules object holds no match state.  `start` is the move before round
    1, None when the runner picks round 1 freely.  masks(move) checks a move
    and gives what it does, here the flipped adjacency rows; ball(masks, v)
    is the runner's reach from v, trapped(masks, v) whether the move
    isolates v, legal(prev, masks, pos) the responses from pos to the move
    masks when prev came before it, and after(masks, u) the state that the
    response u leads to, here the position set ball(masks, u).
    """

    game = "flip"

    def __init__(self, g, r, k):
        self.g = g
        self.r = r
        self.k = k
        self.n = g.n
        self.start = g.adj

    def masks(self, move, rnd=0):
        if not isinstance(move, FlipSpec):
            raise IllegalMoveError(f"round {rnd}: flip game expects a FlipSpec")
        if len(move.partition.blocks) != self.n:
            raise IllegalMoveError(f"round {rnd}: flip partition does not cover V")
        if move.partition.size > self.k:
            raise IllegalMoveError(
                f"round {rnd}: flip uses {move.partition.size} parts, width is {self.k}")
        return flip_masks(self.g, move)

    def ball(self, masks, v):
        return ball_mask(masks, v, self.r)

    def trapped(self, masks, v):
        return masks[v] == 0

    def legal(self, prev, masks, pos):
        if prev is None:
            return tuple(range(self.n))
        return tuple(bits(self.ball(prev, pos)))

    def after(self, masks, u):
        return self.ball(masks, u)


class _DefinableRules(_FlipRules):
    game = "dfw"

    def masks(self, move, rnd=0):
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

    def masks(self, move, rnd=0):
        if not isinstance(move, FlipSpec):
            raise IllegalMoveError(f"round {rnd}: bipartite game expects a FlipSpec")
        part = move.partition
        side_of_block = {}
        for v in range(self.n):
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


class _OrderedRules(_FlipRules):
    """Ordered flipper game: k-cut-flips, weighted walks, and the runner
    picks round 1 freely.  A cut-flip's masks are its (weight-0, weight-1)
    adjacency rows."""

    game = "ordered"

    def __init__(self, og, r, k):
        if not hasattr(og, "graph"):
            og = OrderedGraph(og)
        super().__init__(og.graph, r, k)
        self.og = og
        self.start = None

    def masks(self, move, rnd=0):
        if not isinstance(move, CutFlip):
            raise IllegalMoveError(f"round {rnd}: ordered game expects a CutFlip")
        if len(move.cut) > self.k or move.flip.partition.size > self.k:
            raise IllegalMoveError(f"round {rnd}: cut-flip exceeds width {self.k}")
        return cut_flip_weighted(self.og, move)

    def ball(self, w, v):
        return _weighted_ball(w[0], w[1], v, self.r)

    def trapped(self, w, v):
        return w[0][v] == 0 and w[1][v] == 0


class _OrderedBinaryRules(_FlipRules):
    """The ordered graph as a binary structure: a move's masks are the
    Gaifman graph of a flip of (V, E, <), and the runner picks round 1
    freely.  Only the solver reads these rules; its moves are not kept."""

    game = "ordered-binary"

    def __init__(self, og, r, k):
        super().__init__(og.graph, r, k)
        self.start = None


class _CopRules:
    """Cops and Robber with announced moves: a move is the next cop set S2,
    whose masks are its vertex mask, and the robber runs at speed r through
    the vertices free of grounded(S, S2), the cops both on the old set S and
    on S2.  ball(blocked, v) is the reach from v in G - blocked, where a cop
    on v does not block v itself, the robber is caught on a cop, and
    after(S2, u) is the state (S2, u); `keeps_cops` says that the state
    records the cop set.  greedy(reach, S2, won) scores S2 for a losing
    side, given the robber's reach and the win table: here the cops on the
    reach."""

    game = "cop"
    start = 0
    keeps_cops = True

    def __init__(self, g, r, k):
        self.g = g
        self.r = r
        self.k = k
        self.n = g.n

    def masks(self, move, rnd=0):
        if not isinstance(move, (frozenset, set)):
            raise IllegalMoveError(f"round {rnd}: {self.game} game expects a vertex set")
        if len(move) > self.k:
            raise IllegalMoveError(f"round {rnd}: {len(move)} cops exceed width {self.k}")
        return mask_of(move)

    @staticmethod
    def grounded(S, S2):
        return S & S2

    def ball(self, blocked, v):
        """graphs.ball_mask's blocked walk: the robber's radius-r reach from
        v, never entering a cop of blocked other than one on v."""
        return ball_mask(self.g.adj, v, self.r, blocked)

    def trapped(self, s2, v):
        return bool((s2 >> v) & 1)

    def legal(self, prev, s2, pos):
        return tuple(bits(self.ball(self.grounded(prev, s2), pos)))

    def after(self, s2, u):
        return s2, u

    @staticmethod
    def greedy(reach, s2, won):
        return popcount(reach & s2)


class _IsolationRules(_CopRules):
    """Isolation game: the robber's path avoids all previous cop positions."""

    game = "isolation"

    @staticmethod
    def grounded(S, S2):
        return S


class _CopPrimeRules(_CopRules):
    """No-announcement variant: against the cop set A the robber may stay
    off A or move along a path of length 1..r whose non-start vertices avoid
    A, and is caught when no response is left.  Every cop of A blocks, ball(A,
    v) is the mask of those responses, after(A, u) the robber's vertex u, and
    a losing side scores A by the responses that are won."""

    game = "copprime"
    keeps_cops = False

    @staticmethod
    def grounded(S, S2):
        return S2

    def ball(self, a_mask, v):
        return super().ball(a_mask, v) & ~a_mask

    def trapped(self, a_mask, v):
        return False    # capture happens through an empty legal set

    def after(self, a_mask, u):
        return u

    @staticmethod
    def greedy(reach, a_mask, won):
        return sum(1 for u in bits(reach & ~a_mask) if u in won)


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


def _initial_states(rules):
    """The states before round 1: every vertex's state after rules.start,
    or the whole vertex set when the runner picks round 1 freely."""
    if rules.start is None:
        return [(1 << rules.n) - 1]
    return [rules.after(rules.start, v) for v in range(rules.n)]


# ---------------------------------------------------------------------------
# flip-family outcome tables


def _flip_outcomes(g, r, k, max_n=None):
    """Outcomes of every <= k-flip of g.  At r=inf the engine is entered
    through `bulk.component_outcomes`: bench/spans.py times that entry as
    the engine layer and `enumerate_k_flips` as flip enumeration."""
    from . import bulk
    if r is INF:
        return bulk.component_outcomes(g, k, max_n)
    return bulk.outcomes(g, r, enumerate_k_flips(g, k, max_n=max_n))


def _definable_outcomes(g, r, k, max_n=None):
    from . import bulk
    return bulk.outcomes(g, r, enumerate_definable_flips(g, k, max_n=max_n))


def _cut_flip_outcomes(og, r, k, max_n=None):
    from . import bulk
    return bulk.outcomes(og.graph, r, enumerate_cut_flips(og, k, max_n=max_n),
                         bulk.CutLayer(og.n, order_cuts(og.n, k)))


# ---------------------------------------------------------------------------
# abstract fixpoint


def _abstract_solve(outcomes, init_states, n):
    """Least fixpoint of Win over position sets reachable from init_states.

    The states, the initial ones and every ball of the outcomes, are
    indexed once: ids[i, v] is the state of outcome i's ball of v.
    Iteration t kills, under each outcome, the vertices it isolates and
    those whose ball was won before t.  A pending state is won at t by the
    first outcome in stream order whose kill covers it, so replaying that
    move strictly decreases rounds.  Returns a dict mapping each won state
    to (rounds, outcome), where rounds is the entry iteration.
    """
    import numpy as np
    from . import bulk
    iso = outcomes.iso
    states, ids, pending = bulk.state_ids(init_states, outcomes.balls, n)
    won = np.zeros(len(states), dtype=bool)
    rounds = np.zeros(len(states), dtype=np.int64)
    chosen = np.zeros(len(states), dtype=np.int64)
    iteration = 0
    while len(pending) and len(iso):
        iteration += 1
        kill = bulk.kills(iso, won[ids])
        _, first = np.unique(kill, return_index=True)
        first.sort()        # the first outcome of each distinct kill, in stream order
        hit, at = _first_cover(states[pending], kill[first])
        if not hit.any():
            break
        new = pending[hit]
        won[new] = True
        rounds[new] = iteration
        chosen[new] = first[at[hit]]
        pending = pending[~hit]
    done = np.flatnonzero(won)
    won = {R: (rd, outcomes[i]) for R, rd, i in
           zip(states[done].tolist(), rounds[done].tolist(), chosen[done].tolist())}
    if len(won) <= 2000:
        check_anti_tone(won)
    return won


PAIR_CHUNK = 1 << 18     # (row, column) pairs an array test holds at once


def _first_cover(R, kills):
    """Whether some kill covers each state of R (R & ~kill == 0), and the first one."""
    import numpy as np
    out = ~kills
    step = max(1, PAIR_CHUNK // len(kills))
    hit = np.empty(len(R), dtype=bool)
    at = np.empty(len(R), dtype=np.intp)
    for lo in range(0, len(R), step):
        cover = (R[lo:lo + step, None] & out) == 0
        cover.any(axis=1, out=hit[lo:lo + step])
        cover.argmax(axis=1, out=at[lo:lo + step])
    return hit, at


def check_anti_tone(won):
    """R subset R' with Win(R') forces Win(R) with no more rounds, over the
    recorded (reachable) states; the first violation names the pair (a, b)
    that comes first with a and then b in increasing order."""
    import numpy as np
    masks = sorted(won)
    m = np.array(masks, dtype=np.uint64)
    rounds = np.array([won[a][0] for a in masks])
    step = max(1, PAIR_CHUNK // max(len(masks), 1))
    for lo in range(0, len(masks), step):
        # a == b has equal rounds, so it never counts
        bad = ((m[lo:lo + step, None] & ~m) == 0) & (rounds[lo:lo + step, None] > rounds)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            a, b = masks[lo + i], masks[j]
            raise AssertionError(f"anti-tone violated: {a:#x} within {b:#x} "
                                 f"but won later ({won[a][0]} > {won[b][0]})")


class TableFlipper(Pursuer):
    """Witness pursuer for flip-family games, replaying the solve table.

    Its state maps each vertex to the runner's position set from it: the
    initial states before round 1 (None when the runner picks round 1
    freely, from the whole vertex set), then the balls of the outcome last
    played.  A state off the table gets the move that covers most of it.
    """

    def __init__(self, rules, outcomes, won):
        self.full = (1 << rules.n) - 1
        self.outcomes = outcomes
        self.won = won
        self._kills = None
        self.sets = None if rules.start is None else tuple(_initial_states(rules))

    def start(self):
        return self.sets

    def move(self, state, position):
        R = self.full if state is None or position is None else state[position]
        chosen = self.won[R][1] if R in self.won else self._greedy(R)
        return chosen.move, chosen.balls

    def _greedy(self, R):
        """The first outcome, in stream order, whose kill under the table
        covers most of R."""
        import numpy as np
        from . import bulk
        o = self.outcomes
        if self._kills is None:
            won = np.array(list(self.won), dtype=o.balls.dtype)
            self._kills = bulk.kills(o.iso, np.isin(o.balls, won))
        cover = bulk.popcounts(self._kills & self._kills.dtype.type(R))
        return o[int(np.argmax(cover))]


class TableEvader(Evader):
    """Maximally-surviving evader for every game, read off the pursuer's win
    table `won`, which maps a state to (rounds, ...).

    It starts at the first initial state the table does not hold, else the
    one won latest, and answers each move with the first legal vertex whose
    rules.after state is unwon, else won latest; a vertex the move traps
    scores -1.
    """

    def __init__(self, rules, won, init_states):
        self.rules = rules
        self.won = won
        self.init_states = init_states

    def _score(self, state):
        entry = self.won.get(state)
        return float("inf") if entry is None else entry[0]

    def initial(self, state):
        scores = [self._score(R) for R in self.init_states]
        return (scores.index(max(scores)) if scores else 0), state

    def respond(self, state, move, legal):
        rules = self.rules
        masks = rules.masks(move)

        def score(u):
            return -1 if rules.trapped(masks, u) else self._score(rules.after(masks, u))
        return max(legal, key=score), state


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


def _solve_table(rules, outcomes, witnesses=True):
    """Solve a flip-family game over its outcomes and package the result.

    The pursuer wins when every initial position set is won, in the worst
    of their rounds.  The win table gives each won state its rounds and
    the JSON of its move, one object for all the states a move wins; with
    `witnesses` the solution carries the TableFlipper and TableEvader that
    replay it.
    """
    init = _initial_states(rules)
    won = _abstract_solve(outcomes, init, rules.n)
    wins = all(R in won for R in init)
    rounds = max((won[R][0] for R in init), default=0) if wins else None
    moves = {}      # id of an outcome -> its move's JSON, one for every state it wins
    table = {}
    for R, (rd, o) in won.items():
        if id(o) not in moves:
            moves[id(o)] = _move_json(o.move)
        table[R] = (rd, moves[id(o)])
    pursuer = TableFlipper(rules, outcomes, won) if witnesses else None
    evader = TableEvader(rules, won, init) if witnesses else None
    return GameSolution(rules.game, rules.r, rules.k, FLIPPER if wins else RUNNER,
                        rounds, table, pursuer, evader)


def solve_flipper(g, r, k, max_n=None):
    """Exact flipper-game solve on g with radius r and width k."""
    return _solve_table(_FlipRules(g, r, k), _flip_outcomes(g, r, k, max_n=max_n))


def flip_width(g, r, max_n=None):
    """Least k with a flipper win; always <= max(n, 1)."""
    return least_width(lambda k: solve_flipper(g, r, k, max_n=max_n), FLIPPER, max(g.n, 1))


def solve_definable(g, r, k, max_n=None):
    """Definable flipper game: flips restricted to S-definable ones, |S| <= k."""
    return _solve_table(_DefinableRules(g, r, k), _definable_outcomes(g, r, k, max_n=max_n))


def definable_flip_width(g, r, max_n=None):
    return least_width(lambda k: solve_definable(g, r, k, max_n=max_n), FLIPPER,
                       None, start=0)


def solve_bipartite(g, left_mask, r, k, max_n=None):
    """Bipartite flipper game on a bipartite graph with the given side mask."""
    from . import bulk
    outcomes = bulk.outcomes(g, r, enumerate_bipartite_flips(g, left_mask, k, max_n))
    return _solve_table(_BipartiteRules(g, r, k, left_mask), outcomes)


def bipartite_flip_width(g, left_mask, r):
    return least_width(lambda k: solve_bipartite(g, left_mask, r, k), FLIPPER, max(g.n, 1))


def solve_ordered(og, r, k, max_n=None):
    """Ordered flipper game with k-cut-flips; the runner picks round 1 freely."""
    return _solve_table(_OrderedRules(og, r, k), _cut_flip_outcomes(og, r, k, max_n=max_n))


def ordered_flip_width(og, r, max_n=None):
    return least_width(lambda k: solve_ordered(og, r, k, max_n=max_n), FLIPPER,
                       max(og.n, 1))


# ---------------------------------------------------------------------------
# ordered graphs as binary structures (edge + order relation flips)


def solve_ordered_binary(og, r, k):
    """Flipper game on the ordered graph as a binary structure (Gaifman moves)."""
    from . import bulk
    outcomes = bulk.outcomes(og.graph, r, enumerate_binary_flips(og, k), bulk.OrderLayer())
    return _solve_table(_OrderedBinaryRules(og, r, k), outcomes, witnesses=False)


def ordered_binary_flip_width(og, r):
    return least_width(lambda k: solve_ordered_binary(og, r, k), FLIPPER, max(og.n, 1))


# ---------------------------------------------------------------------------
# cops-style solvers


COPS_MAX_N = 10


def _neighbour_table(g):
    """nb[m]: the union of the neighbourhoods of the vertices of mask m,
    for all 2^n masks, as a uint32 array built by one slice-OR per vertex."""
    import numpy as np
    nb = np.zeros(1 << g.n, dtype=np.uint32)
    for v, a in enumerate(g.adj):
        nb[1 << v:2 << v] = nb[:1 << v] | np.uint32(a)
    return nb


def _cop_steps(g, r):
    """The steps a walk of length <= r needs on g: r, capped at n."""
    return g.n if r is INF else min(r, g.n)


def _reach_table(g, r):
    """reach[v][B]: the vertices reachable from v by a path of length <= r
    in G - B, where a cop on v does not block v itself (v always included).
    Row v walks all 2^n blocked sets B at once: each step adds the
    neighbours of the frontier that are neither reached nor in B."""
    import numpy as np
    nb = _neighbour_table(g)
    blocked = np.arange(1 << g.n, dtype=np.uint32)
    table = []
    for v in range(g.n):
        reached = frontier = np.full(1 << g.n, 1 << v, dtype=np.uint32)
        for _ in range(_cop_steps(g, r)):
            frontier = nb.take(frontier) & ~(reached | blocked)
            if not frontier.any():
                break
            reached = reached | frontier
        table.append(reached.tolist())
    return table


def _check_cops(name, g, max_n, k=0):
    """The checks of a cop game's solve or width search `name`: k >= 0, and
    n within max_n, COPS_MAX_N by default."""
    if k < 0:
        raise GenerationError("cop width must be >= 0")
    check_bound(name, "n", g.n, COPS_MAX_N if max_n is None else max_n)


def solve_cops(g, r, k, max_n=None):
    """Cops and Robber with announced moves: robber runs at speed r through
    vertices free of grounded cops (the old-and-new intersection)."""
    _check_cops("solve_cops", g, max_n, k)
    return _solve_cops_family(_CopRules(g, r, k))


def solve_isolation(g, r, k, max_n=None):
    """Isolation game: the robber's path avoids all previous cop positions."""
    _check_cops("solve_isolation", g, max_n, k)
    return _solve_cops_family(_IsolationRules(g, r, k))


def _cops_width(name, rules_class, g, r, max_n):
    """Least k at which the cops win the game of rules_class on g; the
    reach table, which depends on g and r alone, is built once for every k."""
    _check_cops(name, g, max_n)
    reach = _reach_table(g, r)
    return least_width(lambda k: _solve_cops_family(rules_class(g, r, k), reach), COPS,
                       max(g.n, 1))


COP_PAIR_CHUNK = 1 << 15     # (cop set, move) pairs a cop fixpoint step holds at once


def _solve_cops_family(rules, reach=None):
    """Least fixpoint over the (S, v) states of the three cop games.

    Bit v of win[S] says that the cops win with the robber on v and the cop
    set S.  The move S2 wins there when every vertex the robber reaches
    from v by a path of length <= r in G - B, B = rules.grounded(S, S2), is
    in A = S2 | win[S2].  Each step walks back from the vertices off A:
    bad starts as ~A and gains nb[bad & ~B], the neighbours of its unblocked
    vertices, up to r times, so v is won through S2 when v is not bad and
    not in S.  One array step tests every (S, S2) pair, COP_PAIR_CHUNK pairs
    at a time.  The copprime state forgets the cop set, so win has one row
    that every move reads.  The win table is keyed by rules.after(S, v);
    each step reads its new states off one nonzero of their bits, row-major,
    so the keys come by (rounds, S, v).  copprime's records the witness's
    move.  `reach` is _reach_table(rules.g, rules.r), which only the
    witness reads, built here unless a width search passes it.
    """
    import numpy as np
    n = rules.n
    if reach is None:
        reach = _reach_table(rules.g, rules.r)
    nb = _neighbour_table(rules.g)
    full = np.uint32((1 << n) - 1)
    steps = _cop_steps(rules.g, rules.r)
    moves = list(_subsets_up_to(n, rules.k))
    s2 = np.array(moves, dtype=np.uint32)
    rows = np.arange(1 << n if rules.keeps_cops else 1, dtype=np.uint32)
    chunk = max(1, COP_PAIR_CHUNK // len(moves))
    win = np.zeros(len(rows), dtype=np.uint32)
    vertex = np.arange(n, dtype=np.uint32)
    won = {}                                       # after(S, v) -> (rounds, None)
    iteration = 0
    while True:
        iteration += 1
        off = full & ~(s2 | win[s2 if rules.keeps_cops else 0])
        new = np.empty_like(win)
        for lo in range(0, len(rows), chunk):
            S = rows[lo:lo + chunk, None]
            blocked = rules.grounded(S, s2)
            bad = np.broadcast_to(off, (len(S), len(moves)))
            for _ in range(steps):
                grown = bad | nb.take(bad & ~blocked)
                if np.array_equal(grown, bad):
                    break
                bad = grown
            # states require v not in S
            np.bitwise_or.reduce(~bad & ~S, axis=1, out=new[lo:lo + chunk])
        new &= full & ~win
        if not new.any():
            break
        S_list, v_list = (a.tolist() for a in np.nonzero((new[:, None] >> vertex) & 1))
        won.update(dict.fromkeys(map(rules.after, S_list, v_list), (iteration, None)))
        win |= new
    init = _initial_states(rules)
    cops_win = all(state in won for state in init)
    rounds = max((won[state][0] for state in init), default=0) if cops_win else None
    pursuer = CopTable(rules, reach, won, moves)
    table = won if rules.keeps_cops else {
        v: (rd, _move_json(pursuer.move(rules.start, v)[0])) for v, (rd, _) in won.items()}
    return GameSolution(rules.game, rules.r, rules.k, COPS if cops_win else ROBBER, rounds,
                        table, pursuer, TableEvader(rules, won, init))


class CopTable(Pursuer):
    """Witness cop policy for the three cop games; its state is the cop set.

    At a won state rules.after(S, v) it plays the first move whose
    responses were all won in earlier rounds, so replaying it strictly
    decreases rounds; off the table, the move with the highest rules.greedy
    score.
    """

    def __init__(self, rules, reach, won, moves):
        self.rules = rules
        self.reach = reach
        self.won = won
        self.moves = moves

    def start(self):
        return self.rules.start

    def move(self, state, position):
        rules, won, reach = self.rules, self.won, self.reach[position]
        entry = won.get(rules.after(state, position))
        if entry is not None:
            for s2 in self.moves:
                if all(won.get(rules.after(s2, u), entry)[0] < entry[0]
                       for u in bits(reach[rules.grounded(state, s2)] & ~s2)):
                    return frozenset(bits(s2)), s2
        best = max(self.moves,
                   key=lambda s2: rules.greedy(reach[rules.grounded(state, s2)], s2, won))
        return frozenset(bits(best)), best


def cop_width(g, r, max_n=None):
    return _cops_width("cop_width", _CopRules, g, r, max_n)


def isolation_width(g, r, max_n=None):
    return _cops_width("isolation_width", _IsolationRules, g, r, max_n)


def solve_copw_prime(g, r, k, max_n=None):
    """No-announcement cop variant: memoryless states, cops pick A each round."""
    _check_cops("solve_copw_prime", g, max_n, k)
    return _solve_cops_family(_CopPrimeRules(g, r, k))


def copw_prime_width(g, r, max_n=None):
    return _cops_width("copw_prime_width", _CopPrimeRules, g, r, max_n)


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


def approx_flip_width(g, r, k):
    """Run the definable-game decision; conclude UPPER (fw_r <= 2^k) or
    LOWER (fw_5r >= C k^(1/3), constant symbolic)."""
    sol = solve_definable(g, r, k)
    if sol.winner == FLIPPER:
        return ApproxVerdict("UPPER", r, k, True, 2 ** k, None)
    return ApproxVerdict("LOWER", r, k, False, None,
                         "the constant C is not fixed numerically")


# ---------------------------------------------------------------------------
# simulation harness


class Trace:
    """Round-by-round record of one match."""

    def __init__(self, game, outcome, rounds, events):
        self.game = game
        self.outcome = outcome          # "PURSUER_WINS" | "EVADER_SURVIVES"
        self.rounds = rounds
        self.events = events

    def to_json(self):
        return {"game": self.game, "outcome": self.outcome,
                "rounds": self.rounds, "trace": self.events}


def _move_json(move):
    """A move its rules have checked, as JSON; the binary ordered game's
    move is None, and so is its JSON."""
    if move is None:
        return None
    if isinstance(move, (frozenset, set)):
        return {"cops": sorted(move)}
    if isinstance(move, tuple):
        return {"s": sorted(move[0]), "flip": move[1].to_json()}
    return move.to_json()


def simulate_match(game, g, r, k, pursuer, evader, max_rounds, left_mask=None):
    """Deterministic round-by-round match between two policies.

    Returns a Trace; raises IllegalMoveError when a policy breaks the rules,
    naming the round and move.
    """
    if max_rounds < 0:
        raise GenerationError(f"a match needs max_rounds >= 0, got {max_rounds}")
    rules = make_rules(game, g, r, k, left_mask=left_mask)
    pstate = pursuer.start()
    estate = evader.start()
    prev = rules.start
    pos = None
    if prev is not None:       # else the runner picks round 1 freely
        pos, estate = evader.initial(estate)
        if not isinstance(pos, int) or not 0 <= pos < rules.n:
            raise IllegalMoveError(f"round 0: illegal initial vertex {pos!r}")
    events = []
    for rnd in range(1, max_rounds + 1):
        move, pstate = pursuer.move(pstate, pos)
        masks = rules.masks(move, rnd)
        legal = rules.legal(prev, masks, pos)
        if not legal:
            events.append({"round": rnd, "move": _move_json(move),
                           "response": None, "trapped": True})
            return Trace(rules.game, "PURSUER_WINS", rnd, events)
        newpos, estate = evader.respond(estate, move, legal)
        if newpos not in legal:
            raise IllegalMoveError(
                f"round {rnd}: evader moved to {newpos}, legal set {list(legal)}")
        trapped = rules.trapped(masks, newpos)
        events.append({"round": rnd, "move": _move_json(move),
                       "response": newpos, "trapped": trapped})
        if trapped:
            return Trace(rules.game, "PURSUER_WINS", rnd, events)
        prev = masks
        pos = newpos
    return Trace(rules.game, "EVADER_SURVIVES", max_rounds, events)


def pursuer_beats_every_evader(game, g, r, k, pursuer, horizon, left_mask=None,
                               on_round=None):
    """Exhaustive best-response check against a deterministic pursuer policy.

    Explores every evader play; a revisited in-progress node means the
    evader can cycle forever.  Returns (pursuer_always_wins, worst_rounds).
    """
    rules = make_rules(game, g, r, k, left_mask=left_mask)
    memo = {}
    GRAY = "gray"

    def explore(pstate, prev, pos, depth):
        key = (pstate, prev, pos)
        if key in memo:
            val = memo[key]
            if val == GRAY:
                return None   # cycle: evader survives
            return val
        memo[key] = GRAY
        move, pst2 = pursuer.move(pstate, pos)
        masks = rules.masks(move, 0)
        legal = rules.legal(prev, masks, pos)
        if not legal:
            memo[key] = 1
            return 1
        worst = 0
        for u in legal:
            if on_round is not None:
                on_round(depth + 1, move, u, legal)
            if rules.trapped(masks, u):
                worst = max(worst, 1)
                continue
            if depth + 1 > horizon:
                memo[key] = None
                return None
            sub = explore(pst2, masks, u, depth + 1)
            if sub is None:
                memo[key] = None
                return None
            worst = max(worst, 1 + sub)
        memo[key] = worst
        return worst

    starts = [None] if rules.start is None else range(rules.n)
    worst_total = 0
    for v in starts:
        res = explore(pursuer.start(), rules.start, v, 0)
        if res is None:
            return False, None
        worst_total = max(worst_total, res)
    return True, worst_total
