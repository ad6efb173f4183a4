"""Verification of the duality objects (hideouts, rich divisions, orders,
well-linked sets) and conversion of certificates into executable strategies."""

import itertools
import random
from collections import namedtuple

from . import games
from .errors import CertificateInvalid, GenerationError, SchemaError, check_bound
from .flips import flip_masks, random_flip
from .graphs import INF, ball_mask, bits, exact_subdivision, mask_of, popcount
from .params import weak_reach, well_linked_check
from .twinwidth import ContractionSequence

RICH_DIVISION_MAX_PARTS = 12
RICH_DIVISION_MAX_K = 3
COPS_HIDEOUT_MAX_K = 3
HIDEOUT_SEARCH_MAX_N = 8


def _count(value):
    """A nonnegative JSON integer, else SchemaError: floats, text and bools
    are not counts."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"expected a nonnegative integer, got {value!r}")
    return value


def _radius(value):
    return INF if value == "inf" else _count(value)


def _vertices(value):
    """A JSON list of vertex numbers as a tuple, else SchemaError."""
    if not isinstance(value, list):
        raise SchemaError(f"expected a list of vertex numbers, got {value!r}")
    return tuple(_count(v) for v in value)


def _vertex_set(value):
    return frozenset(_vertices(value))


def _pairs(value):
    """A JSON list of [a, b] vertex pairs as tuples, else SchemaError."""
    if not (isinstance(value, list) and all(isinstance(p, list) and len(p) == 2
                                            for p in value)):
        raise SchemaError(f"expected a list of [a, b] vertex pairs, got {value!r}")
    return tuple(_vertices(p) for p in value)


def _json_value(value):
    if value is INF:
        return "inf"
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


class _Certificate:
    """Each certificate class names its JSON kind and reads its fields, in
    namedtuple order, as (JSON field, parser) pairs; its JSON is written
    from the same fields."""

    def to_json(self):
        return {"kind": self.kind, **{name: _json_value(value)
                                      for (name, _), value in zip(self.fields, self)}}


class FlipHideout(_Certificate, namedtuple("FlipHideout", "u r k d")):
    """Vertex set letting the runner elude width-k flippers at radius r:
    every k-flip leaves at most d members with a small (<= d) trace of U
    in their radius-r ball."""

    kind = "flip_hideout"
    fields = (("U", _vertex_set), ("r", _radius), ("k", _count), ("d", _count))


class CopsHideout(_Certificate, namedtuple("CopsHideout", "u r k")):
    kind = "cops_hideout"
    fields = (("U", _vertex_set), ("r", _count), ("k", _count))


class RichDivision(_Certificate, namedtuple("RichDivision", "left right k")):
    """Interval partitions (lists of (lo, hi) inclusive ranges) of an
    ordered graph plus the richness parameter."""

    kind = "rich_division"
    fields = (("L", _pairs), ("R", _pairs), ("k", _count))


class WellLinkedCert(_Certificate, namedtuple("WellLinkedCert", "u k")):
    kind = "well_linked"
    fields = (("U", _vertex_set), ("k", _count))


class OrderCert(_Certificate, namedtuple("OrderCert", "order r k")):
    """Total order witnessing the no-announcement cop bound (condition 3)."""

    kind = "order"
    fields = (("order", _vertices), ("r", _count), ("k", _count))


CERTIFICATE_KINDS = {cls.kind: cls for cls in (FlipHideout, CopsHideout, RichDivision,
                                               WellLinkedCert, OrderCert, ContractionSequence)}


def certificate_from_json(obj, n):
    """The certificate a JSON object describes, checked against a graph on n
    vertices: every count is a nonnegative integer, every vertex is below n,
    an order lists each vertex once and a contraction sequence ends in one
    block.  Any failure is a SchemaError."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str):
        raise SchemaError("certificate JSON needs a 'kind' tag")
    if kind not in CERTIFICATE_KINDS:
        raise SchemaError(f"unknown certificate kind {kind!r}")
    try:
        if kind == ContractionSequence.kind:
            return ContractionSequence(n, _field(obj, "merges", _pairs))
        cls = CERTIFICATE_KINDS[kind]
        cert = cls(*(_field(obj, name, parse) for name, parse in cls.fields))
    except KeyError as e:
        raise SchemaError(f"{kind} certificate JSON lacks the field {e}") from None
    except (GenerationError, SchemaError) as e:
        raise SchemaError(f"{kind} certificate: {e}") from None
    check_vertices(cert, n)
    return cert


def _field(obj, name, parse):
    """Field `name` of a certificate's JSON object, parsed; a parse error
    names the field."""
    try:
        return parse(obj[name])
    except SchemaError as e:
        raise SchemaError(f"{name}: {e}") from None


def check_vertices(cert, n):
    """Raise SchemaError unless every vertex the certificate names is one of
    the n vertices of the graph it is checked on, and an order names each
    of them once."""
    named = ([v for iv in cert.left + cert.right for v in iv] if isinstance(cert, RichDivision)
             else cert.order if isinstance(cert, OrderCert) else cert.u)
    if any(v >= n for v in named):
        raise SchemaError(f"{cert.kind} certificate names vertex {max(named)}, "
                          f"but the graph has {n} vertices")
    if isinstance(cert, OrderCert) and sorted(cert.order) != list(range(n)):
        raise SchemaError(f"an order certificate lists each of the {n} vertices once, "
                          f"not {list(cert.order)}")


# ---------------------------------------------------------------------------
# flip hideouts

HideoutReport = namedtuple("HideoutReport", "valid mode refutation")


def _thin_members(cert, balls):
    """Number of U-members v whose ball balls[v] meets U in <= d points."""
    umask = mask_of(cert.u)
    return sum(1 for v in cert.u if popcount(balls[v] & umask) <= cert.d)


def _thin_counts(cert, balls):
    """_thin_members of each row of an outcome engine's balls array."""
    from . import bulk
    u = sorted(cert.u)
    met = bulk.popcounts(balls[:, u] & balls.dtype.type(mask_of(u)))
    return (met <= cert.d).sum(axis=1)


def verify_flip_hideout_report(g, cert, mode="exhaustive", seed=0, trials=10000,
                               max_n=None):
    """Whether every k-flip leaves at most d thin U-members.  Exhaustive mode
    reads the radius-r balls of every distinct outcome, and refutes with the
    first flip of the first violating one, which is the first violating flip
    in the enumeration order; sampled mode draws `trials` >= 1 random flips."""
    if mode == "sampled" and trials < 1:
        raise GenerationError(f"sampled mode needs trials >= 1, got {trials}")
    if len(cert.u) <= cert.d:
        raise GenerationError(
            f"hideout precondition violated: |U|={len(cert.u)} must exceed d={cert.d}")
    if mode == "exhaustive":
        outcomes = games._flip_outcomes(g, cert.r, cert.k, max_n=max_n)
        bad = _thin_counts(cert, outcomes.balls) > cert.d
        if bad.any():
            return HideoutReport(False, "exhaustive", outcomes[int(bad.argmax())].move)
        return HideoutReport(True, "exhaustive", None)
    if mode == "sampled":
        rng = random.Random(seed)
        for _ in range(trials):
            spec = random_flip(g.n, cert.k, rng)
            masks = flip_masks(g, spec)
            if _thin_members(cert, {v: ball_mask(masks, v, cert.r) for v in cert.u}) > cert.d:
                return HideoutReport(False, "sampled", spec)
        return HideoutReport(True, "sampled", None)
    raise GenerationError(f"unknown verification mode {mode!r}")


class HideoutRunner(games.Evader):
    """Runner policy from a flip hideout: always move to the smallest-index
    member of U whose radius-r ball holds more than d members of U."""

    def __init__(self, g, cert):
        check_vertices(cert, g.n)
        self.g = g
        self.cert = cert
        self.umask = mask_of(cert.u)

    def initial(self, state):
        masks = self.g.adj
        for v in sorted(self.cert.u):
            if popcount(ball_mask(masks, v, self.cert.r) & self.umask) > self.cert.d:
                return v, state
        raise CertificateInvalid(
            "hideout has no safe initial vertex in the base graph", None)

    def respond(self, state, move, legal):
        masks = flip_masks(self.g, move)
        for v in legal:
            if not (self.umask >> v) & 1:
                continue
            if popcount(ball_mask(masks, v, self.cert.r) & self.umask) > self.cert.d:
                return v, state
        raise CertificateInvalid(
            f"no qualifying hideout vertex against flip {move.to_json()}", move)


def find_hideout_small(g, r, k, d):
    """Smallest U (by size, then lexicographically) that verifies as an
    (r,k,d)-hideout, or None."""
    check_bound("find_hideout_small", "n", g.n, HIDEOUT_SEARCH_MAX_N)
    all_balls = games._flip_outcomes(g, r, k).balls.tolist()
    for size in range(d + 1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            cert = FlipHideout(frozenset(combo), r, k, d)
            if all(_thin_members(cert, balls) <= d for balls in all_balls):
                return cert
    return None


# ---------------------------------------------------------------------------
# cops hideouts and orders


def _cut_off(g, v, r, k, targets):
    """Whether fewer than k deletions of vertices other than v leave no
    member of the mask targets, v aside, within distance r of v."""
    candidates = [w for w in range(g.n) if w != v]
    targets &= ~(1 << v)
    for size in range(k):
        for a_set in itertools.combinations(candidates, size):
            if ball_mask(g.adj, v, r, mask_of(a_set)) & targets == 0:
                return True
    return False


def verify_cops_hideout(g, cert):
    """Every v in U keeps a <= r escape path to U-v after deleting any < k
    vertices other than v."""
    check_bound("verify_cops_hideout", "k", cert.k, COPS_HIDEOUT_MAX_K)
    umask = mask_of(cert.u)
    if popcount(umask) < 2:
        return False
    return not any(_cut_off(g, v, cert.r, cert.k, umask) for v in cert.u)


def order_cert_check(g, order, r, k):
    """Condition-3 order check: the order lists each vertex once, and each v
    admits < k deletions (avoiding v) cutting all <= r paths to earlier
    vertices."""
    check_bound("order_cert_check", "k", k, COPS_HIDEOUT_MAX_K)
    if sorted(order) != list(range(g.n)):
        return False
    placed = 0
    for v in order:
        if not _cut_off(g, v, r, k, placed):
            return False
        placed |= 1 << v
    return True


def greedy_copprime_order(g, r, k):
    """Constructive side of the no-hideout equivalence: peel vertices that
    admit a cutting set; returns an order or None when a hideout blocks it."""
    remaining = set(range(g.n))
    suffix = []
    while remaining:
        rest = mask_of(remaining)
        found = next((v for v in sorted(remaining) if _cut_off(g, v, r, k, rest)), None)
        if found is None:
            return None
        suffix.append(found)
        remaining.discard(found)
    return tuple(reversed(suffix))


# ---------------------------------------------------------------------------
# order-driven cop strategy and admissibility robber


class OrderCops(games.Pursuer):
    """Cops on v plus WReach_2r[v], the earlier vertices weakly
    2r-reachable from v, computed once by params.weak_reach; the robber is
    forced upward in the order.  It plays the cop, copprime and isolation
    games at a finite radius.

    Per round the least order-position over any path the robber could have
    taken is asserted to strictly increase, which is what forces the win.
    """

    def __init__(self, g, order, r):
        if r is INF:
            raise GenerationError("the order-cop strategy needs a finite radius")
        self.g = g
        self.order = tuple(order)
        self.r = r
        self.pos_of = {v: i for i, v in enumerate(self.order)}
        self.reach = weak_reach(g, self.order, 2 * r)

    def start(self):
        # (prev cop mask, prev robber position, grounded mask during the
        #  robber's last move, last path-minimum order position)
        return (0, None, 0, -1)

    def _path_min(self, a, b, blocked):
        """Least order position over vertices on some a-b path of length
        <= r avoiding blocked: w is on one when, for some i <= r, it is
        within i of a and within r - i of b."""
        on_path = 0
        for i in range(self.r + 1):
            on_path |= (ball_mask(self.g.adj, a, i, blocked)
                        & ball_mask(self.g.adj, b, self.r - i, blocked))
        return min((self.pos_of[w] for w in bits(on_path)), default=None)

    def move(self, state, position):
        prev_mask, prev_pos, grounded, last_min = state
        if prev_pos is not None:
            m = self._path_min(prev_pos, position, grounded)
            if m is None or m <= last_min:
                raise AssertionError(
                    "order-cop invariant broken: path minimum did not increase")
            last_min = m
        s2 = self.reach[position] | (1 << position)
        return frozenset(bits(s2)), (s2, position, prev_mask & s2, last_min)


class AdmissibilityRobber(games.Evader):
    """Robber that never leaves U: valid when U witnesses adm_r >= width."""

    def __init__(self, u_set):
        self.umask = mask_of(u_set)

    def initial(self, state):
        if self.umask == 0:
            raise CertificateInvalid("empty admissibility witness", None)
        return (self.umask & -self.umask).bit_length() - 1, state

    def respond(self, state, move, legal):
        smask = mask_of(move)
        for u in legal:
            if (self.umask >> u) & 1 and not (smask >> u) & 1:
                return u, state
        raise CertificateInvalid(
            f"admissibility witness trapped by cops {sorted(move)}", move)


# ---------------------------------------------------------------------------
# rich divisions


def _intervals_cover(intervals, n):
    spans = sorted(intervals)
    if not spans or spans[0][0] != 0 or spans[-1][1] != n - 1:
        return False
    for (a, b), (c, d) in zip(spans, spans[1:]):
        if b + 1 != c or b < a:
            return False
    return all(b >= a for a, b in spans)


def _interval_mask(iv):
    lo, hi = iv
    return ((1 << (hi + 1)) - 1) & ~((1 << lo) - 1)


def verify_rich_division(og, cert):
    """Exact richness check: every part of one side against every k-subset
    of the other side's parts."""
    g = og.graph
    n = g.n
    check_bound("verify_rich_division", "parts", max(len(cert.left), len(cert.right)),
                RICH_DIVISION_MAX_PARTS)
    check_bound("verify_rich_division", "k", cert.k, RICH_DIVISION_MAX_K)
    if not _intervals_cover(cert.left, n) or not _intervals_cover(cert.right, n):
        return False
    if cert.k < 1:
        return False
    # each side needs more intervals than the parameter, so that a width-k
    # cut set can always be dodged (rules out degenerate single-interval
    # divisions)
    if len(cert.left) <= cert.k or len(cert.right) <= cert.k:
        return False
    full = (1 << n) - 1

    def rich(side, other):
        for iv in side:
            amask = _interval_mask(iv)
            for chosen in itertools.combinations(other, min(cert.k, len(other))):
                bmask = 0
                for b in chosen:
                    bmask |= _interval_mask(b)
                rest = full & ~bmask
                traces = {g.adj[a] & rest for a in bits(amask)}
                if len(traces) < cert.k:
                    return False
        return True

    return rich(cert.left, cert.right) and rich(cert.right, cert.left)


class RichDivisionRunner(games.Evader):
    """Ordered-game runner from a rich division: alternate sides, always
    landing in a part that avoids the announced cut set (L first)."""

    def __init__(self, og, cert):
        check_vertices(cert, og.n)
        self.cert = cert

    def start(self):
        return 0    # number of picks made

    def respond(self, state, move, legal):
        cut = move.cut
        side = self.cert.left if state % 2 == 0 else self.cert.right
        safe = 0
        for lo, hi in side:
            if not any(lo <= s <= hi for s in cut):
                safe |= _interval_mask((lo, hi))
        for u in legal:
            if (safe >> u) & 1:
                return u, state + 1
        raise CertificateInvalid(
            f"rich-division runner cornered by cut {sorted(cut)}", move)


def pattern_rich_division(og, n):
    """The canonical n/2-rich division of a generated s-pattern of order n^2:
    n intervals each holding n A-vertices, and n holding n B-vertices."""
    if n % 2 == 1:
        raise GenerationError("pattern divisions need even order parameter n")
    total = og.graph.n
    if total != 2 * n * n:
        raise GenerationError(
            f"graph has {total} vertices, not the 2*n^2={2*n*n} of a pattern layout")
    nn = n * n
    left = [(i * n, (i + 1) * n - 1) for i in range(n - 1)]
    left.append(((n - 1) * n, total - 1))
    right = [(0, nn + n - 1)]
    right.extend((nn + j * n, nn + (j + 1) * n - 1) for j in range(1, n))
    return RichDivision(tuple(left), tuple(right), n // 2)


# ---------------------------------------------------------------------------
# packaged hideouts


def subdivision_hideout(base, r, k):
    """Principal vertices of the exact (r-1)-subdivision of base form an
    (r,k,k)-hideout when the base has minimum degree >= 2rk and r >= 2."""
    if r < 2:
        raise GenerationError(f"subdivision hideouts need game radius r >= 2, got {r}")
    min_deg = min((base.degree(v) for v in range(base.n)), default=0)
    if min_deg < 2 * r * k:
        raise GenerationError(
            f"base minimum degree {min_deg} is below the required 2rk={2 * r * k}")
    _, principal = exact_subdivision(base, r - 1)
    return FlipHideout(frozenset(principal), r, k, k)


def well_linked_to_hideout(g, u_set, k, **kw):
    """A well-linked set larger than 3k is an (inf,k,k)-hideout."""
    u_set = frozenset(u_set)
    if len(u_set) <= 3 * k:
        raise GenerationError(f"|U|={len(u_set)} must exceed 3k={3 * k}")
    if not well_linked_check(g, u_set, **kw):
        raise GenerationError("U is not well-linked")
    return FlipHideout(u_set, INF, k, k)
