"""Strategy transfer: quantifier-free interpretations with their flip maps,
the transfer combinator, and modular/substitution lifting."""

from .errors import GenerationError, ParseError
from .flips import FlipSpec, Partition, flip_masks, identity_flip
from .games import Pursuer
from .graphs import INF, ColoredGraph, Graph, ball_mask, bits

# ---------------------------------------------------------------------------
# quantifier-free formulas over colored graphs


class QFFormula:
    """Boolean combination over atoms E(x,y), E(y,x), x=y, Ci(x), Ci(y)."""

    def __init__(self, node):
        self.node = node

    def evaluate(self, edge_xy, edge_yx, eq, color_x, color_y):
        return _eval(self.node, edge_xy, edge_yx, eq, color_x, color_y)

    def holds(self, cg, u, v):
        e = cg.graph.has_edge(u, v) if u != v else False
        return self.evaluate(e, e, u == v, cg.colors[u], cg.colors[v])

    def max_color(self):
        out = [0]

        def walk(node):
            if node[0] == "color":
                out[0] = max(out[0], node[1])
            elif node[0] in ("and", "or"):
                walk(node[1])
                walk(node[2])
            elif node[0] == "not":
                walk(node[1])
        walk(self.node)
        return out[0]

    def is_symmetric(self, colors):
        """Truth-table symmetry check over edge/eq bits and color pairs."""
        palette = sorted(set(colors)) or [1]
        for e in (False, True):
            for cx in palette:
                for cy in palette:
                    a = self.evaluate(e, e, False, cx, cy)
                    b = self.evaluate(e, e, False, cy, cx)
                    if a != b:
                        return False
        return True

    def __repr__(self):
        return f"QFFormula({_unparse(self.node)})"


def _eval(node, e_xy, e_yx, eq, cx, cy):
    op = node[0]
    if op == "edge_xy":
        return e_xy
    if op == "edge_yx":
        return e_yx
    if op == "eq":
        return eq
    if op == "color":
        _, i, var = node
        return (cx if var == "x" else cy) == i
    if op == "not":
        return not _eval(node[1], e_xy, e_yx, eq, cx, cy)
    if op == "and":
        return _eval(node[1], e_xy, e_yx, eq, cx, cy) and _eval(node[2], e_xy, e_yx, eq, cx, cy)
    if op == "or":
        return _eval(node[1], e_xy, e_yx, eq, cx, cy) or _eval(node[2], e_xy, e_yx, eq, cx, cy)
    raise AssertionError(f"bad formula node {node!r}")


def _unparse(node):
    op = node[0]
    if op == "edge_xy":
        return "E(x,y)"
    if op == "edge_yx":
        return "E(y,x)"
    if op == "eq":
        return "x=y"
    if op == "color":
        return f"C{node[1]}({node[2]})"
    if op == "not":
        return f"!{_unparse(node[1])}"
    return f"({_unparse(node[1])} {'&' if op == 'and' else '|'} {_unparse(node[2])})"


def parse_formula(text):
    """Grammar: E(x,y), E(y,x), x=y, C<i>(x|y), combinators & | !, parens."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def eat(tok=None):
        cur = peek()
        if cur is None or (tok is not None and cur != tok):
            raise ParseError(f"formula syntax error near token {pos[0]}: expected {tok}")
        pos[0] += 1
        return cur

    def parse_or():
        left = parse_and()
        while peek() == "|":
            eat("|")
            left = ("or", left, parse_and())
        return left

    def parse_and():
        left = parse_unary()
        while peek() == "&":
            eat("&")
            left = ("and", left, parse_unary())
        return left

    def parse_unary():
        cur = peek()
        if cur == "!":
            eat("!")
            return ("not", parse_unary())
        if cur == "(":
            eat("(")
            inner = parse_or()
            eat(")")
            return inner
        if cur == "x=y":
            eat()
            return ("eq",)
        if cur in ("E(x,y)", "E(y,x)"):
            eat()
            return ("edge_xy",) if cur == "E(x,y)" else ("edge_yx",)
        if isinstance(cur, tuple) and cur[0] == "C":
            eat()
            return ("color", cur[1], cur[2])
        raise ParseError(f"formula syntax error near {cur!r}")

    node = parse_or()
    if pos[0] != len(tokens):
        raise ParseError(f"trailing tokens in formula: {tokens[pos[0]:]}")
    return QFFormula(node)


def _tokenize(text):
    import re
    out = []
    i = 0
    text = text.replace(" ", "")
    while i < len(text):
        ch = text[i]
        if ch in "&|!()":
            out.append(ch)
            i += 1
            continue
        m = re.match(r"E\((x,y|y,x)\)", text[i:])
        if m:
            out.append(f"E({m.group(1)})")
            i += m.end()
            continue
        m = re.match(r"C(\d+)\((x|y)\)", text[i:])
        if m:
            out.append(("C", int(m.group(1)), m.group(2)))
            i += m.end()
            continue
        m = re.match(r"x=y|y=x", text[i:])
        if m:
            out.append("x=y")
            i += m.end()
            continue
        raise ParseError(f"cannot tokenize formula at ...{text[i:]!r}")
    return out


def qf_interpret(cg, formula):
    """phi(G): vertices V(G), edges uv with u != v and phi(u,v) or phi(v,u)."""
    if isinstance(cg, Graph):
        cg = ColoredGraph(cg, [1] * cg.n)
    if formula.max_color() > max(cg.colors, default=0):
        raise GenerationError("formula references a color index beyond the palette")
    n = cg.n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if formula.holds(cg, u, v) or formula.holds(cg, v, u):
                edges.append((u, v))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# flip maps for quantifier-free interpretations (distance stretch 1)


class FlipMap:
    """Total map from flips of a colored graph to flips of its
    interpretation, with distance stretch s = 1: a k-flip of the source
    maps to a (k*c)-flip of phi(G), and adjacent pairs of a mapped flip are
    adjacent in the source flip."""

    def __init__(self, cg, formula):
        if isinstance(cg, Graph):
            cg = ColoredGraph(cg, [1] * cg.n)
        self.cg = cg
        self.formula = formula
        self.target = qf_interpret(cg, formula)
        self.stretch = 1

    def map(self, spec):
        """Map a flip of the source graph; asserts the stretch invariant on
        every vertex pair."""
        cg = self.cg
        g = cg.graph
        n = g.n
        src_masks = flip_masks(g, spec)
        labels = list(zip(spec.partition.blocks, cg.colors))
        # Phi over label pairs, from vertex pairs at source-flip distance > 1
        phi = {}
        for u in range(n):
            for v in range(n):
                if u == v or (src_masks[u] >> v) & 1:
                    continue
                key = (labels[u], labels[v])
                val = self.formula.holds(cg, u, v)
                if phi.setdefault(key, val) != val:
                    raise AssertionError(
                        "flip map construction bug: label pair is not phi-constant")
        mapped = FlipSpec.from_labels(labels, [key for key, val in phi.items() if val])
        self._assert_stretch(spec, src_masks, mapped)
        return mapped

    def _assert_stretch(self, spec, src_masks, mapped):
        h_masks = flip_masks(self.target, mapped)
        for u in range(self.target.n):
            for v in bits(h_masks[u]):
                if not (src_masks[u] >> v) & 1:
                    raise AssertionError(
                        f"stretch invariant violated at pair ({u},{v})")


class TransferredFlipper(Pursuer):
    """Flipper on H replaying a flipper for radius r*stretch on G through a
    flip map.

    The opening move is the mapped identity flip F(G): the runner's first
    H-move happens in the base graph H, which the stretch invariant does
    not cover, so the shadowed G-game starts one round later, with the
    runner's position after the warm-up as its initial vertex.  If an
    H-move ever falls outside the shadowed ball (impossible while the
    invariant holds) the shadow degenerates to identity flips.
    """

    def __init__(self, flip_map, g_strategy, r):
        self.fm = flip_map
        self.gs = g_strategy
        self.g = flip_map.cg.graph
        if r is INF:
            self.rg = INF
        else:
            self.rg = r * flip_map.stretch

    def start(self):
        return "warmup"

    def move(self, state, pos):
        if state == "warmup":
            hmove = self.fm.map(identity_flip(self.g.n))
            # the next incoming move starts the shadow game; its position is
            # the G-runner's free initial pick, so nothing to validate yet
            return hmove, (self.gs.start(), None, None, None, False)
        gstate, check_masks, pending_masks, gpos, broken = state
        if not broken and gpos is not None and pos is not None:
            # the runner just walked in the H-image of the flip whose
            # G-counterpart is check_masks (the announcement before last)
            masks = check_masks if check_masks is not None else self.g.adj
            if not (ball_mask(masks, gpos, self.rg) >> pos) & 1:
                broken = True
        if broken:
            return identity_flip(self.fm.target.n), \
                (gstate, check_masks, pending_masks, pos, True)
        gmove, gstate2 = self.gs.move(gstate, pos)
        hmove = self.fm.map(gmove)
        new_check = pending_masks if pending_masks is not None else self.g.adj
        return hmove, (gstate2, new_check, tuple(flip_masks(self.g, gmove)),
                       pos, False)


# ---------------------------------------------------------------------------
# bipartite part-splitting map (semi-induced graphs)


class BipartiteSplitMap:
    """Map flips of G to bipartite flips of the semi-induced G[X,Y]; paths
    in the image flip project to paths in the source flip (stretch 1)."""

    def __init__(self, g, xs, ys):
        from .graphs import semi_induced
        self.g = g
        self.xs = list(xs)
        self.ys = list(ys)
        self.target, self.nx = semi_induced(g, xs, ys)
        self.stretch = 1

    def map(self, spec):
        """The parts are labelled (side, source block); a flipped source pair
        flips both of its cross-side label pairs."""
        blocks = spec.partition.blocks
        labels = [("x", blocks[x]) for x in self.xs] + [("y", blocks[y]) for y in self.ys]
        return FlipSpec.from_labels(labels, [(("x", i), ("y", j)) for p in spec.pairs
                                             for i, j in (p, p[::-1])])

    def left_mask(self):
        return (1 << self.nx) - 1


# ---------------------------------------------------------------------------
# modular partitions and substitution


def is_modular(g, partition):
    """Every pair of distinct blocks is complete or anticomplete."""
    masks = partition.block_masks()
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            rows = {g.adj[u] & masks[j] for u in bits(masks[i])}
            if rows != {0} and rows != {masks[j]}:
                return False
    return True


def quotient_graph(g, partition):
    """Vertices are the blocks; edges are the complete block pairs."""
    masks = partition.block_masks()
    b = len(masks)
    edges = []
    for i in range(b):
        for j in range(i + 1, b):
            u = next(bits(masks[i]))
            if g.adj[u] & masks[j] == masks[j]:
                edges.append((i, j))
    return Graph(b, edges)


class ModularLiftFlipper(Pursuer):
    """Two-phase flipper: quotient flips lifted blockwise until the runner's
    module is isolated, then an isolating 3-part flip and the in-module
    strategy inside k+2 parts."""

    def __init__(self, g, partition, quotient_strategy, block_strategies):
        if not is_modular(g, partition):
            raise GenerationError("partition is not modular")
        self.g = g
        self.partition = partition
        self.block_masks = tuple(partition.block_masks())
        self.qs = quotient_strategy
        self.bs = block_strategies
        self.quotient = quotient_graph(g, partition)
        self.locals = []
        for m in self.block_masks:
            vs = list(bits(m))
            self.locals.append((vs, {v: i for i, v in enumerate(vs)}))

    def start(self):
        return ("q", self.qs.start(), None)

    def _lift_quotient(self, qspec):
        qblocks = qspec.partition.blocks
        return FlipSpec.from_labels([qblocks[b] for b in self.partition.blocks],
                                    qspec.pairs)

    def _isolating_flip(self, a_idx):
        """The module's trivial flip lifted: 3 parts, the module's neighbours
        flipped with the module, which cuts it off."""
        return self._lift_block(a_idx, identity_flip(len(self.locals[a_idx][0])))

    def _lift_block(self, a_idx, bspec):
        """The module's flip bspec, over parts labelled ("a", block of bspec)
        inside the module, "n" on its neighbours and "r" elsewhere; every
        module part is also flipped with "n", which cuts the module off."""
        amask = self.block_masks[a_idx]
        vs, local_of = self.locals[a_idx]
        nmask = self.g.adj[vs[0]] & ~amask
        inner = bspec.partition.blocks
        labels = [("a", inner[local_of[v]]) if (amask >> v) & 1
                  else "n" if (nmask >> v) & 1 else "r" for v in range(self.g.n)]
        pairs = [(("a", i), ("a", j)) for i, j in bspec.pairs]
        pairs += [(("a", b), "n") for b in range(bspec.partition.size)]
        return FlipSpec.from_labels(labels, pairs)

    def move(self, state, pos):
        phase = state[0]
        if phase == "q":
            _, qstate, qprev = state
            a_idx = self.partition.blocks[pos]
            if qprev is not None and qprev[a_idx] == 0:
                spec = self._isolating_flip(a_idx)
                bstrat = self.bs[a_idx]
                return spec, ("b", a_idx, bstrat.start())
            qmove, qstate2 = self.qs.move(qstate, a_idx)
            qmasks = tuple(flip_masks(self.quotient, qmove))
            return self._lift_quotient(qmove), ("q", qstate2, qmasks)
        _, a_idx, bstate = state
        _, local_of = self.locals[a_idx]
        bmove, bstate2 = self.bs[a_idx].move(bstate, local_of[pos])
        return self._lift_block(a_idx, bmove), ("b", a_idx, bstate2)


class SubstitutionNode:
    """Quotient graph with one child (node or plain graph) per vertex."""

    def __init__(self, graph, children):
        self.graph = graph
        self.children = dict(children)


def substitution_build(node):
    """Materialize the substituted graph; returns (graph, top partition,
    child graphs in block order)."""
    child_graphs = []
    for v in range(node.graph.n):
        child = node.children.get(v)
        if child is None:
            child_graphs.append(Graph(1))
        elif isinstance(child, SubstitutionNode):
            child_graphs.append(substitution_build(child)[0])
        else:
            child_graphs.append(child)
    blocks = []
    edges = []
    offsets = []
    nxt = 0
    for v, cg in enumerate(child_graphs):
        offsets.append(nxt)
        for u in range(cg.n):
            blocks.append(v)
        edges.extend((nxt + a, nxt + b) for a, b in cg.edges())
        nxt += cg.n
    for a, b in node.graph.edges():
        for u in range(child_graphs[a].n):
            for w in range(child_graphs[b].n):
                edges.append((offsets[a] + u, offsets[b] + w))
    return Graph(nxt, edges), Partition(blocks), child_graphs


def substitution_strategy(node, r, strategy_for):
    """Recursive modular lift over a substitution tree.

    strategy_for(graph) must return a winning flipper policy for the graph
    at radius r; the result is (graph, policy) for the substituted graph.
    """
    graph, partition, child_graphs = substitution_build(node)
    block_strategies = {}
    for v in range(node.graph.n):
        child = node.children.get(v)
        if child is None:
            block_strategies[v] = strategy_for(Graph(1))
        elif isinstance(child, SubstitutionNode):
            _, sub_policy = substitution_strategy(child, r, strategy_for)
            block_strategies[v] = sub_policy
        else:
            block_strategies[v] = strategy_for(child)
    policy = ModularLiftFlipper(graph, partition, strategy_for(node.graph),
                                block_strategies)
    return graph, policy
