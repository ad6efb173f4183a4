"""Graph representations, standard generators, and graph I/O.

Graphs are immutable: n vertices 0..n-1 and one adjacency bitmask per
vertex.  Bitmasks keep every algorithm in the package branch-light and
make graph equality a plain tuple comparison.
"""

import random

from .errors import GenerationError, ParseError


class Infinity:
    """Distinguished infinite radius (ball = connected component)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __reduce__(self):
        return (Infinity, ())


INF = Infinity()


def is_radius(r):
    return r is INF or (isinstance(r, int) and r >= 0)


class Graph:
    """Undirected simple graph on vertices 0..n-1 with bitmask adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise GenerationError(f"vertex count must be nonnegative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex out of range in edge ({u},{v})")
            if u == v:
                raise ParseError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def from_masks(cls, masks):
        g = object.__new__(cls)
        g.n = len(masks)
        g.adj = tuple(masks)
        g._check()
        return g

    def _check(self):
        n = self.n
        full = (1 << n) - 1
        for v, row in enumerate(self.adj):
            if row & (1 << v):
                raise AssertionError(f"self-loop at {v}")
            if row & ~full:
                raise AssertionError(f"adjacency row of {v} out of range")
        for u in range(n):
            for v in range(u + 1, n):
                if (self.adj[u] >> v) & 1 != (self.adj[v] >> u) & 1:
                    raise AssertionError(f"asymmetric adjacency at ({u},{v})")

    def has_edge(self, u, v):
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v):
        return popcount(self.adj[v])

    def neighbors(self, v):
        return bits(self.adj[v])

    def edges(self):
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    yield (u, v)
                m >>= 1
                v += 1

    def num_edges(self):
        return sum(popcount(row) for row in self.adj) // 2

    def subgraph(self, vertices):
        """Induced subgraph; vertices are relabelled in the given order."""
        vs = list(vertices)
        adj = [0] * len(vs)
        for i, u in enumerate(vs):
            for j, v in enumerate(vs):
                if i != j and self.has_edge(u, v):
                    adj[i] |= 1 << j
        return Graph.from_masks(adj)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"


class OrderedGraph:
    """Graph with a total vertex order: index order 0 < 1 < ... < n-1."""

    __slots__ = ("graph",)

    def __init__(self, graph):
        self.graph = graph

    @property
    def n(self):
        return self.graph.n

    def __eq__(self, other):
        return isinstance(other, OrderedGraph) and self.graph == other.graph

    def __hash__(self):
        return hash(("ordered", self.graph))

    def __repr__(self):
        return f"OrderedGraph(n={self.n}, m={self.graph.num_edges()})"


class ColoredGraph:
    """Graph with one color in 1..c per vertex."""

    __slots__ = ("graph", "colors")

    def __init__(self, graph, colors):
        colors = tuple(colors)
        if len(colors) != graph.n:
            raise GenerationError("one color per vertex required")
        if any(c < 1 for c in colors):
            raise GenerationError("colors are 1-based indices")
        self.graph = graph
        self.colors = colors

    @property
    def n(self):
        return self.graph.n

    def num_colors(self):
        return max(self.colors, default=0)

    def __eq__(self, other):
        return (isinstance(other, ColoredGraph) and self.graph == other.graph
                and self.colors == other.colors)

    def __hash__(self):
        return hash((self.graph, self.colors))


def popcount(x):
    return bin(x).count("1")


def bits(mask):
    """Iterate set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def lowest_bit(mask):
    return (mask & -mask).bit_length() - 1


# ---------------------------------------------------------------------------
# parsing / writing


def parse_graph(data, fmt="edge-list"):
    """Parse a graph from edge-list or graph6 text/bytes."""
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")
    if fmt == "edge-list":
        return _parse_edge_list(data)
    if fmt == "graph6":
        return parse_graph6(data)
    raise ParseError(f"unknown graph format {fmt!r}")


def sniff_and_parse(data):
    """Parse edge-list or graph6, deciding by the first byte."""
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")
    stripped = data.lstrip()
    if stripped.startswith(">>graph6<<") or (stripped and not stripped[0].isdigit()):
        return parse_graph6(stripped.splitlines()[0])
    return _parse_edge_list(data)


def _parse_edge_list(text):
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("empty input, expected 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"line 1: malformed header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"line 1: malformed header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ParseError("line 1: negative counts in header")
    edges = []
    colors = {}
    seen_edges = 0
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "c":
            if len(parts) != 3:
                raise ParseError(f"line {ln}: malformed color line {line!r}")
            try:
                u, k = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {ln}: malformed color line {line!r}") from None
            if not 0 <= u < n:
                raise ParseError(f"line {ln}: color vertex {u} out of range")
            if k < 1:
                raise ParseError(f"line {ln}: color {k} must be >= 1")
            colors[u] = k
            continue
        if len(parts) != 2:
            raise ParseError(f"line {ln}: malformed edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {ln}: malformed edge line {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {ln}: vertex index out of range in {line!r}")
        if u == v:
            raise ParseError(f"line {ln}: self-loop at {u}")
        edges.append((u, v))
        seen_edges += 1
    if seen_edges != m:
        raise ParseError(f"header announces {m} edges but {seen_edges} listed")
    g = Graph(n, edges)
    if colors:
        return ColoredGraph(g, tuple(colors.get(v, 1) for v in range(n)))
    return g


def write_graph(g, fmt="edge-list"):
    """Serialize a Graph (or Ordered/ColoredGraph) deterministically."""
    colors = None
    if isinstance(g, ColoredGraph):
        colors = g.colors
        g = g.graph
    elif isinstance(g, OrderedGraph):
        g = g.graph
    if fmt == "edge-list":
        lines = [f"{g.n} {g.num_edges()}"]
        lines.extend(f"{u} {v}" for u, v in g.edges())
        if colors is not None:
            lines.extend(f"c {v} {k}" for v, k in enumerate(colors))
        return "\n".join(lines) + "\n"
    if fmt == "graph6":
        return write_graph6(g) + "\n"
    raise ParseError(f"unknown graph format {fmt!r}")


def parse_graph6(text):
    """Decode one graph6 line (n <= 62, optional standard header)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 input")
    vals = []
    for i, ch in enumerate(s):
        o = ord(ch)
        if not 63 <= o <= 126:
            raise ParseError(f"graph6 byte {i}: character {ch!r} out of range")
        vals.append(o - 63)
    n = vals[0]
    if n == 63:
        raise ParseError("graph6 graphs with more than 62 vertices not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(vals) - 1 < need:
        raise ParseError(f"graph6 input too short: {len(vals)-1} groups, need {need}")
    bitstream = []
    for v in vals[1:1 + need]:
        for b in range(5, -1, -1):
            bitstream.append((v >> b) & 1)
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bitstream[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def write_graph6(g):
    if g.n > 62:
        raise ParseError("graph6 output limited to 62 vertices")
    bitstream = []
    for v in range(1, g.n):
        for u in range(v):
            bitstream.append(1 if g.has_edge(u, v) else 0)
    while len(bitstream) % 6:
        bitstream.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bitstream), 6):
        val = 0
        for b in bitstream[i:i + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# generators


def clique(n):
    full = (1 << n) - 1
    return Graph.from_masks([full & ~(1 << v) for v in range(n)])


def edgeless(n):
    return Graph(n)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    if n < 3:
        raise GenerationError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid(rows, cols):
    def vid(i, j):
        return i * cols + j
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j)))
    return Graph(rows * cols, edges)


def half_graph(n, strict=False):
    """Half-graph of order n: parts a_1..a_n, b_1..b_n, edge a_i b_j iff i <= j.

    The figure's variant (diagonal included) is the default; strict=True
    uses i < j.  Vertices: a_i = i-1, b_j = n+j-1.
    """
    edges = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i < j) if strict else (i <= j):
                edges.append((i - 1, n + j - 1))
    return Graph(2 * n, edges)


def tree_comparability(parents):
    """Comparability graph of the rooted tree given by a parent list.

    parents[i] is the parent of vertex i+1; vertex 0 is the root.
    Two vertices are adjacent iff one is an ancestor of the other.
    """
    n = len(parents) + 1
    for i, p in enumerate(parents):
        if not 0 <= p <= i:
            raise GenerationError(f"parent of vertex {i+1} must be an earlier vertex")
    ancestors = [set() for _ in range(n)]
    for v in range(1, n):
        p = parents[v - 1]
        ancestors[v] = ancestors[p] | {p}
    edges = [(a, v) for v in range(n) for a in ancestors[v]]
    return Graph(n, edges)


def exact_subdivision(base, r):
    """Exact r-subdivision: every edge becomes a path of length r+1.

    Returns (graph, principal) where principal are the original vertices,
    which keep their ids 0..n-1.
    """
    if r < 0:
        raise GenerationError("subdivision depth must be >= 0")
    if r == 0:
        return base, tuple(range(base.n))
    edges = []
    nxt = base.n
    for u, v in base.edges():
        chain = [u] + list(range(nxt, nxt + r)) + [v]
        nxt += r
        edges.extend(zip(chain, chain[1:]))
    return Graph(nxt, edges), tuple(range(base.n))


def gf2_dot_product(m):
    """Two copies of GF(2)^m; edge v w* iff the dot product is nonzero."""
    size = 1 << m
    edges = []
    for v in range(size):
        for w in range(size):
            if popcount(v & w) % 2 == 1:
                edges.append((v, size + w))
    return Graph(2 * size, edges)


def petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    return Graph(10, edges)


PATTERN_SYMBOLS = ("eq", "neq", "lel", "gel", "ler", "ger")


def s_pattern(n, symbol):
    """Ordered graph on 2n^2 vertices realizing the given grid pattern.

    The n^2 A-vertices come first in lexicographic (i,j) order, then the
    n^2 B-vertices.  Edges follow the symbol's semi-induced matrix.
    """
    if symbol not in PATTERN_SYMBOLS:
        raise GenerationError(f"unknown pattern symbol {symbol!r}")
    idx = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    edges = []
    for a, (i, j) in enumerate(idx):
        for b, (i2, j2) in enumerate(idx):
            if symbol == "eq":
                e = (i, j) == (j2, i2)
            elif symbol == "neq":
                e = (i, j) != (j2, i2)
            elif symbol == "lel":
                e = (j, i) <= (i2, j2)
            elif symbol == "gel":
                e = (j, i) >= (i2, j2)
            elif symbol == "ler":
                e = (i, j) <= (j2, i2)
            else:
                e = (i, j) >= (j2, i2)
            if e:
                edges.append((a, n * n + b))
    return OrderedGraph(Graph(2 * n * n, edges))


def random_gnp(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_regular(n, d, seed):
    """Random d-regular graph via the pairing model with retries."""
    if n * d % 2 == 1 or d >= n or d < 0:
        raise GenerationError(f"no {d}-regular graph on {n} vertices")
    rng = random.Random(seed)
    for _ in range(1000):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Graph(n, edges)
    raise GenerationError(f"could not sample a {d}-regular graph on {n} vertices")


def generate(family, *args, **kwargs):
    """Dispatch by family name; see FAMILIES for the catalog."""
    try:
        fn = FAMILIES[family]
    except KeyError:
        raise GenerationError(f"unknown graph family {family!r}") from None
    return fn(*args, **kwargs)


FAMILIES = {
    "clique": clique,
    "path": path,
    "cycle": cycle,
    "edgeless": edgeless,
    "grid": grid,
    "half_graph": half_graph,
    "tree_comparability": tree_comparability,
    "exact_subdivision": exact_subdivision,
    "gf2_dot_product": gf2_dot_product,
    "petersen": petersen,
    "s_pattern": s_pattern,
    "random_gnp": random_gnp,
    "random_regular": random_regular,
}


# ---------------------------------------------------------------------------
# elementary operations


def complement(g):
    full = (1 << g.n) - 1
    return Graph.from_masks([(full & ~row) & ~(1 << v) for v, row in enumerate(g.adj)])


def disjoint_union(graphs):
    offset = 0
    edges = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def lexicographic_product(h, k):
    """Blow up each vertex of h into a copy of k."""
    n = h.n * k.n
    edges = []
    for a in range(h.n):
        base = a * k.n
        edges.extend((base + u, base + v) for u, v in k.edges())
        for b in range(a + 1, h.n):
            if h.has_edge(a, b):
                edges.extend((base + u, b * k.n + v)
                             for u in range(k.n) for v in range(k.n))
    return Graph(n, edges)


def ball_mask(adj, v, r):
    """Radius-r ball around v as a bitmask; r=INF gives the component."""
    cur = 1 << v
    steps = 0
    while True:
        if r is not INF and steps >= r:
            break
        nxt = cur
        m = cur
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        if nxt == cur:
            break
        cur = nxt
        steps += 1
    return cur


def ball(g, v, r):
    """Vertex set at distance <= r from v (including v)."""
    if not is_radius(r):
        raise GenerationError(f"invalid radius {r!r}")
    return set(bits(ball_mask(g.adj, v, r)))


def components(g):
    """Connected components as bitmasks, ordered by smallest vertex."""
    seen = 0
    out = []
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        comp = ball_mask(g.adj, v, INF)
        out.append(comp)
        seen |= comp
    return out


def semi_induced(g, xs, ys):
    """Bipartite graph semi-induced by X and Y; X∩Y vertices are duplicated.

    Returns (graph, x_count): vertices 0..|X|-1 are the X-copies (in the
    given order), the rest are the Y-copies.
    """
    xs = list(xs)
    ys = list(ys)
    nx = len(xs)
    edges = []
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if g.has_edge(x, y):
                edges.append((i, nx + j))
    return Graph(nx + len(ys), edges), nx
