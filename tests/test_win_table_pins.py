"""Digest pins of the win tables on every small graph.

For every networkx atlas graph on at most five vertices, the empty graph
included, at r in {0, 1, 2, inf} and k in {0, 1, 2, 3}, a dump holds one
JSON line per solve: the winner, the rounds and the full win table with
each state's move JSON (the `--witness` output), or the error the solve
raises.

The flip dump solves the flip, definable, bipartite (one 2-colouring of
each bipartite graph), ordered and ordered-binary games.  Definable and
ordered at k = 3, and ordered-binary, stop at four vertices.  Its digest,
tests/fixtures/win_table_pins.sha256, records what the solvers gave before
their outcome reduction was merged into one engine.

The cops dump solves the cop, isolation and copprime games, 2,544 solves.
Its digest, tests/fixtures/cop_table_pins.sha256, records what the solvers
gave while copprime still had a fixpoint of its own.

Regenerate a digest only for a deliberate change of output, never to make
a test pass:

    python tests/test_win_table_pins.py [cops] --dump   # a dump, for diffing
    python tests/test_win_table_pins.py [cops]          # its digest
"""

import hashlib
import json
import sys
from pathlib import Path

from flipwidth.errors import FlipwidthError
from flipwidth.games import (solve_bipartite, solve_cops, solve_copw_prime,
                             solve_definable, solve_flipper, solve_isolation,
                             solve_ordered, solve_ordered_binary)
from flipwidth.graphs import INF, Graph, OrderedGraph

FIXTURES = Path(__file__).parent / "fixtures"


def atlas(max_n):
    from networkx.generators.atlas import graph_atlas_g
    return [(i, Graph(h.number_of_nodes(), list(h.edges())))
            for i, h in enumerate(graph_atlas_g()) if h.number_of_nodes() <= max_n]


def two_colouring(g):
    """Mask of the side of each component's least vertex, or None when g
    has an odd cycle."""
    side = {}
    for root in range(g.n):
        if root in side:
            continue
        side[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in side:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return None
    return sum(1 << v for v, s in side.items() if s)


def flip_solves(g):
    """(game, k, thunk) for every flip-family solve the grid runs on g and
    one radius."""
    og = OrderedGraph(g)
    left = two_colouring(g)
    for k in range(4):
        yield "flip", k, lambda r, k=k: solve_flipper(g, r, k)
        if k < 3 or g.n <= 4:
            yield "dfw", k, lambda r, k=k: solve_definable(g, r, k)
            yield "ordered", k, lambda r, k=k: solve_ordered(og, r, k)
        if left is not None:
            yield "bipartite", k, lambda r, k=k: solve_bipartite(g, left, r, k)
        if g.n <= 4:
            yield "ordered-binary", k, lambda r, k=k: solve_ordered_binary(og, r, k)


def cop_solves(g):
    """(game, k, thunk) for every cop-game solve the grid runs on g and one
    radius."""
    for k in range(4):
        for game, solve in (("cop", solve_cops), ("isolation", solve_isolation),
                            ("copprime", solve_copw_prime)):
            yield game, k, lambda r, k=k, solve=solve: solve(g, r, k)


GRIDS = {"flip": (flip_solves, "win_table_pins.sha256"),
         "cops": (cop_solves, "cop_table_pins.sha256")}


def dump_lines(grid):
    solves = GRIDS[grid][0]
    for index, g in atlas(5):
        for r in (0, 1, 2, INF):
            for game, k, solve in solves(g):
                try:
                    out = solve(r).to_json(witness=True)
                except FlipwidthError as e:     # the error is part of the pin
                    out = {"error": type(e).__name__, "message": str(e)}
                head = {"atlas": index, "game": game, "r": "inf" if r is INF else r, "k": k}
                yield json.dumps({**head, "out": out}, sort_keys=True)


def digest(grid):
    h = hashlib.sha256()
    for line in dump_lines(grid):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def pinned(grid):
    return (FIXTURES / GRIDS[grid][1]).read_text().strip()


def test_win_tables_are_pinned():
    assert digest("flip") == pinned("flip")


def test_cop_win_tables_are_pinned():
    assert digest("cops") == pinned("cops")


if __name__ == "__main__":
    args = sys.argv[1:]
    grid = args.pop(0) if args[:1] == ["cops"] else "flip"
    if args == ["--dump"]:
        for line in dump_lines(grid):
            print(line)
    else:
        print(digest(grid))
