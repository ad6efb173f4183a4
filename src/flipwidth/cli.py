"""Command-line front end: graph generation, parameter oracles, game
solving, certificate verification, match duels, and the approximation
routine.  All outputs are deterministic for a fixed input and seed.

Exit codes: 0 ok; 2 limit exceeded; 3 parse error, usage errors included;
4 certificate schema error; 5 illegal strategy move.
"""

import argparse
import contextlib
import functools
import json
import sys

from . import certificates as certs
from . import games, params, twinwidth
from .errors import (CertificateInvalid, GenerationError, IllegalMoveError,
                     LimitExceeded, ParseError, SchemaError)
from .graphs import (FAMILIES, INF, ColoredGraph, OrderedGraph, generate,
                     sniff_and_parse, write_graph)

DEFAULT_SEED = 1729


@contextlib.contextmanager
def _timeout(seconds, command):
    """Abort with a LimitExceeded naming the budget and the subcommand
    (never a partial answer) once the budget is up; on leaving, the timer is
    disarmed and the previous SIGALRM handler is back."""
    if seconds is None:
        yield
        return
    if not 0 <= seconds <= 1e9:     # the interval timer overflows far above
        raise ParseError(f"--timeout must be between 0 and 1e9 seconds, got {seconds}")
    import signal

    def on_alarm(signum, frame):
        raise LimitExceeded(f"timeout after {seconds}s in {command}")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _parse_radius(text):
    if text in ("inf", "INF", "infinity"):
        return INF
    try:
        r = int(text)
    except ValueError:
        raise ParseError(f"radius must be an integer or 'inf', got {text!r}") from None
    if r < 0:
        raise ParseError("radius must be nonnegative")
    return r


def _parse_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}") from None


def _parse_finite_radius(text):
    """A nonnegative integer radius: the approximation's LOWER verdict is
    about fw_{5r}."""
    r = _parse_int(text, "radius")
    if r < 0:
        raise ParseError("radius must be nonnegative")
    return r


def _family_graph(spec_text):
    """Inline generator syntax: name or name:arg1:arg2 (half:6, clique:5,
    gnp:8:0.5:7, pattern:4:eq, sub:clique:5:1, treecomp:0-0-1).  Arguments
    of the wrong type or number are a parse error."""
    try:
        return _build_family(spec_text)
    except (ValueError, IndexError, TypeError) as e:
        raise ParseError(f"malformed family spec {spec_text!r}: {e}") from None


def _build_family(spec_text):
    parts = spec_text.split(":")
    name = parts[0]
    args = parts[1:]
    alias = {"half": "half_graph", "gnp": "random_gnp", "regular": "random_regular",
             "pattern": "s_pattern", "gf2": "gf2_dot_product",
             "treecomp": "tree_comparability", "sub": "exact_subdivision"}
    name = alias.get(name, name)
    if name == "exact_subdivision":
        base = _build_family(":".join(args[:-1]))
        g, _ = generate(name, base, int(args[-1]))
        return g
    if name == "tree_comparability":
        parents = [int(x) for x in args[0].split("-")] if args and args[0] else []
        return generate(name, parents)
    if name == "s_pattern":
        return generate(name, int(args[0]), args[1])
    if name == "random_gnp":
        return generate(name, int(args[0]), float(args[1]),
                        int(args[2]) if len(args) > 2 else DEFAULT_SEED)
    if name == "random_regular":
        return generate(name, int(args[0]), int(args[1]),
                        int(args[2]) if len(args) > 2 else DEFAULT_SEED)
    if name == "half_graph":
        strict = len(args) > 1 and args[1] == "strict"
        return generate(name, int(args[0]), strict=strict)
    if name not in FAMILIES:
        raise ParseError(f"unknown family {name!r}")
    return generate(name, *[int(a) for a in args])


def _load_graph(ns):
    if getattr(ns, "family", None):
        return _family_graph(ns.family)
    data = sys.stdin.read() if ns.graph == "-" else _read_file(ns.graph, "graph")
    return sniff_and_parse(data)


def _read_file(path, what):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise ParseError(f"cannot read {what} file {path!r}: {e.strerror}") from None


def _read_certificate(path):
    """Certificate JSON: a missing path or an unreadable file is a parse
    error, text that is not JSON a schema error."""
    if path is None:
        raise ParseError("this strategy reads a certificate: pass --certificate")
    data = _read_file(path, "certificate")
    try:
        return json.loads(data)
    except ValueError as e:
        raise SchemaError(f"certificate is not valid JSON: {e}") from None


def _plain(g):
    return g.graph if isinstance(g, (OrderedGraph, ColoredGraph)) else g


def _emit(ns, obj):
    if ns.format == "tsv":
        flat = sorted(obj.items())
        sys.stdout.write("\t".join(str(k) for k, _ in flat) + "\n")
        sys.stdout.write("\t".join(_scalar(v) for _, v in flat) + "\n")
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _scalar(v):
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True, separators=(",", ":"))
    return str(v)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(ns):
    g = _family_graph(ns.family)
    sys.stdout.write(write_graph(g, ns.out_format))
    return 0


def cmd_param(ns):
    g = _plain(_load_graph(ns))
    name = ns.parameter
    witness = None
    if name == "degeneracy":
        value, order = params.degeneracy(g)
        witness = {"order": list(order.permutation)}
    elif name == "treewidth":
        value = params.treewidth_small(g)
    elif name in ("wcol", "scol", "adm"):
        value, order = params.generalized_coloring_number(g, name, ns.r, mode=ns.mode)
        witness = {"order": list(order.permutation), "mode": ns.mode}
    elif name == "cutrank":
        if not ns.set:
            raise ParseError("cutrank needs --set with comma-separated vertices")
        a_set = [_parse_int(x, "a --set vertex") for x in ns.set.split(",")]
        if not all(0 <= v < g.n for v in a_set):
            raise ParseError(f"--set names a vertex outside the {g.n}-vertex graph")
        value = params.cut_rank(g, a_set)
    elif name == "rankwidth":
        value, tree = params.rank_width_small(g)
        witness = {"tree": repr(tree)}
    elif name == "vc":
        value = params.vc_dimension(g)
    elif name == "2vc":
        value = params.vc_dimension(g, two_vc=True)
    elif name == "neartwin":
        value = params.near_twin_min(g)
    elif name == "sd":
        value = params.symmetric_difference_param(g)
    elif name == "fun":
        value = params.functionality_param(g)
    elif name == "shatter":
        value = params.shatter_function(g, ns.m)
    elif name == "twinwidth":
        value, cs = twinwidth.tww_exact_small(g)
        witness = cs.to_json()
    else:
        raise ParseError(f"unknown parameter {name!r}")
    out = {"parameter": name, "value": value}
    if witness is not None:
        out["witness"] = witness
    _emit(ns, out)
    return 0


def _plain_args(g):
    return (_plain(g),)


def _ordered_args(g):
    return (g if isinstance(g, OrderedGraph) else OrderedGraph(_plain(g)),)


def _bipartite_args(g):
    """The plain graph and the mask of its colour-1 side."""
    if not isinstance(g, ColoredGraph) or g.num_colors() > 2:
        raise ParseError("bipartite game needs a 2-colored graph input")
    return g.graph, sum(1 << v for v, c in enumerate(g.colors) if c == 1)


# game -> (input adapter, solver, width search or None); each takes max_n.
# The games functions are looked up by name at call time, so a wrapper put
# on the games module is the one that runs.
_GAMES = {
    "flip": (_plain_args, "solve_flipper", "flip_width"),
    "cop": (_plain_args, "solve_cops", "cop_width"),
    "copprime": (_plain_args, "solve_copw_prime", "copw_prime_width"),
    "isolation": (_plain_args, "solve_isolation", "isolation_width"),
    "dfw": (_plain_args, "solve_definable", "definable_flip_width"),
    "ordered": (_ordered_args, "solve_ordered", "ordered_flip_width"),
    "bipartite": (_bipartite_args, "solve_bipartite", None),
}


def _play(game, g, r, k=None, max_n=None):
    """Solve `game` on g at width k, or search its least winning width when
    k is None."""
    if game not in _GAMES:
        raise ParseError(f"unknown game {game!r}")
    adapt, solve, width = _GAMES[game]
    if k is None and width is None:
        raise ParseError(f"no value search for game {game!r}")
    args = adapt(g)
    if k is None:
        return getattr(games, width)(*args, r, max_n=max_n)
    return getattr(games, solve)(*args, r, k, max_n=max_n)


def cmd_game(ns):
    g = _load_graph(ns)
    if ns.value:
        value = _play(ns.game, g, ns.r, max_n=ns.max_n)
        _emit(ns, {"game": ns.game, "r": "inf" if ns.r is INF else ns.r,
                   "value": value})
        return 0
    if ns.k is None:
        raise ParseError("either --k or --value is required")
    sol = _play(ns.game, g, ns.r, ns.k, max_n=ns.max_n)
    _emit(ns, sol.to_json(witness=ns.witness))
    return 0


def cmd_certify(ns):
    g = _load_graph(ns)
    plain = _plain(g)
    cert = certs.certificate_from_json(_read_certificate(ns.certificate), plain.n)
    out = {"kind": cert.kind, "mode": "exhaustive"}
    if isinstance(cert, twinwidth.ContractionSequence):
        out.update(valid=True, width=twinwidth.sequence_width(plain, cert))
    elif isinstance(cert, certs.FlipHideout):
        rep = certs.verify_flip_hideout_report(
            plain, cert, mode=ns.mode, seed=ns.seed, trials=ns.trials)
        out.update(valid=rep.valid, mode=rep.mode)
        if rep.refutation is not None:
            out["refutation"] = rep.refutation.to_json()
    elif isinstance(cert, certs.CopsHideout):
        out["valid"] = certs.verify_cops_hideout(plain, cert)
    elif isinstance(cert, certs.RichDivision):
        og = g if isinstance(g, OrderedGraph) else OrderedGraph(plain)
        out["valid"] = certs.verify_rich_division(og, cert)
    elif isinstance(cert, certs.WellLinkedCert):
        # valid as well_linked_to_hideout reads it: well-linked and larger than 3k
        linked = params.well_linked_check(plain, cert.u, mode=ns.mode, seed=ns.seed,
                                          trials=ns.trials)
        out.update(valid=linked and len(cert.u) > 3 * cert.k, mode=ns.mode)
    else:
        out["valid"] = certs.order_cert_check(plain, cert.order, cert.r, cert.k)
    _emit(ns, out)
    return 0


# the certificate-backed evaders and the games whose moves they read
_CERTIFICATE_GAMES = {"hideout": ("flip", "bipartite"), "richdivision": ("ordered",)}


def _certificate_of(ns, kind, n):
    """The --certificate file as a certificate of the given kind on n vertices."""
    cert = certs.certificate_from_json(_read_certificate(ns.certificate), n)
    if cert.kind != kind:
        raise SchemaError(f"this strategy reads a {kind} certificate, not {cert.kind}")
    return cert


def _strategy(spec_text, side, game, g, r, k, ns):
    """The strategy spec_text names, which must play `side` in `game`."""
    name = spec_text.split(":")[0]
    games_played = _CERTIFICATE_GAMES.get(name, (game,))
    if game not in games_played:
        raise ParseError(f"strategy {name!r} plays the {' and '.join(games_played)} "
                         f"game, not {game}")
    strategy = _build_strategy(spec_text, side, game, g, r, k, ns)
    if strategy.side != side:
        raise ParseError(f"strategy {name!r} plays the {strategy.side}, not the {side}")
    return strategy


def _build_strategy(spec_text, side, game, g, r, k, ns):
    plain = _plain(g)
    parts = spec_text.split(":")
    name = parts[0]
    if name == "solver-witness":
        sol = _play(game, g, r, k)
        return sol.witness_pursuer if side == "pursuer" else sol.witness_evader
    if name == "identity":
        return games.IdentityFlipper(plain.n)
    if name == "random":
        seed = _parse_int(parts[1], "a random strategy's seed") if len(parts) > 1 else ns.seed
        return games.RandomFlipper(plain.n, k, seed)
    if name == "hideout":
        return certs.HideoutRunner(plain, _certificate_of(ns, "flip_hideout", plain.n))
    if name == "richdivision":
        og = g if isinstance(g, OrderedGraph) else OrderedGraph(plain)
        return certs.RichDivisionRunner(og, _certificate_of(ns, "rich_division", plain.n))
    if name == "btww":
        _, cs = twinwidth.tww_exact_small(plain)
        return twinwidth.TwinWidthFlipper(plain, cs, r)
    if name == "order-cops":
        _, order = params.degeneracy(plain)
        return certs.OrderCops(plain, order.permutation, r)
    if name == "halfgraph":
        return games.HalfGraphFlipper(plain.n // 2)
    raise ParseError(f"unknown strategy spec {spec_text!r}")


def cmd_duel(ns):
    g = _load_graph(ns)
    pursuer = _strategy(ns.pursuer, "pursuer", ns.game, g, ns.r, ns.k, ns)
    evader = _strategy(ns.evader, "evader", ns.game, g, ns.r, ns.k, ns)
    left_mask = _bipartite_args(g)[1] if ns.game == "bipartite" else None
    trace = games.simulate_match(ns.game, _plain(g), ns.r, ns.k, pursuer, evader,
                                 ns.max_rounds, left_mask=left_mask)
    _emit(ns, trace.to_json())
    return 0


def cmd_approx(ns):
    g = _plain(_load_graph(ns))
    verdict = games.approx_flip_width(g, ns.r, ns.k)
    _emit(ns, verdict.to_json())
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParseError (exit 3), not
    argparse's SystemExit(2), which would read as "limit exceeded".  The
    subparsers inherit the class."""

    def error(self, message):
        raise ParseError(f"{message}\n{self.format_usage().rstrip()}")


@functools.cache
def build_parser():
    """The `flipwidth` argument parser, built once: parsing leaves it as it is."""
    top = _Parser(
        prog="flipwidth",
        description="flip-width / cop-width games, width parameters, certificates")
    top.add_argument("--format", choices=("json", "tsv"), default="json")
    top.add_argument("--seed", type=int, default=DEFAULT_SEED)
    top.add_argument("--timeout", type=float, default=None,
                     help="abort after this many seconds")
    sub = top.add_subparsers(dest="command", required=True)

    def add_graph_opts(p):
        p.add_argument("graph", nargs="?", default="-",
                       help="edge-list/graph6 file, or '-' for stdin")
        p.add_argument("--family", help="inline generator, e.g. clique:5, half:6")

    p = sub.add_parser("gen", help="generate a graph family")
    p.add_argument("--family", required=True)
    p.add_argument("--out-format", choices=("edge-list", "graph6"),
                   default="edge-list")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("param", help="classical width parameters")
    add_graph_opts(p)
    p.add_argument("parameter")
    p.add_argument("--r", type=_parse_radius, default=1)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--set", help="vertex set for cutrank, comma separated")
    p.add_argument("--m", type=int, default=3, help="argument for shatter")
    p.set_defaults(fn=cmd_param)

    p = sub.add_parser("game", help="exact game solving")
    add_graph_opts(p)
    p.add_argument("game", choices=tuple(_GAMES))
    p.add_argument("--r", type=_parse_radius, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--value", action="store_true",
                   help="search the least winning width")
    p.add_argument("--witness", action="store_true",
                   help="dump the witness strategy table")
    p.add_argument("--max-n", type=int, default=None, dest="max_n",
                   help="replace the default vertex bound of the flip, ordered, "
                        "bipartite and cop games; cap n in dfw")
    p.set_defaults(fn=cmd_game)

    p = sub.add_parser("certify", help="verify a certificate")
    add_graph_opts(p)
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("duel", help="strategy-vs-strategy simulation")
    add_graph_opts(p)
    p.add_argument("--game", required=True, choices=tuple(_GAMES))
    p.add_argument("--r", type=_parse_radius, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pursuer", required=True)
    p.add_argument("--evader", required=True)
    p.add_argument("--max-rounds", type=int, default=100)
    p.add_argument("--certificate", help="certificate JSON for certificate strategies")
    p.set_defaults(fn=cmd_duel)

    p = sub.add_parser("approx", help="definable-game approximation verdict")
    add_graph_opts(p)
    p.add_argument("--r", type=_parse_finite_radius, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_approx)

    return top


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
        with _timeout(ns.timeout, ns.command):
            return ns.fn(ns)
    except LimitExceeded as e:
        print(f"limit exceeded: {e}", file=sys.stderr)
        return 2
    except (ParseError, GenerationError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 4
    except (IllegalMoveError, CertificateInvalid) as e:
        print(f"illegal move: {e}", file=sys.stderr)
        return 5
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
