"""Exit-code fuzzing of the CLI: every command ends in a published exit code.

A derandomized hypothesis test draws argv from a grammar that covers every
subcommand, game, strategy spec and certificate kind, with numbers both in
and out of range and certificate fields both well and badly shaped, on
graphs with at most four vertices and widths at most 2.  It runs `cli.main`
in-process and asserts that the exit code is 0, 2, 3, 4 or 5 and that no
exception escapes.  The argv always parses.  Usage errors also exit 3,
through ParseError; test_cli.py's test_malformed_input_exit_code covers
them.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flipwidth import cli

GAMES = ["flip", "cop", "copprime", "isolation", "dfw", "ordered", "bipartite"]
STRATEGIES = ["solver-witness", "identity", "random", "random:3", "random:-1",
              "hideout", "richdivision", "btww", "order-cops", "halfgraph"]
PARAMETERS = ["degeneracy", "treewidth", "wcol", "scol", "adm", "cutrank", "rankwidth",
              "vc", "2vc", "neartwin", "sd", "fun", "shatter", "twinwidth"]
KINDS = ["flip_hideout", "cops_hideout", "rich_division", "well_linked", "order",
         "contraction_sequence"]

RADII = st.sampled_from(["0", "1", "2", "inf", "-1", "9"])
INT_RADII = st.sampled_from(["-1", "0", "1", "2"])
WIDTHS = st.sampled_from(["-1", "0", "1", "2"])
COUNTS = st.sampled_from(["-1", "0", "1", "3", "65"])
FAMILIES = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["clique", "path", "cycle", "edgeless"]),
              st.integers(-1, 4)),
    st.sampled_from(["half:2", "half:1:strict", "gnp:4:0.5", "gnp:4:0.5:7", "regular:4:2",
                     "treecomp:0-0-1", "sub:path:2:1", "pattern:1:eq", "grid:2:2",
                     "clique", "nonsense:3"]))


@st.composite
def edge_lists(draw):
    """Edge-list text on at most four vertices, its edges sometimes naming a
    missing vertex, and its vertices sometimes coloured."""
    n = draw(st.integers(0, 4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)] + [(0, 5)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    colours = draw(st.sampled_from([0, 2, 3]))
    if colours:
        text += "".join(f"c {v} {1 + v % colours}\n" for v in range(n))
    return text


# a graph is ([argv naming it], stdin text)
GRAPHS = st.one_of(edge_lists().map(lambda text: (["-"], text)),
                   FAMILIES.map(lambda family: (["--family", family], "")))

VERTEX_LISTS = st.one_of(st.lists(st.integers(-1, 5), max_size=5, unique=True),
                         st.sampled_from(["ab", [[0]], None, [True], [0, 1.0]]))
INTERVALS = st.one_of(st.lists(st.lists(st.integers(-1, 5), min_size=0, max_size=3),
                               max_size=4),
                      st.sampled_from(["x", [[0, "a"]]]))
FIELDS = {
    "U": VERTEX_LISTS, "order": VERTEX_LISTS, "L": INTERVALS, "R": INTERVALS,
    "r": st.sampled_from([0, 1, 2, "inf", -1, "x", 1.5, True, "2"]),
    "k": st.sampled_from([-1, 0, 1, 2, 3, 9, 1.5, True, "2"]),
    "d": st.sampled_from([-1, 0, 1, 2, 1.5, True, "2"]),
    "merges": st.lists(st.lists(st.integers(-1, 5), max_size=3), max_size=4),
}
KIND_FIELDS = {"flip_hideout": "U r k d", "cops_hideout": "U r k", "rich_division": "L R k",
               "well_linked": "U k", "order": "order r k", "contraction_sequence": "merges"}


@st.composite
def certificates(draw):
    """Certificate JSON text of every kind, a field sometimes left out, or
    text that is no certificate at all."""
    kind = draw(st.sampled_from(KINDS + ["unknown"]))
    obj = {"kind": kind}
    for field in KIND_FIELDS.get(kind, "U").split():
        if draw(st.integers(0, 9)):
            obj[field] = draw(FIELDS[field])
    return json.dumps(obj) if draw(st.integers(0, 5)) else draw(st.sampled_from(
        ["[1, 2]", "{not json"]))


def top_options(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "tsv"]))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["-1", "0", "7"]))]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--timeout", draw(st.sampled_from(["60", "-1", "nan", "1e300"]))]
    return argv


@st.composite
def commands(draw):
    """(argv, stdin text, certificate text or None): argv names the
    certificate file as CERT."""
    argv = top_options(draw)
    graph, stdin = draw(GRAPHS)
    # certificates have the most fields to get wrong: certify and duel come twice
    command = draw(st.sampled_from(["gen", "param", "game", "certify", "certify", "duel",
                                    "duel", "approx"]))
    cert = None
    if command == "gen":
        argv += ["gen", "--family", draw(FAMILIES),
                 "--out-format", draw(st.sampled_from(["edge-list", "graph6"]))]
        stdin = ""
    elif command == "param":
        argv += ["param", *graph, draw(st.sampled_from(PARAMETERS)), "--r", draw(RADII),
                 "--mode", draw(st.sampled_from(["exact", "greedy"])),
                 "--m", draw(COUNTS)]
        if draw(st.booleans()):
            # one word, since argparse takes "-1,2" for an option
            argv += ["--set=" + ",".join(draw(st.lists(st.sampled_from(
                ["-1", "0", "1", "2", "3", "7"]), min_size=1, max_size=3)))]
    elif command == "game":
        argv += ["game", *graph, draw(st.sampled_from(GAMES)), "--r", draw(RADII)]
        if draw(st.booleans()):
            argv += ["--value"]
        else:
            argv += ["--k", draw(WIDTHS)] + (["--witness"] if draw(st.booleans()) else [])
        if draw(st.booleans()):
            argv += ["--max-n", draw(COUNTS)]
    elif command == "certify":
        cert = draw(certificates())
        argv += ["certify", *graph, "CERT",
                 "--mode", draw(st.sampled_from(["exhaustive", "sampled"])),
                 "--trials", draw(COUNTS)]
    elif command == "duel":
        argv += ["duel", *graph, "--game", draw(st.sampled_from(GAMES)), "--r", draw(RADII),
                 "--k", draw(WIDTHS), "--pursuer", draw(st.sampled_from(STRATEGIES)),
                 "--evader", draw(st.sampled_from(STRATEGIES)),
                 "--max-rounds", draw(COUNTS)]
        if draw(st.booleans()):
            cert = draw(certificates())
            argv += ["--certificate", "CERT"]
    else:
        argv += ["approx", *graph, "--r", draw(INT_RADII), "--k", draw(WIDTHS)]
    return argv, stdin, cert


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.json"


@settings(derandomize=True, max_examples=600, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command=commands())
def test_every_command_ends_in_a_published_exit_code(cert_path, command):
    argv, stdin, cert = command
    if cert is not None:
        cert_path.write_text(cert)
    argv = [str(cert_path) if a == "CERT" else a for a in argv]
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 2, 3, 4, 5), argv
