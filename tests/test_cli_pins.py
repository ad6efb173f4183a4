"""Byte-for-byte pins of `flipwidth game` and `flipwidth duel` output.

Each case runs `cli.main` in-process on one small fixed graph and compares
stdout and the exit code with tests/fixtures/cli_pins.json.  The fixture
records what the solvers printed before their solve, packaging and dispatch
code was merged, so a refactor of that code must leave every byte of it
unchanged: winners, rounds, witness tables, duel traces and exit codes.

The fixture is written by `python tests/test_cli_pins.py` (with `src` on
PYTHONPATH).  Regenerate it only for a deliberate change of output, never to
make this test pass.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from flipwidth import cli

FIXTURE = Path(__file__).parent / "fixtures" / "cli_pins.json"

C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
P5 = "5 4\n0 1\n1 2\n2 3\n3 4\n"
# C6 with its two sides coloured 1 (even vertices) and 2 (odd vertices)
C6_SIDES = ("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"
            + "".join(f"c {v} {1 + v % 2}\n" for v in range(6)))
EMPTY = "0 0\n"
# the path on 20 vertices with its two sides coloured 1 (even) and 2 (odd)
P20_SIDES = ("20 19\n" + "".join(f"{v} {v + 1}\n" for v in range(19))
             + "".join(f"c {v} {1 + v % 2}\n" for v in range(20)))
# certificate files under tests/fixtures, named relative to tests/
REFUTED_HIDEOUT = "fixtures/hideout_c5_k2_refuted.json"
VALID_HIDEOUT = "fixtures/hideout_c5_k1_valid.json"


def _game_cases():
    cases = []

    def add(graph, game, r, ks, value):
        for k in ks:
            cases.append((["game", "-", game, "--r", r, "--k", str(k), "--witness"], graph))
        if value:
            cases.append((["game", "-", game, "--r", r, "--value"], graph))

    for r in ("1", "2", "inf"):
        add(C5, "flip", r, (0, 2, 3), True)
    cases.append((["game", "--family", "gnp:6:0.5:3", "flip", "--r", "inf", "--k", "2",
                   "--witness"], ""))
    add(EMPTY, "flip", "inf", (1,), False)
    for r in ("1", "inf"):
        add(C5, "dfw", r, (0, 1, 2), r == "1")
        add(C6_SIDES, "bipartite", r, (1, 2, 3), True)
        add(C5, "cop", r, (2, 3), True)
    add(C5, "bipartite", "1", (2,), False)
    add(P5, "ordered", "1", (0, 1, 2), True)
    add(P5, "ordered", "inf", (2,), False)
    add(C5, "copprime", "1", (2, 3), True)
    add(C5, "isolation", "1", (1, 2), True)
    cases.append((["--format", "tsv", "game", "-", "flip", "--r", "1", "--k", "3"], C5))
    add(EMPTY, "ordered", "1", (1,), True)
    for r in ("1", "inf"):
        for game in ("flip", "dfw", "ordered"):
            cases.append((["game", "--family", "path:20", game, "--r", r, "--k", "1",
                           "--witness"], ""))
        add(P20_SIDES, "bipartite", r, (1,), False)
    for cert in (REFUTED_HIDEOUT, VALID_HIDEOUT):
        cases.append((["certify", "-", cert], C5))
    return cases


def _duel_cases():
    def duel(graph, game, r, k, pursuer="solver-witness", evader="solver-witness"):
        return (["duel", "-", "--game", game, "--r", r, "--k", str(k),
                 "--pursuer", pursuer, "--evader", evader, "--max-rounds", "12"], graph)

    return [duel(C5, "flip", "1", 3), duel(C5, "flip", "1", 2),
            duel(C5, "flip", "inf", 3), duel(C5, "dfw", "1", 2),
            duel(C6_SIDES, "bipartite", "1", 2), duel(C6_SIDES, "bipartite", "1", 1),
            duel(C6_SIDES, "bipartite", "1", 2, pursuer="random:3"),
            duel(C5, "bipartite", "1", 2, pursuer="random:3"),
            duel(P5, "ordered", "1", 2), duel(P5, "ordered", "1", 1),
            duel(C5, "cop", "1", 3), duel(C5, "copprime", "1", 3),
            duel(C5, "isolation", "1", 2),
            # the evader survives: the solver-witness evaders outside their losses
            duel(C5, "cop", "1", 2), duel(C5, "copprime", "1", 2),
            duel(C5, "isolation", "1", 1), duel(C5, "dfw", "1", 1),
            duel(C5, "flip", "inf", 1), duel(C5, "ordered", "inf", 1),
            (["duel", "--family", "pattern:4:eq", "--game", "ordered", "--r", "1",
              "--k", "1", "--pursuer", "solver-witness", "--evader", "solver-witness",
              "--max-rounds", "12"], "")]


CASES = _game_cases() + _duel_cases()


def run_main(argv, stdin_text):
    """(exit code, stdout) of one in-process `flipwidth` command, run from
    tests/ so that certificate paths resolve."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                contextlib.chdir(Path(__file__).parent):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def case_id(argv, stdin_text):
    graph = {C5: "C5", P5: "P5", C6_SIDES: "C6sides", EMPTY: "empty",
             P20_SIDES: "P20sides", "": "family"}
    return graph[stdin_text] + " " + " ".join(argv)


@pytest.fixture(scope="module")
def pins():
    return {p["id"]: p for p in json.loads(FIXTURE.read_text())}


@pytest.mark.parametrize("argv,stdin_text", CASES,
                         ids=[case_id(a, s) for a, s in CASES])
def test_cli_output_is_pinned(pins, argv, stdin_text):
    want = pins[case_id(argv, stdin_text)]
    code, out = run_main(argv, stdin_text)
    assert code == want["exit"]
    assert out == want["stdout"]


def test_fixture_covers_every_case(pins):
    assert sorted(pins) == sorted(case_id(a, s) for a, s in CASES)


if __name__ == "__main__":
    pinned = []
    for argv, stdin_text in CASES:
        code, out = run_main(argv, stdin_text)
        pinned.append({"id": case_id(argv, stdin_text), "exit": code, "stdout": out})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(pinned, indent=1) + "\n")
