"""Byte-for-byte pins of `flipwidth param` output.

Each case runs `cli.main` in-process on one small fixed graph and compares
stdout and the exit code with tests/fixtures/param_pins.json: values,
witness orders, rank-width trees and the exit code of a refused size.  The
fixture records what the parameter oracles printed before their placement
costs and subset DPs were merged, so a refactor of them must leave every
byte unchanged.

The fixture is written by `python tests/test_param_pins.py` (with `src` on
PYTHONPATH).  Regenerate it only for a deliberate change of output, never to
make this test pass.
"""

import json
from pathlib import Path

import pytest

from test_cli_pins import C5, P5, run_main

FIXTURE = Path(__file__).parent / "fixtures" / "param_pins.json"

GRAPHS = {"C5": (["-"], C5), "P5": (["-"], P5),
          **{family: (["--family", family], "")
             for family in ("petersen", "gnp:8:0.5:3", "half:4")}}


def _cases():
    argvs = [["degeneracy"], ["treewidth"], ["rankwidth"], ["cutrank", "--set", "0,1,2"]]
    for name in ("wcol", "scol", "adm"):
        for r in ("1", "2"):
            for mode in ("exact", "greedy"):
                argvs.append([name, "--r", r, "--mode", mode])
    return [(graph, ["param"] + source + argv, stdin_text)
            for graph, (source, stdin_text) in GRAPHS.items() for argv in argvs]


CASES = _cases()


def case_id(graph, argv):
    return graph + " " + " ".join(argv)


@pytest.fixture(scope="module")
def pins():
    return {p["id"]: p for p in json.loads(FIXTURE.read_text())}


@pytest.mark.parametrize("graph,argv,stdin_text", CASES,
                         ids=[case_id(g, a) for g, a, _ in CASES])
def test_param_output_is_pinned(pins, graph, argv, stdin_text):
    want = pins[case_id(graph, argv)]
    code, out = run_main(argv, stdin_text)
    assert code == want["exit"]
    assert out == want["stdout"]


def test_fixture_covers_every_case(pins):
    assert sorted(pins) == sorted(case_id(g, a) for g, a, _ in CASES)


if __name__ == "__main__":
    pinned = []
    for graph, argv, stdin_text in CASES:
        code, out = run_main(argv, stdin_text)
        pinned.append({"id": case_id(graph, argv), "exit": code, "stdout": out})
    FIXTURE.write_text(json.dumps(pinned, indent=1) + "\n")
