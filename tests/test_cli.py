import argparse
import contextlib
import io
import json
import signal
import subprocess
import sys

import pytest
from test_cli_pins import C6_SIDES, P20_SIDES

from flipwidth import cli


def run_cli(*args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "flipwidth.cli", *args],
                          input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_gen_edge_list():
    rc, out, _ = run_cli("gen", "--family", "clique:3")
    assert rc == 0
    assert out == "3 3\n0 1\n0 2\n1 2\n"


def test_gen_graph6_byte_stable():
    rc1, out1, _ = run_cli("gen", "--family", "half:4", "--out-format", "graph6")
    rc2, out2, _ = run_cli("gen", "--family", "half:4", "--out-format", "graph6")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_gen_pattern_size():
    rc, out, _ = run_cli("gen", "--family", "pattern:4:eq")
    assert rc == 0
    assert out.splitlines()[0] == "32 16"


def test_param_degeneracy_petersen():
    rc, out, _ = run_cli("param", "--family", "petersen", "degeneracy")
    assert rc == 0
    obj = json.loads(out)
    assert obj["value"] == 3


def test_param_treewidth_clique():
    rc, out, _ = run_cli("param", "--family", "clique:5", "treewidth")
    assert rc == 0
    assert json.loads(out)["value"] == 4


def test_param_wcol_stdin_p5():
    graph = "5 4\n0 1\n1 2\n2 3\n3 4\n"
    rc, out, _ = run_cli("param", "-", "wcol", "--r", "2", "--mode", "exact",
                         stdin=graph)
    assert rc == 0
    obj = json.loads(out)
    assert obj["value"] == 2
    assert "order" in obj["witness"]


def test_param_unknown_exit3():
    rc, _, err = run_cli("param", "--family", "clique:3", "nonsense")
    assert rc == 3


def test_game_cop_value():
    rc, out, _ = run_cli("game", "--family", "clique:5", "cop", "--r", "1",
                         "--value")
    assert rc == 0
    assert json.loads(out)["value"] == 5


def test_game_value_honours_max_n():
    rc, out, err = run_cli("game", "--family", "gnp:8:0.5:5", "flip", "--r", "inf",
                           "--value", "--max-n", "8")
    assert rc == 0, err
    assert json.loads(out)["value"] == 4


def test_game_flip_halfgraph_k3():
    rc, out, _ = run_cli("game", "--family", "half:6", "flip", "--r", "inf",
                         "--k", "3", "--max-n", "12")
    assert rc == 0
    assert json.loads(out)["winner"] == "flipper"


def test_game_dfw_matches_approx():
    rc1, out1, _ = run_cli("game", "--family", "path:4", "dfw", "--r", "1",
                           "--k", "1")
    rc2, out2, _ = run_cli("approx", "--family", "path:4", "--r", "1", "--k", "1")
    assert rc1 == rc2 == 0
    dfw_win = json.loads(out1)["winner"] == "flipper"
    verdict = json.loads(out2)["verdict"]
    assert (verdict == "UPPER") == dfw_win


def test_game_limit_exit2():
    rc, _, err = run_cli("game", "--family", "half:6", "flip", "--r", "inf",
                         "--k", "3")
    assert rc == 2
    assert "limit" in err


def test_parse_error_exit3():
    rc, _, err = run_cli("param", "-", "degeneracy", stdin="2 1\n0 0\n")
    assert rc == 3


def test_certify_subdivision_hideout(tmp_path):
    cert = {"kind": "flip_hideout", "U": [0, 1, 2, 3, 4], "r": 2, "k": 1, "d": 1}
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    rc, out, _ = run_cli("certify", "--family", "sub:clique:5:1", str(cert_file))
    assert rc == 0
    obj = json.loads(out)
    assert obj["valid"] is True
    assert obj["mode"] == "exhaustive"


def test_certify_schema_error_exit4(tmp_path):
    cert_file = tmp_path / "bad.json"
    cert_file.write_text(json.dumps({"kind": "mystery"}))
    rc, _, err = run_cli("certify", "--family", "clique:3", str(cert_file))
    assert rc == 4


def test_certify_well_linked_reads_k(tmp_path):
    """A well-linked U certifies at width k only when |U| > 3k, the rule by
    which well_linked_to_hideout turns it into a hideout."""
    for k, valid in ((9, False), (1, True)):
        cert_file = tmp_path / f"well_linked_{k}.json"
        cert_file.write_text(json.dumps({"kind": "well_linked", "U": [0, 1, 2, 3], "k": k}))
        rc, out, _ = run_cli("certify", "--family", "cycle:5", str(cert_file))
        assert rc == 0
        assert out == f'{{"kind":"well_linked","mode":"exhaustive","valid":{str(valid).lower()}}}\n'


def test_certify_schema_error_names_the_field(tmp_path):
    """A malformed count or vertex exits 4 with the name of its field."""
    for cert, message in (
            ({"kind": "order", "order": [0, 1, 2], "r": 2.7, "k": 1},
             "r: expected a nonnegative integer, got 2.7"),
            ({"kind": "cops_hideout", "U": [0, -1], "r": 1, "k": 1},
             "U: expected a nonnegative integer, got -1"),
            ({"kind": "contraction_sequence", "merges": [[0, 1], [0, "2"]]},
             "merges: expected a nonnegative integer, got '2'")):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert))
        rc, out, err = run_cli("certify", "--family", "path:3", str(cert_file))
        assert (rc, out) == (4, "")
        assert message in err


def test_certify_rich_division(tmp_path):
    rc, out, _ = run_cli("gen", "--family", "pattern:4:eq")
    from flipwidth.certificates import pattern_rich_division
    from flipwidth.graphs import generate
    cert = pattern_rich_division(generate("s_pattern", 4, "eq"), 4)
    cert_file = tmp_path / "rich.json"
    cert_file.write_text(json.dumps(cert.to_json()))
    rc, out, _ = run_cli("certify", "--family", "pattern:4:eq", str(cert_file))
    assert rc == 0
    assert json.loads(out)["valid"] is True


def test_duel_identity_flipper_survives():
    rc, out, _ = run_cli("duel", "--family", "cycle:4", "--game", "flip",
                         "--r", "1", "--k", "1", "--pursuer", "identity",
                         "--evader", "solver-witness", "--max-rounds", "12")
    assert rc == 0
    obj = json.loads(out)
    assert obj["outcome"] == "EVADER_SURVIVES"


def test_duel_solver_witness_wins():
    rc, out, _ = run_cli("duel", "--family", "clique:4", "--game", "flip",
                         "--r", "inf", "--k", "1", "--pursuer", "solver-witness",
                         "--evader", "solver-witness", "--max-rounds", "10")
    assert rc == 0
    obj = json.loads(out)
    assert obj["outcome"] == "PURSUER_WINS"
    assert obj["rounds"] == 1


def test_duel_hideout_survives(tmp_path):
    cert = {"kind": "flip_hideout", "U": [0, 1, 2, 3, 4], "r": 2, "k": 1, "d": 1}
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    rc, out, _ = run_cli("duel", "--family", "sub:clique:5:1", "--game", "flip",
                         "--r", "2", "--k", "1", "--pursuer", "random:5",
                         "--evader", "hideout", "--certificate", str(cert_file),
                         "--max-rounds", "40")
    assert rc == 0
    assert json.loads(out)["outcome"] == "EVADER_SURVIVES"


def test_duel_outputs_byte_stable():
    args = ("duel", "--family", "cycle:5", "--game", "flip", "--r", "1",
            "--k", "2", "--pursuer", "random:7", "--evader", "solver-witness",
            "--max-rounds", "6")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_tsv_format():
    rc, out, _ = run_cli("--format", "tsv", "param", "--family", "clique:4",
                         "treewidth")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["parameter", "value"]
    assert lines[1].split("\t") == ["treewidth", "3"]


def test_approx_k8_upper():
    rc, out, _ = run_cli("approx", "--family", "clique:8", "--r", "1", "--k", "1")
    assert rc == 0
    obj = json.loads(out)
    assert obj["verdict"] == "UPPER"


def test_gen_roundtrip_through_cli():
    rc, out, _ = run_cli("gen", "--family", "gnp:7:0.5:3", "--out-format", "graph6")
    assert rc == 0
    rc2, out2, _ = run_cli("param", "-", "degeneracy", stdin=out)
    assert rc2 == 0
    json.loads(out2)


def test_certify_contraction_sequence(tmp_path):
    from flipwidth.graphs import generate
    from flipwidth.twinwidth import tww_exact_small
    value, cs = tww_exact_small(generate("cycle", 6))
    cert_file = tmp_path / "seq.json"
    blob = dict(cs.to_json())
    blob["kind"] = "contraction_sequence"
    cert_file.write_text(json.dumps(blob))
    rc, out, _ = run_cli("certify", "--family", "cycle:6", str(cert_file))
    assert rc == 0
    obj = json.loads(out)
    assert obj["valid"] is True
    assert obj["width"] == value == 2


def test_duel_richdivision_survives(tmp_path):
    from flipwidth.certificates import pattern_rich_division
    from flipwidth.graphs import generate
    cert = pattern_rich_division(generate("s_pattern", 4, "eq"), 4)
    cert_file = tmp_path / "rich.json"
    cert_file.write_text(json.dumps(cert.to_json()))
    rc, out, _ = run_cli("duel", "--family", "pattern:4:eq", "--game", "ordered",
                         "--r", "1", "--k", "1", "--pursuer", "solver-witness",
                         "--evader", "richdivision", "--certificate",
                         str(cert_file), "--max-rounds", "50")
    assert rc == 0
    assert json.loads(out)["outcome"] == "EVADER_SURVIVES"


def test_cli_timeout_exit2():
    rc, _, err = run_cli("--timeout", "0.05", "game", "--family", "half:6",
                         "flip", "--r", "inf", "--k", "3", "--max-n", "12")
    assert rc == 2
    assert "timeout after 0.05s in game" in err


@pytest.mark.parametrize("game,value", [("flip", 1), ("cop", 1), ("copprime", 1),
                                        ("isolation", 1), ("ordered", 1), ("dfw", 0)])
def test_game_value_on_the_empty_graph(game, value):
    rc, out, err = run_cli("game", "-", game, "--r", "1", "--value", stdin="0 0\n")
    assert (rc, err) == (0, "")
    assert json.loads(out)["value"] == value


# certificate files the cases below name as {name}
CERTIFICATES = {
    "hideout": {"kind": "flip_hideout", "U": [0, 1, 2, 3, 4], "r": 2, "k": 1, "d": 1},
    "hideout_on_path3": {"kind": "flip_hideout", "U": [0, 1, 2], "r": 1, "k": 1, "d": 1},
    "hideout_vertex_9": {"kind": "flip_hideout", "U": [0, 9], "r": 1, "k": 1, "d": 0},
    "hideout_u_text": {"kind": "flip_hideout", "U": "ab", "r": 1, "k": 1, "d": 0},
    "order_vertex_5": {"kind": "order", "order": [0, 5], "r": 1, "k": 1},
    "division_short_interval": {"kind": "rich_division", "L": [[0]], "R": [[0, 2]], "k": 1},
    "sequence_short_merge": {"kind": "contraction_sequence", "merges": [[0]]},
    "sequence_empty": {"kind": "contraction_sequence", "merges": []},
    "sequence_partial": {"kind": "contraction_sequence", "merges": [[0, 1]]},
    "sequence_vertex_9": {"kind": "contraction_sequence", "merges": [[0, 9], [0, 1]]},
    "sequence_float_vertex": {"kind": "contraction_sequence", "merges": [[0, 1.0], [0, 2]]},
    "order_empty": {"kind": "order", "order": [], "r": 1, "k": 1},
    "order_one_vertex": {"kind": "order", "order": [0], "r": 1, "k": 1},
    "order_repeated_vertex": {"kind": "order", "order": [0, 1, 1, 2], "r": 1, "k": 1},
    "cops_hideout_float_r": {"kind": "cops_hideout", "U": [0, 1, 2], "r": 1.5, "k": 1},
    "cops_hideout_text_k": {"kind": "cops_hideout", "U": [0, 1, 2], "r": 1, "k": "2"},
    "cops_hideout_negative_k": {"kind": "cops_hideout", "U": [0, 1, 2], "r": 1, "k": -1},
    "hideout_bool_d": {"kind": "flip_hideout", "U": [0, 1, 2], "r": 1, "k": 1, "d": True},
    "kind_list": {"kind": ["order"]},
    "order": {"kind": "order", "order": [0, 1, 2], "r": 1, "k": 1},
    "cops_hideout": {"kind": "cops_hideout", "U": [0, 1], "r": 1, "k": 1},
    "well_linked": {"kind": "well_linked", "U": [0, 1], "k": 1},
    "division": {"kind": "rich_division", "L": [[0, 2]], "R": [[0, 2]], "k": 1},
}


def _duel(game, evader, cert):
    return ["duel", "--family", "path:3", "--game", game, "--r", "1", "--k", "1",
            "--pursuer", "identity", "--evader", evader, "--certificate", "{" + cert + "}"]


# (id, argv, exit code): malformed certificates and certificates of the wrong kind
CERTIFICATE_CASES = [
    (f"certify-{cert}", ["certify", "--family", "path:3", "{" + cert + "}"], 4)
    for cert in ("hideout_vertex_9", "hideout_u_text", "order_vertex_5",
                 "division_short_interval", "sequence_short_merge", "sequence_empty",
                 "sequence_partial", "sequence_vertex_9", "sequence_float_vertex",
                 "order_empty", "order_one_vertex", "order_repeated_vertex",
                 "cops_hideout_float_r", "cops_hideout_text_k", "cops_hideout_negative_k",
                 "hideout_bool_d", "kind_list")
] + [
    (f"duel-hideout-{cert}", _duel("flip", "hideout", cert), 4)
    for cert in ("hideout_vertex_9", "hideout_u_text", "order", "cops_hideout",
                 "well_linked", "division")
] + [
    ("duel-richdivision-division_short_interval",
     _duel("ordered", "richdivision", "division_short_interval"), 4),
    ("duel-richdivision-hideout", _duel("ordered", "richdivision", "hideout"), 4),
]

# (id, argv) exiting 3: strategies in the wrong role or game, cutrank vertices
# outside the graph
ROLE_CASES = [
    (f"duel-{name}-as-evader",
     ["duel", "--family", "path:3", "--game", "flip", "--r", "1", "--k", "1",
      "--pursuer", "solver-witness", "--evader", name])
    for name in ("identity", "random", "btww", "order-cops", "halfgraph")
] + [
    ("duel-hideout-as-pursuer",
     ["duel", "--family", "path:3", "--game", "flip", "--r", "1", "--k", "1",
      "--pursuer", "hideout", "--evader", "solver-witness",
      "--certificate", "{hideout_on_path3}"]),
    ("duel-richdivision-as-pursuer",
     ["duel", "--family", "path:3", "--game", "ordered", "--r", "1", "--k", "1",
      "--pursuer", "richdivision", "--evader", "solver-witness",
      "--certificate", "{division}"]),
    ("duel-hideout-in-the-cop-game", _duel("cop", "hideout", "hideout")),
    ("cutrank-set-vertex-7", ["param", "--family", "path:3", "cutrank", "--set", "7"]),
    ("cutrank-set-vertex-negative", ["param", "--family", "path:3", "cutrank", "--set=-1"]),
]


@pytest.mark.parametrize("argv,stdin,code", [
    (["param", "--family", "clique:abc", "degeneracy"], None, 3),
    (["param", "--family", "gnp:8", "degeneracy"], None, 3),
    (["param", "--family", "petersen:3", "degeneracy"], None, 3),
    (["param", "{missing}", "degeneracy"], None, 3),
    (["param", "-", "degeneracy"], "2 0\nc x 1\n", 3),
    (["certify", "--family", "clique:3", "{bad_json}"], None, 4),
    (["certify", "--family", "clique:3", "{missing}"], None, 3),
    (["duel", "--family", "clique:3", "--game", "flip", "--r", "1", "--k", "1",
      "--pursuer", "identity", "--evader", "hideout", "--certificate", "{bad_json}"],
     None, 4),
    (["duel", "--family", "clique:3", "--game", "flip", "--r", "1", "--k", "1",
      "--pursuer", "random:abc", "--evader", "solver-witness"], None, 3),
    (["param", "--family", "clique:3", "cutrank", "--set", "0,a"], None, 3),
    (["duel", "--family", "clique:3", "--game", "flip", "--r", "1", "--k", "1",
      "--pursuer", "identity", "--evader", "hideout"], None, 3),
    (["duel", "--family", "clique:3", "--game", "ordered", "--r", "1", "--k", "1",
      "--pursuer", "solver-witness", "--evader", "richdivision"], None, 3),
    (["duel", "-", "--game", "copprime", "--r", "1", "--k", "1",
      "--pursuer", "solver-witness", "--evader", "solver-witness"], "0 0\n", 5),
    (["game", "-", "bipartite", "--r", "1", "--k", "0"], C6_SIDES, 3),
    (["duel", "-", "--game", "bipartite", "--r", "1", "--k", "0",
      "--pursuer", "solver-witness", "--evader", "solver-witness"], C6_SIDES, 3),
    (["duel", "--family", "cycle:5", "--game", "flip", "--r", "1", "--k", "0",
      "--pursuer", "random:3", "--evader", "hideout", "--certificate", "{hideout}"],
     None, 3),
    (["param", "-", "degeneracy", "--set", "-1,-1"], "2 0\n", 3),
    (["game", "--family", "clique:3", "flip", "--r", "1", "--k", "abc"], None, 3),
    (["approx", "--family", "clique:3", "--r", "-1", "--k", "1"], None, 3),
    (["approx", "--family", "clique:3", "--r", "inf", "--k", "1"], None, 3),
    (["certify", "--family", "path:5", "{hideout}", "--mode", "sampled", "--trials", "0"],
     None, 3),
    (["certify", "--family", "path:5", "{hideout}", "--mode", "sampled", "--trials=-1"],
     None, 3),
    (["certify", "--family", "path:3", "{well_linked}", "--mode", "sampled", "--trials", "0"],
     None, 3),
    (["duel", "--family", "path:3", "--game", "flip", "--r", "1", "--k", "1",
      "--pursuer", "identity", "--evader", "solver-witness", "--max-rounds=-5"], None, 3),
    (["param", "--family", "path:3", "shatter", "--m=-1"], None, 3),
    (["duel", "--family", "path:4", "--game", "cop", "--r", "inf", "--k", "2",
      "--pursuer", "order-cops", "--evader", "solver-witness"], None, 3),
    (["duel", "--family", "path:4", "--game", "ordered", "--r", "1", "--k", "2",
      "--pursuer", "order-cops", "--evader", "solver-witness"], None, 3),
    (["gen", "--family", "gnp:5:1.5"], None, 3),
    (["gen", "--family", "gnp:5:nan"], None, 3),
] + [(argv, None, code) for _, argv, code in CERTIFICATE_CASES]
  + [(argv, None, 3) for _, argv in ROLE_CASES], ids=["family-arg-type", "family-arg-missing", "family-arg-extra", "graph-file-missing",
        "colour-line", "certificate-not-json", "certificate-missing",
        "duel-certificate-not-json", "strategy-arg-type", "cutrank-set-type",
        "duel-hideout-no-certificate", "duel-richdivision-no-certificate",
        "duel-copprime-empty-graph", "bipartite-width-0", "duel-bipartite-width-0",
        "duel-random-width-0", "usage-error-option-value", "usage-error-int-type",
        "approx-negative-radius", "approx-radius-inf", "hideout-sampled-trials-0",
        "hideout-sampled-trials-negative", "well-linked-sampled-trials-0",
        "duel-negative-max-rounds", "shatter-negative-m", "duel-order-cops-radius-inf",
        "duel-order-cops-ordered-game", "gnp-probability-above-1", "gnp-probability-nan"]
    + [case_id for case_id, _, _ in CERTIFICATE_CASES]
    + [case_id for case_id, _ in ROLE_CASES])
def test_malformed_input_exit_code(tmp_path, argv, stdin, code):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    paths = {"{missing}": str(tmp_path / "missing"), "{bad_json}": str(bad_json)}
    for name, cert in CERTIFICATES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cert))
        paths["{" + name + "}"] = str(path)
    rc, out, err = run_cli(*[paths.get(a, a) for a in argv], stdin=stdin)
    assert (rc, out) == (code, "")
    assert "Traceback" not in err and err.strip()
    if argv[-1] in ("hideout", "richdivision"):
        assert "--certificate" in err


# every strategy spec `duel` takes: (spec, game, side, certificate)
DUEL_SPECS = [
    ("solver-witness", "flip", "pursuer", None),
    ("solver-witness", "flip", "evader", None),
    ("identity", "flip", "pursuer", None),
    ("random:1", "flip", "pursuer", None),
    ("btww", "flip", "pursuer", None),
    ("order-cops", "cop", "pursuer", None),
    ("halfgraph", "flip", "pursuer", None),
    ("hideout", "flip", "evader", "hideout_on_path3"),
    ("richdivision", "ordered", "evader", "division"),
]


def test_every_policy_is_a_pursuer_or_an_evader(tmp_path):
    from flipwidth import certificates, games, transfer, twinwidth
    from flipwidth.flips import Partition
    from flipwidth.graphs import ColoredGraph, OrderedGraph, generate
    g = generate("path", 3)
    identity = games.IdentityFlipper(3)
    flip_map = transfer.FlipMap(ColoredGraph(g, [1] * 3), transfer.parse_formula("!E(x,y)"))
    policies = [
        (certificates.HideoutRunner(g, certificates.certificate_from_json(
            CERTIFICATES["hideout_on_path3"], 3)), games.Evader),
        (certificates.AdmissibilityRobber([0, 1]), games.Evader),
        (certificates.RichDivisionRunner(OrderedGraph(g), certificates.certificate_from_json(
            CERTIFICATES["division"], 3)), games.Evader),
        (certificates.OrderCops(g, (0, 1, 2), 1), games.Pursuer),
        (transfer.TransferredFlipper(flip_map, identity, 1), games.Pursuer),
        (transfer.ModularLiftFlipper(g, Partition([0, 1, 2]), identity,
                                     {v: games.IdentityFlipper(1) for v in range(3)}),
         games.Pursuer),
        (twinwidth.TwinWidthFlipper(g, twinwidth.tww_exact_small(g)[1], 1), games.Pursuer),
    ]
    for policy, base in policies:
        # the base class states the side; no policy restates it
        assert isinstance(policy, base) and "side" not in vars(type(policy))
        assert policy.side == base.side
    for spec, game, side, cert in DUEL_SPECS:
        path = None
        if cert is not None:
            path = tmp_path / f"{cert}.json"
            path.write_text(json.dumps(CERTIFICATES[cert]))
        ns = argparse.Namespace(seed=0, certificate=path and str(path))
        policy = cli._build_strategy(spec, side, game, g, 1, 1, ns)
        assert isinstance(policy, games.Pursuer if side == "pursuer" else games.Evader), spec
        assert policy.side == side, spec


@pytest.mark.parametrize("game", ["flip", "dfw", "bipartite", "ordered"])
def test_more_than_64_vertices_exit_2_naming_the_bound(game):
    path65 = ("65 64\n" + "".join(f"{v} {v + 1}\n" for v in range(64))
              + "".join(f"c {v} {1 + v % 2}\n" for v in range(65)))
    rc, out, err = run_cli("game", "-", game, "--r", "1", "--k", "1", "--max-n", "65",
                           stdin=path65)
    assert (rc, out) == (2, "")
    assert "bound of 64 vertices" in err


@pytest.mark.parametrize("k, bound", [(2, 12), (3, 8)])
def test_bipartite_p20_sides_exit_2_at_once(k, bound):
    """P20's sides give 4,182,026 raw bipartite flips at k=2 and about
    4.5e10 at k=3, over the work limit, so the vertex bound of the width
    applies; the timeout would exit 2 as well, but names itself."""
    rc, out, err = run_cli("--timeout", "8", "game", "-", "bipartite", "--r", "1",
                           "--k", str(k), stdin=P20_SIDES)
    assert (rc, out) == (2, "")
    assert f"enumerate_bipartite_flips at k={k}: n=20 exceeds the configured bound {bound}" in err


@pytest.mark.parametrize("argv, stdin, what, n", [
    (["gen", "--family", "path:4097"], None, "path", 4097),
    (["gen", "--family", "half:2049"], None, "half_graph", 4098),
    (["gen", "--family", "grid:65:64"], None, "grid", 4160),
    (["gen", "--family", "pattern:46:eq"], None, "s_pattern", 4232),
    (["gen", "--family", "gf2:12"], None, "gf2_dot_product", 8192),
    (["param", "-", "degeneracy"], "4097 0\n", "Graph", 4097),
], ids=["path", "half", "grid", "pattern", "gf2", "edge-list-header"])
def test_graphs_over_4096_vertices_exit_2_naming_the_bound(argv, stdin, what, n):
    rc, out, err = run_cli(*argv, stdin=stdin)
    assert (rc, out) == (2, "")
    assert f"{what}: n={n} exceeds the configured bound 4096" in err


def test_dfw_honours_max_n():
    rc, out, err = run_cli("game", "--family", "path:20", "dfw", "--r", "1", "--k", "2",
                           "--max-n", "3")
    assert (rc, out) == (2, "")
    assert "enumerate_definable_flips: n=20 exceeds the configured bound 3" in err


def test_limit_exit_2_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-m", "flipwidth.cli", "param", "--family",
                           "clique:13", "treewidth"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "treewidth_small: n=13 exceeds the configured bound 12" in proc.stderr


def test_timeout_does_not_outlive_main():
    """The alarm --timeout sets is disarmed, and the SIGALRM handler put
    back, when cli.main returns."""
    previous = signal.getsignal(signal.SIGALRM)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--timeout", "0.5", "game", "--family", "clique:3", "flip",
                             "--r", "1", "--k", "1"]) == 0
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
