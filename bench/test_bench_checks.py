"""The benchmark's own tests: every check rejects a wrong answer, and a
reduced-size pass runs each workload once, traced, with its checks.

    python -m pytest -q bench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import networkx as nx
import pytest

import run

run.use_checkout_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from flipwidth.flips import count_raw_flips  # noqa: E402


def answers_of(wl):
    return {key: op() for key, op in wl.ops}


@pytest.fixture(scope="module")
def fw_small():
    wl = workloads.build("fw-small", 0, reduced=True)
    return wl, answers_of(wl)


@pytest.fixture(scope="module")
def flip_large():
    wl = workloads.build("flip-large", 0, reduced=True)
    return wl, answers_of(wl)


@pytest.fixture(scope="module")
def cop_params():
    wl = workloads.build("cop-params", 0, reduced=True)
    return wl, answers_of(wl)


def test_value_search_checks_pass_real_answers(fw_small):
    wl, answers = fw_small
    assert wl.check(answers) == []


@pytest.mark.parametrize("game,r", [("flip", "1"), ("flip", "inf"), ("ordered", "1")])
def test_value_search_checks_reject_value_off_by_one(fw_small, game, r):
    wl, answers = fw_small
    key = next(k for k in answers if k[1:] == (game, r))
    wrong = dict(answers)
    wrong[key] += 1
    assert wl.check(wrong)


def test_value_search_checks_reject_missing_near_twins():
    # every pair of Petersen vertices is at near-twin distance 4 > 2 * 1
    values = {("pet", "flip", r): 1 for r in ("1", "2", "inf")}
    violations = checks.check_value_searches({"pet": nx.petersen_graph()}, [], values)
    assert any("near-twin" in v for v in violations)


def test_value_search_checks_reject_dfw_bound(fw_small):
    wl, answers = fw_small
    wrong = dict(answers)
    for key in wrong:
        if key[1] == "flip":
            wrong[key] = 5
        if key[1] == "dfw":
            wrong[key] = 2
    assert any("2^dfw_1" in v for v in wl.check(wrong))


def test_certificate_check_passes_real_table(flip_large):
    wl, answers = flip_large
    assert wl.check(answers) == []


def test_certificate_check_rejects_entry_not_won_in_fewer_rounds(flip_large):
    wl, answers = flip_large
    (key, (winner, rounds, table)), = answers.items()
    # an entry won at round t >= 2 has a move leaving some vertex of R
    # unisolated; claiming it at round 1 leaves that vertex in a ball that
    # is not won in fewer rounds
    state = next(s for s, (t, _) in table.items() if t >= 2)
    bad = dict(table)
    bad[state] = (1, table[state][1])
    violations = wl.check({key: (winner, rounds, bad)})
    assert any("not won before round 1" in v for v in violations)


def test_certificate_check_rejects_lost_initial_ball_and_wrong_winner(flip_large):
    wl, answers = flip_large
    (key, (winner, rounds, table)), = answers.items()
    assert wl.check({key: ("runner", None, table)})
    # rounds is the worst initial ball, so dropping that round drops one
    bad = {s: e for s, e in table.items() if e[0] != rounds}
    assert any("are not won" in v for v in wl.check({key: (winner, rounds, bad)}))
    assert wl.check({key: (winner, rounds + 1, table)})


def test_certificate_check_rejects_too_wide_move(flip_large):
    wl, answers = flip_large
    (key, (winner, rounds, table)), = answers.items()
    bad = copy.deepcopy(table)
    state = next(iter(bad))
    n = len(bad[state][1]["blocks"])
    bad[state] = (bad[state][0], {"blocks": list(range(n)), "pairs": []})
    assert any("is not a 3-flip" in v for v in wl.check({key: (winner, rounds, bad)}))


def test_cop_checks_pass_real_answers(cop_params):
    wl, answers = cop_params
    assert wl.check(answers) == []


@pytest.mark.parametrize("r,field,message", [
    ("1", "copw", "degeneracy + 1"),
    ("1", "degeneracy", "networkx cores"),
    ("inf", "copw", "treewidth + 1"),
    ("inf", "treewidth", "exact search"),
])
def test_cop_checks_reject_off_by_one(cop_params, r, field, message):
    wl, answers = cop_params
    wrong = copy.deepcopy(answers)
    key = next(k for k in wrong if k[1] == r)
    wrong[key][field] += 1
    assert any(message in v for v in wl.check(wrong))


@pytest.mark.parametrize("field,value,message", [
    ("adm", lambda a: a["copw"], "adm+1"),
    ("wcol", lambda a: a["copw"] - 2, "wcol_2r+1"),
])
def test_cop_checks_reject_width_outside_the_sandwich(cop_params, field, value, message):
    wl, answers = cop_params
    wrong = copy.deepcopy(answers)
    key = next(k for k in wrong if k[1] == "2")
    wrong[key][field] = value(wrong[key])
    assert any(message in v for v in wl.check(wrong))


def test_treewidth_oracle_on_known_graphs():
    assert checks.treewidth(nx.path_graph(6)) == 1
    assert checks.treewidth(nx.cycle_graph(6)) == 2
    assert checks.treewidth(nx.complete_graph(5)) == 4
    assert checks.treewidth(nx.grid_2d_graph(3, 3)) == 3
    assert checks.treewidth(nx.petersen_graph()) == 4
    assert checks.treewidth(nx.empty_graph(3)) == 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_reduced_pass_runs_every_workload_traced(name):
    spec = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    wl = workloads.build(name, 3, reduced=True)
    rounds, attempted, failed, violations, tracer = run.measure(wl, 0, 1)
    assert (failed, violations) == (0, [])
    assert attempted == 2 * len(wl.ops) and [r.traced for r in rounds] == [False, True]
    e2e = run.end_to_end(rounds, 1.0)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(v > 0 for v, _ in e2e.values())
    layers = run.per_layer(rounds, tracer)
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    assert not tracer.missing
    if name == "flip-large":
        # gnp(7) at k=3 covers every raw 3-flip once
        assert layers["flips.raw"][0] == count_raw_flips(7, 3)
        assert layers["outcomes.distinct"][0] > 0 and layers["flips.enum_s"][0] > 0
    if name == "flip-bulk":
        assert layers["bulk.outcomes"][0] > 0
        assert layers["flips.raw"][0] == count_raw_flips(7, 5)
    if name == "cop-params":
        assert layers["cops.solves"][0] > 0 and layers["params.treewidth_s"][0] > 0
    if name == "fw-small":
        assert layers["search.solves"][0] >= 1 and layers["cli.s"][0] > 0


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fw-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
