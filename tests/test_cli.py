import contextlib
import io
import json
import math
import os
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from synckit import classification, cli, synchrony
from synckit.cli import run
from synckit.dynamics import evolve, expand_state, sample_admissible
from synckit.errors import TooLarge
from synckit.network import load_network, save_network
from synckit.classification import join_table_report
from synckit.partition import format_partition, join, parse_partition
from synckit.synchrony import is_balanced

from conftest import FIXTURE_NAMES, fixture_path
from oracles import complete_graph, dense, ring_lift_doc


def fx(name):
    return str(fixture_path(name))


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_balanced_true_is_zero(self, capsys):
        code, out, _ = invoke(capsys, "balanced", "--network", fx("triangle"),
                              "--partition", "12/3")
        assert code == 0
        assert "balanced" in out

    def test_balanced_false_is_one(self, capsys):
        code, out, _ = invoke(capsys, "balanced", "--network", fx("edge_pair"),
                              "--partition", "12")
        assert code == 1
        assert "not balanced" in out

    def test_type_mismatch_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "balanced", "--network", fx("triangle"),
                              "--partition", "13/2")
        assert code == 2
        assert "error" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = invoke(capsys, "scc", "--network", fx("triangle"), "--bogus")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "scc", "--network", "nope.json")
        assert code == 2


class TestAnalysisCommands:
    def test_cir_echoes_balanced_input(self, capsys):
        code, out, _ = invoke(capsys, "cir", "--network", fx("triangle"),
                              "--partition", "12/3")
        assert code == 0
        assert out.strip() == "12/3"

    def test_classify_two_roots(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--network", fx("two_roots"),
                              "--partition", "5/67/1234")
        assert code == 0
        assert "partition: rooted" in out
        assert "{5}: strong" in out
        assert "{6,7}: strong" in out
        assert "{1,2,3,4}: rooted" in out

    def test_scc_json(self, capsys):
        code, out, _ = invoke(capsys, "scc", "--network", fx("two_roots"),
                              "--format", "json")
        assert code == 0
        assert json.loads(out)["sccs"] == [["1", "2", "3"], ["4"], ["5"], ["6", "7"]]

    def test_condense_and_roots(self, capsys):
        code, out, _ = invoke(capsys, "condense", "--network", fx("two_roots"),
                              "--format", "json")
        payload = json.loads(out)
        assert payload["edges"] == [[0, 1], [0, 3], [2, 3]]
        assert payload["roots"] == [0, 2]
        code, out, _ = invoke(capsys, "roots", "--network", fx("two_roots"),
                              "--format", "json")
        assert json.loads(out)["roots"] == [["1", "2", "3"], ["5"]]

    def test_rdc(self, capsys):
        code, out, _ = invoke(capsys, "rdc", "--network", fx("two_roots"),
                              "--format", "json")
        assert json.loads(out)["rdcs"] == [["1", "2", "3", "4"], ["5"], ["6", "7"]]

    def test_reach_with_and_without_k(self, capsys):
        code, out, _ = invoke(capsys, "reach", "--network", fx("chain4"),
                              "--cell", "3", "--k", "2", "--format", "json")
        assert json.loads(out)["cells"] == ["1", "2", "3"]
        code, out, _ = invoke(capsys, "reach", "--network", fx("chain4"),
                              "--cell", "4", "--format", "json")
        assert json.loads(out)["cells"] == ["1", "2", "3", "4"]

    def test_lattice_text_and_dot(self, capsys):
        code, out, _ = invoke(capsys, "lattice", "--network", fx("driven_chain"))
        assert code == 0
        assert set(out.split()) == {"13/24", "13/2/4", "1/2/3/4"}
        code, out, _ = invoke(capsys, "lattice", "--network", fx("driven_chain"),
                              "--format", "dot")
        assert out.startswith("digraph")
        assert '"1/2/3/4" -> "13/2/4"' in out

    def test_lattice_cap(self, capsys, monkeypatch):
        # two_roots' enumeration counts more than 5 splits and elements
        monkeypatch.setattr(synchrony, "MAX_WORK", 5)
        code, out, err = invoke(capsys, "lattice", "--network", fx("two_roots"))
        assert (code, out) == (2, "")
        assert err == ("error: the lattice enumeration passed its bound of 5 "
                       "splits considered and elements found\n")

    def test_matched_and_invariant(self, capsys):
        code, out, _ = invoke(capsys, "matched", "--network", fx("edge_pair"),
                              "--partition", "12", "--kind", "n")
        assert code == 1
        code, out, _ = invoke(capsys, "matched", "--network", fx("edge_pair"),
                              "--partition", "12", "--kind", "v")
        assert code == 0
        code, out, _ = invoke(capsys, "invariant", "--network", fx("zero_sum_triangle"),
                              "--partition", "123", "--kind", "n")
        assert code == 1
        code, out, _ = invoke(capsys, "invariant", "--network", fx("zero_sum_triangle"),
                              "--partition", "123", "--kind", "vk:2")
        assert code == 0

    def test_invariant_requires_balanced(self, capsys):
        code, _, err = invoke(capsys, "invariant", "--network", fx("edge_pair"),
                              "--partition", "12", "--kind", "n")
        assert code == 2

    def test_exo(self, capsys):
        code, out, _ = invoke(capsys, "exo", "--network", fx("edge_pair"),
                              "--partition", "12")
        assert code == 0
        assert "exo-balanced" in out

    def test_tables_join(self, capsys):
        code, out, _ = invoke(capsys, "tables", "--network", fx("driven_chain"),
                              "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["general_table_ok"]
        assert payload["matched_table_ok"]
        assert payload["nonweak_join_closed"]

    def test_tables_quotient(self, capsys):
        code, out, _ = invoke(capsys, "tables", "--network", fx("two_sources_pair"),
                              "--quotient", "1/2/34", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["reach_invariant"]
        assert payload["table_ok"]


class TestQuotientCommand:
    def test_quotient_writes_loadable_network(self, capsys, tmp_path):
        out_path = tmp_path / "q.json"
        code, out, _ = invoke(capsys, "quotient", "--network", fx("triangle"),
                              "--partition", "12/3", "--out", str(out_path),
                              "--format", "json")
        assert code == 0
        q = load_network(str(out_path))
        assert q.cell_ids == ("12", "3")
        assert dense(q) == ((1, 1), (2, 1))
        assert json.loads(out)["cells"] == [
            {"id": "12", "type": 1},
            {"id": "3", "type": 2},
        ]

    def test_quotient_of_unbalanced_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "quotient", "--network", fx("edge_pair"),
                              "--partition", "12")
        assert code == 2

    def test_colliding_quotient_ids_are_usage_error(self, capsys, tmp_path):
        # {a, b} and {a+b} would both be named "a+b", which no document may repeat
        doc = tmp_path / "plus.json"
        doc.write_text(json.dumps({
            "cells": [{"id": i, "type": 1} for i in ("a", "b", "a+b")], "edges": [],
        }))
        out_path = tmp_path / "q.json"
        code, out, err = invoke(capsys, "quotient", "--network", str(doc),
                                "--partition", "a,b/a+b", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "'a+b'" in err
        assert not out_path.exists()


@pytest.mark.parametrize("argv, expected", [
    (["invariant", "--partition", "a,b/a+b", "--kind", "r"], 0),
    (["invariant", "--partition", "a,b/a+b", "--kind", "n"], 0),
    (["verify", "quotient", "--partition", "a,b/a+b"], 0),
    (["quotient", "--partition", "a,b/a+b"], 2),
    (["tables", "--quotient", "a,b/a+b"], 2),
], ids=["invariant-r", "invariant-n", "verify-quotient", "quotient", "tables-quotient"])
def test_colliding_quotient_ids_matter_only_where_printed(capsys, tmp_path, argv, expected):
    # {a, b} and {a+b} would both be named "a+b"; only quotient and
    # tables --quotient print quotient ids, so only they refuse the partition
    doc = tmp_path / "plus.json"
    doc.write_text(json.dumps({
        "cells": [{"id": i, "type": 1} for i in ("a", "b", "a+b")],
        "edges": [{"from": "a", "to": "a+b", "weight": 1},
                  {"from": "b", "to": "a+b", "weight": 1}],
    }))
    code, out, err = invoke(capsys, *argv, "--network", str(doc))
    assert code == expected
    if expected == 2:
        assert out == "" and err.startswith("error:") and "'a+b'" in err
    else:
        assert err == "" and out


def test_tables_quotient_past_the_cell_cap(capsys, tmp_path, monkeypatch):
    """A 16-cell lift of rank 4 gets its quotient class table: only the
    quotient's 4-cell lattice is enumerated, and only its work counts
    against the bound."""
    doc, planted = ring_lift_doc(4, 4)
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(doc))
    net = load_network(str(path))
    spec = format_partition(planted, net.cell_ids)
    sizes = []
    enumerate_balanced = classification.enumerate_balanced

    def spy(network):
        sizes.append(network.n_cells)
        return enumerate_balanced(network)

    monkeypatch.setattr(classification, "enumerate_balanced", spy)
    code, out, err = invoke(capsys, "tables", "--network", str(path), "--quotient", spec)
    assert code in (0, 1) and err == ""
    assert out.startswith(f"over {spec} (reach-invariant: ")
    assert out.endswith(f"table_ok: {code == 0}\n")
    assert sizes == [planted.rank]
    monkeypatch.setattr(synchrony, "MAX_WORK", 3)
    code, out, err = invoke(capsys, "tables", "--network", str(path), "--quotient", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: the lattice enumeration passed its bound of 3 ")
    with pytest.raises(TooLarge):
        classification.quotient_class_report(net, is_balanced(net, planted))
    assert 16 not in sizes


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


_TROPICAL = {
    "monoid": "tropical-min",
    "cells": [{"id": i, "type": 1} for i in "abc"],
    "edges": [{"from": "a", "to": "b", "weight": 1}, {"from": "a", "to": "c", "weight": 1.0},
              {"from": "b", "to": "b", "weight": 2.5}, {"from": "c", "to": "c", "weight": 2.5},
              {"from": "b", "to": "c", "weight": "inf"}],
}


@pytest.mark.parametrize("argv", [
    ["scc"], ["condense"], ["rdc"], ["reach", "--cell", "b"], ["reach", "--cell", "b", "--k", "1"],
    ["balanced", "--partition", "a/bc"], ["balanced", "--partition", "-"], ["cir", "--partition", "-"],
    ["lattice"], ["quotient", "--partition", "a/bc"], ["exo", "--partition", "a/bc"],
    ["classify", "--partition", "a/bc"], ["matched", "--partition", "a/bc", "--kind", "r"],
    ["invariant", "--partition", "a/bc", "--kind", "r"], ["tables"], ["tables", "--quotient", "a/bc"],
], ids=lambda argv: "-".join(a.strip("-") for a in argv))
def test_tropical_json_output_is_strict_json(capsys, tmp_path, argv):
    """No output writes +inf as the non-JSON token Infinity; the zero is "inf"."""
    path = tmp_path / "tropical.json"
    path.write_text(json.dumps(_TROPICAL))
    code, out, err = invoke(capsys, *argv, "--network", str(path), "--format", "json")
    assert code in (0, 1) and err == ""
    payload = json.loads(out, parse_constant=_refuse_constant)
    if argv[:3] == ["balanced", "--partition", "a/bc"]:
        assert payload["quotient_matrix"] == [["inf", "inf"], [1.0, 2.5]]


@pytest.mark.parametrize("weight", ["-Infinity", "-1e999"])
def test_tropical_negative_infinity_weight_is_usage_error(capsys, tmp_path, weight):
    """-inf is no min-plus weight, and no JSON output could write it back."""
    path = tmp_path / "neg.json"
    doc = dict(_TROPICAL, edges=[*_TROPICAL["edges"], {"from": "c", "to": "a", "weight": "W"}])
    path.write_text(json.dumps(doc).replace('"W"', weight))
    code, out, err = invoke(capsys, "quotient", "--network", str(path), "--partition", "a/bc",
                            "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "-inf" in err


class TestDynamicsCommands:
    def test_simulate_json(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--network", fx("triangle"),
                              "--seed", "3", "--steps", "5", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["states"]) == 6

    def test_simulate_explicit_x0(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--network", fx("triangle"),
                              "--seed", "3", "--steps", "2", "--x0", "0.1,0.1,0.5",
                              "--format", "json")
        payload = json.loads(out)
        assert payload["states"][0] == [0.1, 0.1, 0.5]
        # same-row cells stay synchronized from a synchronized start
        assert payload["states"][-1][0] == payload["states"][-1][1]

    def test_simulate_x0_length_check(self, capsys):
        code, _, err = invoke(capsys, "simulate", "--network", fx("triangle"),
                              "--x0", "0.1")
        assert code == 2

    def test_verify_invariance(self, capsys):
        code, out, _ = invoke(capsys, "verify", "invariance", "--network",
                              fx("triangle"), "--partition", "12/3",
                              "--trials", "3", "--steps", "30", "--format", "json")
        assert code == 0
        assert json.loads(out)["invariant"]

    def test_verify_invariance_failure(self, capsys):
        code, out, _ = invoke(capsys, "verify", "invariance", "--network",
                              fx("edge_pair"), "--partition", "12",
                              "--trials", "3", "--steps", "30")
        assert code == 1

    def test_verify_invariance_with_aborted_trials_is_false(self, capsys):
        code, out, _ = invoke(capsys, "verify", "invariance", "--network",
                              fx("chain4"), "--partition", "1234",
                              "--mode", "rk4", "--dt", "1e13")
        assert code == 1
        assert "not invariant (5 of 5 trials aborted)" in out

    def test_verify_invariance_rk4_stage_overflow_aborts_trials(self, capsys):
        code, out, err = invoke(capsys, "verify", "invariance", "--network",
                                fx("triangle"), "--partition", "12/3",
                                "--mode", "rk4", "--dt", "1e300")
        assert code == 1
        assert "not invariant (5 of 5 trials aborted)" in out
        assert err == ""

    def test_verify_locality_subsystem_quotient(self, capsys):
        code, out, _ = invoke(capsys, "verify", "locality", "--network", fx("chain4"),
                              "--cell", "3", "--k", "2", "--format", "json")
        assert code == 0 and json.loads(out)["all_agreed"]
        assert json.loads(out)["cell"] == "3"  # the id, as every payload names cells
        code, out, _ = invoke(capsys, "verify", "subsystem", "--network", fx("chain4"),
                              "--cell", "4", "--mode", "rk4", "--dt", "0.05", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"check": "subsystem", "max_deviation": 0.0, "exact": True}
        code, out, _ = invoke(capsys, "verify", "quotient", "--network", fx("triangle"),
                              "--partition", "12/3", "--format", "json")
        assert code == 0 and json.loads(out)["exact"]

    def test_verify_defaults_of_the_other_checks(self, capsys):
        # each check fills in the defaults of its own flags
        code, out, _ = invoke(capsys, "verify", "invariance", "--network", fx("triangle"),
                              "--partition", "12/3", "--trials", "1", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["tol"] == 1e-9 and payload["trials"][0]["steps"] == 50
        code, out, _ = invoke(capsys, "verify", "locality", "--network", fx("chain4"),
                              "--cell", "3", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["k"] == 2 and len(payload["trials"]) == 5

    def test_verify_missing_arguments(self, capsys):
        code, _, err = invoke(capsys, "verify", "invariance", "--network", fx("triangle"))
        assert code == 2
        code, _, err = invoke(capsys, "verify", "locality", "--network", fx("triangle"))
        assert code == 2

    def test_verify_locality_refuses_k_past_the_cell_count(self, capsys, monkeypatch):
        # from k = n - 1 on the neighborhood is the in-reachability set, which
        # verify subsystem checks; a larger --k only ran for longer
        def refuse(*args, **kwargs):
            raise AssertionError("ran check_locality")

        argv = ["verify", "locality", "--network", fx("chain4"), "--cell", "3", "--k"]
        with monkeypatch.context() as patch:
            patch.setattr(cli.dyn, "check_locality", refuse)
            for k in ("5", "100000000"):
                code, out, err = invoke(capsys, *argv, k)
                assert (code, out) == (2, "")
                assert err.startswith("error: ") and err.count("\n") == 1
                assert "verify subsystem" in err
        code, out, _ = invoke(capsys, *argv, "4")
        assert (code, out) == (0, "locality agreed: True\n")


def _simulate_bytes(capsys, path, net, x0, steps, mode):
    """simulate --format json output next to json.dumps of the same trajectory."""
    code, out, err = invoke(capsys, "simulate", "--network", path, "--seed", "4",
                            "--steps", str(steps), "--mode", mode, "--dt", "0.01",
                            "--x0=" + ",".join(map(repr, x0)), "--format", "json")
    assert (code, err) == (0, "")
    traj = evolve(net, sample_admissible(net, 4), x0, steps, mode=mode, dt=0.01)
    payload = {"cells": list(net.cell_ids), "mode": mode, "times": list(traj.times),
               "states": [list(s) for s in traj.states]}
    return out, json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_simulate_json_is_json_dumps_bytes(capsys, name):
    """The streamed states give the bytes of json.dumps(indent=2, sort_keys=True)."""
    net = load_network(fx(name))
    rng = random.Random(name)
    x0 = tuple(rng.uniform(-1.5, 1.5) for _ in range(net.n_cells))
    for mode, steps in (("discrete", 12), ("rk4", 5), ("discrete", 0)):
        out, want = _simulate_bytes(capsys, fx(name), net, x0, steps, mode)
        assert out == want


def test_simulate_json_of_300_cell_lift_is_json_dumps_bytes(capsys, tmp_path):
    doc, planted = ring_lift_doc(50, 6)
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(doc))
    net = load_network(str(path))
    rng = random.Random(300)
    x0 = expand_state(tuple(rng.uniform(-1.5, 1.5) for _ in range(planted.rank)), planted)
    for mode, steps in (("discrete", 100), ("rk4", 10)):
        out, want = _simulate_bytes(capsys, str(path), net, x0, steps, mode)
        assert out == want


def test_simulate_json_keeps_both_zeros_of_one_state(capsys):
    """0.0 and -0.0 are one dict key, yet each keeps its own repr."""
    net = load_network(fx("chain4"))
    for x0 in [(0.0, -0.0, 0.5, 0.0), (-0.0, 0.5, 0.0, 0.5)]:
        out, want = _simulate_bytes(capsys, fx("chain4"), net, x0, 2, "discrete")
        assert out == want
        first = json.loads(out)["states"][0]
        assert [math.copysign(1.0, v) for v in first] == [math.copysign(1.0, v) for v in x0]


@pytest.mark.parametrize("argv", [
    ["matched", "--network", fx("chorded_cycle"), "--partition", "14/23",
     "--kind", "vk:x"],
    ["simulate", "--network", fx("chain4"), "--x0", "a,b,c,d"],
    ["simulate", "--network", fx("chain4"), "--steps", "-5"],
    ["verify", "invariance", "--network", fx("triangle"), "--partition", "12/3",
     "--steps", "-1"],
    ["verify", "invariance", "--network", fx("triangle"), "--partition", "12/3",
     "--trials", "0"],
    ["verify", "locality", "--network", fx("chain4"), "--cell", "3",
     "--trials", "-2"],
    ["verify", "invariance", "--network", fx("chain4"), "--partition", "1234",
     "--mode", "rk4", "--dt", "0"],
    # locality compares discrete map steps bit for bit; an RK4 run is not what it checks
    ["verify", "locality", "--network", fx("chain4"), "--cell", "3", "--mode", "rk4"],
    # it runs --k map steps and compares bit for bit, so these flags would change nothing
    ["verify", "locality", "--network", fx("chain4"), "--cell", "3", "--steps", "1000"],
    ["verify", "locality", "--network", fx("chain4"), "--cell", "3", "--tol", "5"],
    ["verify", "locality", "--network", fx("chain4"), "--cell", "3", "--dt", "0.5"],
    ["verify", "invariance", "--network", fx("triangle"), "--partition", "1/2/3",
     "--tol", "-1"],
    ["verify", "invariance", "--network", fx("triangle"), "--partition", "12/3",
     "--tol", "nan"],
    ["verify", "subsystem", "--network", fx("chain4"), "--cell", "3",
     "--mode", "rk4", "--dt", "inf"],
    ["simulate", "--network", fx("chain4"), "--mode", "rk4", "--dt", "nan"],
    ["simulate", "--network", fx("chain4"), "--dt", "-1"],
    ["quotient", "--network", fx("chain4"), "--partition", "1234"],
    ["invariant", "--network", fx("chain4"), "--partition", "1234", "--kind", "r"],
    ["tables", "--network", fx("chain4"), "--quotient", "1234"],
    ["verify", "quotient", "--network", fx("chain4"), "--partition", "1234"],
    # an RK4 stage past the float range blows up before the step is taken
    ["simulate", "--network", fx("triangle"), "--mode", "rk4", "--dt", "1e300"],
    ["verify", "quotient", "--network", fx("triangle"), "--partition", "12/3",
     "--mode", "rk4", "--dt", "1e300"],
    ["verify", "subsystem", "--network", fx("chain4"), "--cell", "3",
     "--mode", "rk4", "--dt", "1e300"],
    # only condense, lattice, quotient and export-dot print DOT
    ["scc", "--network", fx("triangle"), "--format", "dot"],
    ["tables", "--network", fx("triangle"), "--format", "dot"],
    ["simulate", "--network", fx("triangle"), "--format", "dot"],
    ["verify", "quotient", "--network", fx("triangle"), "--partition", "12/3",
     "--format", "dot"],
    ["classify", "--network", fx("triangle"), "--partition", "12/3",
     "--format", "dot"],
    # export-dot prints DOT only, so it has no JSON mode to honour
    ["export-dot", "--network", fx("triangle"), "--format", "json"],
], ids=["vk-not-int", "x0-not-numbers", "simulate-steps",
        "verify-steps", "verify-trials", "locality-trials", "verify-dt-zero", "locality-rk4",
        "locality-steps", "locality-tol", "locality-dt",
        "verify-tol-negative", "verify-tol-nan", "verify-dt-inf", "simulate-dt-nan",
        "simulate-dt-negative", "quotient-not-balanced", "invariant-not-balanced",
        "tables-quotient-not-balanced", "verify-quotient-not-balanced",
        "simulate-rk4-stage-overflow", "verify-quotient-rk4-stage-overflow",
        "verify-subsystem-rk4-stage-overflow", "scc-dot",
        "tables-dot", "simulate-dot", "verify-dot", "classify-dot", "export-dot-json"])
def test_bad_input_exits_two_with_error_line(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


_VERIFY_ARGS = {
    "invariance": ["--network", fx("triangle"), "--partition", "12/3"],
    "locality": ["--network", fx("chain4"), "--cell", "3"],
    "subsystem": ["--network", fx("chain4"), "--cell", "3"],
    "quotient": ["--network", fx("triangle"), "--partition", "12/3"],
}


@pytest.mark.parametrize("check, flag", [
    ("invariance", ["--cell", "2"]),
    ("invariance", ["--k", "7"]),
    ("locality", ["--partition", "12"]),
    ("locality", ["--steps", "1000"]),
    ("locality", ["--tol", "5"]),
    ("locality", ["--mode", "discrete"]),
    ("locality", ["--mode", "rk4"]),
    ("locality", ["--dt", "0.5"]),
    ("subsystem", ["--tol", "1e-6"]),
    ("subsystem", ["--k", "2"]),
    ("subsystem", ["--partition", "12"]),
    ("quotient", ["--tol", "1e-6"]),
    ("quotient", ["--k", "2"]),
    ("quotient", ["--cell", "3"]),
], ids=lambda v: v if isinstance(v, str) else f"{v[0][2:]}-{v[1]}")
@pytest.mark.parametrize("before", [False, True], ids=["after-check", "before-check"])
def test_verify_refuses_the_flags_of_other_checks(capsys, check, flag, before):
    """Each check takes only its own flags, given before or after its name."""
    argv = [*flag, check] if before else [check, *flag]
    code, out, err = invoke(capsys, "verify", *argv, *_VERIFY_ARGS[check])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: verify {check} has no {flag[0]};")


SUBCOMMANDS = ["scc", "condense", "roots", "rdc", "reach", "balanced", "cir", "lattice",
               "quotient", "exo", "classify", "matched", "invariant", "tables", "simulate",
               "verify", "export-dot"]


def _parser_argvs():
    f = fx("triangle")
    argvs = [[], ["--help"], ["bogus"], ["--network", f, "scc"],
             ["verify", "--network", f, "invariance", "--partition", "12/3", "--mode", "euler"]]
    for command in SUBCOMMANDS:
        argvs += [[command, "--help"], [command], [command, "--network", f, "--bogus"],
                  [command, "--network", f, "--format", "yaml"]]
    return argvs


@pytest.mark.parametrize("argv", _parser_argvs(), ids=lambda argv: " ".join(
    "F" if a == fx("triangle") else a for a in argv) or "no-arguments")
def test_run_answers_as_the_full_parser(capsys, argv):
    """run's exit code, help and errors are those of the parser with every
    subcommand, run directly: each argv here is help, which exits 0, or
    a usage error, which exits 2."""
    got = invoke(capsys, *argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as done:
            cli.build_parser().parse_args(argv)
    assert got == (0 if done.value.code in (0, None) else 2, out.getvalue(), err.getvalue())
    if not argv:
        assert "{" + ",".join(SUBCOMMANDS) + "}" in got[2]


def _argparse_args(argv):
    """build_parser().parse_args(argv) as a dict, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


_ARG_VALUES = st.sampled_from([
    "f", "12/3", "3", "-2", "0", "1e-3", "nan", "1.5", "x", "", "-", "--", "-5", "--format",
    "-h", "text", "json", "dot", "yaml", "discrete", "rk4", "euler", "random", "a=b",
])
_LOOSE_TOKENS = st.sampled_from([
    "-h", "--help", "--", "-", "", "--net", "--form", "--part", "--max", "--bogus",
    "invariance", "locality", "subsystem", "quotient", "bogus", "--exo", "--exo=1",
])


@st.composite
def _argvs(draw):
    """A command and its required arguments, some dropped, mixed with any of
    every command's flags in both spellings and with awkward tokens."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    own = cli._COMMANDS.get(command, (None, ()))[1]
    all_flags = sorted({f for _, opts in cli._COMMANDS.values() for f, _ in opts
                        if f.startswith("-")})
    def value(options):
        if draw(st.integers(0, 3)) == 0:
            return draw(_ARG_VALUES)
        return draw(st.sampled_from(options.get("choices") or ["3" if "type" in options else "f"]))

    items = [[f, value(o)] for f, o in (*cli._SHARED, *own) if o.get("required")]
    items += [[draw(st.sampled_from(o["choices"]))] for f, o in own if not f.startswith("-")]
    items = [item for item in items if draw(st.integers(0, 7))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            items.append([draw(_LOOSE_TOKENS)])
            continue
        if kind == 1:
            items.append([draw(st.sampled_from(all_flags)), draw(_ARG_VALUES)])
            continue
        flag, options = draw(st.sampled_from([o for o in (*cli._SHARED, *own) if o[0][0] == "-"]))
        items.append([flag] if options.get("action") else [flag, value(options)])
    items = draw(st.permutations(items))
    argv = [] if draw(st.integers(0, 15)) == 0 else [command]
    for item in items:
        argv += ["=".join(item)] if len(item) == 2 and draw(st.booleans()) else item
    return argv


@settings(max_examples=600, deadline=None)
@given(argv=_argvs())
@example(argv=["verify", "invariance", "--network", "f", "--partition=--"])
@example(argv=["verify", "invariance", "quotient", "--network", "f", "--partition", "1"])
@example(argv=["verify", "--network", "f", "--partition", "1"])
@example(argv=["simulate", "--network", "f", "--steps", "-5"])
@example(argv=["balanced", "--network", "f", "--partition", ""])
@example(argv=["lattice", "--network", "f", "--network", "g"])
@example(argv=["simulate", "--network", "f", "--exo=1"])
@example(argv=["simulate", "--network", "f", "--dt", "nan"])
def test_fast_parser_agrees_with_argparse_or_declines(argv):
    """run's table-driven parser returns argparse's namespace, or declines."""
    fast = cli._fast_args(argv)
    if fast is not None:
        assert _nan_marked(vars(fast)) == _nan_marked(_argparse_args(argv))


_NAN = object()


def _nan_marked(args):
    """args with each float NaN, which equals nothing, replaced by one marker."""
    if args is None:
        return None
    return {k: _NAN if isinstance(v, float) and math.isnan(v) else v for k, v in args.items()}


def _well_formed_argvs():
    f, chain = fx("triangle"), fx("chain4")
    argvs = [[command, "--network", f, *flags] for command, *flags in _GOLDEN_COMMANDS.values()]
    argvs += [
        ["scc", "--network", f], ["condense", "--network", f, "--format", "dot"],
        ["roots", "--network=" + f], ["rdc", "--format=json", "--network", f],
        ["reach", "--network", chain, "--cell", "3", "--k", "2"],
        ["balanced", "--network", f, "--partition", "12/3"],
        ["cir", "--partition=12/3", "--network", f],
        ["lattice", "--network", f],
        ["quotient", "--network", f, "--partition", "12/3", "--format", "json"],
        ["exo", "--network", f, "--partition", "12/3"],
        ["classify", "--network", f, "--partition", "12/3"],
        ["matched", "--network", f, "--partition", "12/3", "--kind", "vk:2"],
        ["invariant", "--network", f, "--partition", "12/3", "--kind", "r"],
        ["tables", "--network", f, "--quotient", "12/3"],
        ["simulate", "--network", f, "--steps", "3", "--mode", "rk4", "--dt", "0.01", "--exo"],
        ["verify", "--network", f, "invariance", "--partition", "12/3", "--tol=1e-6"],
        ["verify", "locality", "--network", chain, "--cell", "3", "--k", "2"],
        ["export-dot", "--network", f, "--partition", "12/3"],
    ]
    return argvs


def test_well_formed_commands_skip_argparse(monkeypatch):
    """Every golden command and a well-formed argv of each subcommand is
    parsed from the command table, to argparse's namespace, and run
    without building an argparse parser."""
    argvs = _well_formed_argvs()
    assert {argv[0] for argv in argvs} == set(SUBCOMMANDS)
    for argv in argvs:
        fast = cli._fast_args(argv)
        assert fast is not None, argv
        assert vars(fast) == _argparse_args(argv)

    def refuse():
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    with contextlib.redirect_stdout(io.StringIO()):
        for command, *flags in _GOLDEN_COMMANDS.values():
            assert run([command, "--network", fx("triangle"), *flags]) == 0


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, own) in cli._COMMANDS.items()
    for flag, _ in (*cli._SHARED, *own) if flag.startswith("-")])
def test_flag_given_double_dash_is_a_usage_error(capsys, command, flag):
    """argparse stores [] for --flag=--, which no handler can read: run
    answers with a usage error and exit code 2, never a traceback."""
    required = {"--network": fx("triangle"), "--partition": "12/3", "--kind": "n", "--cell": "1"}
    argv = [command]
    for name, options in (*cli._SHARED, *cli._COMMANDS[command][1]):
        if options.get("required") and name != flag:
            argv += [name, required[name]]
    if command == "verify":
        argv.append("locality")
    code, out, err = invoke(capsys, *argv, f"{flag}=--")
    assert (code, out) == (2, "")
    assert f"error: argument {flag}: " in err


_IDS = st.sampled_from(["1", "2", "3", "a"])
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.just(10**400),
    st.floats(allow_nan=True), st.text(max_size=3), st.lists(st.integers(), max_size=2),
)
_CELL = st.one_of(st.fixed_dictionaries({"id": _IDS, "type": st.integers(-1, 3)}), _JUNK)
_EDGE = st.one_of(
    st.fixed_dictionaries({"from": _IDS, "to": _IDS,
                           "weight": st.one_of(st.integers(-1, 2), _JUNK)}),
    _JUNK,
)
_DOC = st.one_of(
    st.fixed_dictionaries(
        {"cells": st.one_of(st.lists(_CELL, min_size=1, max_size=4), _JUNK),
         "edges": st.one_of(st.lists(_EDGE, max_size=6), _JUNK)},
        optional={"monoid": st.one_of(st.sampled_from(["int-add", "tropical-min"]), _JUNK)},
    ),
    _JUNK,
)
_COMMANDS = st.sampled_from([
    ["scc"], ["condense"], ["rdc"], ["reach", "--cell", "1", "--k", "1"],
    ["balanced", "--partition", "12"], ["cir", "--partition", "12"], ["lattice"],
    ["quotient", "--partition", "12"], ["exo", "--partition", "12"],
    ["classify", "--partition", "12"], ["matched", "--partition", "12", "--kind", "r"],
    ["invariant", "--partition", "12", "--kind", "vk:2"], ["tables"],
    ["tables", "--quotient", "12"], ["simulate", "--steps", "3"],
    ["verify", "invariance", "--partition", "12", "--trials", "1", "--steps", "3"],
    ["verify", "subsystem", "--cell", "1", "--trials", "1", "--steps", "3"],
    ["verify", "locality", "--cell", "2", "--trials", "1"],
    ["verify", "quotient", "--partition", "12", "--trials", "1", "--steps", "3"],
    ["export-dot", "--partition", "12"],
])


@settings(max_examples=150, deadline=None)
@given(doc=_DOC, argv=_COMMANDS, fmt=st.sampled_from(["text", "json"]))
def test_fuzzed_documents_exit_0_1_or_2(tmp_path_factory, doc, argv, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    # an escaping exception fails the test with its traceback
    code = run([*argv, "--network", str(path), "--format", fmt])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("argv", [
    ["rdc"],
    ["classify", "--partition", "c0,c1"],
    ["matched", "--partition", "c0,c1", "--kind", "r"],
])
def test_deep_chain_does_not_exhaust_the_stack(capsys, tmp_path, argv):
    # one condensation level per cell, listed sink first; the reach sets
    # grow quadratically with the length, so the chain stays near 1500
    n = 1500
    doc = {
        "cells": [{"id": f"c{i}", "type": 1} for i in reversed(range(n))],
        "edges": [{"from": f"c{i}", "to": f"c{i + 1}", "weight": 1} for i in range(n - 1)],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, *argv, "--network", str(path))
    assert (code, err) == (0, "")
    assert out


def test_format_dot_where_dot_is_printed(capsys):
    for argv in (["condense"], ["lattice"], ["quotient", "--partition", "12/3"], ["export-dot"]):
        code, out, err = invoke(capsys, *argv, "--network", fx("triangle"), "--format", "dot")
        assert (code, err) == (0, "")
        assert out.startswith("digraph")


def test_dot_quotes_ids_with_quotes_and_backslashes(capsys, tmp_path):
    # a DOT quoted string escapes '"' and '\\'; an id ending in '\\' would
    # otherwise escape its closing quote
    ids = ['a"b', "c\\", "d"]
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps({
        "cells": [{"id": c, "type": 1} for c in ids],
        "edges": [{"from": ids[0], "to": ids[1], "weight": 1},
                  {"from": ids[1], "to": ids[0], "weight": 1},
                  {"from": ids[1], "to": ids[2], "weight": 2}],
    }))
    _, elements, _ = invoke(capsys, "lattice", "--network", str(path))
    expected = {
        ("export-dot",): set(ids),
        ("quotient", "--partition", 'a"b,c\\'): {'a"b+c\\', "d"},
        ("condense", "--format", "dot"): {"S0", "S1", 'a"b,c\\', "d"},
        ("lattice", "--format", "dot"): set(elements.split()),
    }
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    for argv, strings in expected.items():
        code, out, err = invoke(capsys, *argv, "--network", str(path))
        assert (code, err) == (0, "")
        assert not re.search(r'["\\]', quoted.sub("", out)), out
        found = {re.sub(r"\\(.)", r"\1", m) for m in quoted.findall(out)}
        assert found - {"1", "2"} == strings, out


def test_tables_json_streams_pairs_in_small_memory(tmp_path):
    """K6 has 20706 pairs (about 4 MB of JSON); none of them is held."""
    path = tmp_path / "k6.json"
    save_network(complete_graph(6), str(path))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = run(["tables", "--network", str(path), "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20


def test_tables_json_refuses_k8_before_writing(tmp_path, capsys):
    """K8's 4140 elements make 8571870 pairs, some 1.6 GB of JSON: refused, exit 2."""
    path = tmp_path / "k8.json"
    save_network(complete_graph(8), str(path))
    code, out, err = invoke(capsys, "tables", "--network", str(path), "--format", "json")
    assert (code, out) == (2, "")
    assert err == (f"error: the join table has 8571870 pairs, past {cli.MAX_JSON_PAIRS} for "
                   "--format json; text output prints its verdicts\n")


def test_tables_json_pair_bound_admits_k7_and_is_exact(tmp_path, capsys, monkeypatch):
    """K7's 385003 pairs are written; on K6 (203 elements, 20706 pairs) the
    bound admits exactly its pairs and refuses one fewer; text is never refused."""
    assert 877 * 878 // 2 <= cli.MAX_JSON_PAIRS < 4140 * 4141 // 2
    path = tmp_path / "k6.json"
    save_network(complete_graph(6), str(path))
    argv = ("tables", "--network", str(path))
    monkeypatch.setattr(cli, "MAX_JSON_PAIRS", 20706)
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "") and len(json.loads(out)["pairs"]) == 20706
    monkeypatch.setattr(cli, "MAX_JSON_PAIRS", 20705)
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "") and "20706 pairs, past 20705" in err
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("elements: 203\n")


@pytest.mark.parametrize("argv", [
    ["invariant", "--kind", "r"],
    ["quotient", "--format", "json"],
    ["verify", "quotient", "--steps", "2", "--trials", "1"],
], ids=["invariant", "quotient", "verify-quotient"])
def test_trivial_quotient_of_long_chain_in_small_memory(tmp_path, argv):
    """The quotient by the trivial partition of a 2000-cell chain is the chain
    itself: 1999 edges, never a 2000 x 2000 matrix (about 32 MB of slots)."""
    n = 2000
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "cells": [{"id": str(c), "type": 1} for c in range(n)],
        "edges": [{"from": str(c), "to": str(c + 1), "weight": 1} for c in range(n - 1)],
    }))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = run([*argv, "--network", str(path), "--partition", "-"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20


class TestExportDot:
    def test_plain_and_colored(self, capsys):
        code, out, _ = invoke(capsys, "export-dot", "--network", fx("triangle"))
        assert code == 0
        assert out.count("->") == 7
        code, out, _ = invoke(capsys, "export-dot", "--network", fx("triangle"),
                              "--partition", "12/3")
        assert "fillcolor" in out


def test_byte_identical_reruns(capsys):
    first = invoke(capsys, "lattice", "--network", fx("twin_cycles_hub"),
                   "--format", "json")
    second = invoke(capsys, "lattice", "--network", fx("twin_cycles_hub"),
                    "--format", "json")
    assert first == second
    a = invoke(capsys, "tables", "--network", fx("driven_chain"), "--format", "json")
    b = invoke(capsys, "tables", "--network", fx("driven_chain"), "--format", "json")
    assert a == b


# quotes, backslashes, non-ASCII and a control character: every escape json.dumps makes
_ODD_ID = st.text(st.sampled_from(['a', 'b', '"', '\\', 'é', '中', '😀', '\x01']),
                  min_size=1, max_size=3)


def _lattice_and_tables_payloads(net) -> tuple[dict, dict]:
    """The full `lattice` and `tables` JSON payloads, built pair by pair."""
    report = join_table_report(net)
    elements = report.lattice.elements
    texts = [format_partition(p, net.cell_ids) for p in elements]
    classes = [k.value for k in report.classes]
    lattice = {"elements": texts, "bottom": report.lattice.bottom, "top": report.lattice.top,
               "cover_edges": [[i, j] for i, j in sorted(report.lattice.cover_edges)]}
    pairs = []
    for i, left in enumerate(elements):
        for j in range(i, len(elements)):
            k = elements.index(join(left, elements[j]))
            pairs.append({"join": texts[k], "join_class": classes[k], "left": texts[i],
                          "left_class": classes[i], "right": texts[j], "right_class": classes[j]})
    tables = {
        "elements": [{"partition": t, "class": k} for t, k in zip(texts, classes)],
        "general_table_ok": report.general_table_ok,
        "matched_table_ok": report.matched_table_ok,
        "nonweak_join_closed": report.nonweak_join_closed,
        "pairs": pairs,
        "rooted_all_reach_matched": report.rooted_all_reach_matched,
    }
    return lattice, tables


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(_ODD_ID, min_size=1, max_size=5, unique=True),
       seed=st.integers(0, 2**16), tropical=st.booleans())
@example(ids=['"'], seed=0, tropical=False)  # one element: no cover edge, one pair
@example(ids=['a"', "\\", "é"], seed=1, tropical=True)
def test_lattice_and_tables_json_are_json_dumps_of_the_payload(ids, seed, tropical):
    """`lattice` and `tables` write their lists from pre-encoded pieces; the
    bytes must be json.dumps(payload, indent=2, sort_keys=True) + newline."""
    rng = random.Random(seed)
    n = len(ids)
    weights = (1, 2.5, 1) if tropical else (1, 2, -1)
    doc = {
        "monoid": "tropical-min" if tropical else "int-add",
        "cells": [{"id": c, "type": 1 + (i > 0 and rng.randrange(2))} for i, c in enumerate(ids)],
        "edges": [{"from": ids[rng.randrange(n)], "to": ids[rng.randrange(n)],
                   "weight": rng.choice(weights)} for _ in range(rng.randint(0, 2 * n))],
    }
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "net.json"
        path.write_text(json.dumps(doc))
        net = load_network(str(path))
        expected = _lattice_and_tables_payloads(net)
        for command, payload in zip(("lattice", "tables"), expected):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run([command, "--network", str(path), "--format", "json"])
            assert code in (0, 1)
            assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**16), tropical=st.booleans())
@example(n=1, seed=0, tropical=False)  # one cell: the one-color partition, a 1x1 matrix
@example(n=3, seed=5, tropical=True)
def test_balanced_json_is_json_dumps_of_the_payload(n, seed, tropical):
    """`balanced` writes its quotient matrix row by row; the bytes must be
    json.dumps(payload, indent=2, sort_keys=True) + newline, with the
    tropical zero spelled "inf", for every partition of the lattice (the
    one-color top included where it is balanced) and an unbalanced one."""
    rng = random.Random(seed)
    ids = "abcdef"[:n]
    weights = (1, 2.5, 1) if tropical else (1, 2, -1)
    doc = {
        "monoid": "tropical-min" if tropical else "int-add",
        "cells": [{"id": c, "type": 1} for c in ids],
        "edges": [{"from": rng.choice(ids), "to": rng.choice(ids), "weight": rng.choice(weights)}
                  for _ in range(rng.randint(0, 2 * n))],
    }
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "net.json"
        path.write_text(json.dumps(doc))
        net = load_network(str(path))
        for spec in [*_lattice_and_tables_payloads(net)[0]["elements"], ids]:
            cert = is_balanced(net, parse_partition(spec, net.cell_ids))
            payload = {"partition": spec, "balanced": cert is not None}
            if cert is not None:
                payload["quotient_matrix"] = [["inf" if v == math.inf else v for v in row]
                                              for row in cert.quotient_matrix]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(["balanced", "--network", str(path), "--partition", spec,
                            "--format", "json"])
            assert code == (0 if cert is not None else 1)
            assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


GOLDEN = Path(__file__).resolve().parent / "golden"
_GOLDEN_COMMANDS = {
    "lattice.json": ["lattice", "--format", "json"],
    "lattice.dot": ["lattice", "--format", "dot"],
    "tables.json": ["tables", "--format", "json"],
    "tables_quotient.json": ["tables", "--format", "json", "--quotient", "-"],
    "quotient.json": ["quotient", "--format", "json", "--partition", "-"],
    "export.dot": ["export-dot"],
    "condense.json": ["condense", "--format", "json"],
    "rdc.json": ["rdc", "--format", "json"],
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("golden", sorted(_GOLDEN_COMMANDS))
def test_lattice_output_matches_golden(capsys, name, golden):
    """Every byte of lattice, tables, quotient, condense, rdc and export-dot output.

    The lattice goldens pin element order and cover indices; the quotient
    over the trivial partition and the plain DOT export pin the edge order
    of a network written back out; condense and rdc pin the block order;
    the quotient class table over the trivial partition pins every
    coarsening's text and classes.

    Regenerate a golden only when the output is meant to change, e.g.
    `synckit lattice --network fixtures/NAME.json --format dot > tests/golden/NAME/lattice.dot`.
    """
    command, *flags = _GOLDEN_COMMANDS[golden]
    code, out, err = invoke(capsys, command, "--network", fx(name), *flags)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name / golden).read_text()
