import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from synckit.cli import run
from synckit.network import load_network

from conftest import FIXTURE_NAMES, fixture_path
from oracles import dense


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
        code, out, _ = invoke(capsys, "lattice", "--network", fx("driven_chain"), "--dot")
        assert out.startswith("digraph")
        assert '"1/2/3/4" -> "13/2/4"' in out

    def test_lattice_cap(self, capsys):
        code, _, err = invoke(capsys, "lattice", "--network", fx("two_roots"),
                              "--max-cells", "5")
        assert code == 2
        assert "cap" in err

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
        code, out, _ = invoke(capsys, "verify", "subsystem", "--network", fx("chain4"),
                              "--cell", "4", "--format", "json")
        assert code == 0 and json.loads(out)["exact"]
        code, out, _ = invoke(capsys, "verify", "quotient", "--network", fx("triangle"),
                              "--partition", "12/3", "--format", "json")
        assert code == 0 and json.loads(out)["exact"]

    def test_verify_missing_arguments(self, capsys):
        code, _, err = invoke(capsys, "verify", "invariance", "--network", fx("triangle"))
        assert code == 2
        code, _, err = invoke(capsys, "verify", "locality", "--network", fx("triangle"))
        assert code == 2


@pytest.mark.parametrize("argv,env", [
    (["matched", "--network", fx("chorded_cycle"), "--partition", "14/23",
      "--kind", "vk:x"], {}),
    (["lattice", "--network", fx("triangle")], {"SYNCKIT_MAX_CELLS": "abc"}),
    (["simulate", "--network", fx("chain4"), "--x0", "a,b,c,d"], {}),
    (["simulate", "--network", fx("chain4"), "--steps", "-5"], {}),
    (["verify", "invariance", "--network", fx("triangle"), "--partition", "12/3",
      "--steps", "-1"], {}),
    (["verify", "invariance", "--network", fx("triangle"), "--partition", "12/3",
      "--trials", "0"], {}),
    (["verify", "locality", "--network", fx("chain4"), "--cell", "3",
      "--trials", "-2"], {}),
    (["verify", "invariance", "--network", fx("chain4"), "--partition", "1234",
      "--mode", "rk4", "--dt", "0"], {}),
    (["verify", "invariance", "--network", fx("triangle"), "--partition", "1/2/3",
      "--tol", "-1"], {}),
    (["verify", "quotient", "--network", fx("triangle"), "--partition", "12/3",
      "--tol", "nan"], {}),
    (["verify", "subsystem", "--network", fx("chain4"), "--cell", "3",
      "--mode", "rk4", "--dt", "inf"], {}),
    (["simulate", "--network", fx("chain4"), "--mode", "rk4", "--dt", "nan"], {}),
    (["simulate", "--network", fx("chain4"), "--dt", "-1"], {}),
    (["quotient", "--network", fx("chain4"), "--partition", "1234"], {}),
    (["invariant", "--network", fx("chain4"), "--partition", "1234", "--kind", "r"], {}),
    (["tables", "--network", fx("chain4"), "--quotient", "1234"], {}),
    (["verify", "quotient", "--network", fx("chain4"), "--partition", "1234"], {}),
    # an RK4 stage past the float range blows up before the step is taken
    (["simulate", "--network", fx("triangle"), "--mode", "rk4", "--dt", "1e300"], {}),
    (["verify", "quotient", "--network", fx("triangle"), "--partition", "12/3",
      "--mode", "rk4", "--dt", "1e300"], {}),
    (["verify", "subsystem", "--network", fx("chain4"), "--cell", "3",
      "--mode", "rk4", "--dt", "1e300"], {}),
], ids=["vk-not-int", "max-cells-env", "x0-not-numbers", "simulate-steps",
        "verify-steps", "verify-trials", "locality-trials", "verify-dt-zero",
        "verify-tol-negative", "verify-tol-nan", "verify-dt-inf", "simulate-dt-nan",
        "simulate-dt-negative", "quotient-not-balanced", "invariant-not-balanced",
        "tables-quotient-not-balanced", "verify-quotient-not-balanced",
        "simulate-rk4-stage-overflow", "verify-quotient-rk4-stage-overflow",
        "verify-subsystem-rk4-stage-overflow"])
def test_bad_input_exits_two_with_error_line(capsys, monkeypatch, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


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


GOLDEN = Path(__file__).resolve().parent / "golden"
_GOLDEN_COMMANDS = {
    "lattice.json": ["lattice", "--format", "json"],
    "lattice.dot": ["lattice", "--dot"],
    "tables.json": ["tables", "--format", "json"],
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
    of a network written back out; condense and rdc pin the block order.

    Regenerate a golden only when the output is meant to change, e.g.
    `synckit lattice --network fixtures/NAME.json --dot > tests/golden/NAME/lattice.dot`.
    """
    command, *flags = _GOLDEN_COMMANDS[golden]
    code, out, err = invoke(capsys, command, "--network", fx(name), *flags)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name / golden).read_text()
