"""The scripts under scripts/ still run against the current library."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["scripts/survey_fixtures.py"], "survey_fixtures.txt"),
    (["scripts/verify_dynamics.py", "--seeds", "1", "--steps", "10"], None),
], ids=["survey_fixtures", "verify_dynamics"])
def test_script_exits_zero(argv, golden):
    """Both scripts exit 0; the survey's classes, reach verdicts and tops match the golden."""
    done = _run_script(argv)
    assert done.returncode == 0, done.stdout + done.stderr
    if golden is not None:
        assert done.stdout == (GOLDEN / golden).read_text()


def _script(name):
    """scripts/<name>.py imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_survey_top_nonweak_verdict_is_exact(monkeypatch, capsys):
    """The survey calls its candidate valid exactly when it is the one
    maximal non-weak element, found here by refinement over every pair.
    On item 201 (5 cells) the candidate 12/345 tops the non-weak elements
    although a rooted element is not reach-in matched."""
    from synckit.classification import ColorClass, classify_partition
    from synckit.partition import refines
    from synckit.synchrony import enumerate_balanced

    from oracles import seeded_lattice_networks, top_nonweak

    script = _script("survey_fixtures")
    valid = []
    for net in seeded_lattice_networks():
        monkeypatch.setattr(script, "load_network", lambda path: net)
        script.survey(Path("net.json"))
        [line] = [s for s in capsys.readouterr().out.splitlines() if "top non-weak:" in s]
        candidate, matched = top_nonweak(net)
        nonweak = [b for b in enumerate_balanced(net).elements
                   if classify_partition(net, b) is not ColorClass.WEAK]
        tops = [b for b in nonweak if not any(a != b and refines(b, a) for a in nonweak)]
        assert line.endswith(f"(valid: {tops == [candidate]})"), line
        valid.append((line.split()[2], tops == [candidate], matched))
    assert valid[201] == ("12/345", True, False)


def test_verify_dynamics_refuses_zero_steps():
    """A run of no steps is refused before any check reports "ok"."""
    done = _run_script(["scripts/verify_dynamics.py", "--seeds", "1", "--steps", "0"])
    assert done.returncode != 0, done.stdout + done.stderr
    assert " ok" not in done.stdout
    assert "steps must be at least 1" in done.stderr


def test_verify_dynamics_exactness_line_reads_the_comparisons_alone(monkeypatch, capsys):
    """A falsification shortfall fails the fixture but not its exactness line."""
    script = _script("verify_dynamics")
    monkeypatch.setattr(script, "numeric_verdict", lambda *args, **kwargs: True)
    assert not script.verify(ROOT / "fixtures" / "edge_pair.json", 1, 5)
    out = capsys.readouterr().out
    assert "falsified 0/1 non-balanced candidates" in out
    assert "locality exact: True" in out


def test_lattice_sweep_runs_a_tiny_paired_comparison():
    """A tiny A/B of this tree against itself: each network's row reads the
    lattice size both trees agree on, their generators, their signature
    calls, the median ratio, its quartiles and the pairs won of two."""
    done = _run_script(["scripts/lattice_sweep.py", "--against", ".", "--repeats", "2", "--rings",
                        "4-5", "--complete", "3", "--sparse", "5", "--sparse-seeds", "1"])
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [row[:2] for row in rows] == [
        ["C4", "3"], ["C5", "2"], ["K3", "5"], ["sparse5.0", "9"]]
    for row in rows:  # the same generators and signature calls in both
        assert row[2] == row[4] and row[5] == row[7]
        ratio, (low, high), (won, pairs) = float(row[-3]), row[-2].split("-"), row[-1].split("/")
        assert 0 < float(low) <= ratio <= float(high)
        assert pairs == "2" and won in ("0", "1", "2")
    assert [row[4] for row in rows] == ["1", "1", "2", "0"]


def test_lattice_sweep_names_a_network_whose_lattices_differ(tmp_path):
    """A tree whose cover edges point the wrong way gives lattices of the
    same sizes; the sweep still sees them differ, names the network and
    exits 1."""
    shutil.copytree(ROOT / "src" / "synckit", tmp_path / "src" / "synckit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "synckit" / "synchrony.py"
    text = source.read_text()
    assert text.count("covers.add((i, j))") == 1
    source.write_text(text.replace("covers.add((i, j))", "covers.add((j, i))"))
    done = _run_script(["scripts/lattice_sweep.py", "--against", str(tmp_path), "--repeats", "1",
                        "--rings", "4", "--complete", "3", "--sparse", "none"])
    assert done.returncode == 1, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["C4", "3"], ["K3", "5"]]
    assert done.stderr == "the trees' lattices differ on C4, K3\n"


def _run_script(argv):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_verify_dynamics_prints_the_same_with_trial_workers(monkeypatch, capsys, tmp_path):
    """Splitting each check's trials over forked workers changes no byte.

    Four fixtures keep the forks few: cancelling weights, zero row sums, a
    driven chain and two sources feeding a pair."""
    import synckit.dynamics as dyn

    for name in ("cancel_cycle", "driven_chain", "two_sources_pair", "zero_sum_triangle"):
        shutil.copy(ROOT / "fixtures" / f"{name}.json", tmp_path)
    script = _script("verify_dynamics")
    monkeypatch.setattr(sys, "argv", ["verify_dynamics.py", "--seeds", "1", "--steps", "10",
                                      "--fixtures", str(tmp_path)])
    monkeypatch.setattr(dyn.os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    fork = os.fork
    monkeypatch.setattr(dyn.os, "fork", lambda: forks.append(1) or fork())
    runs = []
    for work in (sys.maxsize, 1):
        monkeypatch.setattr(dyn, "_FORK_WORK", work)
        with pytest.raises(SystemExit) as done:
            script.main()
        runs.append((done.value.code, capsys.readouterr()))
        assert bool(forks) == (work == 1)
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
