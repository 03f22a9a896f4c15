"""Smoke test of the benchmark harness at reduced input size.

Run from the repository root:

    python -m pytest bench/test_smoke.py -q

Each workload runs once untraced and once traced on small generated
inputs; every output check must pass and every metric named in
BENCHMARK.json must be reported with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_small_workload_passes_every_check(workload: str, trace: int) -> None:
    done = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--size", "small")
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.strip().splitlines()
    report, result = json.loads(report_line)["report"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= run.MIN_PASSES * len(report["commands"]) * (1 + trace)
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for key in ("cpu_model", "nproc", "python", "numpy", "git_commit", "seed"):
        assert key in report["environment"]
    assert report["why"] and report["inputs"]
    if trace:
        assert report["per_layer"]["self_time_gap_ns_max"] == 0
        assert report["per_layer"]["notes"] == []
    else:
        assert all(v > 0 for v in (m["value"] for m in result["metrics"].values()))


def test_benchmark_json_names_what_the_code_reports() -> None:
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def test_same_seed_gives_same_inputs(tmp_path) -> None:
    for name in workloads.GENERATORS:
        digests = []
        for rep, seed in ((0, 3), (1, 3), (2, 4)):
            out = tmp_path / f"{name}{rep}"
            workloads.build(name, seed, "small", str(out))
            digests.append(run._digest_dir(str(out)))
        assert digests[0] == digests[1] != digests[2]


def test_missing_functions_are_reported_absent(tmp_path) -> None:
    """A refactor that deletes a traced function must not break the trace."""
    wl = workloads.build("structure", 1, "small", str(tmp_path))
    argv = next(s.argv for s in wl.steps if s.family == "cir")
    snippet = textwrap.dedent(f"""
        import io, json, sys
        sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {BENCH!r}]
        import synckit.cli, synckit.network, synckit.synchrony, synckit.connectivity
        import spans
        original = synckit.network.row_color_sum
        del synckit.network.row_color_sum
        del synckit.connectivity.condensation
        tracer = spans.Tracer("probe")
        spans.install(tracer)
        synckit.network.row_color_sum = original
        sys.stdout = io.StringIO()
        code = synckit.cli.run({argv!r})
        sys.stdout = sys.__stdout__
        print(json.dumps([code, spans.command_metrics(tracer.dump())]))
    """)
    done = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    code, metrics = json.loads(done.stdout)
    assert code == 0
    assert "network.row_color_sum.calls" not in metrics
    assert "synchrony.cir.rounds" not in metrics
    assert "connectivity.condensation.s" not in metrics
    assert metrics["synchrony.cir_balanced.calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = _bench(str(tmp_path), "--workload", "lattice", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
