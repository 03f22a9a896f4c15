"""synckit benchmark: CLI command latency on generated workloads.

Run from the repository root:

    python3 bench/run.py --workload structure --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: the workload's command script
runs one command at a time, round robin, until --seconds have
passed (and every command has run at least twice).  Each command runs
`synckit.cli.run(argv)` in a fresh forked child of this process, so
module-level caches start cold as in a real `synckit` invocation; at most
one child exists at a time.  The child times the call and writes its
standard output to a file; every output is checked after the timed loop
against answers known by construction or recomputed independently
(bench/oracle.py), and every rerun of a command must print the same bytes.

With --trace 0 the last line of standard output carries the end-to-end
metrics: set-up time, the script's latency in units of a reference loop
timed beside every command (see reference_loop), and peak memory.  With
--trace 1 each command is also run a second time with
timing wrappers installed around synckit's public functions
(bench/spans.py), and the last line carries the per-layer metrics.  The
line before it is a full report: environment, inputs, per-command
latencies with sample counts, checks and notes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import median
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
IMPORT_EVERY_S = 2.0
REFERENCE_ITERATIONS = 100_000
MIN_PASSES = 2
EXIT_CRASH = 70

END_TO_END = {
    "setup_s": "s",
    "run_ref": "ref",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    latency: float
    reference: float
    code: int
    rss_mb: float
    digest: str
    stderr: str = ""
    trace: Optional[dict] = None


@dataclass
class StepRecord:
    step: workloads.Step
    plain: list[Sample] = field(default_factory=list)
    traced: list[Sample] = field(default_factory=list)
    output: Optional[str] = None  # path of the first output, kept for checking


def import_seconds(src: str) -> float:
    """Time `import synckit.cli` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import synckit.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop, the unit of run_ref.

    Each command child runs it right after its timed call, on the same
    CPU, so a command's latency can be expressed in the speed the
    machine had at that moment.  The virtual machines this benchmark
    runs on change speed by tens of percent within minutes.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
        table[i % 1024] = (i, acc)
    return time.perf_counter() - start


def _digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _child(argv: list[str], base: str, traced: bool, cmd: str) -> None:
    """Run one command in this (forked) process and leave via os._exit."""
    code = EXIT_CRASH
    try:
        sys.stdout = open(base + ".out", "w", encoding="utf-8")
        sys.stderr = open(base + ".err", "w", encoding="utf-8")
        tracer = finishers = None
        if traced:
            tracer = tracing.Tracer(cmd)
            finishers = tracing.install(tracer)
        from synckit import cli

        start = time.perf_counter()
        code = cli.run(argv)
        sys.stdout.flush()
        latency = time.perf_counter() - start
        record = {"latency": latency, "reference": reference_loop(), "code": code}
        if tracer is not None:
            for finish in finishers:
                finish()
            record["trace"] = tracer.dump()
        with open(base + ".rec", "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    except BaseException:
        traceback.print_exc()
        code = EXIT_CRASH
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code if isinstance(code, int) else EXIT_CRASH)


def run_command(argv: list[str], base: str, traced: bool, cmd: str) -> Sample:
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        _child(argv, base, traced, cmd)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    latency, reference, trace = float("nan"), float("nan"), None
    if os.path.exists(base + ".rec"):
        with open(base + ".rec", encoding="utf-8") as fh:
            record = json.load(fh)
        latency, reference, trace = record["latency"], record["reference"], record.get("trace")
    with open(base + ".out", "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(base + ".err", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()[-300:]
    for suffix in (".err", ".rec"):
        if os.path.exists(base + suffix):
            os.remove(base + suffix)
    return Sample(latency, reference, code, usage.ru_maxrss / 1024.0, digest, stderr, trace)


def tail(values: list[float]) -> Optional[dict]:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    ordered = sorted(values)
    return {"percentile": pct, "value": ordered[max(0, -(-pct * n // 100) - 1)]}


def environment(root: str, src: str, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    pkg = os.path.join(src, "synckit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": seed,
    }


def measure(wl: workloads.Workload, outdir: str, seconds: float, traced: bool, src: str,
            imports: list[float]) -> list[StepRecord]:
    """Round-robin command samples; an import sample every IMPORT_EVERY_S seconds.

    Spreading the import samples over the whole run keeps the import part
    of setup_s from depending on the machine's speed in the few seconds
    of set-up.
    """
    records = [StepRecord(step) for step in wl.steps]
    deadline = time.perf_counter() + seconds
    last_import = time.perf_counter()
    k = 0
    while k < MIN_PASSES * len(records) or time.perf_counter() < deadline:
        if time.perf_counter() - last_import >= IMPORT_EVERY_S:
            imports.append(import_seconds(src))
            last_import = time.perf_counter()
        rec = records[k % len(records)]
        modes = (False, True) if traced else (False,)
        for mode in modes:
            base = os.path.join(outdir, f"{k}{'t' if mode else ''}")
            sample = run_command(rec.step.argv, base, mode, rec.step.name)
            (rec.traced if mode else rec.plain).append(sample)
            if rec.output is None:
                rec.output = base + ".out"
            else:
                os.remove(base + ".out")
        k += 1
    return records


def check(records: list[StepRecord]) -> tuple[int, int, list[str]]:
    """Count failed samples: wrong exit code, changed output or failed check."""
    attempted = failed = 0
    problems: list[str] = []
    for rec in records:
        first = rec.plain[0]
        errors: list[str] = []
        try:
            with open(rec.output, encoding="utf-8") as fh:
                errors = rec.step.check(json.load(fh))
        except Exception as exc:  # a malformed output is a failed check, not a crash
            errors = [f"output could not be checked: {type(exc).__name__}: {exc}"]
        problems += [f"{rec.step.name}: {e}" for e in errors]
        for s in rec.plain + rec.traced:
            attempted += 1
            bad = s.code != rec.step.code or s.digest != first.digest or bool(errors)
            failed += bad
            if s.code != rec.step.code:
                problems.append(f"{rec.step.name}: exit code {s.code}, want {rec.step.code}; "
                                f"stderr: {s.stderr.strip()!r}")
            elif s.digest != first.digest:
                problems.append(f"{rec.step.name}: output differs between reruns")
    return attempted, failed, problems


def _trials_aborted(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            out = json.load(fh)
    except ValueError:
        return 0
    trials = out.get("trials") if isinstance(out, dict) else None
    if not isinstance(trials, list):
        return 0
    return sum(1 for t in trials if isinstance(t, dict) and t.get("aborted"))


def summarize(records: list[StepRecord], generation: list[float], imports: list[float],
              traced: bool) -> tuple[dict, dict]:
    """Metrics for the final line, and the detailed report."""
    medians = {r.step.name: median(s.latency for s in r.plain) for r in records}
    commands = {}
    families: dict[str, float] = {}
    for r in records:
        lat = [s.latency for s in r.plain]
        commands[r.step.name] = {
            "family": r.step.family,
            "samples": len(lat),
            "samples_s": lat,
            "median_s": medians[r.step.name],
            "min_s": min(lat),
            "max_s": max(lat),
            "tail": tail(lat),
            "exit_code": r.plain[0].code,
            "peak_rss_mb": max(s.rss_mb for s in r.plain),
        }
        families[f"cmd.{r.step.family}_s"] = families.get(f"cmd.{r.step.family}_s", 0.0) + medians[r.step.name]
    every = [s.latency for r in records for s in r.plain]
    run_s = sum(medians.values())
    metrics = {
        "setup_s": median(generation) + median(imports),
        "run_ref": sum(median(s.latency / s.reference for s in r.plain) for r in records),
        "peak_rss_mb": max(s.rss_mb for r in records for s in r.plain),
    }
    end_to_end = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    report = {
        "run_s": run_s,
        "reference_s": median(s.reference for r in records for s in r.plain),
        "commands": commands,
        "families": families,
        "latency": {"samples": len(every), "median_s": median(every), "tail": tail(every)},
        "setup": {"generation_s": generation, "import_s": imports,
                  "import_median_s": median(imports), "import_tail": tail(imports)},
        "end_to_end": end_to_end,
    }
    if not traced:
        return end_to_end, report

    per_step = [[tracing.command_metrics(s.trace) for s in r.traced if s.trace] for r in records]
    layer = tracing.pass_metrics([m for m in per_step if m])
    layer["dynamics.trials_aborted"] = sum(_trials_aborted(r.output) for r in records)
    traced_run = sum(median(s.latency for s in r.traced) for r in records)
    layer["trace.overhead_ratio"] = traced_run / run_s
    notes = sorted({n for r in records for s in r.traced if s.trace for n in s.trace["notes"]})
    gaps = [tracing.self_time_gap_ns(s.trace) for r in records for s in r.traced if s.trace]
    out = {k: {"value": layer[k], "unit": unit} for k, (unit, _) in tracing.PER_LAYER.items()
           if k in layer}
    report["per_layer"] = {
        "metrics": out,
        "ratios": {k: {"value": v, "unit": tracing.RATIOS[k]}
                   for k, v in tracing.ratios(layer).items()},
        "absent": sorted(set(tracing.PER_LAYER) - set(layer)),
        "notes": notes,
        "self_time_gap_ns_max": max((abs(g) for g in gaps), default=0),
        "traced_run_s": traced_run,
        "all": layer,
    }
    return out, report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; 'small' is for the harness smoke test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "synckit", "cli.py")):
        print("error: no src/synckit under the working directory; run from the repository root",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    # on SIGTERM, unwind through the finally blocks: stop the child, remove the work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run(args, root, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def _run(args, root: str, src: str, workdir: str) -> int:
    inputs = os.path.join(workdir, "inputs")
    generation, imports, digests = [], [], set()
    wl = None
    for _ in range(SETUP_REPS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        wl = workloads.build(args.workload, args.seed, args.size, inputs)
        generation.append(time.perf_counter() - start)
        imports.append(import_seconds(src))
        digests.add(_digest_dir(inputs))

    sys.path.insert(0, src)
    import synckit.cli  # noqa: F401  (children inherit the imported, cold modules)

    if not os.path.abspath(synckit.cli.__file__).startswith(src + os.sep):
        print(f"error: imported synckit from {synckit.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir)
    # A real invocation's collector sees only its own objects, so keep the
    # children's collections from walking everything this process holds.
    gc.collect()
    gc.freeze()
    records = measure(wl, outdir, args.seconds, bool(args.trace), src, imports)
    gc.unfreeze()

    attempted, failed, problems = check(records)
    if len(digests) != 1:
        problems.append("the same seed generated different inputs")
    metrics, report = summarize(records, generation, imports, bool(args.trace))
    gap = report.get("per_layer", {}).get("self_time_gap_ns_max", 0)
    if gap:
        problems.append(f"span self times miss their cli.run span by {gap} ns")
    report = {
        "benchmark": "synckit",
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one forked child per command",
        "environment": environment(root, src, args.seed),
        "inputs": wl.inputs(),
        **report,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems,
    }
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
