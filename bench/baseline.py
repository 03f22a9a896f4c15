"""Run the benchmark on several seeds and record the results as a baseline.

Run from the repository root:

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload this makes one untraced run per seed and one traced
run on the first seed, then records every run's metrics, the median,
quartiles and spread (quartile distance over median) of each end-to-end
metric, the traced per-layer metrics and one full report with the
environment and per-command latencies.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    *_, report, result = done.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    out: dict = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        report = None
        for seed in args.seeds:
            report, result = bench(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            print(workload, seed, result["correct"], result["failed"],
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        stats = {m["name"]: spread([r["metrics"][m["name"]]["value"] for r in runs])
                 for m in spec["end_to_end"]} if len(runs) >= 2 else {}
        for name, s in stats.items():
            print(f"  {name:15s} median {s['median']:.4g} spread {s['spread']:.3f}", flush=True)
        traced_report, traced = bench(workload, args.seeds[0], seconds, 1)
        out["workloads"][workload] = {
            "runs": runs,
            "end_to_end": stats,
            "per_layer": {"seed": args.seeds[0], **traced},
            "per_layer_ratios": traced_report["per_layer"]["ratios"],
            "report": report,
        }
    out["environment"] = report["environment"] if report else {}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
