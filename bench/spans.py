"""Spans around synckit's public functions, installed from outside.

`install` replaces every binding of each target function in every
loaded synckit module (classification, for one, imports `cir_balanced`
and `all_in_reachability` by name) with a timing wrapper.  A call
either opens a recorded span (name, start, end, parent span, command
id) or, for calls made once per cell or per candidate, adds its count
and time to an aggregate kept under the nearest recorded span.  Self
time is a frame's duration minus the time of the frames nested in it,
so the self times of one command add up exactly to its `cli.run` span.
Everything stays in memory until the command ends.

A target that no longer exists is reported as absent instead of failing,
so the benchmark keeps working when a later change removes a function.
"""

from __future__ import annotations

import sys
from functools import cached_property
from statistics import median
from time import perf_counter_ns
from typing import Any, Callable, Optional

SPAN = "span"
AGG = "agg"

# (module, attribute path, how calls are recorded); a tuple of span names
# means "aggregate when called directly under one of these spans".
TARGETS: list[tuple[str, str, Any]] = [
    ("cli", "run", SPAN),
    ("network", "load_network", SPAN),
    ("network", "parse_network", SPAN),
    ("network", "Network.in_edges", SPAN),
    ("network", "row_color_sum", AGG),
    ("partition", "refines", AGG),
    ("partition", "join", AGG),
    ("partition", "meet", AGG),
    ("partition", "parse_partition", AGG),
    ("partition", "format_partition", AGG),
    ("connectivity", "scc_decomposition", SPAN),
    ("connectivity", "condensation", SPAN),
    ("connectivity", "all_in_reachability", SPAN),
    ("connectivity", "rdc_decomposition", SPAN),
    ("connectivity", "in_reachability", SPAN),
    ("connectivity", "cumulative_in_k", AGG),
    ("synchrony", "is_balanced", ("synchrony.enumerate_balanced",)),
    ("synchrony", "is_exo_balanced", SPAN),
    ("synchrony", "cir_balanced", SPAN),
    ("synchrony", "enumerate_balanced", SPAN),
    ("synchrony", "quotient_network", SPAN),
    ("synchrony", "BalancedLattice.index_of", AGG),
    ("classification", "classify_color", AGG),
    ("classification", "classify_partition", AGG),
    ("classification", "is_matched", SPAN),
    ("classification", "is_invariant", SPAN),
    ("classification", "join_table_report", SPAN),
    ("classification", "quotient_class_report", SPAN),
    ("dynamics", "sample_admissible", SPAN),
    ("dynamics", "evolve", SPAN),
    ("dynamics", "evaluate", AGG),
    ("dynamics", "component_value", AGG),
    ("dynamics", "check_invariance", SPAN),
    ("dynamics", "check_locality", SPAN),
    ("dynamics", "check_subsystem", SPAN),
    ("dynamics", "check_quotient_consistency", SPAN),
]

# Span names that differ from "module.attribute path".
NAMES = {"network.Network.in_edges": "network.in_edges"}


def span_name(module: str, path: str) -> str:
    full = f"{module}.{path}"
    return NAMES.get(full, full)


# Per-layer metrics reported by the traced run: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    "network.load_network.s": ("s", "lower"),
    "network.in_edges.s": ("s", "lower"),
    "network.row_color_sum.calls": ("count", "lower"),
    "network.row_color_sum.s": ("s", "lower"),
    "synchrony.cir.rounds": ("count", "lower"),
    "connectivity.scc_decomposition.s": ("s", "lower"),
    "connectivity.condensation.s": ("s", "lower"),
    "connectivity.all_in_reachability.calls": ("count", "lower"),
    "connectivity.all_in_reachability.s": ("s", "lower"),
    "connectivity.cumulative_in_k.s": ("s", "lower"),
    "synchrony.is_balanced.calls": ("count", "lower"),
    "synchrony.is_balanced.s": ("s", "lower"),
    "synchrony.enumerate_balanced.s": ("s", "lower"),
    "synchrony.enumerate_balanced.self_s": ("s", "lower"),
    "synchrony.lattice.elements": ("count", "higher"),
    "synchrony.lattice.candidates": ("count", "lower"),
    "synchrony.cir_balanced.s": ("s", "lower"),
    "synchrony.quotient_network.s": ("s", "lower"),
    "partition.refines.calls": ("count", "lower"),
    "partition.refines.s": ("s", "lower"),
    "partition.join.calls": ("count", "lower"),
    "synchrony.BalancedLattice.index_of.calls": ("count", "lower"),
    "synchrony.BalancedLattice.index_of.s": ("s", "lower"),
    "partition.format_partition.s": ("s", "lower"),
    "classification.classify_partition.calls": ("count", "lower"),
    "classification.classify_partition.s": ("s", "lower"),
    "classification.is_matched.s": ("s", "lower"),
    "classification.is_invariant.s": ("s", "lower"),
    "classification.join_table_report.self_s": ("s", "lower"),
    "classification.quotient_class_report.s": ("s", "lower"),
    "dynamics.sample_admissible.s": ("s", "lower"),
    "dynamics.evolve.s": ("s", "lower"),
    "dynamics.evaluate.calls": ("count", "lower"),
    "dynamics.component_value.calls": ("count", "lower"),
    "dynamics.check_invariance.s": ("s", "lower"),
    "dynamics.check_locality.s": ("s", "lower"),
    "dynamics.check_subsystem.s": ("s", "lower"),
    "dynamics.check_quotient_consistency.s": ("s", "lower"),
    "dynamics.trials_aborted": ("count", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Ratios that exist only where their denominator is nonzero; they go to the report.
RATIOS = {
    "connectivity.all_in_reachability.hit_ratio": "ratio",
    "synchrony.lattice.useful_ratio": "ratio",
    "dynamics.cell_evals_per_s": "1/s",
}


class Tracer:
    """Frames of one command: recorded spans plus per-span aggregates."""

    def __init__(self, cmd: str) -> None:
        self.cmd = cmd
        self.spans: list[dict] = []
        self.aggs: dict[tuple[Optional[int], str], list[int]] = {}
        self.cache: dict[str, dict[str, int]] = {}
        self.notes: list[str] = []
        self._frames: list[list[int]] = []  # per open frame: [time of nested frames]
        self._open: list[int] = []  # ids of open recorded spans

    def call(self, name: str, policy: Any, fn: Callable, args: tuple, kwargs: dict) -> Any:
        parent = self._open[-1] if self._open else None
        record = policy == SPAN or (
            isinstance(policy, tuple)
            and (parent is None or self.spans[parent]["name"] not in policy)
        )
        frame = [0]
        self._frames.append(frame)
        span: dict = {}
        if record:
            span = {"id": len(self.spans), "name": name, "parent": parent, "cmd": self.cmd}
            self.spans.append(span)
            self._open.append(span["id"])
        start = perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            self._frames.pop()
            duration = end - start
            if self._frames:
                self._frames[-1][0] += duration
            if record:
                self._open.pop()
                span.update(start=start, end=end, self=duration - frame[0])
                _annotate(span, args, result)
            else:
                acc = self.aggs.setdefault((parent, name), [0, 0, 0])
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[0]

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggs": [[p, n, *v] for (p, n), v in self.aggs.items()],
            "cache": self.cache,
            "notes": self.notes,
        }


def _annotate(span: dict, args: tuple, result: Any) -> None:
    """Attributes the derived metrics need: network size, lattice size."""
    if span["name"] == "synchrony.cir_balanced" and args:
        span["n"] = getattr(args[0], "n_cells", None)
    elif span["name"] == "synchrony.enumerate_balanced":
        elements = getattr(result, "elements", None)
        span["elements"] = len(elements) if elements is not None else None


def _wrap(tracer: Tracer, name: str, policy: Any, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, policy, fn, args, kwargs)

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


def install(tracer: Tracer) -> list[Callable[[], None]]:
    """Wrap every target; return callbacks that read lru_cache statistics."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "synckit" or k.startswith("synckit."))]
    finishers = []
    for module, path, policy in TARGETS:
        name = span_name(module, path)
        mod = sys.modules.get(f"synckit.{module}")
        *owner_path, attr = path.split(".")
        owner: Any = mod
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            tracer.notes.append(f"{name}: absent, its per-layer metrics are not reported")
            continue
        original = vars(owner)[attr]
        if isinstance(original, cached_property):
            prop = cached_property(_wrap(tracer, name, policy, original.func))
            prop.__set_name__(owner, attr)
            setattr(owner, attr, prop)
            continue
        traced = _wrap(tracer, name, policy, original)
        if owner is not mod:
            setattr(owner, attr, traced)
        else:
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
        if hasattr(original, "cache_info"):
            def finish(name=name, original=original):
                info = original.cache_info()
                tracer.cache[name] = {"hits": info.hits, "misses": info.misses}
            finishers.append(finish)
    return finishers


# ---------------------------------------------------------------------------
# from spans to metrics


def command_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command."""
    absent = {note.split(":")[0] for note in trace["notes"]}
    totals: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
    for s in trace["spans"]:
        acc = totals.setdefault(s["name"], [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += (s["end"] - s["start"]) / 1e9
        acc[2] += s["self"] / 1e9
    for _, name, calls, total, own in trace["aggs"]:
        acc = totals.setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total / 1e9
        acc[2] += own / 1e9
    out: dict[str, float] = {}
    for module, path, _ in TARGETS:
        name = span_name(module, path)
        if name in absent:
            continue
        calls, secs, own = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = secs
        out[f"{name}.self_s"] = own

    spans = trace["spans"]
    under: dict[tuple[Optional[int], str], int] = {(p, n): c for p, n, c, _, _ in trace["aggs"]}
    if "network.row_color_sum" not in absent and "synchrony.cir_balanced" not in absent:
        out["synchrony.cir.rounds"] = sum(
            under.get((s["id"], "network.row_color_sum"), 0) / s["n"]
            for s in spans if s["name"] == "synchrony.cir_balanced" and s.get("n"))
    enum = [s for s in spans if s["name"] == "synchrony.enumerate_balanced"]
    if "synchrony.enumerate_balanced" not in absent:
        out["synchrony.lattice.elements"] = sum(s.get("elements") or 0 for s in enum)
        if "synchrony.is_balanced" not in absent:
            out["synchrony.lattice.candidates"] = sum(
                under.get((s["id"], "synchrony.is_balanced"), 0) for s in enum)
    for name, info in trace["cache"].items():
        out[f"{name}.hits"] = info["hits"]
        out[f"{name}.misses"] = info["misses"]
    return out


def pass_metrics(per_step: list[list[dict[str, float]]]) -> dict[str, float]:
    """Median over each step's traced samples, summed over the script."""
    total: dict[str, float] = {}
    for samples in per_step:
        for key in set().union(*samples):
            total[key] = total.get(key, 0.0) + median(s.get(key, 0.0) for s in samples)
    return total


def ratios(m: dict[str, float]) -> dict[str, float]:
    out = {}
    hits = m.get("connectivity.all_in_reachability.hits")
    misses = m.get("connectivity.all_in_reachability.misses")
    if hits is not None and misses is not None and hits + misses:
        out["connectivity.all_in_reachability.hit_ratio"] = hits / (hits + misses)
    if m.get("synchrony.lattice.candidates"):
        out["synchrony.lattice.useful_ratio"] = (
            m["synchrony.lattice.elements"] / m["synchrony.lattice.candidates"])
    if m.get("dynamics.evaluate.s"):
        out["dynamics.cell_evals_per_s"] = (
            m.get("dynamics.component_value.calls", 0) / m["dynamics.evaluate.s"])
    return out


def self_time_gap_ns(trace: dict) -> int:
    """Sum of all self times minus the root span's duration (0 when consistent)."""
    roots = [s for s in trace["spans"] if s["parent"] is None]
    own = sum(s["self"] for s in trace["spans"]) + sum(a[4] for a in trace["aggs"])
    return own - sum(s["end"] - s["start"] for s in roots)
