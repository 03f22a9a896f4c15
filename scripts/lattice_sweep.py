#!/usr/bin/env python3
"""Paired in-process A/B of `enumerate_balanced` against another source tree.

Usage:
    python scripts/lattice_sweep.py [--against TREE] [--repeats N]
        [--rings 10-16] [--complete 6-8] [--sparse 9-12] [--sparse-seeds K]
        [--workload-seed S]

For each network it prints the lattice's elements, the generators of the
automorphism group that split-and-cir prunes its splits with, the
`_signature` calls of one enumeration and the median time, in this tree
and, with --against (the root of another checkout, holding src/synckit),
in that tree with the median of the paired ratios this/against, their
first and third quartiles, and the pairs this tree won (a ratio below 1)
out of all pairs, which tell one noisy median from a change.  The two
trees run in one process, one after the other in an order that
alternates from pair to pair.  The trees must give the same lattice,
each element's colors and the cover edges; else the script names the
networks where they differ and exits 1.  The networks are the one-type
directed rings C_n, the complete graphs K_n, seeded one-type sparse
networks of two senders per cell, and, with --workload-seed, the lattice
networks of bench/run.py's `lattice` workload at that seed.  An empty
range ("--rings none") leaves a family out.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tree(root: Path, name: str):
    """The synckit package under root/src as a package called name."""
    package = root / "src" / "synckit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("network", "synchrony"):
        importlib.import_module(f"{name}.{sub}")
    return module


def one_type(n: int, edges) -> dict:
    return {
        "monoid": "int-add",
        "cells": [{"id": str(c + 1), "type": 1} for c in range(n)],
        "edges": [{"from": str(d + 1), "to": str(c + 1), "weight": 1} for c, d in edges],
    }


def span(text: str) -> range:
    if text == "none":
        return range(0)
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def networks(args) -> list[tuple[str, dict]]:
    """(name, document) per network to sweep."""
    out = []
    if args.workload_seed is not None:
        sys.path.insert(0, str(ROOT / "bench"))
        import workloads

        with tempfile.TemporaryDirectory() as workdir:
            work = workloads.lattice(args.workload_seed, workloads.SIZES["full"], workdir)
        for name, lift in work.networks.items():
            out.append((name, lift.doc()))
    for n in span(args.rings):
        out.append((f"C{n}", one_type(n, [(c, (c - 1) % n) for c in range(n)])))
    for n in span(args.complete):
        edges = [(c, d) for c in range(n) for d in range(n) if d != c]
        out.append((f"K{n}", one_type(n, edges)))
    for n in span(args.sparse):
        for seed in range(args.sparse_seeds):
            rng = random.Random(f"sweep:{n}:{seed}")
            edges = [(c, d) for c in range(n)
                     for d in rng.sample([d for d in range(n) if d != c], 2)]
            out.append((f"sparse{n}.{seed}", one_type(n, edges)))
    return out


class Side:
    """One tree's enumeration of one network."""

    def __init__(self, tree, doc: dict):
        self.tree = tree
        self.net = tree.network.parse_network(doc)
        self.times: list[float] = []

    def enumerate(self):
        return self.tree.synchrony.enumerate_balanced(self.net)

    def generators(self) -> str:
        return str(len(self.tree.synchrony._automorphisms(self.net)))

    def count(self) -> tuple[tuple, int]:
        """The lattice (each element's colors and the cover edges) and the
        _signature calls of one enumeration."""
        synchrony, calls = self.tree.synchrony, [0]
        inner = synchrony._signature

        def counted(*args):
            calls[0] += 1
            return inner(*args)

        synchrony._signature = counted
        try:
            lattice = self.enumerate()
        finally:
            synchrony._signature = inner
        elements = tuple(p.colors for p in lattice.elements)
        return (elements, sorted(lattice.cover_edges)), calls[0]

    def time(self) -> float:
        start = time.perf_counter()
        self.enumerate()
        self.times.append(time.perf_counter() - start)
        return self.times[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="root of another checkout to compare with")
    parser.add_argument("--repeats", type=int, default=40, help="timed pairs per network")
    parser.add_argument("--rings", default="10-16", help="ring sizes: A-B, N or none")
    parser.add_argument("--complete", default="6-8", help="complete graph sizes: A-B, N or none")
    parser.add_argument("--sparse", default="9-12", help="sparse network sizes: A-B, N or none")
    parser.add_argument("--sparse-seeds", type=int, default=2, help="sparse networks per size")
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="also sweep the bench lattice workload's networks at this seed")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = [load_tree(ROOT, "synckit_this")]
    if args.against is not None:
        trees.append(load_tree(args.against.resolve(), "synckit_against"))
    head = (f"{'network':<12} {'elements':>8} {'generators':>10} {'signatures':>17} "
            f"{'median ms':>17}")
    print(head + ("  ratio    quartiles    won" if len(trees) > 1 else ""))
    differ = []
    for name, doc in networks(args):
        sides = [Side(tree, doc) for tree in trees]
        counts = [side.count() for side in sides]
        ratios = []
        for r in range(args.repeats):
            order = sides if r % 2 == 0 else sides[::-1]
            for side in order:
                side.time()
            if len(sides) > 1:
                ratios.append(sides[0].times[-1] / sides[1].times[-1])
        if any(lattice != counts[0][0] for lattice, _ in counts):
            differ.append(name)
        sizes = {len(elements) for (elements, _), _ in counts}
        times = [f"{1000 * statistics.median(side.times):.2f}" for side in reversed(sides)]
        line = (f"{name:<12} {'/'.join(str(e) for e in sorted(sizes)):>8} "
                f"{' -> '.join(side.generators() for side in reversed(sides)):>10} "
                f"{' -> '.join(str(s) for _, s in reversed(counts)):>17} "
                f"{' -> '.join(times):>17}")
        if ratios:
            low, high = (statistics.quantiles(ratios, n=4, method="inclusive")[::2]
                         if len(ratios) > 1 else ratios * 2)
            won = sum(ratio < 1 for ratio in ratios)
            line += (f"  {statistics.median(ratios):.3f}  {low:.3f}-{high:.3f}"
                     f"  {won:>2}/{len(ratios)}")
        print(line, flush=True)
    if differ:
        print(f"the trees' lattices differ on {', '.join(differ)}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
