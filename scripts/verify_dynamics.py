#!/usr/bin/env python3
"""Numerical verification battery over the fixture networks.

For every fixture: all balanced partitions must hold synchrony to
tolerance under sampled admissible dynamics, non-balanced candidates
must be falsified, and quotient/subsystem/locality trajectories must
reproduce the full system exactly: quotient and subsystem in both
discrete and RK4 mode, locality in discrete mode.

Usage:
    python scripts/verify_dynamics.py [--seeds N] [--steps N] [--fixtures DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from synckit.dynamics import (
    check_invariance,
    check_locality,
    check_quotient_consistency,
    check_subsystem,
    sample_admissible,
)
from synckit.errors import SynckitError
from synckit.network import load_network
from synckit.partition import format_partition
from synckit.synchrony import enumerate_balanced, is_balanced

# the brute-force scan of every type-refining partition and the numerical
# verdict live with the test oracles
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import numeric_verdict, oracle_type_refining  # noqa: E402


def verify(path: Path, seeds: int, steps: int) -> bool:
    net = load_network(str(path))
    ids = net.cell_ids
    print(f"== {path.stem}")
    ok = True
    lattice = enumerate_balanced(net)
    balanced = set(lattice.elements)

    for b in lattice.elements:
        worst = 0.0
        for seed in range(seeds):
            spec = sample_admissible(net, seed)
            rep = check_invariance(net, spec, b, trials=3, steps=steps, rng_seed=seed)
            worst = max(worst, rep.max_spread)
        flag = "ok" if worst <= 1e-9 else "FAIL"
        ok &= worst <= 1e-9
        print(f"   invariance {format_partition(b, ids):<18} spread {worst:.1e} {flag}")

    attempted = falsified = 0
    for p in oracle_type_refining(net):
        if p in balanced:
            continue
        attempted += 1
        if not numeric_verdict(net, p, seeds=seeds, trials=5, steps=steps, tol=1e-3):
            falsified += 1
    if attempted:
        print(f"   falsified {falsified}/{attempted} non-balanced candidates")
        ok &= falsified / attempted >= 0.95

    # the exactness line reports these comparisons alone, not the verdicts above
    spec = sample_admissible(net, 0)
    exact = True
    for mode, dt in (("discrete", 1e-3), ("rk4", 0.05)):
        for b in lattice.elements:
            cert = is_balanced(net, b)
            exact &= check_quotient_consistency(
                net, spec, cert, trials=2, steps=steps, mode=mode, dt=dt).exact
        for c in range(net.n_cells):
            exact &= check_subsystem(net, spec, c, trials=2, steps=steps, mode=mode, dt=dt).exact
    for c in range(net.n_cells):
        for k in range(0, 4):
            exact &= check_locality(net, spec, c, k, trials=2).all_agreed
    print(f"   quotient/subsystem exact in discrete and RK4 mode, locality exact: {exact}")
    return ok and exact


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fixtures",
        default=str(Path(__file__).resolve().parent.parent / "fixtures"),
    )
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--steps", type=int, default=100)
    args = parser.parse_args()
    try:
        results = [
            verify(path, args.seeds, args.steps)
            for path in sorted(Path(args.fixtures).glob("*.json"))
        ]
    except SynckitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    print("all checks passed" if all(results) else "SOME CHECKS FAILED")
    raise SystemExit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
