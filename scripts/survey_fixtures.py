#!/usr/bin/env python3
"""Survey every fixture network: lattice, classes, tops, table verdicts.

Usage:
    python scripts/survey_fixtures.py [--fixtures DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from synckit.classification import (
    ColorClass,
    R_IN,
    classify_partition,
    is_invariant,
    is_matched,
    join_rows,
    join_table_report,
)
from synckit.connectivity import condensation, rdc_decomposition
from synckit.errors import SynckitError
from synckit.network import load_network
from synckit.partition import format_partition, meet
from synckit.synchrony import cir_balanced, enumerate_balanced, is_balanced


def survey(path: Path) -> None:
    net = load_network(str(path))
    ids = net.cell_ids
    print(f"== {path.stem} ({net.n_cells} cells, {net.num_types} types)")
    lattice = enumerate_balanced(net)
    for b in lattice.elements:
        cert = is_balanced(net, b)
        marks = [classify_partition(net, b).value]
        if is_matched(net, b, R_IN):
            marks.append("reach-matched")
        if is_invariant(net, cert, R_IN):
            marks.append("reach-invariant")
        print(f"   {format_partition(b, ids):<18} {', '.join(marks)}")
    # the top of the strong elements: the coarsest balanced partition below types meet SCCs
    strong = cir_balanced(net, meet(net.type_partition(), condensation(net).scc_partition))
    print(f"   top strong:   {format_partition(strong, ids)}")
    table = join_table_report(net)
    # the coarsest balanced partition below types meet root-dependency classes;
    # it tops the non-weak elements when it is one and every other lies below it
    candidate = cir_balanced(net, meet(net.type_partition(), rdc_decomposition(net)))
    elements, up = table.lattice.elements, table.lattice.up
    nonweak = [i for i, k in enumerate(table.classes) if k is not ColorClass.WEAK]
    top = elements.index(candidate) if candidate in elements else None
    valid = top in nonweak and all(up[i] >> top & 1 for i in nonweak)
    print(f"   top non-weak: {format_partition(candidate, ids)} (valid: {valid})")
    print(
        f"   join table: general_ok={table.general_table_ok} "
        f"strict_applies={table.rooted_all_reach_matched} "
        f"strict_ok={table.matched_table_ok is not False} "
        f"nonweak_closed={table.nonweak_join_closed}"
    )
    k = table.classes
    rr_weak = sum(
        k[i] is ColorClass.ROOTED and k[j] is ColorClass.ROOTED and k[jdx] is ColorClass.WEAK
        for i, row in enumerate(join_rows(table.lattice.up))
        for j, jdx in enumerate(row, i)
    )
    if rr_weak:
        print(f"   rooted-join-weak pairs: {rr_weak}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fixtures",
        default=str(Path(__file__).resolve().parent.parent / "fixtures"),
    )
    args = parser.parse_args()
    try:
        for path in sorted(Path(args.fixtures).glob("*.json")):
            survey(path)
    except SynckitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
