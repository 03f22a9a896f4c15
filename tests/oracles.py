"""Independent brute-force oracles used only by the test suite.

Everything here recomputes results from definitions, avoiding the
library's algorithmic shortcuts: joins by chain closure instead of
union-find, balance and exo-balance by dense matrix products folded
with the monoid sum instead of sparse signatures, the coarsest balanced
refinement by full signature rounds instead of the worklist, least upper
bounds by scanning every partition of the cell set, SCCs by pairwise mutual
reachability, walks by boolean matrix powers, networks by folding every
edge into a dense matrix, reach-based classes and matching from
per-cell frozenset reach sets instead of condensation bitsets, the join
table's verdicts pair by pair instead of from the lattice order,
automorphisms on every entry of the dense matrix instead of the folded
edges, the quotient class report's entries from the full network's
lattice instead of the quotient's, and the admissible map cell by cell through
a dict fold of each neighbourhood instead of the compiled push kernel.
It also holds the helpers only the tests need: networks to and from
dense in-adjacency matrices or edge triples, a network's edge triples
(`edges_of`), seeded documents with
parallel and cancelling edges, quotients from the dense rows of M @ P,
the one-color partition, partitions from their blocks, one cell's
component on an explicit neighbourhood, 0/1 partition matrices,
composition of partitions and its inverse `quotient_partition`, the
balanced-lattice meet, the lattice above an element on its colors, the
polydiagonal test, the numerical invariance verdict under either map
family, the top strong and candidate top non-weak elements, the seeded and
complete networks the lattice tests share, a large planted lift
for the dynamics tests, one cell's in-neighborhood and cumulative
in-neighborhood as sets, and the set of colors a set of cells meets.
`quotient_partition`, `in_neighborhood`, `cumulative_in`, `top_nonweak` and
`top_strong` were library functions that no command called.
"""

from __future__ import annotations

import math
import random
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from synckit.classification import (
    ColorClass,
    QuotientClassEntry,
    R_IN,
    classify_partition,
    is_invariant,
    join_table_report,
)
from synckit.connectivity import condensation, rdc_decomposition
from synckit.dynamics import (
    AdmissibleFunctionSpec,
    CouplingParams,
    check_invariance,
    evaluate,
    sample_admissible,
)
from synckit.errors import DomainMismatch, NotBalanced, SynckitError
from synckit.monoid import IntegerAdd, Monoid, monoid_by_name
from synckit.network import Network, row_color_sum
from synckit.partition import (
    Partition,
    format_partition,
    iter_bits,
    meet,
    refines,
)
from synckit.synchrony import (
    BalancedCertificate,
    BalancedLattice,
    _build_lattice,
    cir_balanced,
    enumerate_balanced,
    is_balanced,
)

Matrix = tuple[tuple[Any, ...], ...]


def from_edges(
    ids: Sequence[str], types: Sequence[int], edges: Iterable[tuple[int, int, Any]], monoid: Monoid
) -> Network:
    """Network with the given folded nonzero (receiver, sender, weight) edges,
    one per connected pair, in any order."""
    rows: list[list[tuple[int, Any]]] = [[] for _ in ids]
    for c, d, w in sorted(edges, key=lambda e: e[:2]):
        rows[c].append((d, w))
    return Network(tuple(ids), tuple(types), tuple(map(tuple, rows)), monoid)


def edges_of(net: Network) -> tuple[tuple[int, int, Any], ...]:
    """(receiver, sender, weight) triples sorted by receiver and then sender."""
    return tuple([(c, d, w) for c, row in enumerate(net.in_edges) for d, w in row])


def from_matrix(
    ids: Sequence[str], types: Sequence[int], matrix: Sequence[Sequence[Any]], monoid: Monoid
) -> Network:
    """Network whose in-adjacency matrix (rows receive, columns send) is given."""
    zero = monoid.zero()
    edges = [(c, d, w) for c, row in enumerate(matrix) for d, w in enumerate(row) if w != zero]
    return from_edges(ids, types, edges, monoid)


def dense(net: Network) -> Matrix:
    """The n x n in-adjacency matrix of a network, zero where no edge is."""
    rows = [[net.monoid.zero()] * net.n_cells for _ in range(net.n_cells)]
    for c, d, w in edges_of(net):
        rows[c][d] = w
    return tuple(map(tuple, rows))


def oracle_fold(doc: dict) -> Matrix:
    """Dense in-adjacency of a valid network document: every edge summed in."""
    monoid = monoid_by_name(doc.get("monoid", "int-add"))
    index = {str(cell["id"]): i for i, cell in enumerate(doc["cells"])}
    rows = [[monoid.zero()] * len(index) for _ in index]
    for edge in doc.get("edges", []):
        c, d = index[str(edge["to"])], index[str(edge["from"])]
        rows[c][d] = monoid.add(rows[c][d], monoid.coerce(edge["weight"]))
    return tuple(map(tuple, rows))


def seeded_doc(rng: random.Random, monoid: str) -> dict:
    """A valid document of up to 7 cells with parallel edges, edges that
    cancel or sum to zero, and zero weights."""
    n = rng.randint(1, 7)
    types = [1 + rng.randrange(min(n, 3)) for _ in range(n)]
    used = sorted(set(types))
    cells = [{"id": f"c{i}", "type": used.index(t) + 1} for i, t in enumerate(types)]
    edges = []
    for _ in range(rng.randint(0, 14)):
        src, dst = (f"c{rng.randrange(n)}" for _ in range(2))
        if monoid == "int-add":
            w = rng.choice([0, 1, -1, 2, 3, -5, 10**30])
            group = rng.choice([[w], [w], [w, -w], [w, 1, -1 - w]])
        else:
            weights = [0, 1, 2.5, -3, "inf", 0.1, -0.0]
            group = [rng.choice(weights) for _ in range(rng.randint(1, 3))]
        edges += [{"from": src, "to": dst, "weight": x} for x in group]
    rng.shuffle(edges)
    return {"monoid": monoid, "cells": cells, "edges": edges}


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of n cells, by restricted growth strings."""
    colors = [0] * n

    def rec(c: int, used: int) -> Iterator[Partition]:
        if c == n:
            yield Partition(tuple(colors))
            return
        for k in range(used + 1):
            colors[c] = k
            yield from rec(c + 1, max(used, k + 1))

    yield from rec(0, 0)


def one_color(size: int) -> Partition:
    """Coarsest partition: every cell in color 0."""
    return Partition((0,) * size)


def partition_from_blocks(blocks: Iterable[Iterable[int]], size: int) -> Partition:
    """The partition whose colors are the given blocks of cells 0..size-1."""
    colors = [-1] * size
    for k, block in enumerate(blocks):
        for c in block:
            if colors[c] != -1:
                raise ValueError(f"cell {c} assigned to two blocks")
            colors[c] = k
    if -1 in colors:
        raise ValueError("blocks do not cover the cell set")
    return Partition.from_assignment(colors)


def lattice_meet(net: Network, b1: Partition, b2: Partition) -> Partition:
    """Meet inside the balanced lattice: cir of the plain partition meet."""
    for b in (b1, b2):
        if is_balanced(net, b) is None:
            raise NotBalanced("lattice meet is defined for balanced partitions only")
    return cir_balanced(net, meet(b1, b2))


def quotient_partition(b: Partition, a: Partition) -> Partition:
    """The partition b/a on the colors of a, with (b/a) after a equal to b."""
    if not refines(a, b):
        raise ValueError("quotient requires the second argument to refine the first")
    image = [-1] * a.rank
    for c in range(a.size):
        image[a.colors[c]] = b.colors[c]
    return Partition.from_assignment(image)


def lattice_quotient(lattice: BalancedLattice, p: Partition) -> BalancedLattice:
    """The lattice {B/p : B >= p} on the colors of p; bottom is p/p."""
    above = lattice.up[lattice.elements.index(p)]
    return _build_lattice([quotient_partition(lattice.elements[k], p) for k in iter_bits(above)])


def oracle_quotient_entries(
    net: Network, cert: BalancedCertificate
) -> tuple[bool, tuple[QuotientClassEntry, ...]]:
    """`quotient_class_report`'s precondition and entries, read from the full lattice.

    Every balanced coarsening of p is found in the n-cell lattice, in its
    order, through p's up-set, and quotiented by p.
    """
    p = cert.partition
    lattice = enumerate_balanced(net)
    entries = []
    for k in iter_bits(lattice.up[lattice.elements.index(p)]):
        b = lattice.elements[k]
        q = quotient_partition(b, p)
        entries.append(QuotientClassEntry(
            b, classify_partition(net, b), q, classify_partition(cert.quotient, q)))
    return is_invariant(net, cert, R_IN), tuple(entries)


def in_polydiagonal(x: tuple[float, ...], p: Partition, tol: float = 0.0) -> bool:
    """True iff same-colored entries agree within tol."""
    values = ([x[c] for c in block] for block in p.blocks())
    return all(max(v) - min(v) <= tol for v in values)


def partition_matrix(a: Partition) -> np.ndarray:
    """0/1 characteristic matrix, cells as rows, colors as columns."""
    m = np.zeros((a.size, a.rank), dtype=np.int64)
    for c, k in enumerate(a.colors):
        m[c, k] = 1
    return m


def compose(outer: Partition, inner: Partition) -> Partition:
    """Apply a partition of inner's colors to get a partition of cells."""
    if outer.size != inner.rank:
        raise DomainMismatch(
            f"outer partition on {outer.size} elements cannot act on {inner.rank} colors"
        )
    return Partition.from_assignment(outer.colors[k] for k in inner.colors)


def oracle_refines(a: Partition, b: Partition) -> bool:
    """Definition-level check over every cell pair."""
    return all(
        b.colors[c] == b.colors[d]
        for c in range(a.size)
        for d in range(a.size)
        if a.colors[c] == a.colors[d]
    )


def oracle_join(a: Partition, b: Partition) -> Partition:
    """Chain closure: repeatedly merge labels until nothing changes."""
    labels = list(range(a.size))
    changed = True
    while changed:
        changed = False
        for c in range(a.size):
            for d in range(a.size):
                if a.colors[c] == a.colors[d] or b.colors[c] == b.colors[d]:
                    if labels[c] != labels[d]:
                        lo, hi = sorted((labels[c], labels[d]))
                        labels = [lo if v == hi else v for v in labels]
                        changed = True
    return Partition.from_assignment(labels)


def oracle_meet(a: Partition, b: Partition) -> Partition:
    """Nonempty pairwise intersections of color blocks."""
    blocks = []
    for block_a in a.blocks():
        for block_b in b.blocks():
            inter = sorted(set(block_a) & set(block_b))
            if inter:
                blocks.append(inter)
    blocks.sort(key=lambda blk: blk[0])
    return partition_from_blocks(blocks, a.size)


def oracle_lub(a: Partition, b: Partition) -> Optional[Partition]:
    """Least upper bound found by scanning every partition of the set."""
    uppers = [
        p for p in all_partitions(a.size)
        if oracle_refines(a, p) and oracle_refines(b, p)
    ]
    for candidate in uppers:
        if all(oracle_refines(candidate, other) for other in uppers):
            return candidate
    return None


def oracle_glb(a: Partition, b: Partition) -> Optional[Partition]:
    lowers = [
        p for p in all_partitions(a.size)
        if oracle_refines(p, a) and oracle_refines(p, b)
    ]
    for candidate in lowers:
        if all(oracle_refines(other, candidate) for other in lowers):
            return candidate
    return None


def oracle_color_rows(net: Network, p: Partition) -> list[list[Any]]:
    """The rows of M @ P over the monoid: row c, column k sums c's in-weight from color k."""
    zero, add = net.monoid.zero(), net.monoid.add
    rows = []
    for weights in dense(net):
        row = [zero] * p.rank
        for d, w in enumerate(weights):
            row[p.colors[d]] = add(row[p.colors[d]], w)
        rows.append(row)
    return rows


def oracle_quotient(net: Network, p: Partition, ids: Optional[Sequence[str]] = None) -> Network:
    """Quotient from the dense rows of M @ P: color k is cell k, named ids[k] or str(k)."""
    rows = oracle_color_rows(net, p)
    blocks = p.blocks()
    ids = [str(k) for k in range(p.rank)] if ids is None else ids
    types = [net.cell_types[block[0]] for block in blocks]
    return from_matrix(ids, types, [rows[block[0]] for block in blocks], net.monoid)


def oracle_balanced(net: Network, p: Partition) -> bool:
    """Matrix form: rows of M @ P constant on every color."""
    rows = oracle_color_rows(net, p)
    return all(rows[c] == rows[block[0]] for block in p.blocks() for c in block)


def oracle_exo_balanced(net: Network, p: Partition) -> bool:
    """Rows of M @ P constant on every color once that color's own column is dropped."""
    rows = [row[:k] + row[k + 1:] for row, k in zip(oracle_color_rows(net, p), p.colors)]
    return all(rows[c] == rows[block[0]] for block in p.blocks() for c in block)


def oracle_automorphism(net: Network, perm: Sequence[int]) -> bool:
    """perm (cell c to perm[c]) keeps the cell types and the dense in-adjacency."""
    n, m = net.n_cells, dense(net)
    return (sorted(perm) == list(range(n))
            and all(net.cell_types[perm[c]] == net.cell_types[c] for c in range(n))
            and all(m[perm[c]][perm[d]] == m[c][d] for c in range(n) for d in range(n)))


def oracle_type_refining(net: Network) -> Iterator[Partition]:
    for p in all_partitions(net.n_cells):
        if all(
            net.cell_types[c] == net.cell_types[d]
            for block in p.blocks()
            for c in block
            for d in block
        ):
            yield p


def oracle_cir(net: Network, upper: Partition) -> Partition:
    """Coarsest balanced partition finer than upper, by full scan."""
    candidates = [
        p
        for p in oracle_type_refining(net)
        if oracle_refines(p, upper) and oracle_balanced(net, p)
    ]
    best = None
    for candidate in candidates:
        if all(oracle_refines(other, candidate) for other in candidates):
            best = candidate
    assert best is not None, "balanced candidates below the bound have no maximum"
    return best


def oracle_cir_rounds(net: Network, p: Partition) -> Partition:
    """Coarsest balanced refinement by full signature rounds until nothing splits.

    Each round re-keys every cell by (color, row_color_sum), so a chain of
    n cells takes n rounds of O(n + m) each.
    """
    while True:
        keys = ((k, row_color_sum(net, p, c)) for c, k in enumerate(p.colors))
        refined = Partition.from_assignment(keys)
        if refined == p:
            return p
        p = refined


def oracle_covers(elements: Sequence[Partition]) -> frozenset[tuple[int, int]]:
    """Hasse covers as the transitive reduction of the strict refinement order."""
    m = len(elements)
    below = [
        [i != j and oracle_refines(elements[i], elements[j]) for j in range(m)]
        for i in range(m)
    ]
    return frozenset(
        (i, j)
        for i in range(m)
        for j in range(m)
        if below[i][j] and not any(below[i][k] and below[k][j] for k in range(m))
    )


def in_neighborhood(net: Network, c: int) -> frozenset[int]:
    """Senders with a nonzero folded weight into c."""
    net.check_cell(c)
    return frozenset(d for d, _ in net.in_edges[c])


def cumulative_in(net: Network, c: int) -> frozenset[int]:
    """The cell itself together with its in-neighbors."""
    return in_neighborhood(net, c) | {c}


def colors_met(p: Partition, cells: Iterable[int]) -> frozenset[int]:
    """Set of p's colors occurring in a set of cells."""
    return frozenset(p.colors[c] for c in cells)


def oracle_in_ball(net: Network, c: int, k: Optional[int]) -> frozenset[int]:
    """Senders of walks of at most k edges into c (any length if None), by matrix powers.

    Walk j from d to c exists iff entry (c, d) of the j-th boolean power of
    the nonzero pattern of the in-adjacency matrix is set.
    """
    n = net.n_cells
    step = [[w != net.monoid.zero() for w in row] for row in dense(net)]
    power = [[c == d for d in range(n)] for c in range(n)]
    ball = set()
    for _ in range(n if k is None else k + 1):
        ball |= {d for d in range(n) if power[c][d]}
        power = [
            [any(power[x][y] and step[y][d] for y in range(n)) for d in range(n)]
            for x in range(n)
        ]
    return frozenset(ball)


def oracle_reach_sets(net: Network) -> tuple[frozenset[int], ...]:
    """In-reachability set of every cell, one matrix-power walk per cell."""
    return tuple(oracle_in_ball(net, c, None) for c in range(net.n_cells))


def oracle_classify_color(reach: Sequence[frozenset[int]], color: Sequence[int]) -> str:
    """Strong, rooted or weak from the intersection and union of reach sets."""
    common = frozenset.intersection(*(reach[c] for c in color))
    union = frozenset.union(*(reach[c] for c in color))
    if common == union:
        return "strong"
    return "rooted" if common else "weak"


def oracle_classify_partition(reach: Sequence[frozenset[int]], p: Partition) -> str:
    classes = {oracle_classify_color(reach, block) for block in p.blocks()}
    if "weak" in classes:
        return "weak"
    return "strong" if classes == {"strong"} else "rooted"


def oracle_rdc(net: Network, reach: Sequence[frozenset[int]]) -> Partition:
    """Cells grouped by the root SCCs in their reach sets; roots from oracle_scc."""
    sccs = oracle_scc(net)
    fed = {sccs.colors[c] for c in range(net.n_cells)
           for d, _ in net.in_edges[c] if sccs.colors[d] != sccs.colors[c]}
    return Partition.from_assignment(
        frozenset(sccs.colors[d] for d in hood) - fed for hood in reach
    )


def oracle_reach_matched(reach: Sequence[frozenset[int]], p: Partition) -> bool:
    """Same-colored cells see the same color set in their reach sets."""
    images: dict[int, frozenset[int]] = {}
    for c, k in enumerate(p.colors):
        if images.setdefault(k, colors_met(p, reach[c])) != colors_met(p, reach[c]):
            return False
    return True


def join_allowed(left: str, right: str, strict: bool) -> set[str]:
    """Classes the join of two classes may take: the paper's general table,
    or its stricter table when every rooted element is reach-in matched."""
    worst = max(left, right, key=["strong", "rooted", "weak"].index)
    if worst == "rooted" and not strict:
        return {"rooted", "weak"}
    return {worst}


class OraclePair(NamedTuple):
    """One pair of the join table: element indices and classes, and the join's."""

    left: int
    right: int
    left_class: ColorClass
    right_class: ColorClass
    join_class: ColorClass
    join: int


def oracle_join_table(net: Network, elements: Sequence[Partition]) -> dict[str, Any]:
    """Join table of the balanced partitions in the given order, pair by pair.

    Joins by chain closure, classes and reach-in matching from frozenset
    reach sets.  Returns the `tables --format json` payload, the text
    lines and exit code of `tables`, and every pair as an OraclePair.
    """
    reach = oracle_reach_sets(net)
    classes = [oracle_classify_partition(reach, b) for b in elements]
    rooted_matched = all(
        oracle_reach_matched(reach, b) for b, k in zip(elements, classes) if k == "rooted"
    )
    index = {b: k for k, b in enumerate(elements)}
    texts = [format_partition(b, net.cell_ids) for b in elements]
    entries, pairs = [], []
    general_ok = matched_ok = True
    nonweak_closed = True
    for i in range(len(elements)):
        for j in range(i, len(elements)):
            jdx = index[oracle_join(elements[i], elements[j])]
            left, right, joined = classes[i], classes[j], classes[jdx]
            entries.append(OraclePair(
                i, j, ColorClass(left), ColorClass(right), ColorClass(joined), jdx))
            general_ok &= joined in join_allowed(left, right, strict=False)
            matched_ok &= joined in join_allowed(left, right, strict=True)
            if "weak" not in (left, right) and joined == "weak":
                nonweak_closed = False
            pairs.append({"left": texts[i], "right": texts[j], "left_class": left,
                          "right_class": right, "join": texts[jdx], "join_class": joined})
    strict = matched_ok if rooted_matched else None
    payload = {
        "elements": [{"partition": t, "class": k} for t, k in zip(texts, classes)],
        "pairs": pairs,
        "general_table_ok": general_ok,
        "rooted_all_reach_matched": rooted_matched,
        "matched_table_ok": strict,
        "nonweak_join_closed": nonweak_closed,
    }
    text = [
        f"elements: {len(elements)}",
        f"general_table_ok: {general_ok}",
        f"rooted_all_reach_matched: {rooted_matched}",
        f"matched_table_ok: {'n/a' if strict is None else strict}",
        f"nonweak_join_closed: {nonweak_closed}",
    ]
    return {
        "payload": payload,
        "text": "\n".join(text) + "\n",
        "exit_code": 0 if general_ok and strict is not False else 1,
        "entries": tuple(entries),
    }


def oracle_reach_invariant(
    net: Network, cert: BalancedCertificate, reach: Sequence[frozenset[int]]
) -> bool:
    """Each cell's reach colors are its color's reach set in the quotient.

    The quotient is built from the dense rows of M @ P, color k named
    str(k), so it shares no code with the certificate's quotient.
    """
    p = cert.partition
    quotient = oracle_quotient(net, p)
    qreach = oracle_reach_sets(quotient)
    return all(colors_met(p, reach[c]) == qreach[k] for c, k in enumerate(p.colors))


def oracle_scc(net: Network) -> Partition:
    """Pairwise mutual reachability over nonzero folded edges."""
    n = net.n_cells
    step = [[False] * n for _ in range(n)]
    for c in range(n):
        for d, _ in net.in_edges[c]:
            step[d][c] = True  # d -> c
    reach = [[c == d or step[c][d] for d in range(n)] for c in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    labels = []
    for c in range(n):
        owner = next(d for d in range(n) if reach[c][d] and reach[d][c])
        labels.append(owner)
    return Partition.from_assignment(labels)


def numeric_verdict(
    net: Network,
    p: Partition,
    seeds: int = 5,
    trials: int = 4,
    steps: int = 50,
    tol: float = 1e-9,
    exo: bool = False,
    rng_seed: int = 0,
) -> bool:
    """Numerical invariance verdict: False once a sampled admissible map,
    same-state-insensitive under exo, shows a spread above tol."""
    if not refines(p, net.type_partition()):
        raise SynckitError("numeric verdict needs a type-refining partition")
    for s in range(seeds):
        spec = sample_admissible(net, seed=rng_seed * 6101 + s, exo=exo)
        report = check_invariance(
            net, spec, p,
            trials=trials, steps=steps, tol=tol,
            rng_seed=rng_seed * 31 + s, stop_above=tol,
        )
        if report.max_spread > tol:
            return False
    return True


def top_strong(net: Network) -> Partition:
    """Top of the strong sublattice: coarsest balanced below types meet SCCs."""
    return cir_balanced(net, meet(net.type_partition(), condensation(net).scc_partition))


def top_nonweak(net: Network) -> tuple[Partition, bool]:
    """The coarsest balanced partition below types meet root-dependency
    classes, and whether every rooted element is reach-in matched."""
    candidate = cir_balanced(net, meet(net.type_partition(), rdc_decomposition(net)))
    return candidate, join_table_report(net).rooted_all_reach_matched


def _coupling(p: CouplingParams, x: float, y: float) -> float:
    return (
        p.lin * y
        + p.amp1 * math.sin(p.freq1 * y + p.phase1)
        + p.amp2 * math.sin(p.freq_x * x + p.freq_y * y + p.phase2)
    )


def oracle_eval_on_neighborhood(
    spec: AdmissibleFunctionSpec,
    cell_type: int,
    x_self: float,
    inputs: Sequence[tuple[int, int, float]],
) -> float:
    """One cell's component by the dict fold of its inputs.

    inputs are (sender type, integer weight, sender state) triples.  Every
    state is read with zeros unsigned, and the inputs are grouped by (type,
    state) in a dict with exact integer weight sums; the groups are added
    in sorted key order and zero sums are skipped.
    """
    x_self += 0.0
    groups: dict[tuple[int, float], int] = {}
    for sender_type, weight, state in inputs:
        key = (sender_type, state + 0.0)
        groups[key] = groups.get(key, 0) + weight
    s = spec.self_params[cell_type - 1]
    total = s.bias + s.gain * x_self + s.amp * math.sin(s.freq * x_self + s.phase)
    for (sender_type, state), weight in sorted(groups.items()):
        if weight == 0:
            continue
        p = spec.coupling_params[cell_type - 1][sender_type - 1]
        v = _coupling(p, x_self, state)
        if spec.exo:
            v -= _coupling(p, x_self, x_self)
        total += weight * v
    return total


def oracle_evaluate(
    net: Network, spec: AdmissibleFunctionSpec, x: Sequence[float]
) -> tuple[float, ...]:
    """The admissible map applied one cell at a time through the dict fold."""
    types = net.cell_types
    return tuple(
        oracle_eval_on_neighborhood(
            spec, types[c], x[c], [(types[d], w, x[d]) for d, w in net.in_edges[c]]
        )
        for c in range(net.n_cells)
    )


def oracle_evolve(
    net: Network,
    spec: AdmissibleFunctionSpec,
    x0: Sequence[float],
    steps: int,
    mode: str = "discrete",
    dt: float = 1e-3,
) -> list[tuple[float, ...]]:
    """Every state of the map iteration or of fixed-step RK4, index by index."""
    x = tuple(x0)
    n = len(x)
    states = [x]
    for _ in range(steps):
        if mode == "discrete":
            x = oracle_evaluate(net, spec, x)
        else:
            k1 = oracle_evaluate(net, spec, x)
            k2 = oracle_evaluate(net, spec, [x[i] + 0.5 * dt * k1[i] for i in range(n)])
            k3 = oracle_evaluate(net, spec, [x[i] + 0.5 * dt * k2[i] for i in range(n)])
            k4 = oracle_evaluate(net, spec, [x[i] + dt * k3[i] for i in range(n)])
            x = tuple(
                x[i] + (dt / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                for i in range(n)
            )
        states.append(x)
    return states


def eval_on_neighborhood(
    spec: AdmissibleFunctionSpec,
    cell_type: int,
    x_self: float,
    inputs: Sequence[tuple[int, int, float]],
) -> float:
    """One cell's component by the library's map on a star network.

    inputs are (sender type, integer weight, sender state) triples; each
    becomes its own sender cell with one edge into cell 0.
    """
    types = (cell_type, *(t for t, _, _ in inputs))
    edges = tuple((0, d, w) for d, (_, w, _) in enumerate(inputs, 1) if w != 0)
    star = from_edges(tuple(map(str, range(len(types)))), types, edges, IntegerAdd())
    return evaluate(star, spec, (x_self, *(y for _, _, y in inputs)))[0]


def random_network(
    rng: random.Random,
    n: Optional[int] = None,
    max_cells: int = 7,
    num_types: int = 2,
    weights: tuple[Any, ...] = (-1, 0, 1, 2),
    monoid: Monoid = IntegerAdd(),
) -> Network:
    """Random network with contiguous type ids and weights drawn from weights.

    Each matrix entry is one draw; entries equal to the monoid zero are no
    edge, so tropical-min weights may include math.inf.
    """
    if n is None:
        n = rng.randint(2, max_cells)
    raw_types = [rng.randint(1, num_types) for _ in range(n)]
    relabel: dict[int, int] = {}
    types = []
    for t in raw_types:
        if t not in relabel:
            relabel[t] = len(relabel) + 1
        types.append(relabel[t])
    matrix = [[rng.choice(weights) for _ in range(n)] for _ in range(n)]
    ids = tuple(str(i + 1) for i in range(n))
    return from_matrix(ids, types, matrix, monoid)


def random_type_refinement(rng: random.Random, net: Network) -> Partition:
    """Random partition finer than the type partition."""
    colors = []
    buckets: dict[tuple[int, int], int] = {}
    for c in range(net.n_cells):
        key = (net.cell_types[c], rng.randint(0, net.n_cells - 1))
        if key not in buckets:
            buckets[key] = len(buckets)
        colors.append(buckets[key])
    return Partition.from_assignment(colors)


def random_balanced_lift(
    rng: random.Random,
    max_quotient: int = 4,
    max_cells: int = 7,
    type_range: tuple[int, int] = (1, 2),
) -> tuple[Network, Partition]:
    """Network built by expanding a random small network into color blocks.

    Each block's in-row is a random integer composition of the small
    network's entry, so the block partition is balanced by construction
    and the lattice is guaranteed not to collapse to the trivial element.
    The number of types drawn for the small network lies in type_range;
    fewer may occur.
    """
    m = rng.randint(2, max_quotient)
    num_types = rng.randint(*type_range)
    raw = [rng.randint(1, num_types) for _ in range(m)]
    relabel: dict[int, int] = {}
    qtypes = []
    for t in raw:
        if t not in relabel:
            relabel[t] = len(relabel) + 1
        qtypes.append(relabel[t])
    q = [[rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(m)] for _ in range(m)]

    sizes = [1] * m
    budget = rng.randint(1, max_cells - m)
    for _ in range(budget):
        sizes[rng.randrange(m)] += 1
    colors = [k for k in range(m) for _ in range(sizes[k])]
    types = [qtypes[k] for k in colors]
    n = len(colors)

    def composition(total: int, parts: int) -> list[int]:
        head = [rng.randint(-2, 2) for _ in range(parts - 1)]
        return head + [total - sum(head)]

    matrix = []
    for c in range(n):
        row = [0] * n
        offset = 0
        for l in range(m):
            chunk = composition(q[colors[c]][l], sizes[l])
            for j, w in enumerate(chunk):
                row[offset + j] = w
            offset += sizes[l]
        matrix.append(row)
    ids = tuple(str(i + 1) for i in range(n))
    net = from_matrix(ids, types, matrix, IntegerAdd())
    return net, Partition.from_assignment(colors)


def seeded_lattice_networks():
    """260 seeded networks of up to 7 cells; sparse and cancelling weights
    make nontrivial lattices common, and the last 60 are balanced lifts."""
    rng = random.Random(3301)
    weights = [(-1, 0, 1, 2), (0, 0, 0, 1), (0, 0, 0, 0, 1, -1)]
    for trial in range(260):
        if trial < 200:
            yield random_network(rng, max_cells=7, num_types=1 + trial // 3 % 2,
                                 weights=weights[trial % 3])
        else:
            yield random_balanced_lift(rng, max_cells=7)[0]


def complete_graph(n: int) -> Network:
    """K_n with unit weights: every partition of its cells is balanced."""
    return from_matrix(
        tuple(str(i + 1) for i in range(n)),
        (1,) * n,
        tuple(tuple(int(i != j) for j in range(n)) for i in range(n)),
        IntegerAdd(),
    )


def ring_lift_doc(colors: int, size: int) -> tuple[dict, Partition]:
    """A network document of colors x size cells and its planted balanced partition.

    Cell j of color k hears cell j of color k+1 with weight 1 and cell j+1
    of color k+3 with weight 2 (indices mod colors and mod size), so every
    cell of a color has the same color sums; types alternate by color.
    """
    def cell(k: int, j: int) -> str:
        return f"c{k % colors}_{j % size}"

    cells = [{"id": cell(k, j), "type": 1 + k % 2} for k in range(colors) for j in range(size)]
    edges = [
        {"from": cell(k + dk, j + dj), "to": cell(k, j), "weight": w}
        for k in range(colors) for j in range(size) for dk, dj, w in ((1, 0, 1), (3, 1, 2))
    ]
    return {"cells": cells, "edges": edges}, Partition.from_assignment(
        [k for k in range(colors) for _ in range(size)]
    )
