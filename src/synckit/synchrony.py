"""Balanced partitions, coarsest balanced refinement, lattices, quotients.

A type-refining partition is balanced when cells of one color see the
same monoid-summed in-weight per color; the witnessing color-by-color
matrix is the in-adjacency of the quotient network.  The coarsest
balanced partition below a given one is computed by iterated signature
refinement (split every color by its per-color in-weight row until
nothing splits), which is the polynomial-time route; full lattices are
enumerated only for small networks via type-constrained restricted
growth strings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from .errors import NotBalanced, NotInLattice, NotTypeRefining, SynckitError, TooLarge
from .network import Network, row_color_sum
from .partition import Partition, meet, quotient_partition, refines

DEFAULT_MAX_CELLS = 12


def _check_type_refining(net: Network, p: Partition) -> None:
    if p.size != net.n_cells or not refines(p, net.type_partition()):
        raise NotTypeRefining("partition must refine the cell-type partition")


@dataclass(frozen=True)
class BalancedCertificate:
    """A balanced partition together with its quotient in-adjacency matrix."""

    partition: Partition
    quotient_matrix: tuple[tuple[Any, ...], ...]


def is_balanced(net: Network, p: Partition) -> Optional[BalancedCertificate]:
    """Certificate with the quotient matrix, or None if rows disagree."""
    _check_type_refining(net, p)
    rows: list[Optional[tuple]] = [None] * p.rank
    for c in range(net.n_cells):
        row = row_color_sum(net, p, c)
        k = p.colors[c]
        if rows[k] is None:
            rows[k] = row
        elif rows[k] != row:
            return None
    return BalancedCertificate(p, tuple(rows))  # type: ignore[arg-type]


def quotient_network(net: Network, cert: BalancedCertificate) -> Network:
    """The smaller network on colors whose in-adjacency is the certificate's."""
    p = cert.partition
    blocks = p.blocks()
    compact = all(len(i) == 1 for i in net.cell_ids)
    joiner = "" if compact else "+"
    ids = tuple(joiner.join(net.cell_ids[c] for c in block) for block in blocks)
    types = tuple(net.cell_types[block[0]] for block in blocks)
    return Network(ids, types, cert.quotient_matrix, net.monoid)


def cir_balanced(net: Network, p: Partition) -> Partition:
    """Coarsest balanced partition finer than p, by signature refinement."""
    _check_type_refining(net, p)
    current = p
    while True:
        signatures: dict[tuple, int] = {}
        colors = []
        for c in range(net.n_cells):
            key = (
                current.colors[c],
                net.cell_types[c],
                row_color_sum(net, current, c),
            )
            if key not in signatures:
                signatures[key] = len(signatures)
            colors.append(signatures[key])
        refined = Partition.from_assignment(colors)
        if refined == current:
            return current
        current = refined


def _resolve_cap(max_cells: Optional[int]) -> int:
    if max_cells is not None:
        return max_cells
    env = os.environ.get("SYNCKIT_MAX_CELLS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SynckitError(f"SYNCKIT_MAX_CELLS must be an integer, got {env!r}") from None
    return DEFAULT_MAX_CELLS


def type_refining_partitions(net: Network) -> Iterator[Partition]:
    """All partitions finer than the type partition, by restricted growth.

    A cell may join an existing color only when the color's type matches,
    so cross-type candidates are pruned before they are ever built.
    """
    n = net.n_cells
    colors = [0] * n
    color_types: list[int] = []

    def rec(c: int) -> Iterator[Partition]:
        if c == n:
            yield Partition.from_assignment(colors)
            return
        t = net.cell_types[c]
        for k in range(len(color_types)):
            if color_types[k] == t:
                colors[c] = k
                yield from rec(c + 1)
        color_types.append(t)
        colors[c] = len(color_types) - 1
        yield from rec(c + 1)
        color_types.pop()

    yield from rec(0)


@dataclass(frozen=True)
class BalancedLattice:
    """All balanced partitions of a network with their Hasse diagram.

    Elements are ordered by (rank, assignment); cover edges point from
    the finer to the coarser element.
    """

    elements: tuple[Partition, ...]
    cover_edges: frozenset[tuple[int, int]]
    bottom: int
    top: int

    def index_of(self, p: Partition) -> int:
        try:
            return self.elements.index(p)
        except ValueError:
            raise NotInLattice("partition is not an element of the lattice") from None


def _hasse_edges(elements: tuple[Partition, ...]) -> frozenset[tuple[int, int]]:
    m = len(elements)
    leq = [[i != j and refines(elements[i], elements[j]) for j in range(m)] for i in range(m)]
    covers = set()
    for i in range(m):
        for j in range(m):
            if not leq[i][j]:
                continue
            if any(leq[i][k] and leq[k][j] for k in range(m)):
                continue
            covers.add((i, j))
    return frozenset(covers)


def _build_lattice(elements: list[Partition]) -> BalancedLattice:
    ordered = tuple(sorted(elements, key=lambda p: (p.rank, p.colors)))
    n = ordered[0].size
    bottom = ordered.index(Partition.trivial(n))
    top = next(
        i for i, p in enumerate(ordered)
        if all(refines(q, p) for q in ordered)
    )
    return BalancedLattice(ordered, _hasse_edges(ordered), bottom, top)


def enumerate_balanced(net: Network, max_cells: Optional[int] = None) -> BalancedLattice:
    """Full balanced lattice by filtered enumeration; refuses large networks."""
    cap = _resolve_cap(max_cells)
    if net.n_cells > cap:
        raise TooLarge(
            f"{net.n_cells} cells exceeds the enumeration cap of {cap}; "
            "raise it explicitly or via SYNCKIT_MAX_CELLS"
        )
    found = [p for p in type_refining_partitions(net) if is_balanced(net, p) is not None]
    return _build_lattice(found)


def lattice_meet(net: Network, b1: Partition, b2: Partition) -> Partition:
    """Meet inside the balanced lattice: cir of the plain partition meet."""
    for b in (b1, b2):
        if is_balanced(net, b) is None:
            raise NotBalanced("lattice meet is defined for balanced partitions only")
    return cir_balanced(net, meet(b1, b2))


def lattice_quotient(lattice: BalancedLattice, p: Partition) -> BalancedLattice:
    """The lattice {B/p : B >= p} on the colors of p; bottom is p/p."""
    base = lattice.index_of(p)
    anchor = lattice.elements[base]
    quotients = [
        quotient_partition(b, anchor)
        for b in lattice.elements
        if refines(anchor, b)
    ]
    return _build_lattice(quotients)


def is_exo_balanced(net: Network, p: Partition) -> bool:
    """Balance up to each color's own column.

    Cells of one color must see identical per-color in-weight rows on
    every color except possibly their own; dynamics that ignore
    same-state senders cannot distinguish the own-color entry on the
    polydiagonal.
    """
    _check_type_refining(net, p)
    rows: list[Optional[tuple]] = [None] * p.rank
    for c in range(net.n_cells):
        row = row_color_sum(net, p, c)
        k = p.colors[c]
        masked = tuple(row[j] for j in range(p.rank) if j != k)
        if rows[k] is None:
            rows[k] = masked
        elif rows[k] != masked:
            return False
    return True


__all__ = [
    "BalancedCertificate",
    "BalancedLattice",
    "DEFAULT_MAX_CELLS",
    "cir_balanced",
    "enumerate_balanced",
    "is_balanced",
    "is_exo_balanced",
    "lattice_meet",
    "lattice_quotient",
    "quotient_network",
    "type_refining_partitions",
]
