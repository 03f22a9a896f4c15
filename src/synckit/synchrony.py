"""Balanced partitions, coarsest balanced refinement, lattices, quotients.

A type-refining partition is balanced when cells of one color see the
same monoid-summed in-weight per color; those sums are the in-edges of
the quotient network, which the balance certificate carries.  One O(n + m)
refinement round regroups the cells by color and sparse signature (the
nonzero per-color sums of their in-edges, `row_color_sum`): a partition
is balanced when the round leaves it unchanged, and exo-balanced when the
round that ignores each cell's own color does.  The coarsest balanced
partition below a given one comes from a worklist refinement that
re-keys only the cells whose senders changed color.  Full lattices are
built only for small networks, by split-and-cir: starting from the
coarsest balanced partition, split one color in two and take cir of the
result, so the work grows with the number of balanced partitions rather
than with the number of type-refining ones.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from .errors import NotInLattice, NotTypeRefining, SynckitError, TooLarge
from .network import Network, _signature, row_color_sum
from .partition import Partition, iter_bits, refines

DEFAULT_MAX_CELLS = 12


def _check_type_refining(net: Network, p: Partition) -> None:
    if p.size != net.n_cells or not refines(p, net.type_partition()):
        raise NotTypeRefining("partition must refine the cell-type partition")


class BalancedCertificate(NamedTuple):
    """A balanced partition and its quotient network, whose cell k is color k, named str(k).

    A color's in-edges in the quotient are its first cell's signature.
    """

    partition: Partition
    quotient: Network

    @property
    def quotient_matrix(self) -> tuple[tuple[Any, ...], ...]:
        """The quotient's dense rank x rank in-adjacency, zero where no edge is."""
        q = self.quotient
        rows = [[q.monoid.zero()] * q.n_cells for _ in range(q.n_cells)]
        for k, l, w in q.edges:
            rows[k][l] = w
        return tuple(map(tuple, rows))


def _round(net: Network, p: Partition, exo: bool = False) -> Partition:
    """Split every color of p by its cells' signatures (own color left out if exo).

    Callers check once that p is type-refining, which covers its size.
    """
    rows, colors = net.in_edges, p.colors
    add, zero = net.monoid.add, net.monoid.zero()
    keys = []
    for c, k in enumerate(colors):
        signature = _signature(rows[c], colors, add, zero)
        if exo:
            signature = tuple(kw for kw in signature if kw[0] != k)
        keys.append((k, signature))
    return Partition.from_assignment(keys)


def is_balanced(net: Network, p: Partition) -> Optional[BalancedCertificate]:
    """Certificate with the quotient network, built in O(n + m), or None if rows disagree."""
    _check_type_refining(net, p)
    if _round(net, p) != p:
        return None
    blocks = p.blocks()
    types = tuple(net.cell_types[block[0]] for block in blocks)
    edges = tuple(
        (k, l, w) for k, block in enumerate(blocks) for l, w in row_color_sum(net, p, block[0])
    )
    return BalancedCertificate(p, Network(tuple(map(str, range(p.rank))), types, edges, net.monoid))


def quotient_network(net: Network, cert: BalancedCertificate) -> Network:
    """The certificate's quotient, each color named after its cells.

    A color's id joins its cells' ids with "+" (or "" if all are one
    character); two colors whose joined ids collide are an input error.
    """
    compact = all(len(i) == 1 for i in net.cell_ids)
    joiner = "" if compact else "+"
    ids = tuple(joiner.join(net.cell_ids[c] for c in block) for block in cert.partition.blocks())
    if len(set(ids)) < len(ids):
        clash = next(i for i in ids if ids.count(i) > 1)
        raise SynckitError(f"quotient cell id {clash!r} would name two colors")
    return cert.quotient._replace(cell_ids=ids)


def cir_balanced(net: Network, p: Partition) -> Partition:
    """Coarsest balanced partition finer than p, by worklist refinement.

    Colors keep their ids while they split, and all cells of a color share
    one signature, stored once for the color.  Each pass re-keys the cells
    with an in-edge from a cell the last pass renamed (every cell, in the
    first pass); any other cell sums the same edges into the same ids as
    before, whatever the monoid, so its color's stored signature still
    holds for it.  Each color with re-keyed cells splits by signature and
    its largest part keeps the id, so a cell is renamed at most log2(n)
    times (Paige & Tarjan 1987).  A pass that renames nothing leaves every
    color with one signature: balanced.
    """
    _check_type_refining(net, p)
    if p.rank == net.n_cells:  # one cell per color: balanced
        return p
    rows, receivers = net.in_edges, net.out_neighbours
    add, zero = net.monoid.add, net.monoid.zero()
    color = list(p.colors)
    signature: list[Optional[tuple]] = [None] * p.rank  # None: no cell keyed yet
    members: list[set[int]] = []  # built once the first pass splits a color
    rekey: Iterable[int] = range(net.n_cells)
    while rekey:
        parts: dict[int, dict[tuple, list[int]]] = {}
        for c in rekey:
            k, sig = color[c], _signature(rows[c], color, add, zero)
            by_sig = parts.get(k)
            if by_sig is None:
                parts[k] = {sig: [c]}
            elif sig in by_sig:
                by_sig[sig].append(c)
            else:
                by_sig[sig] = [c]
        if not members:
            # an already balanced p (as most 2-splits of a dense network's
            # lattice are) returns before any member set is built
            if all(len(by_sig) == 1 for by_sig in parts.values()):
                return p
            members = [set() for _ in range(p.rank)]
            for c, k in enumerate(color):
                members[k].add(c)
        renamed: list[int] = []
        for k, by_sig in parts.items():
            cells, old = members[k], signature[k]
            if len(by_sig) == 1:
                (sig, part), = by_sig.items()
                if sig == old or len(part) == len(cells):  # no split
                    signature[k] = sig
                    continue
            size = {sig: len(part) for sig, part in by_sig.items()}
            unkeyed = len(cells) - sum(size.values())  # these still have the old signature
            if unkeyed:
                size[old] = size.get(old, 0) + unkeyed
            keep = signature[k] = max(size, key=size.__getitem__)
            if unkeyed and keep != old:
                keyed = {c for part in by_sig.values() for c in part}
                by_sig.setdefault(old, []).extend(c for c in cells if c not in keyed)
            for sig, part in by_sig.items():
                if sig != keep:
                    new = len(members)
                    members.append(set(part))
                    signature.append(sig)
                    cells.difference_update(part)
                    for c in part:
                        color[c] = new
                    renamed.extend(part)
        rekey = {c for d in renamed for c in receivers[d]}
    return Partition.from_assignment(color)


class BalancedLattice(NamedTuple("BalancedLattice", [
    ("elements", tuple[Partition, ...]),
    ("up", tuple[int, ...]),
    ("cover_edges", frozenset[tuple[int, int]]),
    ("bottom", int),
    ("top", int),
])):
    """All balanced partitions of a network with their refinement order.

    Elements are ordered by (rank, assignment), so coarser elements come
    first.  up[i] is the bitset of the elements that element i refines,
    i itself included; cover edges point from the finer to the coarser
    element.  The join of i and j is the finest element above both, the
    highest set bit of up[i] & up[j].
    """

    # No command calls index_of; it stays while bench/spans.py traces it.
    @cached_property
    def _positions(self) -> dict[Partition, int]:
        return {p: i for i, p in enumerate(self.elements)}

    def index_of(self, p: Partition) -> int:
        try:
            return self._positions[p]
        except KeyError:
            raise NotInLattice("partition is not an element of the lattice") from None


def _order(
    elements: tuple[Partition, ...],
) -> tuple[tuple[int, ...], frozenset[tuple[int, int]]]:
    """Up-sets and covers of the refinement order, with sets of elements as bitsets.

    A partition is coded by the cell pairs it puts in one color, and i
    refines j iff j holds every pair of i; so the elements above i (i
    itself included) are the intersection, over i's pairs, of the
    elements holding that pair.  A cover of i is an element strictly
    above i that is not strictly above anything else strictly above i.
    """
    holders: dict[tuple[int, int], int] = {}
    pairs_of = []
    for i, p in enumerate(elements):
        pairs = [
            (a, b) for block in p.blocks() for x, a in enumerate(block) for b in block[x + 1:]
        ]
        for pair in pairs:
            holders[pair] = holders.get(pair, 0) | 1 << i
        pairs_of.append(pairs)
    everyone = (1 << len(elements)) - 1
    up = []
    for pairs in pairs_of:
        mask = everyone
        for pair in pairs:
            mask &= holders[pair]
        up.append(mask)
    covers = set()
    for i, mask in enumerate(up):
        strict = mask ^ 1 << i
        above = 0
        for k in iter_bits(strict):
            above |= up[k] ^ 1 << k
        covers.update((i, j) for j in iter_bits(strict & ~above))
    return tuple(up), frozenset(covers)


def _build_lattice(elements: list[Partition]) -> BalancedLattice:
    """Sorted by (rank, assignment): the top is first and the trivial bottom last.

    In a lattice the top is strictly coarser than every other element and
    the bottom strictly finer, so each is the only element of its rank.
    """
    ordered = tuple(sorted(elements, key=lambda p: (p.rank, p.colors)))
    return BalancedLattice(ordered, *_order(ordered), len(ordered) - 1, 0)


def _two_splits(p: Partition) -> Iterator[Partition]:
    """Every partition that splits one color of p in two.

    The color's first cell stays on the old side, so each split is made
    once: 2^(s-1) - 1 of them for a color of s cells.
    """
    fresh = p.rank
    for block in p.blocks():
        rest = block[1:]
        for mask in range(1, 1 << len(rest)):
            colors = list(p.colors)
            for c in iter_bits(mask):
                colors[rest[c]] = fresh
            yield Partition.from_assignment(colors)


def enumerate_balanced(net: Network, max_cells: int = DEFAULT_MAX_CELLS) -> BalancedLattice:
    """Full balanced lattice by split-and-cir; refuses large networks.

    Every balanced B strictly below a balanced P lies below some 2-split
    Q of P, hence B <= cir(Q) < P: walking down from cir(types) through
    cir of every 2-split reaches each balanced partition.  A split that
    is already known is balanced, and cir would return it unchanged.
    """
    if net.n_cells > max_cells:
        raise TooLarge(
            f"{net.n_cells} cells exceeds the enumeration cap of {max_cells}; "
            "raise it with max_cells (--max-cells)"
        )
    top = cir_balanced(net, net.type_partition())
    found = {top}
    stack = [top]
    while stack:
        for q in _two_splits(stack.pop()):
            if q in found:
                continue
            b = cir_balanced(net, q)
            if b not in found:
                found.add(b)
                stack.append(b)
    return _build_lattice(list(found))


def is_exo_balanced(net: Network, p: Partition) -> bool:
    """Balance up to each color's own column.

    Cells of one color must see identical per-color in-weight rows on
    every color except possibly their own; dynamics that ignore
    same-state senders cannot distinguish the own-color entry on the
    polydiagonal.
    """
    _check_type_refining(net, p)
    return _round(net, p, exo=True) == p


__all__ = [
    "BalancedCertificate",
    "BalancedLattice",
    "DEFAULT_MAX_CELLS",
    "cir_balanced",
    "enumerate_balanced",
    "is_balanced",
    "is_exo_balanced",
    "quotient_network",
]
