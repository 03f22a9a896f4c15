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
than with the number of type-refining ones.  Each split is refined from
its balanced parent's signatures, and one memo of where refinements
ended serves the whole enumeration.
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
    return _certify(net, p) if _round(net, p) == p else None


def _certify(net: Network, p: Partition) -> BalancedCertificate:
    """The certificate of a partition the caller knows to be balanced."""
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
    """Coarsest balanced partition finer than p, by worklist refinement
    (_rounds) from a first round that keys every cell."""
    _check_type_refining(net, p)
    if p.rank == net.n_cells:  # one cell per color: balanced
        return p
    color = list(p.colors)
    members = [set(block) for block in p.blocks()]
    splits = sum(1 for _ in _rounds(net, color, [None] * p.rank, members, range(net.n_cells)))
    return Partition.from_assignment(color) if splits else p


def _rounds(
    net: Network, color: list[int], signature: list[Optional[tuple]], members: list[set[int]],
    rekey: Iterable[int],
) -> Iterator[None]:
    """Refine color in place to the coarsest balanced partition below it,
    yielding after each round that splits a color.

    Cell c has color id color[c] and members[i] holds the cells of id i.
    Every cell of id i outside rekey has signature signature[i] (None: no
    cell keyed yet).  A round keys the cells in rekey; the next re-keys
    only the receivers of the cells it renamed, since any other cell sums
    the same edges into the same ids, whatever the monoid.  A one-cell
    color cannot split, so its cells are not re-keyed.  Each color splits
    by signature and its largest part keeps the id, so a cell is renamed
    at most log2(n) times (Paige & Tarjan 1987).  A round that splits no
    color leaves every color with one signature: balanced.
    """
    rows, receivers = net.in_edges, net.out_neighbours
    add, zero = net.monoid.add, net.monoid.zero()
    while True:
        parts: dict[int, dict[tuple, list[int]]] = {}  # id -> new signature -> cells
        for c in rekey:
            old, sig = color[c], _signature(rows[c], color, add, zero)
            if sig != signature[old]:
                parts.setdefault(old, {}).setdefault(sig, []).append(c)
        renamed: list[int] = []
        for old, by_sig in parts.items():
            cells = members[old]
            kept = len(cells) - sum(map(len, by_sig.values()))  # these keep signature[old]
            sig = next(iter(by_sig)) if len(by_sig) == 1 else max(by_sig, key=lambda s: len(by_sig[s]))
            if len(by_sig[sig]) > kept:  # a new signature's part keeps the id
                if kept:
                    listed = {c for part in by_sig.values() for c in part}
                    by_sig[signature[old]] = [c for c in cells if c not in listed]
                signature[old] = sig
                del by_sig[sig]
            for sig, part in by_sig.items():
                new = len(members)
                members.append(set(part))
                signature.append(sig)
                cells.difference_update(part)
                for c in part:
                    color[c] = new
                renamed += part
        if not renamed:
            return
        yield
        rekey = {c for d in renamed for c in receivers[d] if len(members[color[c]]) > 1}


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


def enumerate_balanced(net: Network, max_cells: int = DEFAULT_MAX_CELLS) -> BalancedLattice:
    """Full balanced lattice by split-and-cir; refuses large networks.

    Every balanced B strictly below a balanced P lies below some 2-split
    Q of P, hence B <= cir(Q) < P: walking down from cir(types) through
    cir of every 2-split reaches each balanced partition.  A split that
    is already known is balanced and is skipped.

    Q is refined from P's signatures, one per color: a cell none of whose
    senders moved keeps its color's, so the first round re-keys only the
    receivers of the moved cells (the smaller side).  If it splits no
    color, Q is balanced; otherwise the rounds walk down to cir(Q), stop
    at the first partition in a memo shared by all splits, and store the
    end under every partition on the walk.  The memo is exact: cir(R) =
    cir(Q) for every cir(Q) <= R <= Q, as cir is monotone and cir(Q) is
    balanced below R.
    """
    if net.n_cells > max_cells:
        raise TooLarge(
            f"{net.n_cells} cells exceeds the enumeration cap of {max_cells}; "
            "raise it with max_cells (--max-cells)"
        )
    rows, receivers = net.in_edges, net.out_neighbours
    add, zero = net.monoid.add, net.monoid.zero()
    top = cir_balanced(net, net.type_partition())
    found, stack, memo = {top}, [top], {}
    while stack:
        p = stack.pop()
        blocks = p.blocks()
        # a one-cell color is never re-keyed, so needs no signature
        signatures = [_signature(rows[cells[0]], p.colors, add, zero) if len(cells) > 1 else None
                      for cells in blocks]
        for k, block in enumerate(blocks):
            rest = block[1:]
            for mask in range(1, 1 << len(rest)):
                moved = [rest[i] for i in iter_bits(mask)]
                if 2 * len(moved) > len(block):  # move the smaller side
                    moved = [c for c in block if c not in moved]
                split = list(p.colors)
                for c in moved:
                    split[c] = p.rank
                q = Partition.from_assignment(split)
                if q in found:
                    continue
                b = memo.get(q)
                if b is None:
                    members = [set(cells) for cells in blocks] + [set(moved)]
                    members[k].difference_update(moved)
                    rekey = {c for d in moved for c in receivers[d] if len(members[split[c]]) > 1}
                    path = [q]
                    for _ in _rounds(net, split, [*signatures, signatures[k]], members, rekey):
                        path.append(Partition.from_assignment(split))
                        if (b := memo.get(path[-1])) is not None:
                            break
                    else:
                        b = path[-1]
                    if b is not q:  # a balanced q is kept in found instead
                        memo.update(dict.fromkeys(path, b))
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
