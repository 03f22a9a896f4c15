"""Balanced partitions, coarsest balanced refinement, lattices, quotients.

A type-refining partition is balanced when cells of one color see the
same monoid-summed in-weight per color; those sums are the in-edges of
the quotient network, which the balance certificate carries.  Every
verdict rests on one keying round (`_keyer`), which returns the cells
whose sparse signature (nonzero per-color in-edge sums) differs from
their color's.  A color with no signature yet takes its first keyed
cell's, so a round over every cell finds nothing exactly when the
partition is balanced, and leaves each color's signature behind.
Exo-balance is balance without same-color in-edges.  cir re-keys only
the cells whose senders changed color.  Small networks get their full
lattice by split-and-cir: split a balanced partition's color in two and
take cir of the result, keyed against the parent's signatures through
one memo, so the work grows with the lattice, not with the number of
type-refining partitions.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import NotInLattice, NotTypeRefining, SynckitError, TooLarge
from .monoid import Monoid
from .network import Network, _signature
from .partition import Partition, iter_bits, refines

DEFAULT_MAX_CELLS = 12


def _check_type_refining(net: Network, p: Partition) -> None:
    if p.size != net.n_cells or not refines(p, net.type_partition()):
        raise NotTypeRefining("partition must refine the cell-type partition")


class BalancedCertificate(NamedTuple):
    """A balanced partition and its quotient network, whose cell k is color k,
    named str(k), with its cells' common signature as in-edges."""

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


def _keyer(rows: Sequence[Sequence[tuple[int, Any]]], monoid: Monoid) -> Callable[..., dict]:
    """key(cells, color, signature): per color id, the given cells whose
    signature under color differs from signature[id], grouped by signature.
    An id whose signature is None takes its first keyed cell's."""
    add, zero = monoid.add, monoid.zero()

    def key(cells: Iterable[int], color: list[int], signature: list[Optional[tuple]]) -> dict:
        parts: dict[int, dict[tuple, list[int]]] = {}
        for c in cells:
            old, sig = color[c], _signature(rows[c], color, add, zero)
            if sig != signature[old]:
                if old in parts:
                    parts[old].setdefault(sig, []).append(c)
                elif signature[old] is None:
                    signature[old] = sig
                else:
                    parts[old] = {sig: [c]}
        return parts

    return key


def is_balanced(net: Network, p: Partition) -> Optional[BalancedCertificate]:
    """Certificate with the quotient network, built in O(n + m), or None if rows disagree."""
    _check_type_refining(net, p)
    return _certify(net, p, range(net.n_cells))


def _certify(net: Network, p: Partition,
             cells: Optional[Iterable[int]] = None) -> Optional[BalancedCertificate]:
    """p's certificate from one round over cells, None if it splits a color.
    By default it keys each color's first cell, for a p known to be balanced."""
    firsts = [block[0] for block in p.blocks()]
    signature: list[Optional[tuple]] = [None] * p.rank
    if _keyer(net.in_edges, net.monoid)(firsts if cells is None else cells, p.colors, signature):
        return None
    types = tuple(net.cell_types[c] for c in firsts)
    edges = tuple((k, l, w) for k, sig in enumerate(signature) for l, w in sig)
    return BalancedCertificate(p, Network(tuple(map(str, range(p.rank))), types, edges, net.monoid))


def is_exo_balanced(net: Network, p: Partition) -> bool:
    """Balance up to each color's own column, which dynamics that ignore
    same-state senders cannot see on the polydiagonal: the round keys
    rows without same-color senders."""
    _check_type_refining(net, p)
    colors = p.colors
    rows = [[(d, w) for d, w in row if colors[d] != colors[c]]
            for c, row in enumerate(net.in_edges)]
    return not _keyer(rows, net.monoid)(range(net.n_cells), colors, [None] * p.rank)


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
    """Coarsest balanced partition finer than p, by worklist rounds (_rounds)
    after a first round over every cell, if that splits a color."""
    _check_type_refining(net, p)
    if p.rank == net.n_cells:  # one cell per color: balanced
        return p
    key, color, signature = _keyer(net.in_edges, net.monoid), list(p.colors), [None] * p.rank
    parts = key(range(net.n_cells), color, signature)
    if not parts:
        return p
    for _ in _rounds(key, net.out_neighbours, color, signature, list(p.blocks()), parts):
        pass
    return Partition.from_assignment(color)


def _rounds(key: Callable[..., dict], receivers: Sequence[Sequence[int]], color: list[int],
            signature: list, members: list, parts: dict) -> Iterator[None]:
    """Refine color in place to the coarsest balanced partition below it,
    yielding after each round that splits a color.

    members[i] holds the cells of id i (a set once id i has split), and
    parts is what the last keying round returned: each cell of id i it
    does not list has signature[i].  Each listed id splits by signature
    and its largest part keeps the id, so a cell is renamed at most
    log2(n) times (Paige & Tarjan 1987).  The next round keys only the
    receivers of renamed cells in colors of two or more cells; any other
    cell sums the same edges into the same ids, whatever the monoid.
    """
    while True:
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
            if by_sig and type(cells) is not set:
                cells = members[old] = set(cells)
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
        parts = key({c for d in renamed for c in receivers[d] if len(members[color[c]]) > 1},
                    color, signature)


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


def _order(elements: tuple[Partition, ...]) -> tuple[tuple[int, ...], frozenset[tuple[int, int]]]:
    """Up-sets and covers of the refinement order, with sets of elements as bitsets.

    A partition is coded by the cell pairs it puts in one color, and i
    refines j iff j holds every pair of i; so the elements above i (i
    itself included) are the intersection, over i's pairs, of the
    elements holding that pair.  Finer elements sort later, so the
    highest element left in i's strict up-set has nothing left between
    it and i: it is a cover, and the elements above it are not.
    """
    holders: dict[tuple[int, int], int] = {}
    pairs_of = []
    for i, p in enumerate(elements):
        pairs = [(a, b) for block in p.blocks() for x, a in enumerate(block) for b in block[x + 1:]]
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
        rest = mask ^ 1 << i
        while rest:  # the finest element left above i is a cover
            j = rest.bit_length() - 1
            covers.add((i, j))
            rest &= ~up[j]
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

    Q is keyed against P's signatures: a cell none of whose senders moved
    keeps its color's, so the first round keys only the receivers of the
    moved cells (the smaller side).  If no color splits, Q is balanced;
    else the rounds walk down to cir(Q), stop at the first partition in a
    memo shared by all splits, and store the end under the colors of each
    partition on the walk.  The memo is exact: cir(R) = cir(Q) for every
    cir(Q) <= R <= Q, as cir is monotone and cir(Q) is balanced below R.
    """
    if net.n_cells > max_cells:
        raise TooLarge(
            f"{net.n_cells} cells exceeds the enumeration cap of {max_cells}; "
            "raise it with max_cells (--max-cells)"
        )
    key, receivers = _keyer(net.in_edges, net.monoid), net.out_neighbours
    top = cir_balanced(net, net.type_partition())
    found, stack, memo = {top}, [top], {}
    while stack:
        p = stack.pop()
        colors, rank, blocks = p.colors, p.rank, p.blocks()
        # a one-cell color is never keyed, so needs no signature
        signature: list[Optional[tuple]] = [None] * rank
        key([cells[0] for cells in blocks if len(cells) > 1], colors, signature)
        for k, block in enumerate(blocks):
            rest = block[1:]
            for mask in range(1, 1 << len(rest)):
                moved = [rest[i] for i in iter_bits(mask)]
                if 2 * len(moved) > len(block):  # move the smaller side
                    moved = [c for c in block if c not in moved]
                split = list(colors)
                for c in moved:
                    split[c] = rank
                q = Partition.from_assignment(split)
                if q in found:
                    continue
                b = memo.get(q.colors)
                if b is None:
                    members = [*blocks, moved]
                    members[k] = [c for c in block if c not in moved]
                    sig = [*signature, signature[k]]
                    rekey = {c for d in moved for c in receivers[d] if len(members[split[c]]) > 1}
                    parts = key(rekey, split, sig)
                    b, path = q, [q.colors]  # q is balanced unless a round splits a color
                    for _ in _rounds(key, receivers, split, sig, members, parts):
                        b = Partition.from_assignment(split)
                        if (end := memo.get(b.colors)) is not None:
                            b = end
                            break
                        path.append(b.colors)
                    if b is not q:  # a balanced q is kept in found instead
                        memo.update(dict.fromkeys(path, b))
                if b not in found:
                    found.add(b)
                    stack.append(b)
    return _build_lattice(list(found))


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
