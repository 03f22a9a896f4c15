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
take cir of the result, answered from the cuts already resolved where
they bound it (cir is monotone) and otherwise keyed against the parent's
signatures and walked down to cir, so the work grows with the lattice,
not with the number of type-refining partitions.  A cut has one key, the
cell bitset of its side without its color's first cell, and each
element keeps its resolved cuts in one table by that key.  The splits
considered and the elements found count against MAX_WORK, past which
the network is refused (TooLarge), whatever its number of cells.

Symmetric networks split one element per orbit.  An automorphism maps
balanced partitions to balanced ones and commutes with cir, so the
enumeration adds each element's whole orbit and splits only the element,
one split per orbit (on cut keys) under the automorphisms that fix it.
The automorphisms come from an individualization-refinement search
(`_automorphisms`), a fraction of a millisecond on networks of a dozen
cells, and each one is checked against the types and folded edges
before it is used; any subgroup of the automorphisms prunes correctly,
so a candidate that fails the check is simply dropped.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import NotInLattice, NotTypeRefining, SynckitError, TooLarge
from .monoid import Monoid
from .network import Network, _signature
from .partition import Partition, iter_bits, refines

MAX_WORK = 40_000  # splits considered plus elements found; see enumerate_balanced


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
        q, zero = self.quotient, self.quotient.monoid.zero()
        return tuple(tuple(dict(row).get(l, zero) for l in range(q.n_cells)) for row in q.in_edges)


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
    ids, types = tuple(map(str, range(p.rank))), tuple(net.cell_types[c] for c in firsts)
    return BalancedCertificate(p, Network(ids, types, tuple(signature), net.monoid))


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


def enumerate_balanced(net: Network) -> BalancedLattice:
    """Full balanced lattice by split-and-cir; TooLarge past MAX_WORK.

    Every balanced B strictly below a balanced P lies below some 2-split
    Q of P, hence B <= cir(Q) < P: walking down from cir(types) through
    cir of every 2-split reaches each balanced partition.  A split that
    is already known is balanced and is skipped.

    cir is monotone and cir(Q) is balanced, so cir(Q) = cir(Q ∧ cir(R))
    for every R >= Q, and cuts already resolved answer most splits.  Q
    cuts P's color K into S and K - S.  The parent that first found P
    resolved every cut of its color K' ⊇ K before P was split, and its
    cuts of K' by S and by K - S lie above Q.  A cut is keyed by the
    cell bitset of its side without its color's first cell (`_cut_key`),
    and each element keeps one table of the cir of its cuts by that key,
    where it lies below the cut (a balanced cut bounds nothing); keys of
    different colors are disjoint, so they never collide.  A trivial cir
    answers Q at once; else Q ∧ cir(R) answers Q if it is an element.

    Otherwise Q is keyed against P's signatures: a cell none of whose
    senders moved keeps its color's, so the first round keys only the
    receivers of the moved cells (the smaller side).  If no color
    splits, Q is balanced; else the rounds walk down to cir(Q).  Each
    partition W of the walk has cir(W) = cir(Q), as cir(Q) <= W <= Q,
    and each W-part of K without K's first cell is the key of a cut of K
    above W; where the cuts of K resolved before Q include such a cut,
    they answer W as above.  A walk no bound answers runs to cir(Q), its
    last partition.  Every answer is thus exactly cir(Q), which the
    bounds rely on.

    An automorphism σ gives σ·cir(Q) = cir(σQ), so the splits of σP
    answer as σ applied to those of P.  Each new element's orbit under
    the generators `_automorphisms` finds goes into the elements, and
    only the element is split, one split per orbit under the generators
    that fix it, the orbit walked on cut keys (`_side_orbit`); a cut
    that is not split stays unresolved, no bound.
    The orbits are not only pruning: a split skipped as the image of
    another reaches its cir only as an image, so without adding each
    element's orbit the walk misses elements (K6 gives 49 of its 203).
    Each new element must strictly refine the element it was split from,
    so a fault in the refinement fails at once instead of wandering.

    Work is counted as it is done: an element's 2^(s-1) splits per color
    of s cells before any is built, and each element as its orbit adds
    it.  Past MAX_WORK in all, TooLarge is raised: K9's 21147 elements
    pass, K10's 115975 and the 2^16 splits of C17's one color do not.
    """
    top = cir_balanced(net, net.type_partition())
    found = {top}
    if top.rank < net.n_cells:  # else the top is the trivial partition, the only element
        for _ in _split_answers(net, top, _automorphisms(net), found):
            pass
    return _build_lattice(list(found))


def _refine(rows: Sequence[tuple[Sequence[tuple[int, Any]], Sequence[tuple[int, Any]]]],
            add: Callable[[Any, Any], Any], colors: list[int]) -> list[int]:
    """Color refinement to a fixpoint: cells of one color split by their
    in- and out-neighbour color sums, rows[c] holding c's (sender, weight)
    and (receiver, weight) pairs.  New colors are numbered in the sorted
    order of (color, sums), so refinement commutes with every relabelling
    of the cells."""
    rank = max(colors) + 1
    while True:
        keys = []
        for c, both in enumerate(rows):
            key: list[Any] = [colors[c]]
            for row in both:
                sums: dict[int, Any] = {}
                for d, w in row:
                    k = colors[d]
                    sums[k] = add(sums[k], w) if k in sums else w
                key.append(tuple(sorted(sums.items())))
            keys.append(tuple(key))
        number = {key: i for i, key in enumerate(sorted(set(keys)))}
        if len(number) == rank:  # no color split, so none was renumbered
            return colors
        colors, rank = [number[key] for key in keys], len(number)


def _automorphisms(net: Network) -> tuple[tuple[int, ...], ...]:
    """Generators of a group of automorphisms of net; perm[c] is the image of cell c.

    Individualization-refinement (McKay & Piperno 2014) from the cell
    types, refined by `_refine`; individualizing a cell gives it a color
    of its own, numbered just before the rest of its old color.  A first
    path individualizes the first cell of the first color of two or more
    cells and refines, until every color is one cell.  Then,
    level by level from the deepest, each other cell of that color not
    yet in the orbit of the path's cell under the generators found is
    individualized instead, first choices below it give a second leaf,
    and the map between the leaves' colors is kept if it maps types and
    folded edges with their weights exactly onto themselves.  A dropped
    candidate only makes the group smaller.
    """
    n, add, types, in_edges = net.n_cells, net.monoid.add, net.cell_types, net.in_edges
    outs: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
    for c, row in enumerate(in_edges):
        for d, w in row:
            outs[d].append((c, w))
    rows = tuple(zip(in_edges, outs))

    def individualize(colors: list[int], v: int) -> list[int]:
        kv = colors[v]
        return [k + (k > kv or k == kv and c != v) for c, k in enumerate(colors)]

    def descend(colors: list[int], path: Optional[list] = None) -> list[int]:
        """The leaf below colors by first choices, recording each level on path."""
        colors = _refine(rows, add, colors)
        while max(colors) + 1 < n:
            size = [0] * n
            for k in colors:
                size[k] += 1
            target = next(k for k, s in enumerate(size) if s > 1)
            cells = [c for c, k in enumerate(colors) if k == target]
            if path is not None:
                path.append((colors, cells))
            colors = _refine(rows, add, individualize(colors, cells[0]))
        return colors

    path: list[tuple[list[int], list[int]]] = []
    leaf = descend([t - 1 for t in types], path)
    orbit = list(range(n))  # orbit[c]: a representative of c's orbit
    generators = []
    for colors, cells in reversed(path):
        for u in cells[1:]:
            if orbit[u] == orbit[cells[0]]:
                continue
            cell_of = [0] * n
            for c, k in enumerate(descend(individualize(colors, u))):
                cell_of[k] = c
            perm = tuple([cell_of[k] for k in leaf])
            if (all(types[perm[c]] == t for c, t in enumerate(types))
                    and all(tuple(sorted([(perm[d], w) for d, w in row])) == in_edges[perm[c]]
                            for c, row in enumerate(in_edges))):
                generators.append(perm)
                for c in range(n):  # merge the orbits of c and its image
                    a, b = orbit[c], orbit[perm[c]]
                    if a != b:
                        orbit = [a if o == b else o for o in orbit]
    return tuple(generators)


def _orbit(p: Partition, generators: Sequence[Sequence[int]], room: int) -> set[Partition]:
    """p's images under the group the generators generate, p included,
    cut short once they number more than room (checked per image taken)."""
    orbit, todo = {p}, [p]
    while todo and len(orbit) <= room:
        colors = todo.pop().colors
        for perm in generators:
            image = Partition.from_assignment([colors[c] for c in perm])
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _cut_key(side: int, block: int) -> int:
    """The key of the cut of a color by side, both cell bitsets: the side
    without the color's first cell, its lowest bit."""
    return side ^ block if side & block & -block else side


def _side_orbit(side: int, generators: Sequence[Sequence[int]],
                block_of: Sequence[int]) -> set[int]:
    """The keys (`_cut_key`) of the orbit of a split of a partition under
    generators that fix it, block_of[c] being the cell bitset of c's color."""
    orbit, todo = {side}, [side]
    while todo:
        cells = list(iter_bits(todo.pop()))
        for perm in generators:
            image = 0
            for c in cells:
                image |= 1 << perm[c]
            image = _cut_key(image, block_of[perm[cells[0]]])
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _split_answers(net: Network, top: Partition, generators: Sequence[Sequence[int]],
                   found: Optional[set[Partition]] = None
                   ) -> Iterator[tuple[Partition, int, Partition]]:
    """Split-and-cir from the balanced top: yields (P, side, cir(Q)) for
    one 2-split Q of every element P that is not a known element, per
    orbit of the splits under the generators that fix P.

    Q moves the cells at the set bits of side, which share a color of P
    and leave out its first cell, to a new color; side is the cut's key
    (`_cut_key`).  See enumerate_balanced for how cir(Q) is found.
    found, if given, is filled with every element: the top, and the
    orbit of each element found under the automorphisms that generators
    lists.
    """
    key, receivers, n = _keyer(net.in_edges, net.monoid), net.out_neighbours, net.n_cells
    bottom = Partition.trivial(n)
    found = set() if found is None else found
    found.add(top)
    stack = [(top, None, None)]
    splits = 0  # the splits of the elements split so far, built or not

    def known(assignment: Sequence[int], bounds: list) -> Optional[Partition]:
        """The meet of assignment and the balanced bounds if it is an element, else None."""
        if any(r.rank == n for r in bounds):
            return bottom
        meet = Partition.from_assignment(zip(assignment, *[r.colors for r in bounds]))
        return meet if meet in found else None

    while stack:
        p, parent_block_of, parent_cuts = stack.pop()
        colors, rank, blocks = p.colors, p.rank, p.blocks()
        splits += sum(1 << len(block) - 1 for block in blocks)
        if splits + len(found) > MAX_WORK:  # as found is after an orbit was cut short
            raise TooLarge(f"the lattice enumeration passed its bound of {MAX_WORK} "
                           "splits considered and elements found")
        # a one-cell color is never keyed, so needs no signature
        signature: list[Optional[tuple]] = [None] * rank
        key([cells[0] for cells in blocks if len(cells) > 1], colors, signature)
        block_bits = [sum(1 << c for c in block) for block in blocks]
        block_of = [block_bits[k] for k in colors]  # the cell bitset of each cell's color
        # the automorphisms that fix p permute its splits, and their cirs alike
        fixing = [perm for perm in generators
                  if Partition.from_assignment([colors[c] for c in perm]) == p]
        seen: set[int] = set()  # the keys of the splits met so far and of their images
        cuts: dict[int, Partition] = {}  # cir of each cut by its key, where it lies below the cut
        for k, block in enumerate(blocks):
            first, bits = block[0], block_bits[k]
            sides = [(0, ())]  # (cell bitset, cells) of each subset of the color without first
            for c in block[1:]:
                sides += [(side | 1 << c, cells + (c,)) for side, cells in sides]
            # the cuts of the parent's color that holds this one, by either side, lie
            # above; a side is its own key there, as that color's first cell is not in it
            outer = parent_cuts and parent_block_of[first]
            resolved = len(cuts)  # the cuts of the colors before this one
            # read backwards, sides lists the complement of each side in the same order
            for (side, cells), (_, others) in zip(sides[1:], sides[-2::-1]):
                if side in seen:
                    continue
                q = p.split(cells)
                if q in found:
                    continue
                if fixing:
                    seen |= _side_orbit(side, fixing, block_of)
                b = None
                if outer:
                    bounds = [*filter(None, {parent_cuts.get(side),
                                             parent_cuts.get(_cut_key(bits ^ side, outer))})]
                    if bounds:
                        b = known(q.colors, bounds)
                if b is None:
                    moved, kept = cells, (first, *others)
                    if 2 * len(moved) > len(block):  # move the smaller side
                        moved, kept = kept, moved
                    split = list(colors)
                    for c in moved:
                        split[c] = rank
                    members = [*blocks, moved]
                    members[k] = kept
                    sig = [*signature, signature[k]]
                    rekey = {c for d in moved for c in receivers[d] if len(members[split[c]]) > 1}
                    parts = key(rekey, split, sig)
                    b = q  # q is balanced unless a round splits a color
                    for _ in _rounds(key, receivers, split, sig, members, parts):
                        b = None
                        # each W-part of the color, but first's, is the key of a cut above W
                        if len(cuts) > resolved:
                            parts_of: dict[int, int] = {}
                            for c in block:
                                parts_of[split[c]] = parts_of.get(split[c], 0) | 1 << c
                            del parts_of[split[first]]
                            bounds = [*filter(None, map(cuts.get, parts_of.values()))]
                            if bounds:
                                b = known(split, bounds)
                                if b is not None:
                                    break
                    b = b or Partition.from_assignment(split)  # else the walk ran to cir(Q)
                if max(b.colors) > rank:  # below the cut: bounds its later walks and its children
                    cuts[side] = b
                yield p, side, b
                if b not in found:
                    if b.rank <= rank or not refines(b, p):
                        raise RuntimeError(f"split-and-cir ended at {b.colors}, "
                                           f"not strictly below its parent {colors}")
                    found |= _orbit(b, generators, MAX_WORK - splits - len(found))
                    stack.append((b, block_of, cuts))


__all__ = [
    "BalancedCertificate",
    "BalancedLattice",
    "cir_balanced",
    "enumerate_balanced",
    "is_balanced",
    "is_exo_balanced",
    "quotient_network",
]
