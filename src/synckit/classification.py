"""Strong/rooted/weak classification and neighborhood matching/invariance.

A color is strong when its cells share one SCC, rooted when their
in-reachability sets still intersect, and weak when some of its cells
evolve with no common upstream influence at all.  Both are read off the
condensation: one SCC block, or a nonzero AND of the blocks' root
bitsets.  On top of the classes this module checks the neighborhood
color-matching and color-invariance predicates for the four neighborhood
notions (one-step, cumulative, k-step cumulative, reachability) on the
bitset of colors each cell's neighborhood meets, and produces the
join-table and quotient-class reports used to validate how classes combine.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .connectivity import (
    condensation,
    cumulative_in,
    cumulative_in_k,
    in_neighborhood,
    rdc_decomposition,
    reach_colors,
    scc_decomposition,
)
from .errors import EmptyColor, SynckitError
from .network import Network
from .partition import Partition, meet
from .synchrony import (
    DEFAULT_MAX_CELLS,
    BalancedCertificate,
    BalancedLattice,
    cir_balanced,
    enumerate_balanced,
)


class ColorClass(enum.Enum):
    STRONG = "strong"
    ROOTED = "rooted"
    WEAK = "weak"


class NeighborhoodKind(NamedTuple("NeighborhoodKind", [("name", str), ("k", Optional[int])])):
    """One of the four neighborhood notions; k applies to the k-step kind."""

    __slots__ = ()

    def __new__(cls, name: str, k: Optional[int] = None) -> "NeighborhoodKind":
        if name not in ("n", "v", "vk", "r"):
            raise SynckitError(f"unknown neighborhood kind {name!r}")
        if name == "vk":
            if k is None or k < 1:
                raise SynckitError("k-step neighborhood needs k >= 1")
        elif k is not None:
            raise SynckitError(f"kind {name!r} takes no k")
        return tuple.__new__(cls, (name, k))

    def label(self) -> str:
        return {"n": "in", "v": "cumulative-in", "vk": f"cumulative-in-{self.k}",
                "r": "reach-in"}[self.name]


N_IN = NeighborhoodKind("n")
V_IN = NeighborhoodKind("v")
R_IN = NeighborhoodKind("r")


def v_in_k(k: int) -> NeighborhoodKind:
    return NeighborhoodKind("vk", k)


def _hood_colors(net: Network, p: Partition, kind: NeighborhoodKind) -> tuple[int, ...]:
    """Per cell, the bitset of p's colors that its chosen neighborhood meets."""
    if kind.name == "r":
        return reach_colors(net, p)
    if kind.name == "n":
        hoods = (in_neighborhood(net, c) for c in range(net.n_cells))
    elif kind.name == "v":
        hoods = (cumulative_in(net, c) for c in range(net.n_cells))
    else:
        assert kind.k is not None
        hoods = (cumulative_in_k(net, c, kind.k) for c in range(net.n_cells))
    return tuple(sum(1 << k for k in p.color_of_set(hood)) for hood in hoods)


def classify_color(net: Network, color: Iterable[int]) -> ColorClass:
    """Class of one color: one SCC block, or some root block upstream of all its cells."""
    cells = sorted(set(color))
    if not cells:
        raise EmptyColor("cannot classify an empty color")
    for c in cells:
        net.check_cell(c)
    cond = condensation(net)
    blocks = {cond.scc_partition.colors[c] for c in cells}
    if len(blocks) == 1:
        return ColorClass.STRONG
    common = -1
    for k in blocks:
        common &= cond.root_bits[k]
    return ColorClass.ROOTED if common else ColorClass.WEAK


def classify_partition(net: Network, p: Partition) -> ColorClass:
    """Strong if all colors are; weak if any color is; rooted otherwise."""
    classes = [classify_color(net, block) for block in p.blocks()]
    if any(k is ColorClass.WEAK for k in classes):
        return ColorClass.WEAK
    if all(k is ColorClass.STRONG for k in classes):
        return ColorClass.STRONG
    return ColorClass.ROOTED


def is_matched(net: Network, p: Partition, kind: NeighborhoodKind) -> bool:
    """Same-colored cells see the same color set in the chosen neighborhood."""
    images = _hood_colors(net, p, kind)
    return Partition.from_assignment(zip(p.colors, images, strict=True)) == p


def is_invariant(net: Network, cert: BalancedCertificate, kind: NeighborhoodKind) -> bool:
    """Colorwise neighborhoods commute with taking the quotient network (cell k is color k)."""
    p = cert.partition
    hoods_g = _hood_colors(net, p, kind)
    hoods_q = _hood_colors(cert.quotient, Partition.trivial(p.rank), kind)
    return all(hoods_g[c] == hoods_q[k] for c, k in enumerate(p.colors))


def top_strong(net: Network) -> Partition:
    """Top of the strong sublattice: coarsest balanced below types meet SCCs."""
    return cir_balanced(net, meet(net.type_partition(), scc_decomposition(net)))


def top_nonweak(net: Network, max_cells: int = DEFAULT_MAX_CELLS) -> tuple[Partition, bool]:
    """Candidate top non-weak element plus a validity flag.

    The candidate is the coarsest balanced partition below types meet
    root-dependency classes.  It tops the non-weak elements only when
    every rooted element of the lattice is reach-in matched, so that
    hypothesis is checked by enumeration and reported alongside.
    """
    candidate = cir_balanced(net, meet(net.type_partition(), rdc_decomposition(net)))
    lattice = enumerate_balanced(net, max_cells)
    classes = [classify_partition(net, b) for b in lattice.elements]
    return candidate, _rooted_reach_matched(net, lattice, classes)


def _rooted_reach_matched(
    net: Network, lattice: BalancedLattice, classes: Sequence[ColorClass]
) -> bool:
    """Whether every rooted element of the lattice is reach-in matched."""
    return all(
        is_matched(net, b, R_IN)
        for b, k in zip(lattice.elements, classes)
        if k is ColorClass.ROOTED
    )


# ---------------------------------------------------------------------------
# Reports

_TABLE1 = {
    (ColorClass.STRONG, ColorClass.STRONG): {ColorClass.STRONG},
    (ColorClass.STRONG, ColorClass.ROOTED): {ColorClass.ROOTED, ColorClass.WEAK},
    (ColorClass.STRONG, ColorClass.WEAK): {ColorClass.WEAK},
    (ColorClass.ROOTED, ColorClass.ROOTED): {ColorClass.ROOTED, ColorClass.WEAK},
    (ColorClass.ROOTED, ColorClass.WEAK): {ColorClass.WEAK},
    (ColorClass.WEAK, ColorClass.WEAK): {ColorClass.WEAK},
}

_TABLE2 = {
    (ColorClass.STRONG, ColorClass.STRONG): {ColorClass.STRONG},
    (ColorClass.STRONG, ColorClass.ROOTED): {ColorClass.ROOTED},
    (ColorClass.STRONG, ColorClass.WEAK): {ColorClass.WEAK},
    (ColorClass.ROOTED, ColorClass.ROOTED): {ColorClass.ROOTED},
    (ColorClass.ROOTED, ColorClass.WEAK): {ColorClass.WEAK},
    (ColorClass.WEAK, ColorClass.WEAK): {ColorClass.WEAK},
}

# Closure of the non-weak elements under join: only a weak join of two
# non-weak elements breaks it.
_NONWEAK_CLOSED = {
    (ColorClass.STRONG, ColorClass.STRONG): {ColorClass.STRONG, ColorClass.ROOTED},
    (ColorClass.STRONG, ColorClass.ROOTED): {ColorClass.STRONG, ColorClass.ROOTED},
    (ColorClass.STRONG, ColorClass.WEAK): set(ColorClass),
    (ColorClass.ROOTED, ColorClass.ROOTED): {ColorClass.STRONG, ColorClass.ROOTED},
    (ColorClass.ROOTED, ColorClass.WEAK): set(ColorClass),
    (ColorClass.WEAK, ColorClass.WEAK): set(ColorClass),
}

_CLASSES = tuple(ColorClass)  # strong, rooted, weak
_ORDER = {k: n for n, k in enumerate(_CLASSES)}


def _fits(table: dict, left: ColorClass, right: ColorClass, joined: ColorClass) -> bool:
    """Whether a (left, right, join) class triple is allowed by a class table."""
    key = (left, right) if _ORDER[left] <= _ORDER[right] else (right, left)
    return joined in table[key]


def join_rows(up: tuple[int, ...]) -> Iterator[list[int]]:
    """Per element i, the lattice index of i ∨ j for every j >= i, in order of j.

    Elements are sorted coarse-first, so the join is the highest set bit
    of the two up-sets' AND.  One row is held at a time: the pairs are
    never stored.
    """
    for i, ui in enumerate(up):
        yield [(ui & uj).bit_length() - 1 for uj in up[i:]]


class JoinTableReport(NamedTuple):
    """The classes of a lattice and the class triples its pairs' joins take.

    The verdicts need only the set of (left, right, join) class triples
    (at most 27), so no pair is stored; `join_rows(lattice.up)` yields
    the pairs' joins row by row.
    """

    lattice: BalancedLattice
    classes: tuple[ColorClass, ...]
    rooted_all_reach_matched: bool
    triples: frozenset[tuple[ColorClass, ColorClass, ColorClass]]

    @property
    def general_table_ok(self) -> bool:
        return all(_fits(_TABLE1, *t) for t in self.triples)

    @property
    def matched_table_ok(self) -> Optional[bool]:
        """None when the stricter table does not apply (a rooted element is not reach-matched)."""
        if not self.rooted_all_reach_matched:
            return None
        return all(_fits(_TABLE2, *t) for t in self.triples)

    @property
    def nonweak_join_closed(self) -> bool:
        return all(_fits(_NONWEAK_CLOSED, *t) for t in self.triples)


def join_table_report(net: Network, max_cells: int = DEFAULT_MAX_CELLS) -> JoinTableReport:
    """Join every pair of balanced partitions and collect the class triples."""
    lattice = enumerate_balanced(net, max_cells)
    classes = tuple(classify_partition(net, b) for b in lattice.elements)
    rooted_matched = _rooted_reach_matched(net, lattice, classes)
    # per left class, the (right, join) class pairs seen; small int codes
    # hash far faster than enum members
    codes = [_ORDER[k] for k in classes]
    seen: list[set[tuple[int, int]]] = [set() for _ in _CLASSES]
    for i, row in enumerate(join_rows(lattice.up)):
        seen[codes[i]].update(zip(codes[i:], map(codes.__getitem__, row)))
    triples = frozenset(
        (_CLASSES[left], _CLASSES[right], _CLASSES[joined])
        for left, pairs in enumerate(seen)
        for right, joined in pairs
    )
    return JoinTableReport(lattice, classes, rooted_matched, triples)


class QuotientClassEntry(NamedTuple):
    partition: Partition
    class_in_base: ColorClass
    quotient_partition: Partition
    class_in_quotient: ColorClass


class QuotientClassReport(NamedTuple):
    base_partition: Partition
    precondition_met: bool
    entries: tuple[QuotientClassEntry, ...]
    violations: tuple[QuotientClassEntry, ...]


_ALLOWED_QUOTIENT = {
    ColorClass.STRONG: {ColorClass.STRONG},
    ColorClass.ROOTED: {ColorClass.STRONG, ColorClass.ROOTED},
    ColorClass.WEAK: {ColorClass.STRONG, ColorClass.ROOTED, ColorClass.WEAK},
}


def quotient_class_report(
    net: Network, cert: BalancedCertificate, max_cells: int = DEFAULT_MAX_CELLS
) -> QuotientClassReport:
    """Compare classes of balanced coarsenings with their quotient classes.

    The balanced partitions coarser than p are the balanced partitions of
    p's quotient network lifted through p's colors, so only the quotient's
    lattice is enumerated and max_cells caps rank(p), not the cell count.
    The class can only get stronger in the quotient when p is reach-in
    invariant on the full network; when it is not, the report is still
    emitted but carries no table verdict.
    """
    precondition = is_invariant(net, cert, R_IN)
    colors = cert.partition.colors
    lifted = sorted(
        (
            (Partition.from_assignment(map(q.colors.__getitem__, colors)), q)
            for q in enumerate_balanced(cert.quotient, max_cells).elements
        ),
        key=lambda bq: (bq[0].rank, bq[0].colors),
    )
    entries = []
    violations = []
    for b, q in lifted:
        entry = QuotientClassEntry(
            b,
            classify_partition(net, b),
            q,
            classify_partition(cert.quotient, q),
        )
        entries.append(entry)
        if precondition and entry.class_in_quotient not in _ALLOWED_QUOTIENT[
            entry.class_in_base
        ]:
            violations.append(entry)
    return QuotientClassReport(
        cert.partition, precondition, tuple(entries), tuple(violations)
    )
