"""Strong/rooted/weak classification and neighborhood matching/invariance.

A color is strong when its cells share one SCC, rooted when their
in-reachability sets still intersect, and weak when some of its cells
evolve with no common upstream influence at all.  Both are read off the
condensation: one SCC block, or a nonzero AND of the blocks' root
bitsets.  On top of the classes this module checks the neighborhood
color-matching and color-invariance predicates for the four neighborhood
notions (one-step, cumulative, k-step cumulative, reachability) on the
bitset of colors each cell's neighborhood meets, ORed along
`Network.in_edges` in rounds (down the condensation for reachability),
and produces the join-table and quotient-class reports used to validate
how classes combine; the join table's verdicts are read off the lattice
order, with no pair joined.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, NamedTuple, Optional

from .connectivity import condensation, reach_colors
from .errors import EmptyColor, SynckitError
from .network import Network
from .partition import Partition
from .synchrony import (
    BalancedCertificate,
    BalancedLattice,
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
    """Per cell, the bitset of p's colors that its chosen neighborhood meets.

    From each cell's color bit, a round ORs every cell's senders' bitsets
    into its own: N runs one round that starts each cell from 0, V one
    round, and V^k k rounds, up to the first that changes nothing.
    """
    net.check_partition(p)
    if kind.name == "r":
        return reach_colors(net, p)
    bits = [1 << k for k in p.colors]
    for _ in range(kind.k or 1):
        grown = []
        for c, row in enumerate(net.in_edges):
            b = 0 if kind.name == "n" else bits[c]
            for d, _ in row:
                b |= bits[d]
            grown.append(b)
        if grown == bits:
            break
        bits = grown
    return tuple(bits)


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
    net.check_partition(p)
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


# ---------------------------------------------------------------------------
# Reports


def join_rows(up: tuple[int, ...]) -> Iterator[list[int]]:
    """Per element i, the lattice index of i ∨ j for every j >= i, in order of j.

    Elements are sorted coarse-first, so the join is the highest set bit
    of the two up-sets' AND.  One row is held at a time: the pairs are
    never stored.
    """
    for i, ui in enumerate(up):
        yield [(ui & uj).bit_length() - 1 for uj in up[i:]]


class JoinTableReport(NamedTuple):
    """The classes of a lattice and the verdicts of the paper's join tables.

    The verdicts are read off the order by `join_table_report`, so no
    pair is walked for them; `join_rows(lattice.up)` yields the pairs'
    joins row by row where the pairs are listed.  matched_table_ok is None
    when the stricter table does not apply (a rooted element is not
    reach-in matched).
    """

    lattice: BalancedLattice
    classes: tuple[ColorClass, ...]
    rooted_all_reach_matched: bool
    general_table_ok: bool
    matched_table_ok: Optional[bool]
    nonweak_join_closed: bool


def join_table_report(net: Network) -> JoinTableReport:
    """Check how classes combine under join from the lattice order alone.

    Weak is closed upward (a coarser color holds a weak color's cells,
    so its root intersection is a subset) and strong is closed downward,
    so the strong elements S and the non-weak elements N are down-sets
    and a join can only break a table by leaving S or N.  A down-set of
    a lattice is closed under join exactly when it has at most one
    maximal element (at most: an empty set has no pair to break it).
    The general table holds iff the classes are monotone and S is
    join-closed, the matched table iff N is join-closed as well.  Each
    element's up-set is ANDed with N, and that with S.
    """
    lattice = enumerate_balanced(net)
    classes = tuple(classify_partition(net, b) for b in lattice.elements)
    rooted_matched = all(
        is_matched(net, b, R_IN)
        for b, k in zip(lattice.elements, classes)
        if k is ColorClass.ROOTED
    )
    strong = nonweak = 0
    for i, k in enumerate(classes):
        if k is not ColorClass.WEAK:
            nonweak |= 1 << i
            if k is ColorClass.STRONG:
                strong |= 1 << i
    weak_up = strong_down = True
    strong_tops = nonweak_tops = 0
    for i, (up, k) in enumerate(zip(lattice.up, classes)):
        above = up & nonweak  # i itself included when i is non-weak
        if k is ColorClass.WEAK:
            weak_up = weak_up and not above
            continue
        nonweak_tops += above == 1 << i
        if k is ColorClass.STRONG:
            strong_tops += above & strong == 1 << i
        else:
            strong_down = strong_down and not above & strong
    general = weak_up and strong_down and strong_tops <= 1
    nonweak_closed = weak_up and nonweak_tops <= 1
    matched = general and nonweak_closed if rooted_matched else None
    return JoinTableReport(lattice, classes, rooted_matched, general, matched, nonweak_closed)


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


def quotient_class_report(net: Network, cert: BalancedCertificate) -> QuotientClassReport:
    """Compare classes of balanced coarsenings with their quotient classes.

    The balanced partitions coarser than p are the balanced partitions of
    p's quotient network lifted through p's colors, so only the quotient's
    lattice is enumerated, and its work alone counts against MAX_WORK.
    The class can only get stronger in the quotient when p is reach-in
    invariant on the full network; when it is not, the report is still
    emitted but carries no table verdict.
    """
    precondition = is_invariant(net, cert, R_IN)
    colors = cert.partition.colors
    lifted = sorted(
        (
            (Partition.from_assignment(map(q.colors.__getitem__, colors)), q)
            for q in enumerate_balanced(cert.quotient).elements
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
