"""Partitions of a finite cell set.

A partition is stored as a color assignment in canonical form: colors are
numbered 0..rank-1 by first occurrence in cell order, which makes equality
of partitions plain value equality.  The refinement order, join and meet
live here, along with the compact text form used by the CLI ("12/45":
colors split by "/", cells within a color split by "," or concatenated
when ids are single characters, singletons omissible).
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainMismatch, MalformedPartitionSpec


def _canonical(labels: Iterable[Hashable]) -> tuple[int, ...]:
    """Number the labels 0, 1, ... by first occurrence."""
    relabel: dict[Hashable, int] = {}
    return tuple([relabel.setdefault(label, len(relabel)) for label in labels])


class Partition(NamedTuple("Partition", [("colors", tuple[int, ...])])):
    """Canonical color assignment over cells 0..n-1.

    A one-field tuple, so hashing and equality run in C; the subclass
    has a `__dict__` for the cached rank and blocks.
    """

    def __new__(cls, colors: tuple[int, ...]) -> "Partition":
        if colors != _canonical(colors):
            raise ValueError("partition assignment is not in canonical form")
        return tuple.__new__(cls, (colors,))

    @staticmethod
    def from_assignment(labels: Iterable[Hashable]) -> "Partition":
        """Cells with equal labels share a color; any hashable labels will do."""
        # canonical by construction, so __new__'s check is skipped
        return tuple.__new__(Partition, (_canonical(labels),))

    @staticmethod
    def trivial(size: int) -> "Partition":
        """Finest partition: every cell its own color."""
        return Partition(tuple(range(size)))

    @property
    def size(self) -> int:
        return len(self.colors)

    @cached_property
    def rank(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The cells of each color, in cell order; built once per partition."""
        blocks = self.__dict__.get("_blocks")
        if blocks is None:
            out: list[list[int]] = [[] for _ in range(self.rank)]
            for c, k in enumerate(self.colors):
                out[k].append(c)
            blocks = self.__dict__["_blocks"] = tuple(map(tuple, out))
        return blocks

    def split(self, cells: Sequence[int]) -> "Partition":
        """This partition with cells moved to a new color: cells are sorted,
        share one color and are not its first cell."""
        colors = self.colors
        new = max(colors[:cells[0]]) + 1  # the colors seen before cells[0] keep their number
        out = [k + (k >= new) for k in colors]
        for c in cells:
            out[c] = new
        return tuple.__new__(Partition, (tuple(out),))


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first: a bitset's members."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_domain(a: Partition, b: Partition) -> None:
    if a.size != b.size:
        raise DomainMismatch(f"partitions on {a.size} and {b.size} cells")


def refines(a: Partition, b: Partition) -> bool:
    """True iff a <= b: same color under a implies same color under b."""
    _check_domain(a, b)
    seen: dict[int, int] = {}
    for c in range(a.size):
        k = a.colors[c]
        if k in seen:
            if seen[k] != b.colors[c]:
                return False
        else:
            seen[k] = b.colors[c]
    return True


# No command calls this; it stays while bench/spans.py traces it.
def join(a: Partition, b: Partition) -> Partition:
    """Least upper bound: merge along chains alternating a- and b-colors."""
    _check_domain(a, b)
    parent = list(range(a.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for p in (a, b):
        first: dict[int, int] = {}
        for c in range(p.size):
            k = p.colors[c]
            if k in first:
                union(first[k], c)
            else:
                first[k] = c
    return Partition.from_assignment(find(c) for c in range(a.size))


def meet(a: Partition, b: Partition) -> Partition:
    """Greatest lower bound: nonempty intersections of color pairs."""
    _check_domain(a, b)
    return Partition.from_assignment(zip(a.colors, b.colors))


# ---------------------------------------------------------------------------
# Text form


def format_partition(p: Partition, cell_ids: Sequence[str]) -> str:
    """Render all colors, "/"-separated; concatenate single-char ids."""
    if len(cell_ids) != p.size:
        raise DomainMismatch("cell id list does not match partition size")
    compact = all(len(i) == 1 for i in cell_ids)
    sep = "" if compact else ","
    return "/".join(sep.join(cell_ids[c] for c in block) for block in p.blocks())


def parse_partition(text: str, cell_ids: Sequence[str]) -> Partition:
    """Parse the compact text form; unmentioned cells become singletons."""
    index = {cid: i for i, cid in enumerate(cell_ids)}
    n = len(cell_ids)
    assigned: dict[int, int] = {}
    text = text.strip()
    if text in ("", "-"):
        return Partition.trivial(n)
    for k, token in enumerate(text.split("/")):
        token = token.strip()
        if not token:
            raise MalformedPartitionSpec(f"empty color in spec {text!r}")
        cells = _parse_color_token(token, index)
        for c in cells:
            if c in assigned:
                raise MalformedPartitionSpec(f"cell {cell_ids[c]!r} listed twice")
            assigned[c] = k
    next_color = max(assigned.values()) + 1
    colors = []
    for c in range(n):
        if c in assigned:
            colors.append(assigned[c])
        else:
            colors.append(next_color)
            next_color += 1
    return Partition.from_assignment(colors)


def _parse_color_token(token: str, index: dict[str, int]) -> list[int]:
    if "," in token:
        cells = []
        for piece in token.split(","):
            piece = piece.strip()
            if piece not in index:
                raise MalformedPartitionSpec(f"unknown cell id {piece!r}")
            cells.append(index[piece])
        return cells
    if token in index:
        return [index[token]]
    if all(ch in index for ch in token):
        return [index[ch] for ch in token]
    raise MalformedPartitionSpec(f"cannot resolve color token {token!r}")
