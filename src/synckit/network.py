"""Coupled cell network data model with JSON I/O and DOT export.

A network is a list of typed cells plus (receiver, sender, weight) edges
over one commutative monoid (many graph libraries put the sender first).
Parallel edges in a document are folded with the monoid sum at parse
time, in one pass over the edge lines into a dict keyed by the int
receiver * n + sender, and folded weights equal to the monoid zero are
dropped; the in-memory model only ever holds that folded nonzero edge
list, never a dense matrix.  Every algorithm reads it through
`Network.in_edges`, the per-receiver (sender, weight) pairs.  Cell ids
are strings in files and dense indices internally.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

from .errors import (
    DuplicateCellId,
    MalformedDocument,
    PartitionDomainMismatch,
    UnknownCell,
    UnknownCellInEdge,
)
from .monoid import Monoid, monoid_by_name
from .partition import Partition

if TYPE_CHECKING:
    from .connectivity import Condensation

_DOT_SHAPES = ("circle", "box", "diamond", "hexagon", "ellipse", "triangle")


class Network(NamedTuple("Network", [
    ("cell_ids", tuple[str, ...]),
    ("cell_types", tuple[int, ...]),
    ("edges", tuple[tuple[int, int, Any], ...]),
    ("monoid", Monoid),
])):
    """Immutable network: typed cells and folded nonzero weighted edges.

    `edges` holds (receiver, sender, weight) triples sorted by receiver
    and then sender, one per connected pair, none with the zero weight,
    so equal networks compare equal.  The subclass of the fields' tuple
    has a `__dict__` for the cached properties.
    """

    @property
    def n_cells(self) -> int:
        return len(self.cell_ids)

    @property
    def num_types(self) -> int:
        return max(self.cell_types) if self.cell_types else 0

    @cached_property
    def _index(self) -> dict[str, int]:
        return {cid: i for i, cid in enumerate(self.cell_ids)}

    def index_of(self, cell_id: str) -> int:
        try:
            return self._index[cell_id]
        except KeyError:
            raise UnknownCell(f"no cell with id {cell_id!r}") from None

    def check_cell(self, c: int) -> None:
        if not 0 <= c < self.n_cells:
            raise UnknownCell(f"cell index {c} out of range")

    def check_partition(self, p: Partition) -> None:
        if p.size != self.n_cells:
            raise PartitionDomainMismatch(
                f"partition on {p.size} cells applied to a {self.n_cells}-cell network"
            )

    @cached_property
    def in_edges(self) -> tuple[tuple[tuple[int, Any], ...], ...]:
        """Per receiver, the (sender, weight) pairs with nonzero weight."""
        rows: list[list[tuple[int, Any]]] = [[] for _ in range(self.n_cells)]
        for c, d, w in self.edges:
            rows[c].append((d, w))
        return tuple(map(tuple, rows))

    @cached_property
    def out_neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Per sender, the receivers of its nonzero-weight edges."""
        rows: list[list[int]] = [[] for _ in range(self.n_cells)]
        for c, d, _ in self.edges:
            rows[d].append(c)
        return tuple(map(tuple, rows))

    # Connectivity structure is computed once per instance, on first use.

    @cached_property
    def _condensation(self) -> Condensation:
        from .connectivity import _build_condensation

        return _build_condensation(self)

    def type_partition(self) -> Partition:
        return Partition.from_assignment(self.cell_types)

    def subnetwork(self, cells: Sequence[int]) -> "Network":
        """Induced subnetwork on the given cells, kept in the given order."""
        for c in cells:
            self.check_cell(c)
        ids = tuple(self.cell_ids[c] for c in cells)
        types = tuple(self.cell_types[c] for c in cells)
        pos = {c: i for i, c in enumerate(cells)}
        edges = [(pos[c], pos[d], w) for c in cells for d, w in self.in_edges[c] if d in pos]
        return Network(ids, types, tuple(sorted(edges)), self.monoid)


# No command calls this; it stays while bench/spans.py traces it.
def row_color_sum(net: Network, p: Partition, c: int) -> tuple[tuple[int, Any], ...]:
    """Sparse signature of cell c: sorted (color, sum) pairs of its in-row.

    Colors whose monoid sum is zero are left out, so two cells have equal
    signatures exactly when their dense per-color rows are equal; the cost
    is the in-degree of c, whatever the rank of p.
    """
    net.check_partition(p)
    net.check_cell(c)
    return _signature(net.in_edges[c], p.colors, net.monoid.add, net.monoid.zero())


def _signature(
    row: Sequence[tuple[int, Any]], colors: Sequence[int], add: Callable[[Any, Any], Any], zero: Any
) -> tuple[tuple[int, Any], ...]:
    """Sorted nonzero (color, sum) pairs of one in-row under a color assignment."""
    sums: dict[int, Any] = {}
    for d, w in row:
        k = colors[d]
        sums[k] = add(sums[k], w) if k in sums else w
    return tuple(sorted([kw for kw in sums.items() if kw[1] != zero]))


# ---------------------------------------------------------------------------
# JSON document format


def parse_network(doc: Any) -> Network:
    """Build a Network from a parsed JSON document, folding parallel edges."""
    if not isinstance(doc, dict):
        raise MalformedDocument("network document must be a JSON object")
    monoid = monoid_by_name(doc.get("monoid", "int-add"))
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        raise MalformedDocument("document needs a non-empty 'cells' list")

    index: dict[str, int] = {}
    types: list[int] = []
    for entry in cells:
        if not isinstance(entry, dict) or "id" not in entry or "type" not in entry:
            raise MalformedDocument(f"bad cell entry {entry!r}")
        cid = str(entry["id"])
        if not cid or cid != cid.strip() or "/" in cid or "," in cid:
            # partition specs split on "/" and "," and strip whitespace
            raise MalformedDocument(
                f"cell id {cid!r} must be nonempty, without '/', ',' or "
                "leading/trailing whitespace"
            )
        ctype = entry["type"]
        if not isinstance(ctype, int) or isinstance(ctype, bool) or ctype < 1:
            raise MalformedDocument(f"cell {cid!r} has bad type {ctype!r}")
        if cid in index:
            raise DuplicateCellId(f"duplicate cell id {cid!r}")
        index[cid] = len(index)
        types.append(ctype)
    if max(types) != len(set(types)):  # type ids are >= 1, so this means 1..k
        raise MalformedDocument("type ids must form a contiguous range starting at 1")

    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise MalformedDocument("'edges' must be a list")
    # the pair (receiver c, sender d) is keyed by the int c * n + d, which
    # sorts as the pair does
    n = len(index)
    zero, coerce, add, plus_type = monoid.zero(), monoid.coerce, monoid.add, monoid.plus_type
    folded: dict[int, Any] = {}
    fget, iget = folded.get, index.get
    for edge in edges:
        if (not isinstance(edge, dict)
                or "from" not in edge or "to" not in edge or "weight" not in edge):
            raise MalformedDocument(f"bad edge entry {edge!r}")
        # ids are nearly always strings already; str() of a str subclass
        # would copy it, so test the exact type
        src, dst, w = edge["from"], edge["to"], edge["weight"]
        if type(src) is not str:
            src = str(src)
        if type(dst) is not str:
            dst = str(dst)
        d = iget(src)
        if d is None:
            raise UnknownCellInEdge(f"edge references unknown cell {src!r}")
        c = iget(dst)
        if c is None:
            raise UnknownCellInEdge(f"edge references unknown cell {dst!r}")
        key = c * n + d
        if type(w) is plus_type:
            folded[key] = fget(key, zero) + w
        else:
            try:
                w = coerce(w)
            except (TypeError, ValueError, OverflowError) as exc:
                raise MalformedDocument(str(exc)) from None
            folded[key] = add(fget(key, zero), w)

    nonzero = tuple([(k // n, k % n, w) for k in sorted(folded) if (w := folded[k]) != zero])
    return Network(tuple(index), tuple(types), nonzero, monoid)


def network_to_doc(net: Network) -> dict:
    """Serializable document with one entry per folded nonzero edge."""
    ids = net.cell_ids
    return {
        "monoid": net.monoid.kind,
        "cells": [{"id": cid, "type": t} for cid, t in zip(ids, net.cell_types)],
        "edges": [{"from": ids[d], "to": ids[c], "weight": w} for c, d, w in net.edges],
    }


def load_network(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # bad JSON, bad UTF-8 and an integer past Python's int-string digit
        # limit raise ValueError; nesting too deep raises RecursionError
        except ValueError as exc:
            raise MalformedDocument(f"{path}: {exc}") from None
        except RecursionError:
            raise MalformedDocument(f"{path}: nested too deeply to decode") from None
    return parse_network(doc)


def save_network(net: Network, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_doc(net), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# DOT export


def quote_dot(text: str) -> str:
    """text as a DOT double-quoted string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _fill_color(k: int, rank: int) -> str:
    # evenly spaced hues, pale enough for black labels
    hue = (k / max(rank, 1)) % 1.0
    return f"{hue:.3f} 0.35 1.000"


def export_dot(net: Network, p: Optional[Partition] = None) -> str:
    """GraphViz digraph: shape by cell type, fill by partition color."""
    if p is not None and p.size != net.n_cells:
        raise PartitionDomainMismatch("partition does not cover the network")
    lines = ["digraph network {", "  rankdir=LR;"]
    ids = [quote_dot(cid) for cid in net.cell_ids]
    for c, cid in enumerate(ids):
        shape = _DOT_SHAPES[(net.cell_types[c] - 1) % len(_DOT_SHAPES)]
        attrs = [f"shape={shape}"]
        if p is not None:
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{_fill_color(p.colors[c], p.rank)}"')
        lines.append(f'  {cid} [{", ".join(attrs)}];')
    for c, d, w in net.edges:
        lines.append(f'  {ids[d]} -> {ids[c]} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
