"""Independent recomputation of the answers the benchmark checks.

Nothing here imports synckit.  Networks are plain folded weight maps
built from the generated edge lists; partitions are canonical color
tuples (colors numbered by first occurrence in cell order).  Reach sets
are Python-int bitsets over cell indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


def canonical(colors: Iterable) -> tuple[int, ...]:
    relabel: dict = {}
    return tuple(relabel.setdefault(c, len(relabel)) for c in colors)


def blocks_of(colors: Sequence[int]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(colors) + 1)] if colors else []
    for c, k in enumerate(colors):
        out[k].append(c)
    return out


@dataclass(frozen=True)
class Net:
    """A folded network: ids, types and nonzero in-weights per receiver."""

    ids: tuple[str, ...]
    types: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]  # receiver -> ((sender, weight), ...)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return sum(len(r) for r in self.rows)

    @staticmethod
    def fold(ids: Sequence[str], types: Sequence[int],
             edges: Iterable[tuple[str, str, int]]) -> "Net":
        """Fold parallel (sender, receiver, weight) unit edges; drop zeros."""
        index = {cid: i for i, cid in enumerate(ids)}
        acc: list[dict[int, int]] = [{} for _ in ids]
        for src, dst, w in edges:
            row = acc[index[dst]]
            row[index[src]] = row.get(index[src], 0) + w
        rows = tuple(tuple(sorted((d, w) for d, w in row.items() if w != 0)) for row in acc)
        return Net(tuple(ids), tuple(types), rows)

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=np.float64)
        for c, row in enumerate(self.rows):
            for d, w in row:
                m[c, d] = w
        return m


# ---------------------------------------------------------------------------
# partitions and their text form


def parse_spec(text: str, ids: Sequence[str]) -> tuple[int, ...]:
    """Read the documented partition text form into canonical colors."""
    index = {cid: i for i, cid in enumerate(ids)}
    colors = [-1] * len(ids)
    text = text.strip()
    k = 0
    if text not in ("", "-"):
        for k, token in enumerate(text.split("/")):
            if "," in token or token in index:
                cells = [index[piece] for piece in token.split(",")]
            else:
                cells = [index[ch] for ch in token]
            for c in cells:
                if colors[c] != -1:
                    raise ValueError(f"cell {ids[c]!r} listed twice in {text!r}")
                colors[c] = k
        k += 1
    for c in range(len(ids)):
        if colors[c] == -1:
            colors[c] = k
            k += 1
    return canonical(colors)


def spec_of(colors: Sequence[int], ids: Sequence[str]) -> str:
    """Text form of a partition with every color listed."""
    sep = "" if all(len(i) == 1 for i in ids) else ","
    return "/".join(sep.join(ids[c] for c in block) for block in blocks_of(colors))


def refines(a: Sequence[int], b: Sequence[int]) -> bool:
    image: dict[int, int] = {}
    return all(image.setdefault(ka, kb) == kb for ka, kb in zip(a, b))


def join(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Least common coarsening by relabelling to a fixed point."""
    labels = list(a)
    changed = True
    while changed:
        changed = False
        low: dict[int, int] = {}
        for c, k in enumerate(b):
            low[k] = min(low.get(k, labels[c]), labels[c])
        merged: dict[int, int] = {}
        for c, k in enumerate(b):
            if labels[c] != low[k]:
                merged[labels[c]] = min(merged.get(labels[c], low[k]), low[k])
        if merged:
            changed = True
            labels = [merged.get(x, x) for x in labels]
    return canonical(labels)


def all_partitions(types: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every type-refining partition as a restricted growth string."""
    n = len(types)
    colors = [0] * n

    def rec(c: int, color_types: list[int]) -> Iterator[tuple[int, ...]]:
        if c == n:
            yield tuple(colors)
            return
        for k, t in enumerate(color_types):
            if t == types[c]:
                colors[c] = k
                yield from rec(c + 1, color_types)
        colors[c] = len(color_types)
        yield from rec(c + 1, color_types + [types[c]])

    yield from rec(0, [])


# ---------------------------------------------------------------------------
# balance, refinement, lattices


def row_sums(net: Net, colors: Sequence[int], c: int) -> tuple:
    acc: dict[int, int] = {}
    for d, w in net.rows[c]:
        acc[colors[d]] = acc.get(colors[d], 0) + w
    return tuple(sorted((k, w) for k, w in acc.items() if w != 0))


def is_balanced(net: Net, colors: Sequence[int]) -> bool:
    seen: dict[int, tuple] = {}
    return all(seen.setdefault(k, row_sums(net, colors, c)) == row_sums(net, colors, c)
               for c, k in enumerate(colors))


def quotient_rows(net: Net, colors: Sequence[int]) -> list[tuple]:
    """Per color, the sorted (color, weight) row of its first cell."""
    return [row_sums(net, colors, block[0]) for block in blocks_of(colors)]


def balanced_by_matmul(net: Net, colors: Sequence[int]) -> bool:
    """Balance as rows of M @ P agreeing within each color (numpy)."""
    p = np.zeros((net.n, max(colors) + 1))
    p[np.arange(net.n), colors] = 1.0
    mp = net.matrix() @ p
    first = {}
    for c, k in enumerate(colors):
        first.setdefault(k, c)
    ref = mp[[first[k] for k in colors]]
    return bool(np.array_equal(mp, ref))


def exo_balanced(net: Net, colors: Sequence[int]) -> bool:
    seen: dict[int, tuple] = {}
    for c, k in enumerate(colors):
        row = tuple(kw for kw in row_sums(net, colors, c) if kw[0] != k)
        if seen.setdefault(k, row) != row:
            return False
    return True


def refine(net: Net, colors: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Coarsest balanced refinement and the number of splitting rounds."""
    current = canonical(colors)
    rounds = 0
    while True:
        nxt = canonical((current[c], net.types[c], row_sums(net, current, c)) for c in range(net.n))
        if nxt == current:
            return current, rounds
        current = nxt
        rounds += 1


def balanced_lattice(net: Net) -> list[tuple[int, ...]]:
    return [p for p in all_partitions(net.types) if is_balanced(net, p)]


def cover_pairs(elements: Sequence[tuple[int, ...]]) -> set[tuple[int, int]]:
    """Hasse covers (finer index, coarser index) of a set of partitions."""
    m = len(elements)
    below = [[i != j and refines(elements[i], elements[j]) for j in range(m)] for i in range(m)]
    return {
        (i, j)
        for i in range(m)
        for j in range(m)
        if below[i][j] and not any(below[i][k] and below[k][j] for k in range(m))
    }


# ---------------------------------------------------------------------------
# connectivity


def sccs(net: Net) -> list[int]:
    """SCC label per cell (Kosaraju, iterative)."""
    n = net.n
    succ: list[list[int]] = [[] for _ in range(n)]
    for c, row in enumerate(net.rows):
        for d, _ in row:
            succ[d].append(c)
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                order.append(v)
                stack.pop()
    label = [-1] * n
    k = 0
    for root in reversed(order):
        if label[root] != -1:
            continue
        label[root] = k
        stack2 = [root]
        while stack2:
            v = stack2.pop()
            for d, _ in net.rows[v]:
                if label[d] == -1:
                    label[d] = k
                    stack2.append(d)
        k += 1
    return label


def reach_bits(net: Net) -> list[int]:
    """In-reachability set of every cell as a bitset (cell itself included)."""
    label = sccs(net)
    k = max(label) + 1
    members = [0] * k
    preds: list[set[int]] = [set() for _ in range(k)]
    for c, row in enumerate(net.rows):
        members[label[c]] |= 1 << c
        for d, _ in row:
            if label[d] != label[c]:
                preds[label[c]].add(label[d])
    memo: dict[int, int] = {}
    # Kosaraju labels are a topological order of the condensation, sources first.
    for s in range(k):
        acc = members[s]
        for p in preds[s]:
            acc |= memo[p]
        memo[s] = acc
    return [memo[label[c]] for c in range(net.n)]


def bits_to_cells(bits: int) -> list[int]:
    out = []
    c = 0
    while bits:
        if bits & 1:
            out.append(c)
        bits >>= 1
        c += 1
    return out


def color_class(reach: Sequence[int], block: Sequence[int]) -> str:
    common = union = reach[block[0]]
    for c in block[1:]:
        common &= reach[c]
        union |= reach[c]
    if common == union:
        return "strong"
    return "rooted" if common else "weak"


def partition_class(classes: Sequence[str]) -> str:
    if "weak" in classes:
        return "weak"
    return "strong" if all(k == "strong" for k in classes) else "rooted"


def neighborhood_bits(net: Net, kind: str, reach: Sequence[int]) -> list[int]:
    if kind == "r":
        return list(reach)
    out = []
    for c, row in enumerate(net.rows):
        bits = 0
        for d, _ in row:
            bits |= 1 << d
        if kind == "v":
            bits |= 1 << c
        out.append(bits)
    return out


def color_image(bits: int, colors: Sequence[int]) -> frozenset[int]:
    return frozenset(colors[c] for c in bits_to_cells(bits))


def is_matched(colors: Sequence[int], hoods: Sequence[int]) -> bool:
    seen: dict[int, frozenset[int]] = {}
    return all(seen.setdefault(k, color_image(hoods[c], colors)) == color_image(hoods[c], colors)
               for c, k in enumerate(colors))


def quotient_net(net: Net, colors: Sequence[int], joiner: str) -> Net:
    """Quotient network of a balanced partition, ids joined per color."""
    blocks = blocks_of(colors)
    ids = tuple(joiner.join(net.ids[c] for c in b) for b in blocks)
    types = tuple(net.types[b[0]] for b in blocks)
    return Net(ids, types, tuple(quotient_rows(net, colors)))


def dense_rows(net: Net) -> list[list[int]]:
    out = [[0] * net.n for _ in range(net.n)]
    for c, row in enumerate(net.rows):
        for d, w in row:
            out[c][d] = w
    return out


def reach_invariant(net: Net, colors: Sequence[int], reach: Sequence[int],
                    qnet: Net) -> bool:
    qreach = reach_bits(qnet)
    return all(color_image(reach[c], colors) == frozenset(bits_to_cells(qreach[colors[c]]))
               for c in range(net.n))
