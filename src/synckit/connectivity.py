"""Neighborhood and reachability structure of a network.

In-neighborhoods see only the folded weights: a sender whose parallel
edges cancel to the monoid zero is not a neighbor.  On top of the
one-step neighborhoods this module builds cumulative k-step
neighborhoods, strongly connected components (single-pass Tarjan), the
condensation DAG with its roots, and the partition of cells by root
dependency.  The condensation, computed once per network instance, is
the only stored reachability structure: `reach_colors` ORs per-block
color bitsets (Python ints) down it in topological order, and the
in-reachability sets of all cells and the root bitsets are decoded or
seeded from the same pass.  One cell's in-reachability set is a
breadth-first search that builds no condensation.
"""

from __future__ import annotations

from functools import cached_property
from graphlib import TopologicalSorter
from typing import NamedTuple

from .errors import DomainMismatch, SynckitError
from .network import Network
from .partition import Partition, iter_bits


def in_neighborhood(net: Network, c: int) -> frozenset[int]:
    """Senders with a nonzero folded weight into c."""
    net.check_cell(c)
    return frozenset(d for d, _ in net.in_edges[c])


def cumulative_in(net: Network, c: int) -> frozenset[int]:
    """The cell itself together with its in-neighbors."""
    return in_neighborhood(net, c) | {c}


def cumulative_in_k(net: Network, c: int, k: int) -> frozenset[int]:
    """Cells with a directed path of at most k edges ending at c.

    Breadth first over in-edges, each cell expanded once.
    """
    net.check_cell(c)
    if k < 0:
        raise SynckitError("k must be nonnegative")
    seen, frontier = {c}, {c}
    while frontier and k > 0:
        k -= 1
        frontier = {e for d in frontier for e, _ in net.in_edges[d]} - seen
        seen |= frontier
    return frozenset(seen)


def in_reachability(net: Network, c: int) -> frozenset[int]:
    """Fixed point of the cumulative neighborhoods: reverse reachability."""
    return cumulative_in_k(net, c, net.n_cells)


def scc_decomposition(net: Network) -> Partition:
    """Partition of cells into strongly connected components (Tarjan)."""
    n = net.n_cells
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    ncomp = 0

    # Tarjan over the reversed graph: mutual reachability is symmetric
    in_edges = net.in_edges
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(in_edges[v])):
                w = in_edges[v][j][0]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            work.pop()
            if work:
                u, _ = work[-1]
                lowlink[u] = min(lowlink[u], lowlink[v])

    return Partition.from_assignment(comp)


class Condensation(NamedTuple("Condensation", [
    ("scc_partition", Partition),
    ("roots", frozenset[int]),
    ("preds", tuple[tuple[int, ...], ...]),
    ("order", tuple[int, ...]),
])):
    """SCC blocks, the block DAG's roots, each block's predecessors, a topological order."""

    def close_up(self, bits: list[int]) -> list[int]:
        """OR each block's bitset into every block downstream of it, in place."""
        for k in self.order:
            for j in self.preds[k]:
                bits[k] |= bits[j]
        return bits

    @cached_property
    def root_bits(self) -> tuple[int, ...]:
        """Per block, the bitset of the root blocks upstream of it (itself included)."""
        return tuple(self.close_up([1 << k if k in self.roots else 0
                                    for k in range(self.scc_partition.rank)]))


def condensation(net: Network) -> Condensation:
    """Collapse each SCC to a block; keep edges between distinct blocks."""
    return net._condensation


def _build_condensation(net: Network) -> Condensation:
    sccs = scc_decomposition(net)
    edges = set()
    for c in range(net.n_cells):
        for d, _ in net.in_edges[c]:
            if sccs.colors[d] != sccs.colors[c]:
                edges.add((sccs.colors[d], sccs.colors[c]))
    preds: list[list[int]] = [[] for _ in range(sccs.rank)]
    for s, t in sorted(edges):
        preds[t].append(s)
    order = TopologicalSorter(dict(enumerate(preds))).static_order()
    roots = frozenset(k for k in range(sccs.rank) if not preds[k])
    return Condensation(sccs, roots, tuple(map(tuple, preds)), tuple(order))


def reach_colors(net: Network, p: Partition) -> tuple[int, ...]:
    """Per cell, the bitset of p's colors that its in-reachability set meets.

    Each cell's color bit goes on its SCC block, and the blocks' bits are
    ORed downstream in topological order of the condensation.
    """
    if p.size != net.n_cells:
        raise DomainMismatch(f"partition on {p.size} cells for a network of {net.n_cells}")
    cond = condensation(net)
    scc = cond.scc_partition.colors
    bits = [0] * cond.scc_partition.rank
    for c, k in enumerate(p.colors):
        bits[scc[c]] |= 1 << k
    cond.close_up(bits)
    return tuple(bits[k] for k in scc)


# No command calls this; it stays while bench/spans.py traces it.
def all_in_reachability(net: Network) -> tuple[frozenset[int], ...]:
    """In-reachability set of every cell, decoded from reach_colors."""
    bits = reach_colors(net, Partition.trivial(net.n_cells))
    return tuple(frozenset(iter_bits(b)) for b in bits)


def rdc_decomposition(net: Network) -> Partition:
    """Group cells by the exact set of root SCCs they depend on."""
    cond = condensation(net)
    return Partition.from_assignment(cond.root_bits[k] for k in cond.scc_partition.colors)
