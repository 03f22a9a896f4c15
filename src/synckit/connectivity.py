"""Neighborhood and reachability structure of a network.

Everything reads `Network.in_edges`, so a sender whose parallel edges
cancel to the monoid zero is not a neighbor.  This module builds one
cell's cumulative k-step neighborhood, strongly connected components
(single-pass Tarjan), the condensation DAG with its roots, and the
partition of cells by root dependency.  Tarjan's algorithm finishes the
blocks upstream first, so its finishing numbers are the condensation's
topological order.  The condensation, computed once per network
instance, is the only stored reachability structure: `reach_colors` ORs
per-block color bitsets (Python ints) down it in that order, and the
in-reachability sets of all cells and the root bitsets are decoded or
seeded from the same pass.  One cell's in-reachability set is a
breadth-first search that builds no condensation.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import SynckitError
from .network import Network
from .partition import Partition, iter_bits


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
    return Partition.from_assignment(_tarjan(net))


def _tarjan(net: Network) -> list[int]:
    """Per cell, its SCC's finishing number in Tarjan's search over in-edges.

    Blocks upstream finish first, so the numbers are a topological order."""
    n = net.n_cells
    index = [-1] * n
    lowlink = [0] * n
    stack: list[int] = []
    comp = [-1] * n  # a cell seen but not yet in a component is on the stack
    counter = ncomp = 0

    # Tarjan over the reversed graph: mutual reachability is symmetric.  Each
    # frame keeps an iterator over its cell's row, so a row is walked once.
    in_edges = net.in_edges
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(in_edges[root]))]
        while work:
            v, senders = work[-1]
            for w, _ in senders:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(in_edges[w])))
                    break
                if comp[w] == -1 and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if lowlink[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                elif lowlink[v] < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = lowlink[v]
    return comp


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
    finished = _tarjan(net)
    sccs = Partition.from_assignment(finished)
    colors = sccs.colors
    edges = {(j, k) for k, row in zip(colors, net.in_edges) for d, _ in row
             if (j := colors[d]) != k}
    preds: list[list[int]] = [[] for _ in range(sccs.rank)]
    for s, t in sorted(edges):
        preds[t].append(s)
    order = [0] * sccs.rank
    for f, k in zip(finished, colors):
        order[f] = k
    roots = frozenset(k for k in range(sccs.rank) if not preds[k])
    return Condensation(sccs, roots, tuple(map(tuple, preds)), tuple(order))


def reach_colors(net: Network, p: Partition) -> tuple[int, ...]:
    """Per cell, the bitset of p's colors that its in-reachability set meets.

    Each cell's color bit goes on its SCC block, and the blocks' bits are
    ORed downstream in topological order of the condensation.
    """
    net.check_partition(p)
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
