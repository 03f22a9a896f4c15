"""Neighborhood and reachability structure of a network.

In-neighborhoods see only the folded weights: a sender whose parallel
edges cancel to the monoid zero is not a neighbor.  On top of the
one-step neighborhoods this module builds cumulative k-step
neighborhoods, in-reachability sets, strongly connected components
(single-pass Tarjan), the condensation DAG with its roots, and the
partition of cells by root dependency.  The condensation and the
reach sets are computed once per network instance and then shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from graphlib import TopologicalSorter

from .errors import SynckitError
from .network import Network
from .partition import Partition


def in_neighborhood(net: Network, c: int) -> frozenset[int]:
    """Senders with a nonzero folded weight into c."""
    net.check_cell(c)
    return frozenset(d for d, _ in net.in_edges[c])


def cumulative_in(net: Network, c: int) -> frozenset[int]:
    """The cell itself together with its in-neighbors."""
    return in_neighborhood(net, c) | {c}


def _in_ball(net: Network, c: int, radius: float) -> frozenset[int]:
    """Cells with a directed path of at most radius edges ending at c.

    Breadth first over in-edges, each cell expanded once; radius may be inf.
    """
    seen, frontier = {c}, {c}
    while frontier and radius > 0:
        radius -= 1
        frontier = {e for d in frontier for e, _ in net.in_edges[d]} - seen
        seen |= frontier
    return frozenset(seen)


def cumulative_in_k(net: Network, c: int, k: int) -> frozenset[int]:
    """Cells with a directed path of at most k edges ending at c."""
    net.check_cell(c)
    if k < 0:
        raise SynckitError("k must be nonnegative")
    return _in_ball(net, c, k)


def in_reachability(net: Network, c: int) -> frozenset[int]:
    """Fixed point of the cumulative neighborhoods: reverse reachability."""
    net.check_cell(c)
    return _in_ball(net, c, math.inf)


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

    # predecessors of c are exactly its nonzero in-edges
    succ = [[] for _ in range(n)]
    for c in range(n):
        for d, _ in net.in_edges[c]:
            succ[d].append(c)

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
            for j in range(pi, len(succ[v])):
                w = succ[v][j]
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


@dataclass(frozen=True)
class Condensation:
    """SCC blocks, the acyclic block graph, and its roots."""

    scc_partition: Partition
    dag_edges: frozenset[tuple[int, int]]
    roots: frozenset[int]


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
    targets = {t for _, t in edges}
    roots = frozenset(k for k in range(sccs.rank) if k not in targets)
    return Condensation(sccs, frozenset(edges), roots)


def all_in_reachability(net: Network) -> tuple[frozenset[int], ...]:
    """In-reachability set of every cell; shared per SCC."""
    return net._reach


def _build_reach_sets(net: Network) -> tuple[frozenset[int], ...]:
    """Reach set of each SCC, built without recursion from the roots down."""
    cond = condensation(net)
    sccs = cond.scc_partition
    blocks = sccs.blocks()
    preds: dict[int, list[int]] = {k: [] for k in range(sccs.rank)}
    for s, t in cond.dag_edges:
        preds[t].append(s)

    reach: dict[int, frozenset[int]] = {}
    for k in TopologicalSorter(preds).static_order():
        acc = set(blocks[k])
        for p in preds[k]:
            acc |= reach[p]
        reach[k] = frozenset(acc)
    return tuple(reach[sccs.colors[c]] for c in range(net.n_cells))


def rdc_decomposition(net: Network) -> Partition:
    """Group cells by the exact set of root SCCs they depend on."""
    cond = condensation(net)
    sccs = cond.scc_partition
    return Partition.from_assignment(
        cond.roots.intersection(sccs.colors[d] for d in reach)
        for reach in all_in_reachability(net)
    )
