import random

import pytest

import synckit.connectivity
from synckit.connectivity import (
    all_in_reachability,
    condensation,
    cumulative_in_k,
    in_reachability,
    rdc_decomposition,
    reach_colors,
    scc_decomposition,
)
from synckit.errors import DomainMismatch, SynckitError, UnknownCell
from synckit.monoid import IntegerAdd
from synckit.network import network_to_doc, parse_network
from synckit.partition import Partition, refines

from oracles import (
    cumulative_in,
    from_matrix,
    in_neighborhood,
    one_color,
    oracle_in_ball,
    oracle_scc,
    random_network,
)


class TestNeighborhoods:
    def test_chain_one_step(self, chain4):
        assert in_neighborhood(chain4, 2) == {1}

    def test_isolated_cell(self):
        net = parse_network(
            {"monoid": "int-add", "cells": [{"id": "x", "type": 1}], "edges": []}
        )
        assert in_neighborhood(net, 0) == frozenset()

    def test_cancelling_parallel_edges_remove_the_sender(self):
        net = parse_network({
            "monoid": "int-add",
            "cells": [{"id": "a", "type": 1}, {"id": "b", "type": 1}],
            "edges": [
                {"from": "a", "to": "b", "weight": 1},
                {"from": "a", "to": "b", "weight": -1},
            ],
        })
        assert in_neighborhood(net, 1) == frozenset()

    def test_unknown_cell(self, chain4):
        with pytest.raises(UnknownCell):
            in_neighborhood(chain4, 7)


class TestCumulative:
    def test_chain_examples(self, chain4):
        assert cumulative_in(chain4, 2) == {1, 2}
        assert cumulative_in_k(chain4, 2, 2) == {0, 1, 2}
        assert cumulative_in_k(chain4, 2, 3) == {0, 1, 2}  # fixed point
        assert cumulative_in_k(chain4, 0, 0) == {0}

    def test_monotone_and_stable(self, any_fixture):
        net = any_fixture
        for c in range(net.n_cells):
            prev = cumulative_in_k(net, c, 0)
            stabilized = None
            for k in range(1, net.n_cells + 2):
                cur = cumulative_in_k(net, c, k)
                assert prev <= cur
                if cur == prev and stabilized is None:
                    stabilized = cur
                if stabilized is not None:
                    assert cur == stabilized
                prev = cur

    def test_balls_match_walk_oracle(self):
        # the breadth-first ball against walks counted by boolean matrix powers
        rng = random.Random(77)
        for _ in range(60):
            net = random_network(rng, max_cells=8, weights=(0, 0, 0, 1, -1))
            for c in range(net.n_cells):
                for k in range(net.n_cells + 1):
                    assert cumulative_in_k(net, c, k) == oracle_in_ball(net, c, k)
                assert in_reachability(net, c) == oracle_in_ball(net, c, None)

    def test_bad_cell_and_negative_k(self, chain4):
        with pytest.raises(UnknownCell):
            cumulative_in_k(chain4, 4, 1)
        with pytest.raises(UnknownCell):
            in_reachability(chain4, -1)
        with pytest.raises(SynckitError, match="nonnegative"):
            cumulative_in_k(chain4, 0, -1)
        with pytest.raises(DomainMismatch):
            reach_colors(chain4, Partition.trivial(3))


class TestReachability:
    def test_chain_examples(self, chain4):
        assert in_reachability(chain4, 0) == {0}
        assert cumulative_in_k(chain4, 3, 3) == in_reachability(chain4, 3) == {0, 1, 2, 3}
        chain_sets = [in_reachability(chain4, c) for c in range(4)]
        for earlier, later in zip(chain_sets, chain_sets[1:]):
            assert earlier < later

    def test_self_loop_only(self):
        net = parse_network({
            "monoid": "int-add",
            "cells": [{"id": "x", "type": 1}],
            "edges": [{"from": "x", "to": "x", "weight": 2}],
        })
        assert in_reachability(net, 0) == {0}

    def test_reachability_closure(self, any_fixture):
        net = any_fixture
        reach = [in_reachability(net, c) for c in range(net.n_cells)]
        for d in range(net.n_cells):
            for c in reach[d]:
                assert reach[c] <= reach[d]

    def test_table_matches_per_cell_queries(self, any_fixture):
        net = any_fixture
        table = all_in_reachability(net)
        for c in range(net.n_cells):
            assert table[c] == in_reachability(net, c)


class TestScc:
    def test_two_roots_blocks(self, two_roots):
        assert scc_decomposition(two_roots).blocks() == ((0, 1, 2), (3,), (4,), (5, 6))

    def test_dag_is_trivial(self, chain4):
        assert scc_decomposition(chain4) == Partition.trivial(4)

    def test_single_cycle_is_one_color(self):
        net = parse_network({
            "monoid": "int-add",
            "cells": [{"id": str(i), "type": 1} for i in range(1, 4)],
            "edges": [
                {"from": "1", "to": "2", "weight": 1},
                {"from": "2", "to": "3", "weight": 1},
                {"from": "3", "to": "1", "weight": 1},
            ],
        })
        assert scc_decomposition(net) == one_color(3)

    def test_against_mutual_reachability_oracle(self):
        rng = random.Random(2024)
        for _ in range(120):
            net = random_network(rng, max_cells=10, weights=(-1, 0, 0, 1, 2))
            assert scc_decomposition(net) == oracle_scc(net)


def _dag_edges(cond) -> set[tuple[int, int]]:
    """The condensation's block edges, read from each block's predecessors."""
    return {(s, t) for t, ps in enumerate(cond.preds) for s in ps}


class TestCondensation:
    def test_two_roots_structure(self, two_roots):
        cond = condensation(two_roots)
        assert _dag_edges(cond) == {(0, 1), (0, 3), (2, 3)}
        assert cond.roots == {0, 2}

    def test_single_scc(self):
        net = parse_network({
            "monoid": "int-add",
            "cells": [{"id": "a", "type": 1}, {"id": "b", "type": 1}],
            "edges": [
                {"from": "a", "to": "b", "weight": 1},
                {"from": "b", "to": "a", "weight": 1},
            ],
        })
        cond = condensation(net)
        assert _dag_edges(cond) == set()
        assert cond.roots == {0}

    def test_chain_path(self, chain4):
        cond = condensation(chain4)
        assert cond.scc_partition == Partition.trivial(4)
        assert _dag_edges(cond) == {(0, 1), (1, 2), (2, 3)}
        assert cond.roots == {0}

    def test_acyclic(self, any_fixture):
        cond = condensation(any_fixture)
        # DFS over block edges must find no cycle
        succ = {}
        for s, t in _dag_edges(cond):
            succ.setdefault(s, []).append(t)
        state: dict[int, int] = {}

        def visit(v):
            state[v] = 1
            for w in succ.get(v, []):
                assert state.get(w, 0) != 1
                if state.get(w, 0) == 0:
                    visit(w)
            state[v] = 2

        for v in range(cond.scc_partition.rank):
            if state.get(v, 0) == 0:
                visit(v)


    def test_order_puts_every_block_after_its_preds(self):
        rng = random.Random(4141)
        edges = 0
        for _ in range(200):
            net = random_network(rng, max_cells=10, weights=(0, 0, 0, 0, 1, -1, 2))
            cond = condensation(net)
            assert sorted(cond.order) == list(range(cond.scc_partition.rank))
            position = {k: i for i, k in enumerate(cond.order)}
            for k, preds in enumerate(cond.preds):
                assert all(position[j] < position[k] for j in preds)
                edges += len(preds)
        assert edges > 100  # many networks have a block DAG to order


class TestRdc:
    def test_two_roots_example(self, two_roots):
        assert rdc_decomposition(two_roots).blocks() == ((0, 1, 2, 3), (4,), (5, 6))

    def test_single_scc_is_one_color(self):
        net = parse_network({
            "monoid": "int-add",
            "cells": [{"id": "a", "type": 1}, {"id": "b", "type": 1}],
            "edges": [
                {"from": "a", "to": "b", "weight": 1},
                {"from": "b", "to": "a", "weight": 1},
            ],
        })
        assert rdc_decomposition(net) == one_color(2)

    def test_two_disjoint_cycles(self):
        net = from_matrix(
            ("1", "2", "3", "4"),
            (1, 1, 1, 1),
            ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
            IntegerAdd(),
        )
        assert rdc_decomposition(net).blocks() == ((0, 1), (2, 3))

    def test_matches_per_cell_reachability(self):
        # roots found from the oracle SCCs, reach sets by one search per cell
        rng = random.Random(98)
        for _ in range(60):
            net = random_network(rng, max_cells=8, weights=(0, 0, 1, -1, 2))
            sccs = oracle_scc(net)
            fed = {sccs.colors[c] for c in range(net.n_cells)
                   for d, _ in net.in_edges[c] if sccs.colors[d] != sccs.colors[c]}
            keys = [
                frozenset(sccs.colors[d] for d in in_reachability(net, c)) - fed
                for c in range(net.n_cells)
            ]
            labels = {}
            expected = Partition.from_assignment(
                labels.setdefault(k, len(labels)) for k in keys
            )
            assert rdc_decomposition(net) == expected

    def test_scc_refines_rdc_and_root_bound(self):
        rng = random.Random(99)
        for _ in range(80):
            net = random_network(rng, max_cells=8, weights=(0, 0, 1, -1, 2))
            sccs = scc_decomposition(net)
            rdcs = rdc_decomposition(net)
            assert refines(sccs, rdcs)
            n_roots = len(condensation(net).roots)
            assert rdcs.rank <= 2 ** n_roots - 1


class TestPerNetworkMemo:
    def test_rdc_runs_tarjan_once(self, two_roots, monkeypatch):
        calls = []
        original = synckit.connectivity._tarjan

        def counting(net):
            calls.append(net)
            return original(net)

        monkeypatch.setattr(synckit.connectivity, "_tarjan", counting)
        net = parse_network(network_to_doc(two_roots))  # fresh instance, empty memo
        rdc_decomposition(net)
        all_in_reachability(net)
        assert len(calls) == 1
        assert condensation(net) is condensation(net)

    def test_equal_networks_do_not_share_memo(self, chain4):
        again = parse_network(network_to_doc(chain4))
        assert again == chain4
        assert condensation(again) == condensation(chain4)
        assert condensation(again) is not condensation(chain4)

    def test_one_cell_reachability_builds_no_condensation(self, chain4):
        net = parse_network(network_to_doc(chain4))  # fresh instance, empty memo
        assert in_reachability(net, 3) == {0, 1, 2, 3}
        assert "_condensation" not in vars(net)
