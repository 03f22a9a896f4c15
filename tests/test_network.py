import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from synckit.errors import (
    DuplicateCellId,
    MalformedDocument,
    PartitionDomainMismatch,
    UnknownCell,
    UnknownCellInEdge,
    UnknownMonoid,
)
from synckit.network import (
    export_dot,
    load_network,
    network_to_doc,
    parse_network,
    row_color_sum,
)
from synckit.partition import Partition, format_partition, parse_partition

from conftest import fixture_path
from oracles import (
    dense,
    edges_of,
    from_matrix,
    one_color,
    oracle_fold,
    random_network,
    random_type_refinement,
    seeded_doc,
)


def doc_for(edges, cells=None, monoid="int-add"):
    cells = cells or [{"id": "a", "type": 1}, {"id": "b", "type": 1}]
    return {"monoid": monoid, "cells": cells, "edges": edges}


class TestParse:
    def test_triangle_document(self, triangle):
        # two same-type cells fed identically plus one hub of a second type
        assert triangle.cell_ids == ("1", "2", "3")
        assert triangle.cell_types == (1, 1, 2)
        assert dense(triangle) == ((1, 0, 1), (1, 0, 1), (1, 1, 1))

    def test_parallel_edges_fold(self):
        net = parse_network(
            doc_for([
                {"from": "b", "to": "a", "weight": 2},
                {"from": "b", "to": "a", "weight": 3},
            ])
        )
        assert edges_of(net) == ((0, 1, 5),)

    def test_empty_edges_mean_zero_matrix(self):
        net = parse_network(doc_for([]))
        assert edges_of(net) == ()
        assert dense(net) == ((0, 0), (0, 0))

    def test_duplicate_cell_id(self):
        with pytest.raises(DuplicateCellId):
            parse_network(
                doc_for([], cells=[{"id": "a", "type": 1}, {"id": "a", "type": 1}])
            )

    def test_unknown_cell_in_edge(self):
        with pytest.raises(UnknownCellInEdge):
            parse_network(doc_for([{"from": "zz", "to": "a", "weight": 1}]))

    def test_malformed_documents(self, tmp_path):
        with pytest.raises(MalformedDocument):
            parse_network([])
        with pytest.raises(MalformedDocument):
            parse_network({"monoid": "int-add", "cells": []})
        with pytest.raises(MalformedDocument):
            parse_network(doc_for([{"from": "a", "to": "b"}]))
        with pytest.raises(MalformedDocument):
            parse_network(doc_for([{"from": "a", "to": "b", "weight": 0.5}]))
        with pytest.raises(MalformedDocument):
            parse_network(
                doc_for([], cells=[{"id": "a", "type": 1}, {"id": "b", "type": 3}])
            )
        with pytest.raises(MalformedDocument):
            parse_network({"cells": [{"id": "a", "type": 1}], "edges": 5})
        with pytest.raises(UnknownMonoid):
            parse_network(doc_for([], monoid=["int-add"]))
        # a bool is no int-add weight, and an edge entry must be an object
        with pytest.raises(MalformedDocument, match="integer, got True"):
            parse_network(doc_for([{"from": "a", "to": "b", "weight": True}]))
        for entry in (["a", "b", 1], "a->b"):
            with pytest.raises(MalformedDocument, match="bad edge entry"):
                parse_network(doc_for([entry]))
        # the first bad edge is the one reported, whatever a later one does wrong
        with pytest.raises(MalformedDocument) as first:
            parse_network(doc_for([{"from": "a", "to": "b", "weight": 0.5},
                                   {"from": "zz", "to": "a", "weight": 1}]))
        assert type(first.value) is MalformedDocument
        assert str(first.value) == "int-add weight must be an integer, got 0.5"
        # but a JSON number "from": 5 names the cell "5", as cell ids are str()'d
        net = parse_network(doc_for([{"from": 5, "to": "a", "weight": 2}],
                                    cells=[{"id": "a", "type": 1}, {"id": "5", "type": 1}]))
        assert edges_of(net) == ((0, 1, 2),)
        # past Python's int-string digit limit, and nested past the recursion limit
        for text in ('{"cells": [{"id": "a", "type": %s}]}' % ("1" * 5000), "[" * 200000):
            path = tmp_path / "doc.json"
            path.write_text(text)
            with pytest.raises(MalformedDocument):
                load_network(str(path))

    def test_tropical_weights(self):
        net = parse_network(doc_for([{"from": "a", "to": "b", "weight": 4}],
                                    monoid="tropical-min"))
        assert edges_of(net) == ((1, 0, 4.0),)
        assert dense(net) == ((math.inf, math.inf), (4.0, math.inf))  # omitted edge is +inf
        assert net.in_edges == ((), ((0, 4.0),))

    def test_tropical_nan_rejected(self):
        # min() would drop a NaN: NaN then 3 would fold to 3.0
        edges = [{"from": "a", "to": "b", "weight": math.nan},
                 {"from": "a", "to": "b", "weight": 3}]
        with pytest.raises(MalformedDocument):
            parse_network(doc_for(edges, monoid="tropical-min"))

    @pytest.mark.parametrize("cid", ["", " a", "a ", "a/b", "a,b", "\ta"])
    def test_bad_cell_ids_rejected(self, cid):
        cells = [{"id": cid, "type": 1}, {"id": "z", "type": 1}]
        with pytest.raises(MalformedDocument):
            parse_network(doc_for([], cells=cells))

    def test_large_type_id_rejected_without_building_its_range(self):
        cells = [{"id": "a", "type": 1}, {"id": "b", "type": 10**6}]
        tracemalloc.start()
        try:
            with pytest.raises(MalformedDocument):
                parse_network(doc_for([], cells=cells))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_round_trip_all_fixtures(self, any_fixture):
        again = parse_network(network_to_doc(any_fixture))
        assert again == any_fixture


def nonzero_pairs(row, zero):
    """The sparse signature of a dense row: (column, entry) where the entry is not zero."""
    return tuple((k, w) for k, w in enumerate(row) if w != zero)


class TestRowColorSum:
    def test_hub_partition_rows(self, triangle):
        p = parse_partition("12/3", triangle.cell_ids)
        assert row_color_sum(triangle, p, 0) == ((0, 1), (1, 1))
        assert row_color_sum(triangle, p, 2) == ((0, 2), (1, 1))

    def test_trivial_partition_reproduces_rows(self, any_fixture):
        net = any_fixture
        p = Partition.trivial(net.n_cells)
        for c in range(net.n_cells):
            assert row_color_sum(net, p, c) == nonzero_pairs(dense(net)[c], net.monoid.zero())

    def test_matches_dense_fold_on_random_networks(self):
        # the sparse fold over in_edges equals the fold over every sender,
        # with cancelled colors left out; equal signatures mean equal rows
        rng = random.Random(41)
        cancelled = 0
        for _ in range(60):
            net = random_network(rng, max_cells=7, weights=(-1, 0, 0, 1, 2))
            p = random_type_refinement(rng, net)
            matrix = dense(net)
            rows = []
            for c in range(net.n_cells):
                sums = [0] * p.rank
                for d in range(net.n_cells):
                    sums[p.colors[d]] += matrix[c][d]
                rows.append(tuple(sums))
                assert row_color_sum(net, p, c) == nonzero_pairs(sums, 0)
                touched = {p.colors[d] for d, _ in net.in_edges[c]}
                cancelled += sum(1 for k in touched if sums[k] == 0)
            for c in range(net.n_cells):
                for d in range(net.n_cells):
                    same = row_color_sum(net, p, c) == row_color_sum(net, p, d)
                    assert same == (rows[c] == rows[d])
        assert cancelled > 0  # some color sums cancel to zero and are left out

    def test_tropical_empty_color_sums_to_zero(self):
        # an empty color sums to the tropical zero, inf, and is left out
        net = parse_network(doc_for([{"from": "a", "to": "b", "weight": 4}],
                                    monoid="tropical-min"))
        p = Partition.trivial(2)
        assert row_color_sum(net, p, 0) == ()
        assert row_color_sum(net, p, 1) == ((0, 4.0),)
        assert row_color_sum(net, one_color(2), 1) == ((0, 4.0),)

    def test_domain_mismatch(self, triangle):
        with pytest.raises(PartitionDomainMismatch):
            row_color_sum(triangle, Partition.trivial(5), 0)

    def test_unknown_cell(self, triangle):
        with pytest.raises(UnknownCell):
            row_color_sum(triangle, Partition.trivial(3), 9)


class TestDot:
    def test_edge_and_node_counts(self, triangle):
        out = export_dot(triangle)
        nonzero = sum(1 for row in dense(triangle) for w in row if w != 0)
        assert nonzero == 7
        assert out.count("->") == nonzero
        assert out.count("shape=") == 3

    def test_partition_coloring_shares_fill(self, triangle):
        p = parse_partition("12/3", triangle.cell_ids)
        out = export_dot(triangle, p)
        lines = [l for l in out.splitlines() if "fillcolor" in l]
        fills = {}
        for line in lines:
            name = line.strip().split(" ")[0].strip('"')
            fills[name] = line.split("fillcolor=")[1]
        assert fills["1"] == fills["2"] != fills["3"]

    def test_single_cell_no_edges(self):
        net = parse_network(
            {"monoid": "int-add", "cells": [{"id": "x", "type": 1}], "edges": []}
        )
        out = export_dot(net)
        assert out.count("->") == 0
        assert '"x"' in out


def test_load_network_fixture_path(tmp_path):
    net = load_network(str(fixture_path("chain4")))
    assert net.n_cells == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedDocument):
        load_network(str(bad))


def test_load_network_rejects_non_utf8(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"cells": "\xff"}')
    with pytest.raises(MalformedDocument):
        load_network(str(bad))


@given(
    st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True),
    st.data(),
)
def test_partition_text_round_trip_on_any_valid_network(ids, data):
    cells = [{"id": cid, "type": 1} for cid in ids]
    try:
        net = parse_network({"cells": cells, "edges": []})
    except MalformedDocument:
        assume(False)
    n = net.n_cells
    colors = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    p = Partition.from_assignment(colors)
    assert parse_partition(format_partition(p, net.cell_ids), net.cell_ids) == p


_WEIGHTS = {"int-add": [-1, 1, 2, 0], "tropical-min": [1, 2.5, -3, 0, "inf"]}


@st.composite
def _documents(draw):
    """Small documents with parallel edges, +1/-1 pairs and tropical "inf"."""
    monoid = draw(st.sampled_from(sorted(_WEIGHTS)))
    n = draw(st.integers(1, 6))
    cells = [{"id": f"c{i}", "type": 1 if i == 0 else draw(st.integers(1, 2))}
             for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [
        {"from": f"c{d}", "to": f"c{c}", "weight": w}
        for (d, c), w in draw(st.lists(
            st.tuples(pairs, st.sampled_from(_WEIGHTS[monoid])), max_size=3 * n))
    ]
    for d, c in draw(st.lists(pairs, max_size=n)):  # parallel pairs that cancel
        edges += [{"from": f"c{d}", "to": f"c{c}", "weight": w} for w in (1, -1)]
    return {"monoid": monoid, "cells": cells, "edges": draw(st.permutations(edges))}


@settings(max_examples=200, deadline=None)
@given(doc=_documents(), data=st.data())
def test_folded_edges_agree_with_dense_fold(doc, data):
    matrix = oracle_fold(doc)
    net = parse_network(doc)
    ids, types, monoid = net.cell_ids, net.cell_types, net.monoid
    # equality pins the edge order too: from_matrix lists receiver-major
    assert net == from_matrix(ids, types, matrix, monoid)
    zero = monoid.zero()
    assert net.in_edges == tuple(
        tuple((d, w) for d, w in enumerate(row) if w != zero) for row in matrix
    )
    n = net.n_cells
    assert net.out_neighbours == tuple(
        tuple(c for c, row in enumerate(matrix) if row[d] != zero) for d in range(n)
    )
    cells = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    assert net.subnetwork(cells) == from_matrix(
        [ids[c] for c in cells],
        [types[c] for c in cells],
        [[matrix[c][d] for d in cells] for c in cells],
        monoid,
    )
    assert parse_network(network_to_doc(net)) == net


class TestRows:
    """The stored in-edge rows against the dense fold of every edge line;
    test_folded_edges_agree_with_dense_fold below also checks subnetworks
    on shuffled cells and the round trip through network_to_doc."""

    @pytest.mark.parametrize("monoid", ["int-add", "tropical-min"])
    def test_seeded_rows_equal_the_oracle_fold(self, monoid):
        rng = random.Random(f"rows:{monoid}")
        cancelled = 0
        for _ in range(150):
            doc = seeded_doc(rng, monoid)
            net, matrix = parse_network(doc), oracle_fold(doc)
            zero = net.monoid.zero()
            assert net.in_edges == tuple(
                tuple((d, w) for d, w in enumerate(row) if w != zero) for row in matrix)
            # equal weights of unequal types would hide behind ==
            assert [type(w) for row in net.in_edges for _, w in row] == [
                type(w) for row in matrix for w in row if w != zero]
            assert edges_of(net) == tuple(sorted(
                (c, d, w) for c, row in enumerate(matrix) for d, w in enumerate(row) if w != zero))
            cancelled += len(edges_of(net)) < len({(e["to"], e["from"]) for e in doc["edges"]})
        assert cancelled, "no pair folded to the zero"

    def test_rows_are_the_stored_field(self, two_roots):
        """`in_edges` is the stored tuple itself, read through a cached property."""
        assert two_roots.in_edges is two_roots[2]
        renamed = two_roots._replace(cell_ids=tuple(f"x{c}" for c in two_roots.cell_ids))
        assert renamed.in_edges is two_roots.in_edges


def test_subnetwork_preserves_order_and_weights(two_roots):
    sub = two_roots.subnetwork([0, 1, 2, 3])
    assert sub.cell_ids == ("1", "2", "3", "4")
    full = dense(two_roots)
    assert dense(sub) == tuple(tuple(full[c][d] for d in range(4)) for c in range(4))


def test_index_of_unknown(triangle):
    with pytest.raises(UnknownCell):
        triangle.index_of("99")


def test_type_partition_is_cached_per_network(two_roots):
    """Every call returns one partition object; a network built by _replace
    computes its own."""
    types = two_roots.type_partition()
    assert two_roots.type_partition() is types
    assert types == Partition.from_assignment(two_roots.cell_types)
    retyped = two_roots._replace(cell_types=tuple(range(1, two_roots.n_cells + 1)))
    assert retyped.type_partition() == Partition.trivial(two_roots.n_cells) != types
