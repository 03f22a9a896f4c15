import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synckit.errors import DomainMismatch, MalformedPartitionSpec, NotARefinement
from synckit.partition import (
    Partition,
    format_partition,
    join,
    meet,
    parse_partition,
    quotient_partition,
    refines,
)

from oracles import (
    all_partitions,
    compose,
    one_color,
    oracle_glb,
    oracle_join,
    oracle_lub,
    oracle_meet,
    partition_from_blocks,
    partition_matrix,
)


def blocks(*groups, size):
    return partition_from_blocks(groups, size)


# a,b,c,d,e -> 0..4
A5 = blocks([0, 1], [2], [3, 4], size=5)
B5 = blocks([0, 1], [2, 3, 4], size=5)


small_partitions = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    )
).map(lambda t: Partition.from_assignment(t[1]))


def paired(draw_size=6):
    n = st.integers(2, draw_size)
    return n.flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, k - 1), min_size=k, max_size=k),
            st.lists(st.integers(0, k - 1), min_size=k, max_size=k),
        )
    ).map(lambda t: (Partition.from_assignment(t[0]), Partition.from_assignment(t[1])))


class TestRefines:
    def test_example(self):
        assert refines(A5, B5)
        assert not refines(B5, A5)

    def test_trivial_is_finest(self):
        for p in (A5, B5):
            assert refines(Partition.trivial(5), p)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            refines(A5, Partition.trivial(4))


class TestJoinMeet:
    def test_join_example(self):
        a = blocks([0, 1], [2, 3], size=4)
        b = blocks([0], [1, 2], [3], size=4)
        assert join(a, b) == one_color(4)
        assert join(a, b) == oracle_join(a, b)

    def test_join_identity_and_idempotence(self):
        a = blocks([0, 1], [2, 3], size=4)
        assert join(a, Partition.trivial(4)) == a
        assert join(a, a) == a

    def test_meet_example(self):
        a = blocks([0, 1], [2, 3], size=4)
        b = blocks([0], [1, 2], [3], size=4)
        assert meet(a, b) == Partition.trivial(4)
        assert meet(a, b) == oracle_meet(a, b)

    def test_meet_identities(self):
        a = blocks([0, 1], [2, 3], size=4)
        assert meet(a, a) == a
        assert meet(a, Partition.trivial(4)) == Partition.trivial(4)

    @given(paired())
    @settings(max_examples=60)
    def test_join_meet_match_chain_and_intersection_oracles(self, pair):
        a, b = pair
        assert join(a, b) == oracle_join(a, b)
        assert meet(a, b) == oracle_meet(a, b)

    @given(paired(5))
    @settings(max_examples=25, deadline=None)
    def test_bounds_against_all_partition_scan(self, pair):
        a, b = pair
        assert join(a, b) == oracle_lub(a, b)
        assert meet(a, b) == oracle_glb(a, b)

    @given(paired())
    @settings(max_examples=60)
    def test_lattice_axioms(self, pair):
        a, b = pair
        assert join(a, meet(a, b)) == a  # absorption
        assert meet(a, join(a, b)) == a
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)


class TestQuotient:
    def test_example(self):
        q = quotient_partition(B5, A5)
        assert q == blocks([0], [1, 2], size=3)
        assert q.rank == B5.rank == 2

    def test_self_quotient_is_trivial(self):
        assert quotient_partition(A5, A5) == Partition.trivial(A5.rank)

    def test_one_color_quotient(self):
        top = one_color(5)
        assert quotient_partition(top, A5) == one_color(A5.rank)

    def test_not_a_refinement(self):
        with pytest.raises(NotARefinement):
            quotient_partition(A5, B5)

    def test_matrix_composition_identity(self):
        pa = partition_matrix(A5)
        pb = partition_matrix(B5)
        pq = partition_matrix(quotient_partition(B5, A5))
        assert np.array_equal(pa @ pq, pb)

    def test_function_composition_recovers_coarse_partition(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(2, 7)
            a = Partition.from_assignment([rng.randint(0, 2) for _ in range(n)])
            b = join(a, Partition.from_assignment([rng.randint(0, 2) for _ in range(n)]))
            assert compose(quotient_partition(b, a), a) == b

    def test_order_preservation(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 7)
            a = Partition.from_assignment([rng.randint(0, 1) for _ in range(n)])
            b1 = join(a, Partition.from_assignment([rng.randint(0, 2) for _ in range(n)]))
            b2 = join(a, Partition.from_assignment([rng.randint(0, 2) for _ in range(n)]))
            lhs = refines(b1, b2)
            rhs = refines(quotient_partition(b1, a), quotient_partition(b2, a))
            assert lhs == rhs

    def test_cancellation(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(3, 7)
            a = Partition.from_assignment([rng.randint(0, 2) for _ in range(n)])
            b1 = join(a, Partition.from_assignment([rng.randint(0, 1) for _ in range(n)]))
            b2 = join(b1, Partition.from_assignment([rng.randint(0, 1) for _ in range(n)]))
            lhs = quotient_partition(
                quotient_partition(b2, a), quotient_partition(b1, a)
            )
            assert lhs == quotient_partition(b2, b1)

    def test_join_quotient_commutation(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(3, 7)
            a = Partition.from_assignment([rng.randint(0, 2) for _ in range(n)])
            b1 = join(a, Partition.from_assignment([rng.randint(0, 1) for _ in range(n)]))
            b2 = join(a, Partition.from_assignment([rng.randint(0, 1) for _ in range(n)]))
            lhs = join(quotient_partition(b1, a), quotient_partition(b2, a))
            assert lhs == quotient_partition(join(b1, b2), a)


class TestMatrix:
    def test_five_cell_example(self):
        expected = np.array(
            [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]
        )
        assert np.array_equal(partition_matrix(A5), expected)

    def test_trivial_is_identity(self):
        assert np.array_equal(partition_matrix(Partition.trivial(4)), np.eye(4, dtype=int))

    def test_one_color_is_ones_column(self):
        assert np.array_equal(
            partition_matrix(one_color(3)), np.ones((3, 1), dtype=int)
        )

    def test_row_and_column_sums(self):
        for p in all_partitions(5):
            m = partition_matrix(p)
            assert (m.sum(axis=1) == 1).all()
            assert (m.sum(axis=0) >= 1).all()


class TestTextForm:
    ids = ("1", "2", "3", "4", "5")

    def test_parse_compact(self):
        p = parse_partition("12/45", self.ids)
        assert p == blocks([0, 1], [2], [3, 4], size=5)

    def test_parse_with_commas(self):
        assert parse_partition("1,2/4,5", self.ids) == parse_partition("12/45", self.ids)

    def test_format_round_trip(self):
        p = blocks([0, 1], [2], [3, 4], size=5)
        text = format_partition(p, self.ids)
        assert text == "12/3/45"
        assert parse_partition(text, self.ids) == p

    def test_multichar_ids(self):
        ids = ("c1", "c2", "c10")
        p = parse_partition("c1,c10", ids)
        assert p == blocks([0, 2], [1], size=3)
        assert format_partition(p, ids) == "c1,c10/c2"

    def test_errors(self):
        with pytest.raises(MalformedPartitionSpec):
            parse_partition("16", self.ids)
        with pytest.raises(MalformedPartitionSpec):
            parse_partition("12/2", self.ids)
        with pytest.raises(MalformedPartitionSpec):
            parse_partition("1//2", self.ids)


def test_canonical_form_enforced():
    with pytest.raises(ValueError):
        Partition((1, 0))
    assert Partition.from_assignment((5, 2, 5)) == Partition((0, 1, 0))
