import math
import random
from collections import Counter

import pytest

from synckit.errors import NotBalanced, NotInLattice, NotTypeRefining, SynckitError, TooLarge
from synckit.monoid import IntegerAdd, TropicalMin
import synckit.network
from synckit import synchrony
from synckit.network import Network, parse_network
from synckit.partition import (
    Partition,
    join,
    meet,
    parse_partition,
    refines,
)
from synckit.classification import (
    classify_partition,
    join_rows,
    join_table_report,
    quotient_class_report,
)
from synckit.synchrony import (
    DEFAULT_MAX_CELLS,
    cir_balanced,
    enumerate_balanced,
    is_balanced,
    is_exo_balanced,
    quotient_network,
)

from conftest import fixture_net
from oracles import (
    complete_graph,
    dense,
    from_matrix,
    lattice_meet,
    lattice_quotient,
    oracle_balanced,
    oracle_cir,
    oracle_cir_rounds,
    oracle_color_rows,
    oracle_covers,
    oracle_exo_balanced,
    oracle_quotient,
    oracle_type_refining,
    quotient_partition,
    random_balanced_lift,
    random_network,
    random_type_refinement,
    seeded_lattice_networks,
)


def same_structure(a: Network, b: Network) -> bool:
    return (
        a.cell_types == b.cell_types
        and a.edges == b.edges
        and a.monoid == b.monoid
    )


class TestIsBalanced:
    def test_triangle_quotient_matrix(self, triangle):
        cert = is_balanced(triangle, parse_partition("12/3", triangle.cell_ids))
        assert cert is not None
        assert cert.quotient_matrix == ((1, 1), (2, 1))

    def test_trivial_partition_quotient_is_adjacency(self, any_fixture):
        net = any_fixture
        cert = is_balanced(net, Partition.trivial(net.n_cells))
        assert cert is not None
        assert cert.quotient_matrix == dense(net)

    def test_type_mixing_rejected(self, triangle):
        with pytest.raises(NotTypeRefining):
            is_balanced(triangle, parse_partition("13/2", triangle.cell_ids))

    def test_agrees_with_matrix_oracle(self):
        rng = random.Random(11)
        for _ in range(150):
            net = random_network(rng, max_cells=6)
            p = random_type_refinement(rng, net)
            assert (is_balanced(net, p) is not None) == oracle_balanced(net, p)


class TestQuotientNetwork:
    def test_triangle_two_cell_quotient(self, triangle):
        cert = is_balanced(triangle, parse_partition("12/3", triangle.cell_ids))
        q = quotient_network(triangle, cert)
        assert q.cell_ids == ("12", "3")
        assert q.cell_types == (1, 2)
        # merged cell receives one of each color; hub receives two merged, one of itself
        assert dense(q) == ((1, 1), (2, 1))

    def test_quotient_over_trivial_is_same_network(self, any_fixture):
        net = any_fixture
        cert = is_balanced(net, Partition.trivial(net.n_cells))
        assert same_structure(quotient_network(net, cert), net)

    def test_cancelled_pair_leaves_no_edge(self):
        net = fixture_net("cancel_fan")
        cert = is_balanced(net, parse_partition("12/3/4", net.cell_ids))
        q = quotient_network(net, cert)
        merged = q.cell_ids.index("12")
        receiver = q.cell_ids.index("3")
        assert dense(q)[receiver][merged] == 0

    def test_colliding_ids_are_refused(self):
        # colors {a, b} and {a+b} would both be named "a+b"
        net = from_matrix(("a", "b", "a+b"), (1, 1, 1), ((0,) * 3,) * 3, IntegerAdd())
        cert = is_balanced(net, parse_partition("a,b/a+b", net.cell_ids))
        assert cert is not None
        with pytest.raises(SynckitError, match="'a\\+b'"):
            quotient_network(net, cert)
        apart = is_balanced(net, parse_partition("a,a+b/b", net.cell_ids))
        assert quotient_network(net, apart).cell_ids == ("a+a+b", "b")


class TestCir:
    def test_triangle_type_partition_already_balanced(self, triangle):
        types = triangle.type_partition()
        assert cir_balanced(triangle, types) == types
        assert oracle_cir(triangle, types) == types

    def test_trivial_fixed(self, any_fixture):
        net = any_fixture
        bot = Partition.trivial(net.n_cells)
        assert cir_balanced(net, bot) == bot

    def test_unbalanced_input_strictly_refined(self):
        rng = random.Random(21)
        seen = 0
        while seen < 40:
            net = random_network(rng, max_cells=6)
            p = random_type_refinement(rng, net)
            if is_balanced(net, p) is not None:
                continue
            seen += 1
            out = cir_balanced(net, p)
            assert refines(out, p) and out != p

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(60):
            net = random_network(rng, max_cells=6)
            for p in (net.type_partition(), random_type_refinement(rng, net)):
                assert cir_balanced(net, p) == oracle_cir(net, p)

    def test_idempotent_and_monotone(self):
        rng = random.Random(41)
        for _ in range(60):
            net = random_network(rng, max_cells=6)
            a = random_type_refinement(rng, net)
            b = join(a, random_type_refinement(rng, net))
            b = meet(b, net.type_partition())
            a = meet(a, b)
            ca, cb = cir_balanced(net, a), cir_balanced(net, b)
            assert cir_balanced(net, ca) == ca
            assert refines(ca, cb)


def random_multigraph(rng: random.Random, n: int, num_types: int, tropical: bool) -> Network:
    """Sparse network parsed from a document with self-loops and parallel edges.

    About 3n edges at most, so refinements take many passes; under int-add
    +1/-1 weights cancel across the senders of a color and some parallel
    pairs cancel outright.
    """
    raw = [rng.randint(1, num_types) for _ in range(n)]
    relabel = {t: i + 1 for i, t in enumerate(dict.fromkeys(raw))}
    weights = (0.5, 1.0, 1.0, 2.0, -1.0) if tropical else (-1, 1, 1, 2)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        sender, receiver, w = rng.randrange(n), rng.randrange(n), rng.choice(weights)
        edges.append((sender, receiver, w))
        roll = rng.random()
        if roll < 0.15:
            edges.append((sender, receiver, w))
        elif roll < 0.3 and not tropical:
            edges.append((sender, receiver, -w))
    return parse_network({
        "monoid": "tropical-min" if tropical else "int-add",
        "cells": [{"id": str(c), "type": relabel[t]} for c, t in enumerate(raw)],
        "edges": [{"from": str(s), "to": str(r), "weight": w} for s, r, w in edges],
    })


def tropical_lift(rng: random.Random, num_types: int, max_cells: int = 7) -> Network:
    """A tropical-min network on a planted balanced partition of 2-3 colors.

    Each cell's least in-weight from color l is its color's entry q[k][l],
    met by one sender of l while the others weigh as much, more or inf; an
    inf entry leaves the color with no edge into cells of color k.
    """
    m = rng.randint(2, 3)
    colors = list(range(m)) + [rng.randrange(m) for _ in range(rng.randint(1, max_cells - m))]
    rng.shuffle(colors)
    q = [[rng.choice((1, 2.5, math.inf)) for _ in range(m)] for _ in range(m)]
    n = len(colors)
    matrix = [[math.inf] * n for _ in range(n)]
    for c in range(n):
        for l in range(m):
            entry = q[colors[c]][l]
            if entry == math.inf:
                continue
            senders = [d for d in range(n) if colors[d] == l]
            for d in senders:
                matrix[c][d] = rng.choice((entry, entry + 1, math.inf))
            matrix[c][rng.choice(senders)] = entry
    types = [1 + colors[c] % num_types for c in range(n)]
    return from_matrix(tuple(str(i + 1) for i in range(n)), types, matrix, TropicalMin())


def random_two_split(rng: random.Random, p: Partition) -> Partition:
    """p with part of one color of two or more cells moved to a new color."""
    block = rng.choice([b for b in p.blocks() if len(b) > 1])
    colors = list(p.colors)
    moved = rng.sample(block[1:], rng.randint(1, len(block) - 1))
    for c in moved:
        colors[c] = p.rank
    return Partition.from_assignment(colors)


class TestCirWorklist:
    def test_matches_round_oracle(self):
        # the worklist against full rounds to a fixed point, from the starts
        # the library uses: types, trivial, any type refinement, and 2-splits
        # of balanced partitions as enumeration makes them
        rng = random.Random(71)
        refined = split_starts = small = 0
        for trial in range(400):
            n = rng.randint(1, 6) if trial % 4 == 0 else rng.randint(2, 40)
            net = random_multigraph(rng, n, 1 + trial % 3, tropical=trial % 2 == 1)
            top = oracle_cir_rounds(net, net.type_partition())
            starts = [
                net.type_partition(),
                Partition.trivial(n),
                random_type_refinement(rng, net),
                random_type_refinement(rng, net),
            ]
            if top.rank < n:
                starts.append(random_two_split(rng, top))
                split_starts += 1
            for p in starts:
                got = cir_balanced(net, p)
                assert got == oracle_cir_rounds(net, p)
                refined += got != p
                if n <= 6:
                    assert got == oracle_cir(net, p)
                    small += 1
        assert refined >= 500 and split_starts >= 100 and small >= 400

    @staticmethod
    def _count_keys(monkeypatch) -> list[int]:
        calls = [0]
        inner = synchrony._signature

        def counted(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(synchrony, "_signature", counted)
        return calls

    @staticmethod
    def _one_type(n: int, edges) -> Network:
        return Network(tuple(map(str, range(n))), (1,) * n, tuple(sorted(edges)), IntegerAdd())

    def test_chain_keys_each_cell_about_twice(self, monkeypatch):
        # each cell is keyed once in the first pass and once when its
        # sender is renamed; full rounds would key n cells n times
        n = 2000
        chain = self._one_type(n, ((c, c - 1, 1) for c in range(1, n)))
        calls = self._count_keys(monkeypatch)
        assert cir_balanced(chain, Partition((0,) * n)) == Partition.trivial(n)
        assert calls[0] <= 3 * n

    def test_balanced_ring_keys_each_cell_once(self, monkeypatch):
        n = 500
        ring = self._one_type(n, ((c, (c - 1) % n, 1) for c in range(n)))
        calls = self._count_keys(monkeypatch)
        assert cir_balanced(ring, Partition((0,) * n)) == Partition((0,) * n)
        assert calls[0] == n

    def test_is_balanced_keys_each_cell_once(self, monkeypatch):
        # one round over the n cells decides balance and leaves each color's
        # signature behind for the certificate, so no row is summed again
        def refuse(*args):
            raise AssertionError("a certificate summed a row again")

        monkeypatch.setattr(synckit.network, "row_color_sum", refuse)
        monkeypatch.setattr(synchrony, "row_color_sum", refuse, raising=False)
        calls = self._count_keys(monkeypatch)
        rng = random.Random(89)
        verdicts = Counter()
        for _ in range(40):
            net, planted = random_balanced_lift(rng, max_cells=8)
            for p in (planted, random_type_refinement(rng, net)):
                calls[0] = 0
                cert = is_balanced(net, p)
                assert calls[0] == net.n_cells
                verdicts[cert is not None] += 1
        assert verdicts[True] >= 40 and verdicts[False] >= 10

    def test_certify_keys_each_colors_first_cell(self, monkeypatch):
        # the certificate of a partition known to be balanced keys rank cells
        keyed = []
        inner = synchrony._keyer

        def recording(rows, monoid):
            key = inner(rows, monoid)

            def recorded(cells, color, signature):
                keyed.extend(cells)
                return key(cells, color, signature)
            return recorded

        rng = random.Random(97)
        for _ in range(30):
            net, planted = random_balanced_lift(rng, max_cells=8)
            expected = is_balanced(net, planted)
            with monkeypatch.context() as patch:
                patch.setattr(synchrony, "_keyer", recording)
                calls = self._count_keys(patch)
                keyed.clear()
                assert synchrony._certify(net, planted) == expected
            assert calls[0] == planted.rank
            assert keyed == [block[0] for block in planted.blocks()]


class TestEnumerate:
    def test_driven_chain_elements(self):
        net = fixture_net("driven_chain")
        lattice = enumerate_balanced(net)
        expected = {
            parse_partition(t, net.cell_ids)
            for t in ("1/2/3/4", "13/2/4", "13/24")
        }
        assert set(lattice.elements) == expected
        assert lattice.elements[lattice.bottom] == Partition.trivial(4)
        assert lattice.elements[lattice.top] == parse_partition("13/24", net.cell_ids)

    def test_all_distinct_types_only_trivial(self):
        net = from_matrix(
            ("a", "b", "c"),
            (1, 2, 3),
            ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
            IntegerAdd(),
        )
        lattice = enumerate_balanced(net)
        assert lattice.elements == (Partition.trivial(3),)

    def test_hub_fixture_contains_stated_elements(self):
        net = fixture_net("twin_cycles_hub")
        lattice = enumerate_balanced(net)
        for text in ("12/3/45", "12/345", "1/25/34", "125/34", "12345"):
            assert parse_partition(text, net.cell_ids) in lattice.elements

    def test_cap_enforced(self):
        rng = random.Random(5)
        net = random_network(rng, n=5)
        with pytest.raises(TooLarge):
            enumerate_balanced(net, max_cells=4)
        enumerate_balanced(net, max_cells=5)

    def test_default_cap(self):
        """Without max_cells the cap is DEFAULT_MAX_CELLS; only the argument raises it."""
        n = DEFAULT_MAX_CELLS + 1
        # one type per cell: the lattice is the trivial partition alone
        net = parse_network({"cells": [{"id": f"c{c}", "type": c + 1} for c in range(n)],
                             "edges": []})
        with pytest.raises(TooLarge, match=f"cap of {DEFAULT_MAX_CELLS}"):
            enumerate_balanced(net)
        assert enumerate_balanced(net, max_cells=n).elements == (Partition.trivial(n),)

    def test_join_closure(self):
        rng = random.Random(51)
        for _ in range(30):
            net = random_network(rng, max_cells=6)
            lattice = enumerate_balanced(net)
            for b1 in lattice.elements:
                for b2 in lattice.elements:
                    assert join(b1, b2) in lattice.elements

    def test_split_and_cir_matches_brute_force(self):
        for net in seeded_lattice_networks():
            lattice = enumerate_balanced(net)
            expected = {
                p for p in oracle_type_refining(net) if oracle_balanced(net, p)
            }
            assert set(lattice.elements) == expected
            assert list(lattice.elements) == sorted(expected, key=lambda p: (p.rank, p.colors))
            assert lattice.cover_edges == oracle_covers(lattice.elements)
            assert lattice.elements[lattice.bottom] == Partition.trivial(net.n_cells)
            top = lattice.elements[lattice.top]
            assert all(refines(p, top) for p in lattice.elements)

    @pytest.mark.parametrize("n,bell", [(6, 203), (7, 877)])
    def test_complete_graph_lattice_is_every_partition(self, n, bell):
        net = complete_graph(n)
        lattice = enumerate_balanced(net)
        assert len(lattice.elements) == bell
        # in the partition lattice, the covers of an element merge two of its colors
        ups: dict[int, list[int]] = {i: [] for i in range(bell)}
        for i, j in lattice.cover_edges:
            ups[i].append(j)
        for i, p in enumerate(lattice.elements):
            assert len(ups[i]) == p.rank * (p.rank - 1) // 2
            for j in ups[i]:
                q = lattice.elements[j]
                assert q.rank == p.rank - 1 and refines(p, q)

    def test_cover_edges_are_transitive_reduction(self):
        net = fixture_net("twin_cycles_hub")
        lattice = enumerate_balanced(net)
        for i, j in lattice.cover_edges:
            assert refines(lattice.elements[i], lattice.elements[j])
            for k in range(len(lattice.elements)):
                if k in (i, j):
                    continue
                between = refines(lattice.elements[i], lattice.elements[k]) and refines(
                    lattice.elements[k], lattice.elements[j]
                )
                assert not between

    def test_tropical_lattices_match_brute_force(self):
        # under tropical-min a color sums to the least of its in-weights and
        # a color with no in-edge to the zero, inf, which a signature leaves
        # out; the splits' partial rounds must agree with the dense oracle
        rng = random.Random(83)
        merged = 0
        for trial in range(120):
            num_types = 1 + trial // 2 % 2
            if trial % 2:
                net = tropical_lift(rng, num_types)
            else:
                net = random_network(rng, max_cells=7, num_types=num_types,
                                     weights=(1, 2.5, math.inf, math.inf), monoid=TropicalMin())
            lattice = enumerate_balanced(net)
            expected = {p for p in oracle_type_refining(net) if oracle_balanced(net, p)}
            assert set(lattice.elements) == expected
            assert lattice.cover_edges == oracle_covers(lattice.elements)
            merged += len(expected) > 2
        assert merged >= 40

    @pytest.mark.parametrize("n", range(2, 15))
    def test_ring_lattice_is_the_divisor_lattice(self, n):
        # the one-type directed ring C_n: the balanced partitions are
        # c -> c mod d for the divisors d of n, and P_d covers P_e exactly
        # when e / d is prime; a split of the top needs about n rounds
        ring = TestCirWorklist._one_type(n, ((c, (c - 1) % n, 1) for c in range(n)))
        lattice = enumerate_balanced(ring, max_cells=n)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        element = {d: Partition.from_assignment([c % d for c in range(n)]) for d in divisors}
        assert set(lattice.elements) == set(element.values())
        index = {p: i for i, p in enumerate(lattice.elements)}
        prime = lambda m: m > 1 and all(m % f for f in range(2, m))
        assert lattice.cover_edges == {
            (index[element[e]], index[element[d]])
            for d in divisors for e in divisors if e % d == 0 and prime(e // d)
        }

    @pytest.mark.parametrize("name, one_cir_per_split, elements",
                             [("ring", 4536, 3), ("sparse", 13195, 20)])
    def test_splits_are_refined_from_their_parent(self, monkeypatch, name, one_cir_per_split,
                                                  elements):
        # one full cir_balanced per 2-split made one_cir_per_split signature
        # calls on these networks; refining each split from its balanced
        # parent, through the shared memo, must make at most half as many,
        # and keying it against the parent's signatures holds them at 1988
        # (C9) and 5007
        n = 9
        if name == "ring":
            edges = [(c, (c - 1) % n, 1) for c in range(n)]
        else:  # two senders per cell, as in the benchmark's sparse networks
            rng = random.Random(0)
            edges = [(c, d, 1) for c in range(n) for d in rng.sample([d for d in range(n) if d != c], 2)]
        net = TestCirWorklist._one_type(n, edges)
        calls = TestCirWorklist._count_keys(monkeypatch)
        assert len(enumerate_balanced(net).elements) == elements
        assert calls[0] <= one_cir_per_split // 2
        assert calls[0] <= {"ring": 1988, "sparse": 5007}[name]

    def test_known_splits_are_skipped(self, monkeypatch):
        # every 2-split of K6 is balanced and is an element: cir of the types
        # keys 6 cells, each element keys one cell per color it splits from,
        # and each element found as a split costs one first round of at most
        # 6 cells; refining the known splits again would cost about 3x that
        net = complete_graph(6)
        calls = TestCirWorklist._count_keys(monkeypatch)
        elements = enumerate_balanced(net).elements
        assert calls[0] <= 6 + sum(p.rank for p in elements) + (len(elements) - 1) * 6
        assert calls[0] <= 1268  # K6's count with each split keyed against its parent


def _check_order(net: Network, quotient_every: int) -> int:
    """The up-sets, the joins read from them and the coarsenings above an
    element all agree with refines, partition.join and index_of.

    Returns the number of pairs whose join is neither of them.
    """
    report = join_table_report(net)
    lattice = report.lattice
    elements = lattice.elements
    assert report.classes == tuple(classify_partition(net, b) for b in elements)
    for i, p in enumerate(elements):
        assert lattice.up[i] == sum(1 << k for k, b in enumerate(elements) if refines(p, b))
    rows = list(join_rows(lattice.up))
    assert [len(row) for row in rows] == list(range(len(elements), 0, -1))
    for i, row in enumerate(rows):
        for j, jdx in enumerate(row, i):
            assert jdx == lattice.index_of(join(elements[i], elements[j]))
    for i, p in enumerate(elements):
        above = [b for b in elements if refines(p, b)]
        quotients = [quotient_partition(b, p) for b in above]
        assert set(lattice_quotient(lattice, p).elements) == set(quotients)
        if i % quotient_every:
            continue
        entries = quotient_class_report(net, is_balanced(net, p)).entries
        assert [e.partition for e in entries] == above
        assert [e.quotient_partition for e in entries] == quotients
    return sum(jdx not in (i, j) for i, row in enumerate(rows) for j, jdx in enumerate(row, i))


class TestUpSetOrder:
    def test_seeded_lattices_match_refinement_oracles(self):
        joins = sum(_check_order(net, quotient_every=1) for net in seeded_lattice_networks())
        assert joins >= 30  # incomparable pairs occur, so the joins are checked

    def test_complete_graph_matches_refinement_oracles(self):
        assert _check_order(complete_graph(6), quotient_every=25) > 10000


class TestLatticeMeet:
    def test_idempotent_and_bottom(self, triangle):
        types = triangle.type_partition()
        bot = Partition.trivial(3)
        assert lattice_meet(triangle, types, types) == types
        assert lattice_meet(triangle, bot, types) == bot

    def test_requires_balanced(self):
        net = fixture_net("edge_pair")
        with pytest.raises(NotBalanced):
            lattice_meet(
                net,
                parse_partition("12", net.cell_ids),
                Partition.trivial(2),
            )

    def test_greatest_lower_bound_in_lattice(self):
        rng = random.Random(61)
        for _ in range(40):
            net = random_network(rng, max_cells=7)
            lattice = enumerate_balanced(net)
            b1 = rng.choice(lattice.elements)
            b2 = rng.choice(lattice.elements)
            met = lattice_meet(net, b1, b2)
            lowers = [
                p for p in lattice.elements if refines(p, b1) and refines(p, b2)
            ]
            best = max(lowers, key=lambda p: [refines(q, p) for q in lowers].count(True))
            assert all(refines(q, met) for q in lowers)
            assert met in lowers
            assert met == best


class TestLatticeQuotient:
    def test_by_bottom_is_identity(self):
        net = fixture_net("driven_chain")
        lattice = enumerate_balanced(net)
        assert lattice_quotient(lattice, Partition.trivial(4)) == lattice

    def test_by_top_is_single_element(self):
        net = fixture_net("driven_chain")
        lattice = enumerate_balanced(net)
        top = lattice.elements[lattice.top]
        quotient = lattice_quotient(lattice, top)
        assert len(quotient.elements) == 1
        assert quotient.elements[0] == Partition.trivial(top.rank)

    def test_membership_required(self):
        net = fixture_net("driven_chain")
        lattice = enumerate_balanced(net)
        with pytest.raises(NotInLattice):
            lattice.index_of(parse_partition("12/34", net.cell_ids))

    def test_matches_quotient_network_lattice(self):
        net = fixture_net("two_sources_pair")
        lattice = enumerate_balanced(net)
        anchor = parse_partition("1/2/34", net.cell_ids)
        cert = is_balanced(net, anchor)
        quotient_lat = lattice_quotient(lattice, anchor)
        direct = enumerate_balanced(quotient_network(net, cert))
        assert quotient_lat == direct


class TestLatticeQuotientLaw:
    def test_quotient_lattice_equals_lattice_of_quotient(self):
        rng = random.Random(71)
        for i in range(25):
            net = (
                random_balanced_lift(rng, max_cells=6)[0]
                if i % 2
                else random_network(rng, max_cells=6)
            )
            lattice = enumerate_balanced(net)
            for anchor in lattice.elements:
                cert = is_balanced(net, anchor)
                lhs = set(lattice_quotient(lattice, anchor).elements)
                rhs = set(enumerate_balanced(quotient_network(net, cert)).elements)
                assert lhs == rhs

    def test_lift_partition_is_balanced(self):
        rng = random.Random(72)
        for _ in range(40):
            net, lifted = random_balanced_lift(rng)
            assert is_balanced(net, lifted) is not None

    def test_quotient_of_quotient(self):
        rng = random.Random(81)
        done = 0
        while done < 25:
            net, _ = random_balanced_lift(rng, max_cells=6)
            lattice = enumerate_balanced(net)
            pairs = [
                (a, b)
                for a in lattice.elements
                for b in lattice.elements
                if a != b and refines(a, b)
            ]
            if not pairs:
                continue
            done += 1
            a, b = rng.choice(pairs)
            cert_a = is_balanced(net, a)
            first = quotient_network(net, cert_a)
            step = quotient_partition(b, a)
            cert_step = is_balanced(first, step)
            assert cert_step is not None  # coarsening stays balanced on the quotient
            via_two = quotient_network(first, cert_step)
            direct = quotient_network(net, is_balanced(net, b))
            assert same_structure(via_two, direct)

    def test_cir_commutes_with_quotient(self):
        rng = random.Random(91)
        done = 0
        while done < 25:
            net = random_network(rng, max_cells=6)
            lattice = enumerate_balanced(net)
            anchor = rng.choice(lattice.elements)
            cert = is_balanced(net, anchor)
            quotient = quotient_network(net, cert)
            upper = join(anchor, random_type_refinement(rng, net))
            if not refines(upper, net.type_partition()):
                continue
            done += 1
            lhs = cir_balanced(quotient, quotient_partition(upper, anchor))
            rhs = quotient_partition(cir_balanced(net, upper), anchor)
            assert lhs == rhs


class TestExoBalanced:
    def test_balanced_implies_exo(self):
        rng = random.Random(101)
        for _ in range(25):
            net = random_network(rng, max_cells=6)
            for b in enumerate_balanced(net).elements:
                assert is_exo_balanced(net, b)

    def test_directed_pair_single_color(self):
        net = fixture_net("edge_pair")
        one = parse_partition("12", net.cell_ids)
        assert is_balanced(net, one) is None
        assert is_exo_balanced(net, one)

    def test_triangle_hub_partition(self, triangle):
        assert is_exo_balanced(triangle, parse_partition("12/3", triangle.cell_ids))

    def test_rejects_type_mixing(self, triangle):
        with pytest.raises(NotTypeRefining):
            is_exo_balanced(triangle, parse_partition("13/2", triangle.cell_ids))

    def test_off_color_difference_fails(self):
        # two cells of one color fed differently from a third color
        net = from_matrix(
            ("1", "2", "3"),
            (1, 1, 1),
            ((0, 0, 1), (0, 0, 2), (0, 0, 0)),
            IntegerAdd(),
        )
        assert not is_exo_balanced(net, parse_partition("12/3", net.cell_ids))


@pytest.mark.parametrize(
    "monoid, weights",
    [(IntegerAdd(), (-1, 0, 0, 1)), (TropicalMin(), (1, 2.5, math.inf, math.inf))],
    ids=["int-add", "tropical-min"],
)
def test_signature_round_matches_dense_oracles(monoid, weights):
    # int-add rows whose +1/-1 entries cancel per color, and tropical-min
    # rows with empty (inf) colors: balance, exo-balance, cir and the
    # quotient matrix against the dense monoid fold of M @ P
    rng = random.Random(61)
    verdicts = Counter()
    merged = 0
    for trial in range(150):
        net = random_network(
            rng, max_cells=6, num_types=1 + trial % 2, weights=weights, monoid=monoid
        )
        candidates = [Partition.trivial(net.n_cells)]
        for upper in (random_type_refinement(rng, net), net.type_partition()):
            coarsest = cir_balanced(net, upper)
            assert coarsest == oracle_cir(net, upper)
            candidates += [upper, coarsest]
            merged += coarsest.rank < net.n_cells
        for p in candidates:
            balanced = oracle_balanced(net, p)
            exo = oracle_exo_balanced(net, p)
            cert = is_balanced(net, p)
            assert (cert is not None) == balanced == (cir_balanced(net, p) == p)
            assert is_exo_balanced(net, p) == exo
            if cert is not None:
                rows = oracle_color_rows(net, p)
                assert cert.quotient_matrix == tuple(tuple(rows[b[0]]) for b in p.blocks())
            verdicts[balanced, exo] += 1
    # balance implies exo-balance, every other combination shows up, and
    # some balanced partitions merge cells, so their quotient matrix is checked
    assert verdicts[True, False] == 0
    assert verdicts[True, True] and verdicts[False, True] and verdicts[False, False]
    assert merged >= 20


@pytest.mark.parametrize(
    "monoid, weights",
    [(IntegerAdd(), (-1, 0, 0, 1, 2)), (TropicalMin(), (1, 2.5, math.inf, math.inf))],
    ids=["int-add", "tropical-min"],
)
def test_certificate_quotient_matches_dense_oracle(monoid, weights):
    # the certificate's sparse quotient against the quotient built from the
    # dense rows of M @ P, and quotient_network against the same with the
    # colors' joined ids; every other network has multi-character ids
    rng = random.Random(67)
    merged = 0
    for trial in range(150):
        net = random_network(
            rng, max_cells=6, num_types=1 + trial % 2, weights=weights, monoid=monoid
        )
        if trial % 2:
            net = net._replace(cell_ids=tuple(f"c{i}" for i in net.cell_ids))
        joiner = "" if all(len(i) == 1 for i in net.cell_ids) else "+"
        for upper in (random_type_refinement(rng, net), net.type_partition()):
            p = cir_balanced(net, upper)
            cert = is_balanced(net, p)
            assert cert is not None
            assert cert.quotient == oracle_quotient(net, p)
            ids = [joiner.join(net.cell_ids[c] for c in block) for block in p.blocks()]
            assert quotient_network(net, cert) == oracle_quotient(net, p, ids)
            assert cert.quotient_matrix == dense(cert.quotient)
            merged += p.rank < net.n_cells
    assert merged >= 20


def test_type_refining_enumeration_counts():
    # two types with 2 and 3 cells: bell(2) * bell(3) candidates
    net = from_matrix(
        ("1", "2", "3", "4", "5"),
        (1, 1, 2, 2, 2),
        tuple(tuple(0 for _ in range(5)) for _ in range(5)),
        IntegerAdd(),
    )
    assert sum(1 for _ in oracle_type_refining(net)) == 2 * 5
