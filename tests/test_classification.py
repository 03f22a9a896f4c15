import json
import math
import random
import tracemalloc
from collections import Counter

import pytest

from synckit import classification
from synckit.classification import (
    ColorClass,
    N_IN,
    NeighborhoodKind,
    R_IN,
    V_IN,
    classify_color,
    classify_partition,
    is_invariant,
    is_matched,
    join_rows,
    join_table_report,
    quotient_class_report,
    v_in_k,
)
from synckit.connectivity import (
    all_in_reachability,
    in_reachability,
    rdc_decomposition,
    scc_decomposition,
)
from synckit.errors import EmptyColor, PartitionDomainMismatch, SynckitError
from synckit.monoid import IntegerAdd, TropicalMin
from synckit.cli import run
from synckit.network import parse_network, save_network
from synckit.partition import Partition, join, parse_partition, refines
from synckit.synchrony import cir_balanced, enumerate_balanced, is_balanced

from conftest import FIXTURE_NAMES, fixture_net, fixture_path
from oracles import (
    colors_met,
    complete_graph,
    cumulative_in,
    from_matrix,
    in_neighborhood,
    join_allowed,
    one_color,
    oracle_classify_color,
    oracle_classify_partition,
    oracle_in_ball,
    oracle_join_table,
    oracle_quotient,
    oracle_quotient_entries,
    oracle_rdc,
    oracle_reach_invariant,
    oracle_reach_matched,
    oracle_reach_sets,
    random_balanced_lift,
    random_network,
    random_type_refinement,
    seeded_lattice_networks,
    top_nonweak,
    top_strong,
)

KINDS = (N_IN, V_IN, v_in_k(1), v_in_k(2), v_in_k(3), R_IN)


class TestColorClasses:
    def test_singleton_is_strong(self, two_roots):
        for c in range(two_roots.n_cells):
            assert classify_color(two_roots, [c]) is ColorClass.STRONG

    def test_mixed_root_descendants_are_rooted(self, two_roots):
        # cells 4 and 6 sit below different root sets that share a root
        assert classify_color(two_roots, [3, 5]) is ColorClass.ROOTED

    def test_cells_of_disjoint_roots_are_weak(self, two_roots):
        assert classify_color(two_roots, [0, 4]) is ColorClass.WEAK

    def test_empty_color_rejected(self, two_roots):
        with pytest.raises(EmptyColor):
            classify_color(two_roots, [])


class TestPartitionClasses:
    def test_trivial_is_strong(self, any_fixture):
        net = any_fixture
        assert classify_partition(net, Partition.trivial(net.n_cells)) is ColorClass.STRONG

    def test_scc_refinements_are_strong(self, any_fixture):
        net = any_fixture
        rng = random.Random(net.n_cells)
        sccs = scc_decomposition(net)
        for _ in range(10):
            candidate = random_type_refinement(rng, net)
            from synckit.partition import meet

            p = meet(candidate, sccs)
            assert classify_partition(net, p) is ColorClass.STRONG

    def test_full_merge_on_hub_fixture_is_weak(self):
        net = fixture_net("twin_cycles_hub")
        assert classify_partition(net, one_color(5)) is ColorClass.WEAK

    def test_two_roots_cli_partition_is_rooted(self, two_roots):
        p = parse_partition("5/67/1234", two_roots.cell_ids)
        assert classify_partition(two_roots, p) is ColorClass.ROOTED

    def test_monotone_comparisons_on_enumerated_lattices(self):
        rng = random.Random(301)
        for _ in range(25):
            net = random_network(rng, max_cells=6)
            lattice = enumerate_balanced(net)
            classes = {b: classify_partition(net, b) for b in lattice.elements}
            for a in lattice.elements:
                for b in lattice.elements:
                    if not refines(a, b):
                        continue
                    if classes[b] is ColorClass.STRONG:
                        assert classes[a] is ColorClass.STRONG
                    if classes[b] is ColorClass.ROOTED:
                        assert classes[a] in (ColorClass.STRONG, ColorClass.ROOTED)
                    if classes[a] is ColorClass.WEAK:
                        assert classes[b] is ColorClass.WEAK


class TestMatched:
    def test_directed_pair(self):
        net = fixture_net("edge_pair")
        one = parse_partition("12", net.cell_ids)
        assert not is_matched(net, one, N_IN)
        assert is_matched(net, one, V_IN)

    def test_chorded_cycle_fixture(self):
        net = fixture_net("chorded_cycle")
        p = parse_partition("14/23", net.cell_ids)
        assert not is_matched(net, p, V_IN)
        assert is_matched(net, p, R_IN)

    def test_single_scc_everything_reach_matched(self):
        net = fixture_net("zero_sum_triangle")
        rng = random.Random(7)
        for _ in range(10):
            p = random_type_refinement(rng, net)
            assert is_matched(net, p, R_IN)

    def test_trivial_matched_for_every_kind(self, any_fixture):
        net = any_fixture
        bot = Partition.trivial(net.n_cells)
        for kind in KINDS:
            assert is_matched(net, bot, kind)

    def test_hierarchy_on_random_instances(self):
        rng = random.Random(311)
        for _ in range(60):
            net = random_network(rng, max_cells=6)
            p = random_type_refinement(rng, net)
            if is_matched(net, p, N_IN):
                assert is_matched(net, p, V_IN)
            if is_matched(net, p, V_IN):
                for k in range(1, net.n_cells + 1):
                    assert is_matched(net, p, v_in_k(k))
                assert is_matched(net, p, R_IN)

    def test_strong_partitions_are_reach_matched(self):
        rng = random.Random(321)
        for _ in range(40):
            net = random_network(rng, max_cells=6)
            for b in enumerate_balanced(net).elements:
                if classify_partition(net, b) is ColorClass.STRONG:
                    assert is_matched(net, b, R_IN)

    def test_nonweak_reach_matched_finer_than_rdc_and_join(self):
        rng = random.Random(331)
        for _ in range(60):
            net = random_network(rng, max_cells=6)
            rdcs = rdc_decomposition(net)
            candidates = [
                p
                for p in (random_type_refinement(rng, net) for _ in range(6))
                if classify_partition(net, p) is not ColorClass.WEAK
                and is_matched(net, p, R_IN)
            ]
            for p in candidates:
                assert refines(p, rdcs)
            for a in candidates:
                for b in candidates:
                    assert classify_partition(net, join(a, b)) is not ColorClass.WEAK


class TestPartitionDomain:
    """A partition on another number of cells than the network's is refused."""

    @pytest.mark.parametrize("size", [6, 8])
    @pytest.mark.parametrize("kind", KINDS, ids=NeighborhoodKind.label)
    def test_matched(self, two_roots, kind, size):
        with pytest.raises(PartitionDomainMismatch):
            is_matched(two_roots, one_color(size), kind)

    @pytest.mark.parametrize("kind", KINDS, ids=NeighborhoodKind.label)
    def test_invariant(self, two_roots, kind):
        cert = is_balanced(two_roots.subnetwork(range(6)), Partition.trivial(6))
        with pytest.raises(PartitionDomainMismatch):
            is_invariant(two_roots, cert, kind)

    @pytest.mark.parametrize("size", [6, 8])
    def test_classify_partition(self, two_roots, size):
        with pytest.raises(PartitionDomainMismatch):
            classify_partition(two_roots, one_color(size))


class TestInvariant:
    def test_cancel_fan_is_spurious(self):
        net = fixture_net("cancel_fan")
        cert = is_balanced(net, parse_partition("12/3/4", net.cell_ids))
        assert not is_invariant(net, cert, N_IN)
        # yet the one-step color sets still match
        assert is_matched(net, cert.partition, N_IN)

    def test_zero_sum_triangle_pattern(self):
        net = fixture_net("zero_sum_triangle")
        cert = is_balanced(net, one_color(3))
        assert not is_invariant(net, cert, N_IN)
        assert is_invariant(net, cert, V_IN)

    def test_cancel_cycle_pattern(self):
        net = fixture_net("cancel_cycle")
        cert = is_balanced(net, parse_partition("1/23/4", net.cell_ids))
        assert not is_invariant(net, cert, V_IN)
        assert is_invariant(net, cert, R_IN)

    def test_trivial_invariant_for_every_kind(self, any_fixture):
        net = any_fixture
        cert = is_balanced(net, Partition.trivial(net.n_cells))
        for kind in KINDS:
            assert is_invariant(net, cert, kind)

    def test_hierarchy_and_matched_consequence(self):
        rng = random.Random(341)
        for _ in range(40):
            net = random_network(rng, max_cells=6)
            for b in enumerate_balanced(net).elements:
                cert = is_balanced(net, b)
                for kind in KINDS:
                    if is_invariant(net, cert, kind):
                        assert is_matched(net, b, kind)
                if is_invariant(net, cert, N_IN):
                    assert is_invariant(net, cert, V_IN)
                if is_invariant(net, cert, V_IN):
                    for k in range(1, net.n_cells + 1):
                        assert is_invariant(net, cert, v_in_k(k))
                    assert is_invariant(net, cert, R_IN)

    def test_positive_weights_imply_one_step_invariance(self):
        rng = random.Random(351)
        for _ in range(40):
            net = random_network(rng, max_cells=6, weights=(1, 2, 0, 3))
            for b in enumerate_balanced(net).elements:
                cert = is_balanced(net, b)
                assert is_invariant(net, cert, N_IN)


class TestTops:
    def test_driven_chain(self):
        net = fixture_net("driven_chain")
        assert top_strong(net) == Partition.trivial(4)
        candidate, valid = top_nonweak(net)
        assert candidate == parse_partition("13/24", net.cell_ids)
        assert valid

    def test_single_scc_top_nonweak_equals_top_strong(self):
        net = fixture_net("zero_sum_triangle")
        candidate, valid = top_nonweak(net)
        assert candidate == top_strong(net)
        assert valid

    def test_dag_top_strong_is_trivial(self, chain4):
        assert top_strong(chain4) == Partition.trivial(4)

    def test_hub_fixture_reports_invalid(self):
        net = fixture_net("twin_cycles_hub")
        candidate, valid = top_nonweak(net)
        lattice = enumerate_balanced(net)
        nonweak = [
            b for b in lattice.elements
            if classify_partition(net, b) is not ColorClass.WEAK
        ]
        is_upper_bound = all(refines(b, candidate) for b in nonweak)
        assert not valid or not is_upper_bound

    def test_hub_top_strong(self):
        net = fixture_net("twin_cycles_hub")
        assert top_strong(net) == parse_partition("12/34", net.cell_ids)


class TestJoinTable:
    def test_driven_chain_matches_stricter_table(self):
        net = fixture_net("driven_chain")
        report = join_table_report(net)
        assert report.general_table_ok
        assert report.rooted_all_reach_matched
        assert report.matched_table_ok
        assert report.nonweak_join_closed

    def test_hub_fixture_shows_rooted_join_weak(self):
        net = fixture_net("twin_cycles_hub")
        report = join_table_report(net)
        assert report.general_table_ok
        entries = oracle_join_table(net, report.lattice.elements)["entries"]
        assert (ColorClass.ROOTED, ColorClass.ROOTED, ColorClass.WEAK) in {
            (e.left_class, e.right_class, e.join_class) for e in entries
        }
        assert not report.nonweak_join_closed

    def test_singleton_lattice_vacuous(self):
        net = from_matrix(
            ("a", "b"),
            (1, 2),
            ((0, 1), (1, 0)),
            IntegerAdd(),
        )
        report = join_table_report(net)
        assert len(report.lattice.elements) == 1
        assert report.general_table_ok
        assert report.matched_table_ok is not False

    def test_general_table_on_random_networks(self):
        rng = random.Random(361)
        for _ in range(30):
            net = random_network(rng, max_cells=6)
            report = join_table_report(net)
            assert report.general_table_ok
            if report.rooted_all_reach_matched:
                assert report.matched_table_ok


def _join_table_networks():
    yield from seeded_lattice_networks()
    for name in FIXTURE_NAMES:
        yield fixture_net(name)
    yield complete_graph(6)


def test_join_table_matches_pairwise_oracle(tmp_path, capsys):
    """Verdicts and streamed `tables` output all agree with the
    pair-by-pair oracle, byte for byte."""
    path = str(tmp_path / "net.json")
    for net in _join_table_networks():
        report = join_table_report(net)
        want = oracle_join_table(net, report.lattice.elements)
        payload = want["payload"]
        assert report.general_table_ok == payload["general_table_ok"]
        assert report.rooted_all_reach_matched == payload["rooted_all_reach_matched"]
        assert report.matched_table_ok == payload["matched_table_ok"]
        assert report.nonweak_join_closed == payload["nonweak_join_closed"]
        save_network(net, path)
        assert run(["tables", "--network", path]) == want["exit_code"]
        assert capsys.readouterr().out == want["text"]
        assert run(["tables", "--network", path, "--format", "json"]) == want["exit_code"]
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _hub_variant(rng):
    """twin_cycles_hub with its cells and edges shuffled and up to three
    extra cells, each driven by one or two of the cells before it."""
    doc = json.loads(fixture_path("twin_cycles_hub").read_text(encoding="utf-8"))
    ids = [cell["id"] for cell in doc["cells"]]
    for k in range(rng.randint(0, 3)):
        for sender in rng.sample(ids, rng.randint(1, 2)):
            doc["edges"].append({"from": sender, "to": f"d{k}", "weight": rng.choice((1, 2, -1))})
        doc["cells"].append({"id": f"d{k}", "type": 1})
        ids.append(f"d{k}")
    rng.shuffle(doc["cells"])
    rng.shuffle(doc["edges"])
    return parse_network(doc)


def _verdicts(report):
    return report.general_table_ok, report.matched_table_ok, report.nonweak_join_closed


def test_order_verdicts_match_the_pairwise_oracle():
    """The verdicts read off the order are the pair-by-pair oracle's, on
    random networks and on hub variants whose non-weak elements have two
    maxima (random networks of this size almost never do)."""
    rng = random.Random(3131)
    weights = [(-1, 0, 1, 2), (0, 0, 0, 1), (0, 0, 0, 0, 1, -1)]
    nets = [random_network(rng, max_cells=7, num_types=1 + i // 3 % 2, weights=weights[i % 3])
            for i in range(300)]
    nets += [_hub_variant(rng) for _ in range(30)]
    split = Counter()
    for net in nets:
        report = join_table_report(net)
        payload = oracle_join_table(net, report.lattice.elements)["payload"]
        assert _verdicts(report) == (
            payload["general_table_ok"], payload["matched_table_ok"],
            payload["nonweak_join_closed"])
        elements = report.lattice.elements
        nonweak = [b for b, k in zip(elements, report.classes) if k is not ColorClass.WEAK]
        tops = [b for b in nonweak if not any(b != c and refines(b, c) for c in nonweak)]
        split[len(tops) >= 2, report.nonweak_join_closed] += 1
    assert split[True, False] >= 20, split
    assert split[True, True] == 0, split


_SWAPPED = {
    ColorClass.STRONG: ColorClass.WEAK,
    ColorClass.ROOTED: ColorClass.ROOTED,
    ColorClass.WEAK: ColorClass.STRONG,
}


def _walk(report):
    """The three verdicts from every pair's join through join_rows, on the
    report's own classes."""
    names = [k.value for k in report.classes]
    general = matched = closed = True
    for i, row in enumerate(join_rows(report.lattice.up)):
        for j, jdx in enumerate(row, i):
            left, right, joined = names[i], names[j], names[jdx]
            general &= joined in join_allowed(left, right, strict=False)
            matched &= joined in join_allowed(left, right, strict=True)
            closed &= "weak" in (left, right) or joined != "weak"
    return general, matched if report.rooted_all_reach_matched else None, closed


def test_swapped_classes_give_the_walks_table_verdicts(monkeypatch):
    """With strong and weak swapped the classes are no longer monotone.
    The table verdicts still equal a pair walk over the same classes, and
    the non-weak closure reads False wherever a weak element lies below
    a non-weak one (the general table then fails as well)."""
    rng = random.Random(3132)
    nets = [random_network(rng, max_cells=6, num_types=1 + i % 2, weights=(0, 0, 0, 1))
            for i in range(100)]
    nets += [random_balanced_lift(rng, max_cells=7)[0] for _ in range(100)]
    real = classification.classify_partition
    monkeypatch.setattr(classification, "classify_partition",
                        lambda net, p: _SWAPPED[real(net, p)])
    seen = Counter()
    for net in nets:
        report = join_table_report(net)
        general, matched, closed = _walk(report)
        assert (report.general_table_ok, report.matched_table_ok) == (general, matched)
        nonweak = sum(1 << i for i, k in enumerate(report.classes) if k is not ColorClass.WEAK)
        weak_below_nonweak = any(
            k is ColorClass.WEAK and up & nonweak
            for up, k in zip(report.lattice.up, report.classes)
        )
        if weak_below_nonweak:
            assert not report.nonweak_join_closed and not general
        else:
            assert report.nonweak_join_closed == closed
        seen[general, weak_below_nonweak, closed] += 1
    assert seen[False, True, True] >= 20, seen
    assert seen[True, False, True] + seen[True, False, False] >= 5, seen


def test_down_set_classes_give_the_walks_verdicts(monkeypatch):
    """Classes with weak closed upward whose strong or non-weak elements
    may have two maxima: the elements below a or b are strong and those
    below c rooted, weak elsewhere.  Where c's down-set takes precedence,
    strong is no longer closed downward.  All three verdicts equal a pair
    walk over those classes."""
    rng = random.Random(3133)
    seen = Counter()
    for i in range(80):
        net = complete_graph(5) if i % 4 == 0 else _hub_variant(rng)
        elements = enumerate_balanced(net).elements
        a, b, c = (rng.choice(elements) for _ in range(3))
        rooted_first = i % 2 == 1

        def down_set_class(net, p, a=a, b=b, c=c, rooted_first=rooted_first):
            strong, rooted = refines(p, a) or refines(p, b), refines(p, c)
            if rooted and (rooted_first or not strong):
                return ColorClass.ROOTED
            return ColorClass.STRONG if strong else ColorClass.WEAK

        monkeypatch.setattr(classification, "classify_partition", down_set_class)
        report = join_table_report(net)
        assert _verdicts(report) == _walk(report)
        seen[rooted_first, report.general_table_ok, report.nonweak_join_closed] += 1
    for verdicts in ((False, False), (True, False), (True, True)):
        assert seen[(False, *verdicts)] >= 5, seen
    assert seen[True, False, True] >= 5, seen


class TestQuotientClassReport:
    def test_two_sources_weak_anchor(self):
        net = fixture_net("two_sources_pair")
        cert = is_balanced(net, parse_partition("12/3/4", net.cell_ids))
        report = quotient_class_report(net, cert)
        assert report.precondition_met
        got = {
            (e.class_in_base, e.class_in_quotient) for e in report.entries
        }
        assert got == {
            (ColorClass.WEAK, ColorClass.STRONG),
            (ColorClass.WEAK, ColorClass.ROOTED),
        }
        assert not report.violations

    def test_two_sources_rooted_anchor(self):
        net = fixture_net("two_sources_pair")
        cert = is_balanced(net, parse_partition("1/2/34", net.cell_ids))
        report = quotient_class_report(net, cert)
        assert report.precondition_met
        got = {
            (e.class_in_base, e.class_in_quotient) for e in report.entries
        }
        assert got == {
            (ColorClass.ROOTED, ColorClass.STRONG),
            (ColorClass.WEAK, ColorClass.WEAK),
        }
        assert not report.violations

    def test_trivial_anchor_maps_everything_to_itself(self):
        net = fixture_net("driven_chain")
        cert = is_balanced(net, Partition.trivial(4))
        report = quotient_class_report(net, cert)
        for e in report.entries:
            assert e.partition.colors == e.quotient_partition.colors
            assert e.class_in_base is e.class_in_quotient

    def test_unmet_precondition_still_reports(self):
        net = fixture_net("cancel_fan")
        cert = is_balanced(net, parse_partition("12/3/4", net.cell_ids))
        report = quotient_class_report(net, cert)
        if not report.precondition_met:
            assert report.entries
            assert not report.violations  # no verdicts asserted

    def test_no_forbidden_transitions_on_random_networks(self):
        rng = random.Random(371)
        for _ in range(30):
            net = random_network(rng, max_cells=6)
            for b in enumerate_balanced(net).elements:
                cert = is_balanced(net, b)
                report = quotient_class_report(net, cert)
                if report.precondition_met:
                    assert not report.violations


@pytest.mark.parametrize("monoid", ["int-add", "tropical-min"])
def test_quotient_report_matches_full_lattice_oracle(monoid):
    """Read from the quotient's lattice, the report has the entries, in the
    order, and the precondition that the full network's lattice gives."""
    rng = random.Random(f"quotient-report:{monoid}")
    nontrivial = 0
    for i in range(100):
        if i % 2 == 0:
            net = parse_network(reach_doc(rng, monoid))
        elif monoid == "int-add":
            net = random_balanced_lift(rng, max_cells=8)[0]
        else:
            net = random_network(rng, max_cells=7, num_types=1 + i // 2 % 2,
                                 weights=(1.0, 2.0, math.inf, math.inf, math.inf),
                                 monoid=TropicalMin())
        for b in enumerate_balanced(net).elements:
            cert = is_balanced(net, b)
            report = quotient_class_report(net, cert)
            assert (report.precondition_met, report.entries) == oracle_quotient_entries(net, cert)
            nontrivial += 1 < b.rank < net.n_cells
    assert nontrivial >= 40  # anchors with a quotient lattice of their own


def test_neighborhood_kind_validation():
    with pytest.raises(SynckitError):
        v_in_k(0)
    with pytest.raises(SynckitError):
        from synckit.classification import NeighborhoodKind

        NeighborhoodKind("n", k=2)


def reach_doc(rng, monoid):
    """Random document: any digraph, a multi-root DAG, or a chain listed sink first.

    Self-loops are mixed in, and so are parallel edges that fold to the
    monoid zero (+3 and -3 for int-add, "inf" for tropical-min) and so
    make no neighbor unless the pair already has an edge.
    """
    n = rng.randint(1, 9)
    shape = rng.choice(("any", "dag", "chain"))
    if shape == "chain":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif shape == "dag":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.25]
    pairs += [(i, i) for i in range(n) if rng.random() < 0.2]
    weights = (1, 2, -1) if monoid == "int-add" else (1, 2.5)
    cancelling = (3, -3) if monoid == "int-add" else ("inf",)
    edges = [(i, j, rng.choice(weights)) for i, j in pairs]
    for _ in range(rng.randint(0, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        edges += [(i, j, w) for w in cancelling]
    rng.shuffle(edges)
    order = reversed(range(n)) if shape == "chain" else range(n)
    return {
        "monoid": monoid,
        "cells": [{"id": f"c{i}", "type": 1 + i % 2} for i in order],
        "edges": [{"from": f"c{i}", "to": f"c{j}", "weight": w} for i, j, w in edges],
    }


@pytest.mark.parametrize("monoid", ["int-add", "tropical-min"])
def test_condensation_bitsets_match_frozenset_oracle(monoid):
    """Classes, rdc, reach matching and invariance against per-cell reach sets."""
    rng = random.Random(f"reach-bitsets:{monoid}")
    seen = Counter()
    for _ in range(150):
        net = parse_network(reach_doc(rng, monoid))
        n = net.n_cells
        reach = oracle_reach_sets(net)
        assert all_in_reachability(net) == reach
        assert tuple(in_reachability(net, c) for c in range(n)) == reach
        assert rdc_decomposition(net) == oracle_rdc(net, reach)
        for _ in range(4):
            ncolors = rng.randint(1, n)
            p = Partition.from_assignment(rng.randrange(ncolors) for _ in range(n))
            for block in p.blocks():
                assert classify_color(net, block).value == oracle_classify_color(reach, block)
            verdict = classify_partition(net, p).value
            assert verdict == oracle_classify_partition(reach, p)
            matched = is_matched(net, p, R_IN)
            assert matched == oracle_reach_matched(reach, p)
            seen[verdict] += 1
            seen[f"matched {matched}"] += 1
        cases = [(net, cir_balanced(net, random_type_refinement(rng, net)))]
        if monoid == "int-add":
            # planted blocks whose in-weights may sum to zero drop quotient edges
            cases.append(random_balanced_lift(rng, max_cells=8))
        for g, b in cases:
            cert = is_balanced(g, b)
            invariant = is_invariant(g, cert, R_IN)
            assert invariant == oracle_reach_invariant(g, cert, oracle_reach_sets(g))
            seen[f"invariant {invariant}"] += 1
    # every verdict occurs, so no branch is compared only vacuously
    expected = {"strong", "rooted", "weak", "matched True", "matched False", "invariant True"}
    if monoid == "int-add":
        expected.add("invariant False")
    assert expected <= set(seen), seen


def oracle_hoods(net, kind):
    """Each cell's neighborhood of the given kind, as a set from the set oracles."""
    if kind.name == "n":
        return [in_neighborhood(net, c) for c in range(net.n_cells)]
    if kind.name == "v":
        return [cumulative_in(net, c) for c in range(net.n_cells)]
    return [oracle_in_ball(net, c, kind.k) for c in range(net.n_cells)]  # k None: any length


@pytest.mark.parametrize("monoid", ["int-add", "tropical-min"])
def test_neighborhood_bitsets_match_set_oracles(monoid):
    """Matching and invariance for N, V, V^1 .. V^(n+1) and R against the
    colors met by set neighborhoods, on networks with self-loops and
    parallel edges that fold to the monoid zero."""
    rng = random.Random(f"hood-sets:{monoid}")
    seen = set()
    for trial in range(80):
        if trial % 4 == 3 and monoid == "int-add":
            # planted blocks whose in-weights may sum to zero drop quotient edges
            net, planted = random_balanced_lift(rng, max_cells=8)
        else:
            net = parse_network(reach_doc(rng, monoid))
            planted = cir_balanced(net, random_type_refinement(rng, net))
        n = net.n_cells
        partitions = [
            Partition.from_assignment(rng.randrange(rng.randint(1, n)) for _ in range(n))
            for _ in range(3)
        ]
        cert = is_balanced(net, planted)
        for kind in (N_IN, V_IN, *map(v_in_k, range(1, n + 2)), R_IN):
            hoods = oracle_hoods(net, kind)
            for p in partitions:
                met = {(k, colors_met(p, hood)) for k, hood in zip(p.colors, hoods)}
                matched = is_matched(net, p, kind)
                assert matched == (len(met) == p.rank), (kind, p)
                seen.add((kind.name, "matched", matched))
            p = cert.partition
            quotient_hoods = oracle_hoods(oracle_quotient(net, p), kind)
            invariant = is_invariant(net, cert, kind)
            assert invariant == all(
                colors_met(p, hoods[c]) == quotient_hoods[k] for c, k in enumerate(p.colors)
            ), (kind, p)
            seen.add((kind.name, "invariant", invariant))
    # both verdicts occur for every kind, so no kind is compared only
    # vacuously; a min of weights is never the zero, so a tropical quotient
    # drops no edge and every tropical partition is invariant
    checks = ("matched", "invariant") if monoid == "int-add" else ("matched",)
    want = {(name, check, verdict) for name in ("n", "v", "vk", "r")
            for check in checks for verdict in (True, False)}
    assert want <= seen, want - seen


def test_reach_consumers_stay_small_on_a_deep_chain():
    """Reach-based calls on a 2000-cell chain keep no per-cell reach sets.

    Frozenset reach sets hold about n^2 / 2 entries here; color bitsets
    on the condensation stay linear in the number of blocks.
    """
    n = 2000
    net = parse_network({
        "cells": [{"id": f"c{i}", "type": 1} for i in reversed(range(n))],
        "edges": [{"from": f"c{i}", "to": f"c{i + 1}", "weight": 1} for i in range(n - 1)],
    })
    trivial = Partition.trivial(n)
    tracemalloc.start()
    try:
        assert classify_partition(net, trivial) is ColorClass.STRONG
        assert is_matched(net, trivial, R_IN)
        assert rdc_decomposition(net) == one_color(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
