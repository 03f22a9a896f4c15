"""The library's record types keep value semantics.

Each public record is built twice from separate computations: equal
fields give equal objects with equal hashes, and no field can be
assigned.  The types whose constructors check their input still refuse
what they refused before.
"""

import pytest

from synckit.classification import (
    NeighborhoodKind,
    R_IN,
    join_table_report,
    quotient_class_report,
    v_in_k,
)
from synckit.connectivity import condensation
from synckit.dynamics import (
    check_invariance,
    check_locality,
    check_subsystem,
    evolve,
    sample_admissible,
)
from synckit.errors import SynckitError
from synckit.monoid import IntegerAdd, TropicalMin, monoid_by_name
from synckit.network import Network, parse_network
from synckit.partition import Partition, parse_partition
from synckit.synchrony import enumerate_balanced, is_balanced

from conftest import fixture_net
from oracles import from_edges


def _cert():
    net = fixture_net("two_roots")
    return is_balanced(net, enumerate_balanced(net).elements[0])


def _spec():
    return sample_admissible(fixture_net("triangle"), 3)


RECORDS = {
    "IntegerAdd": IntegerAdd,
    "TropicalMin": TropicalMin,
    "Network": lambda: fixture_net("two_roots"),
    "Partition": lambda: parse_partition("12/3", ("1", "2", "3")),
    "Condensation": lambda: condensation(fixture_net("two_roots")),
    "BalancedCertificate": _cert,
    "BalancedLattice": lambda: enumerate_balanced(fixture_net("two_roots")),
    "NeighborhoodKind": lambda: v_in_k(2),
    "JoinTableReport": lambda: join_table_report(fixture_net("two_roots")),
    "QuotientClassReport": lambda: quotient_class_report(fixture_net("two_roots"), _cert()),
    "QuotientClassEntry": lambda: quotient_class_report(
        fixture_net("two_roots"), _cert()).entries[0],
    "AdmissibleFunctionSpec": _spec,
    "Trajectory": lambda: evolve(fixture_net("triangle"), _spec(), (0.1, 0.2, 0.3), 4),
    "InvarianceReport": lambda: check_invariance(
        fixture_net("triangle"), _spec(), Partition((0, 0, 1)), trials=2, steps=4),
    "TrialResult": lambda: check_invariance(
        fixture_net("triangle"), _spec(), Partition((0, 0, 1)), trials=1, steps=4).trials[0],
    "LocalityReport": lambda: check_locality(fixture_net("chain4"), _spec(), 3, 1, trials=2),
    "LocalityTrial": lambda: check_locality(fixture_net("chain4"), _spec(), 3, 1).trials[0],
    "ComparisonReport": lambda: check_subsystem(fixture_net("chain4"), _spec(), 3, steps=4),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_objects(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    field = getattr(record, "_fields", ("kind",))[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_monoids_are_equal_by_type():
    assert IntegerAdd() == monoid_by_name("int-add") != TropicalMin()
    assert hash(IntegerAdd()) == hash(IntegerAdd())
    assert len({IntegerAdd(), IntegerAdd(), TropicalMin()}) == 2


def test_network_built_in_code_equals_the_parsed_one():
    built = from_edges(("a", "b"), (1, 1), [(1, 0, 2)], IntegerAdd())
    parsed = parse_network({
        "cells": [{"id": "a", "type": 1}, {"id": "b", "type": 1}],
        "edges": [{"from": "a", "to": "b", "weight": 2}],
    })
    assert built == parsed and hash(built) == hash(parsed)
    assert built != from_edges(("a", "b"), (1, 1), [(1, 0, 2)], TropicalMin())
    assert fixture_net("chain4") == parse_network({
        "cells": [{"id": c, "type": 1} for c in "1234"],
        "edges": [{"from": d, "to": c, "weight": 1} for d, c in ("12", "23", "34")],
    })


def test_partition_checks_canonical_form_and_from_assignment_does_not():
    with pytest.raises(ValueError, match="canonical form"):
        Partition((1, 0))
    with pytest.raises(ValueError, match="canonical form"):
        Partition([0, 1])  # only a tuple is canonical
    assert Partition.from_assignment((1, 0)) == Partition((0, 1))
    assert Partition(colors=(0, 1, 0)).rank == 2


@pytest.mark.parametrize("name, k, message", [
    ("x", None, "unknown neighborhood kind 'x'"),
    ("vk", None, "needs k >= 1"),
    ("vk", 0, "needs k >= 1"),
    ("r", 2, "kind 'r' takes no k"),
])
def test_bad_neighborhood_kinds_are_refused(name, k, message):
    with pytest.raises(SynckitError, match=message):
        NeighborhoodKind(name, k)


def test_record_defaults_hold():
    assert NeighborhoodKind("r") == R_IN and R_IN.k is None
    assert evolve(fixture_net("triangle"), _spec(), (0.1, 0.2, 0.3), 1).dt is None
