import ast
import inspect
import marshal
import math
import os
import random
import sys
import threading
import time
import tracemalloc

import pytest

import synckit.dynamics
from synckit.dynamics import (
    AdmissibleFunctionSpec,
    CouplingParams,
    SelfParams,
    check_invariance,
    check_locality,
    check_quotient_consistency,
    check_subsystem,
    component_value,
    evaluate,
    evolve,
    expand_state,
    sample_admissible,
)
from synckit.errors import NumericalBlowup, PartitionDomainMismatch, SynckitError, UnsupportedMonoid
from synckit.connectivity import cumulative_in_k, in_reachability
from synckit.monoid import IntegerAdd, TropicalMin
from synckit.network import parse_network
from synckit.partition import Partition, join, parse_partition, refines
from synckit.synchrony import cir_balanced, enumerate_balanced, is_balanced

from conftest import fixture_net
from oracles import (
    edges_of,
    eval_on_neighborhood,
    from_matrix,
    in_polydiagonal,
    numeric_verdict,
    one_color,
    oracle_eval_on_neighborhood,
    oracle_evaluate,
    oracle_evolve,
    oracle_type_refining,
    random_balanced_lift,
    random_network,
    random_type_refinement,
    ring_lift_doc,
)


def decoupled(n=3):
    return from_matrix(
        tuple(str(i + 1) for i in range(n)),
        (1,) * n,
        tuple(tuple(0 for _ in range(n)) for _ in range(n)),
        IntegerAdd(),
    )


# a(x) = -0.0 for x < 0 and h(x, y) = y + (-0.0) + (-0.0) near y = 0, so the
# result's sign shows whether a zero state was read as 0.0 or -0.0, and
# whether a zero-sum group was added as 0 * h(x, y) = +0.0
SIGNED_ZERO = AdmissibleFunctionSpec(
    0, False, 1,
    (SelfParams(-0.0, 0.0, 0.0, 1.0, 0.0),),
    ((CouplingParams(1.0, 0.0, 1.0, -1.0, 0.0, 0.0, 1.0, -1.0),),),
)


class TestSampling:
    def test_deterministic_in_seed(self, triangle):
        assert sample_admissible(triangle, 5) == sample_admissible(triangle, 5)
        assert sample_admissible(triangle, 5) != sample_admissible(triangle, 6)

    def test_rejects_non_integer_monoid(self):
        net = from_matrix(("a",), (1,), ((math.inf,),), TropicalMin())
        with pytest.raises(UnsupportedMonoid):
            sample_admissible(net, 0)

    def test_rejects_weights_beyond_float_range(self):
        net = from_matrix(("a",), (1,), ((10**400,),), IntegerAdd())
        with pytest.raises(UnsupportedMonoid):
            sample_admissible(net, 0)

    def test_same_rows_same_components(self, triangle):
        # cells 1 and 2 have identical types and in-rows, so on any state
        # with x1 == x2 their components agree exactly
        spec = sample_admissible(triangle, 12)
        x = (0.37, 0.37, -1.12)
        y = evaluate(triangle, spec, x)
        assert y[0] == y[1]

    def test_zero_adjacency_decouples(self):
        net = decoupled()
        spec = sample_admissible(net, 3)
        x = (0.1, -0.5, 2.2)
        y = evaluate(net, spec, x)
        for c in range(3):
            alone = eval_on_neighborhood(spec, 1, x[c], [])
            assert y[c] == alone


class TestOracleLaws:
    def test_permutation_invariance(self):
        net = fixture_net("two_roots")
        rng = random.Random(0)
        generic = [(1, rng.choice([1, 2, -1]), rng.uniform(-1, 1)) for _ in range(6)]
        # under SIGNED_ZERO the result is a zero whose sign would show which
        # zero a merged group read
        zeros = [(1, 1, 0.0), (1, 2, -0.0), (1, -1, -0.0), (1, 1, 0.5), (1, -1, 0.5),
                 (1, 3, 0.0)]
        for spec, x_self, inputs in [
            (sample_admissible(net, 1), 0.3, generic), (SIGNED_ZERO, -1.0, zeros),
        ]:
            base = eval_on_neighborhood(spec, 1, x_self, inputs)
            for _ in range(10):
                shuffled = inputs[:]
                rng.shuffle(shuffled)
                assert bits([eval_on_neighborhood(spec, 1, x_self, shuffled)]) == bits([base])

    def test_merging_same_state_inputs(self):
        net = fixture_net("two_roots")
        spec = sample_admissible(net, 2)
        state = 0.754
        split = [(1, 2, state), (1, 3, state), (1, 1, -0.2)]
        merged = [(1, 5, state), (1, 1, -0.2)]
        assert eval_on_neighborhood(spec, 1, 0.1, split) == eval_on_neighborhood(
            spec, 1, 0.1, merged
        )

    def test_zero_weight_inputs_are_invisible(self):
        net = fixture_net("two_roots")
        spec = sample_admissible(net, 3)
        with_zero = [(1, 0, 0.9), (1, 2, -0.4)]
        without = [(1, 2, -0.4)]
        assert eval_on_neighborhood(spec, 1, 0.0, with_zero) == eval_on_neighborhood(
            spec, 1, 0.0, without
        )

    def test_cancelling_pair_equals_absent_sender(self):
        net = fixture_net("two_roots")
        spec = sample_admissible(net, 4)
        pair = [(1, 1, 0.5), (1, -1, 0.5), (1, 2, -0.3)]
        gone = [(1, 2, -0.3)]
        assert eval_on_neighborhood(spec, 1, 0.2, pair) == eval_on_neighborhood(
            spec, 1, 0.2, gone
        )


class TestExoFamily:
    def test_self_loop_invisible(self, triangle):
        spec = sample_admissible(triangle, 9, exo=True)
        import json

        from conftest import fixture_path

        doc = json.load(open(fixture_path("triangle")))
        doc["edges"] = doc["edges"] + [{"from": "2", "to": "2", "weight": 3}]
        looped = parse_network(doc)
        x0 = (0.4, -0.8, 1.3)
        a = evolve(triangle, spec, x0, 25)
        b = evolve(looped, spec, x0, 25)
        assert a.states == b.states

    def test_same_state_sender_ignored(self, triangle):
        spec = sample_admissible(triangle, 10, exo=True)
        x = 0.62
        with_same = [(1, 4, x), (2, 1, -0.3)]
        without = [(2, 1, -0.3)]
        assert eval_on_neighborhood(spec, 1, x, with_same) == eval_on_neighborhood(
            spec, 1, x, without
        )


class TestEvolve:
    def test_zero_steps(self, triangle):
        spec = sample_admissible(triangle, 0)
        x0 = (0.0, 0.5, 1.0)
        traj = evolve(triangle, spec, x0, 0)
        assert traj.states == (x0,)

    def test_identity_selfmap_fixed_point(self):
        # hand-built spec: a(x) = x, no coupling terms
        spec = AdmissibleFunctionSpec(
            0,
            False,
            1,
            (SelfParams(0.0, 1.0, 0.0, 1.0, 0.0),),
            ((CouplingParams(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0),),),
        )
        net = decoupled()
        traj = evolve(net, spec, (0.3, -0.1, 0.9), 10)
        assert all(s == traj.states[0] for s in traj.states)

    def test_blowup_guard(self):
        spec = AdmissibleFunctionSpec(
            0,
            False,
            1,
            (SelfParams(0.0, 1e7, 0.0, 1.0, 0.0),),
            ((CouplingParams(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0),),),
        )
        with pytest.raises(NumericalBlowup):
            evolve(decoupled(), spec, (1.0, 1.0, 1.0), 10)

    def test_rk4_stage_overflow_is_a_blowup(self, triangle):
        # the third stage state is infinite; sin(inf) would raise ValueError
        spec = sample_admissible(triangle, 0)
        with pytest.raises(NumericalBlowup, match="RK4 stage state"):
            evolve(triangle, spec, (0.1, 0.2, 0.3), 1, mode="rk4", dt=1e300)

    def test_bad_initial_state_length(self, triangle):
        spec = sample_admissible(triangle, 0)
        with pytest.raises(SynckitError):
            evolve(triangle, spec, (0.0,), 1)

    def test_rk4_grid(self, triangle):
        spec = sample_admissible(triangle, 0)
        traj = evolve(triangle, spec, (0.0, 0.0, 0.0), 5, mode="rk4", dt=1e-2)
        assert traj.times[1] == pytest.approx(1e-2)
        assert len(traj.states) == 6


def test_unknown_mode_is_refused_before_any_step(triangle):
    # an unknown mode must not fall back to RK4 and report a verdict
    spec = sample_admissible(triangle, 0)
    cert = is_balanced(triangle, parse_partition("12/3", triangle.cell_ids))
    calls = [
        lambda: evolve(triangle, spec, (0.0, 0.0, 0.0), 0, mode="bogus"),
        lambda: check_invariance(triangle, spec, Partition.trivial(3), trials=1, steps=2,
                                 mode="bogus"),
        lambda: check_invariance(triangle, spec, Partition.trivial(3), trials=0, mode="bogus"),
        lambda: check_subsystem(triangle, spec, 0, trials=0, mode="bogus"),
        lambda: check_subsystem(triangle, spec, 0, trials=1, steps=2, mode="bogus"),
        lambda: check_quotient_consistency(triangle, spec, cert, trials=0, mode="bogus"),
        lambda: check_quotient_consistency(triangle, spec, cert, trials=1, steps=2,
                                           mode="bogus"),
    ]
    for call in calls:
        with pytest.raises(SynckitError, match="unknown mode 'bogus'"):
            call()


_CHAIN_ALL = one_color(4)  # not balanced on the chain: a real run is not invariant
_VACUOUS = {
    "invariance-trials-0": lambda net, spec: check_invariance(net, spec, _CHAIN_ALL, trials=0),
    "invariance-steps-0": lambda net, spec: check_invariance(net, spec, _CHAIN_ALL, steps=0),
    "invariance-rk4-dt-0": lambda net, spec: check_invariance(
        net, spec, _CHAIN_ALL, mode="rk4", dt=0.0),
    "invariance-dt-nan": lambda net, spec: check_invariance(net, spec, _CHAIN_ALL, dt=math.nan),
    "invariance-tol-negative": lambda net, spec: check_invariance(
        net, spec, _CHAIN_ALL, tol=-1.0),
    "invariance-tol-inf": lambda net, spec: check_invariance(
        net, spec, _CHAIN_ALL, tol=math.inf),
    "subsystem-steps-0": lambda net, spec: check_subsystem(net, spec, 3, steps=0),
    "invariance-tol-nan": lambda net, spec: check_invariance(
        net, spec, _CHAIN_ALL, tol=math.nan),
    "quotient-trials-0": lambda net, spec: check_quotient_consistency(
        net, spec, is_balanced(net, Partition.trivial(4)), trials=0),
    "locality-trials-0": lambda net, spec: check_locality(net, spec, 3, 2, trials=0),
    "evolve-steps-minus-5": lambda net, spec: evolve(net, spec, (0.1,) * 4, -5),
    "evolve-steps-minus-1": lambda net, spec: evolve(net, spec, (0.1,) * 4, -1),
    "evolve-dt-inf": lambda net, spec: evolve(net, spec, (0.1,) * 4, 1, mode="rk4",
                                              dt=math.inf),
}


@pytest.mark.parametrize("call", _VACUOUS.values(), ids=_VACUOUS.keys())
def test_vacuous_runs_are_refused(chain4, call):
    """No trials, no steps, a step size that never moves the state or a
    tolerance no comparison meets is an error, never a passing verdict."""
    spec = sample_admissible(chain4, 0)
    assert not check_invariance(chain4, spec, _CHAIN_ALL).invariant
    with pytest.raises(SynckitError):
        call(chain4, spec)


class TestPartitionDomain:
    """A partition on another number of cells than the network's is refused."""

    def test_check_invariance(self, triangle):
        spec = sample_admissible(triangle, 1)
        for p in (Partition.from_assignment((0, 0, 1, 1)), Partition.from_assignment((0, 0))):
            with pytest.raises(PartitionDomainMismatch):
                check_invariance(triangle, spec, p, trials=2, steps=3)

    def test_check_quotient_consistency(self, triangle, chain4):
        cert = is_balanced(chain4, Partition.trivial(4))
        with pytest.raises(PartitionDomainMismatch):
            check_quotient_consistency(triangle, sample_admissible(triangle, 1), cert, trials=2)


class TestInvariance:
    def test_balanced_partitions_have_zero_spread(self, any_fixture):
        net = any_fixture
        for cert_p in enumerate_balanced(net).elements:
            for seed in (0, 1):
                spec = sample_admissible(net, seed)
                report = check_invariance(net, spec, cert_p, trials=3, steps=60)
                assert report.invariant
                assert report.max_spread == 0.0

    def test_aborted_trials_are_not_evidence(self, chain4):
        # a huge RK4 step trips the overflow guard before any spread is seen
        p = one_color(4)  # not balanced on the chain
        spec = sample_admissible(chain4, 0)
        report = check_invariance(chain4, spec, p, trials=3, steps=5, mode="rk4", dt=1e13)
        assert report.max_spread == 0.0
        assert report.aborted_trials == 3
        assert not report.invariant

    def test_trivial_partition_vacuous(self, triangle):
        spec = sample_admissible(triangle, 1)
        report = check_invariance(triangle, spec, Partition.trivial(3), trials=2, steps=10)
        assert report.max_spread == 0.0

    def test_non_balanced_partitions_are_falsified(self):
        rng = random.Random(400)
        found = 0
        while found < 12:
            net = random_network(rng, max_cells=5)
            p = random_type_refinement(rng, net)
            if p.rank == net.n_cells or is_balanced(net, p) is not None:
                continue
            found += 1
            assert not numeric_verdict(net, p, seeds=8, trials=5, steps=100, tol=1e-3)

    def test_joint_invariance_of_passing_pairs(self):
        # two invariant partitions stay invariant after a join
        net = fixture_net("twin_cycles_hub")
        lattice = enumerate_balanced(net)
        spec = sample_admissible(net, 5)
        passing = [
            b for b in lattice.elements
            if check_invariance(net, spec, b, trials=2, steps=40).invariant
        ]
        for a in passing:
            for b in passing:
                joined = join(a, b)
                report = check_invariance(net, spec, joined, trials=2, steps=40)
                assert report.invariant


class TestPolydiagonals:
    def test_membership_and_expand(self):
        p = parse_partition("12/3", ("1", "2", "3"))
        x = expand_state((0.5, -1.0), p)
        assert x == (0.5, 0.5, -1.0)
        assert in_polydiagonal(x, p)
        assert not in_polydiagonal((0.5, 0.6, -1.0), p)

    def test_order_via_membership(self):
        # a <= b exactly when every state on b's polydiagonal lies on a's;
        # generic sampling separates the colors in the non-refining case
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(2, 6)
            a = Partition.from_assignment([rng.randint(0, 2) for _ in range(n)])
            b = Partition.from_assignment([rng.randint(0, 2) for _ in range(n)])
            contained = all(
                in_polydiagonal(
                    expand_state(tuple(rng.uniform(-2, 2) for _ in range(b.rank)), b), a
                )
                for _ in range(12)
            )
            assert contained == refines(a, b)

    def test_join_polydiagonal_is_intersection(self):
        rng = random.Random(78)
        for _ in range(40):
            n = rng.randint(2, 6)
            a = Partition.from_assignment([rng.randint(0, 2) for _ in range(n)])
            b = Partition.from_assignment([rng.randint(0, 2) for _ in range(n)])
            j = join(a, b)
            for _ in range(15):
                x = tuple(rng.choice([-0.5, 0.25, 1.0]) for _ in range(n))
                lhs = in_polydiagonal(x, j)
                rhs = in_polydiagonal(x, a) and in_polydiagonal(x, b)
                assert lhs == rhs


class TestLocality:
    def test_chain_outside_perturbation(self, chain4):
        spec = sample_admissible(chain4, 1)
        report = check_locality(chain4, spec, 2, 2, trials=5)
        assert report.all_agreed

    def test_k_zero_everything_else_irrelevant(self, chain4):
        spec = sample_admissible(chain4, 2)
        report = check_locality(chain4, spec, 3, 0, trials=5)
        assert report.all_agreed

    def test_inside_perturbation_shows_up(self, chain4):
        """Bumping the cells inside the 2-step cone of cell 3 moves x_3 by step 2."""
        spec = sample_admissible(chain4, 3)
        inside = sorted(cumulative_in_k(chain4, 2, 2) - {2})
        assert inside == [0, 1]
        moved = 0
        for t in range(8):
            rng = random.Random(f"locality:0:{t}")
            x0 = tuple(rng.uniform(-1.5, 1.5) for _ in range(chain4.n_cells))
            bumped = list(x0)
            for d in inside:
                bumped[d] += rng.uniform(0.1, 1.0)
            base = evolve(chain4, spec, x0, 2).states
            other = evolve(chain4, spec, tuple(bumped), 2).states
            moved += any(x[2] != y[2] for x, y in zip(base, other))
        assert moved

    def test_all_fixture_cells_small_k(self, any_fixture):
        net = any_fixture
        spec = sample_admissible(net, 4)
        for c in range(net.n_cells):
            for k in range(0, 4):
                assert check_locality(net, spec, c, k, trials=2).all_agreed


@pytest.mark.parametrize("check", ["locality", "subsystem", "quotient"])
def test_no_check_holds_an_orbit(chain4, triangle, check):
    """A check compares its two orbits as they run, so after warm-up its
    tracemalloc peak at 4k steps is its peak at k, where holding either
    orbit would take (4k + 1) states against k + 1."""
    if check == "quotient":
        cert = is_balanced(triangle, parse_partition("12/3", triangle.cell_ids))
        spec = sample_admissible(triangle, 9)
        run = lambda steps: check_quotient_consistency(triangle, spec, cert, trials=1, steps=steps)
    elif check == "subsystem":
        spec = sample_admissible(chain4, 0)
        run = lambda steps: check_subsystem(chain4, spec, 3, trials=1, steps=steps)
    else:
        spec = sample_admissible(chain4, 0)
        run = lambda steps: check_locality(chain4, spec, 2, steps, trials=1)
    k = 500
    run(4 * k)
    report = run(4 * k)  # one-time allocations, and the free lists filled for the longest run
    assert report.all_agreed if check == "locality" else report.exact
    assert counted_work(lambda: run(k))  # both orbits step: locality's cell 4 is bumped
    peaks = []
    for steps in (k, k, 4 * k):  # a process's first traced run carries a few bytes once
        tracemalloc.start()
        try:
            run(steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] == peaks[1]


def test_only_evolve_holds_an_orbit():
    """An _orbit collected into a list or tuple sits only in evolve, which
    returns the whole trajectory; the checks stream theirs."""
    tree = ast.parse(inspect.getsource(synckit.dynamics))
    holders = [
        func.name for func in tree.body if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("list", "tuple")
        and any(isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "_orbit"
                for arg in node.args)
    ]
    assert holders == ["evolve"]


class TestSubsystem:
    def test_source_cell_alone(self, chain4):
        spec = sample_admissible(chain4, 5)
        report = check_subsystem(chain4, spec, 0, trials=3, steps=30)
        assert report.exact

    def test_two_roots_shared_sink(self, two_roots):
        spec = sample_admissible(two_roots, 6)
        report = check_subsystem(two_roots, spec, 3, trials=3, steps=30)
        assert report.exact

    def test_root_scc_restriction(self, two_roots):
        spec = sample_admissible(two_roots, 7)
        assert sorted(in_reachability(two_roots, 0)) == [0, 1, 2]
        report = check_subsystem(two_roots, spec, 0, trials=3, steps=30)
        assert report.exact

    def test_rk4_mode_is_exact(self, chain4):
        spec = sample_admissible(chain4, 8)
        report = check_subsystem(chain4, spec, 3, trials=1, steps=100, mode="rk4")
        assert report.max_deviation == 0.0 and report.exact


class TestQuotientConsistency:
    def test_triangle_quotient(self, triangle):
        cert = is_balanced(triangle, parse_partition("12/3", triangle.cell_ids))
        spec = sample_admissible(triangle, 9)
        report = check_quotient_consistency(triangle, spec, cert, trials=3, steps=40)
        assert report.exact

    def test_trivial_quotient_identical(self, any_fixture):
        net = any_fixture
        cert = is_balanced(net, Partition.trivial(net.n_cells))
        spec = sample_admissible(net, 10)
        report = check_quotient_consistency(net, spec, cert, trials=2, steps=30)
        assert report.exact

    def test_exo_spec_on_exo_only_partition(self):
        # single-color pair is exo-balanced but not balanced: the exo family
        # still keeps the polydiagonal invariant
        net = fixture_net("edge_pair")
        one = parse_partition("12", net.cell_ids)
        assert is_balanced(net, one) is None
        for seed in range(5):
            spec = sample_admissible(net, seed, exo=True)
            report = check_invariance(net, spec, one, trials=4, steps=60)
            assert report.max_spread <= 1e-9


class TestExoCrossCheck:
    def test_small_networks_agree(self):
        rng = random.Random(500)
        from synckit.synchrony import is_exo_balanced

        for _ in range(12):
            net = random_network(rng, max_cells=4)
            for p in oracle_type_refining(net):
                combinatorial = is_exo_balanced(net, p)
                numerical = numeric_verdict(net, p, seeds=3, trials=3, steps=30, exo=True)
                assert combinatorial == numerical


def bits(values):
    """Exact float identity: 0.0 and -0.0 differ here, unlike under ==."""
    return [float.hex(v) for v in values]


def random_doc_network(rng):
    """Seeded network with 1-3 types, self-loops, parallel and cancelling edges."""
    n = rng.randint(1, 6)
    k = rng.randint(1, min(3, n))
    types = list(range(1, k + 1)) + [rng.randint(1, k) for _ in range(n - k)]
    rng.shuffle(types)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        edge = {"from": str(rng.randint(1, n)), "to": str(rng.randint(1, n)),
                "weight": rng.choice([-2, -1, 1, 1, 2, 3])}
        edges.append(edge)
        extra = rng.random()
        if extra < 0.2:
            edges.append(dict(edge))
        elif extra < 0.4:
            edges.append(dict(edge, weight=-edge["weight"]))
    cells = [{"id": str(i + 1), "type": t} for i, t in enumerate(types)]
    return parse_network({"cells": cells, "edges": edges})


def random_states(rng, n):
    """A generic state, one whose cells share a few values, 0.0 and -0.0 among
    them, and one whose cells share a few nonzero values; an orbit from
    either of the last two evaluates one cell per synchronized class."""
    pool = [0.0, -0.0, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
    yield tuple(rng.uniform(-1.5, 1.5) for _ in range(n))
    yield tuple(rng.choice(pool) for _ in range(n))
    # drawn apart from rng, so every case drawn after this one stays as it was
    local = random.Random(repr(pool))
    yield tuple(local.choice(pool[2:]) for _ in range(n))


class TestKernelMatchesDictFold:
    """The compiled push kernel gives the dict fold's bits exactly."""

    def test_evaluate_on_seeded_networks(self):
        rng = random.Random(800)
        for _ in range(150):
            net = random_doc_network(rng)
            for exo in (False, True):
                spec = sample_admissible(net, rng.randrange(1000), exo=exo)
                for x in random_states(rng, net.n_cells):
                    want = bits(oracle_evaluate(net, spec, x))
                    assert bits(evaluate(net, spec, x)) == want
                    got = [component_value(net, spec, x, c) for c in range(net.n_cells)]
                    assert bits(got) == want

    def test_explicit_neighborhoods(self):
        # repeated senders of one type and state, cancelling pairs, and
        # types that share a state
        rng = random.Random(801)
        net = parse_network({"cells": [{"id": str(t), "type": t} for t in (1, 2, 3)]})
        for _ in range(300):
            spec = sample_admissible(net, rng.randrange(1000), exo=rng.random() < 0.5)
            pool = [0.0, -0.0, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
            inputs = []
            for _ in range(rng.randint(0, 8)):
                entry = (rng.randint(1, 3), rng.choice([-2, -1, 1, 2]), rng.choice(pool))
                inputs.append(entry)
                if rng.random() < 0.3:
                    inputs.append((entry[0], -entry[1], entry[2]))
            cell_type = rng.randint(1, 3)
            x_self = rng.choice(pool)
            got = eval_on_neighborhood(spec, cell_type, x_self, inputs)
            want = oracle_eval_on_neighborhood(spec, cell_type, x_self, inputs)
            assert bits([got]) == bits([want])

    @pytest.mark.parametrize("inputs, sign", [
        # a group of zero states reads 0.0, whatever its senders' signs,
        # order and weights; a zero-sum group is skipped, so the intrinsic
        # term's -0.0 stands
        ([(1, 1, 0.0), (1, 1, -0.0)], "0x0.0p+0"),
        ([(1, 1, -0.0), (1, 1, 0.0)], "0x0.0p+0"),
        ([(1, 2, -0.0), (1, 1, 0.0)], "0x0.0p+0"),
        ([(1, 3, 0.0), (1, 1, -0.0)], "0x0.0p+0"),
        ([(1, 1, 0.5), (1, -1, 0.5)], "-0x0.0p+0"),
        ([(1, 2, 0.5), (1, -1, 0.5), (1, -1, 0.5), (1, 1, -0.0)], "0x0.0p+0"),
        ([(1, 1, -0.0)], "0x0.0p+0"),
        ([(1, 1, -0.0), (1, -1, 0.0)], "-0x0.0p+0"),
    ])
    def test_signed_zero_groups(self, inputs, sign):
        want = oracle_eval_on_neighborhood(SIGNED_ZERO, 1, -1.0, inputs)
        assert float.hex(want) == sign
        assert float.hex(eval_on_neighborhood(SIGNED_ZERO, 1, -1.0, inputs)) == sign

    @pytest.mark.parametrize("mode, steps, dt", [("discrete", 15, 1e-3), ("rk4", 6, 0.05)])
    def test_evolve_matches_oracle_loop(self, mode, steps, dt):
        rng = random.Random(f"evolve:{mode}")
        for _ in range(40):
            net = random_doc_network(rng)
            for exo in (False, True):
                spec = sample_admissible(net, rng.randrange(1000), exo=exo)
                for x0 in random_states(rng, net.n_cells):
                    traj = evolve(net, spec, x0, steps, mode=mode, dt=dt)
                    want = oracle_evolve(net, spec, x0, steps, mode=mode, dt=dt)
                    assert [bits(s) for s in traj.states] == [bits(s) for s in want]


def unbalanced_refinement(rng, net):
    """A random type-refining partition that is not balanced, or None after a few draws."""
    for _ in range(10):
        p = random_type_refinement(rng, net)
        if is_balanced(net, p) is None:
            return p
    return None


class TestLumpedOrbits:
    """An orbit whose start has equal cell states evaluates one cell per class
    of the coarsest balanced refinement of that start, with the full map's bits."""

    @pytest.mark.parametrize("mode, steps, dt", [("discrete", 15, 1e-3), ("rk4", 6, 0.05)])
    def test_polydiagonal_starts_match_oracle_loop(self, mode, steps, dt):
        rng = random.Random(f"lumped:{mode}")
        strict = 0
        for _ in range(60):
            net = random_doc_network(rng)
            starts = [cir_balanced(net, net.type_partition()), unbalanced_refinement(rng, net)]
            for p in filter(None, starts):
                x0 = expand_state(tuple(rng.uniform(-1.5, 1.5) for _ in range(p.rank)), p)
                strict += cir_balanced(net, p) != p
                for exo in (False, True):
                    spec = sample_admissible(net, rng.randrange(1000), exo=exo)
                    traj = evolve(net, spec, x0, steps, mode=mode, dt=dt)
                    want = oracle_evolve(net, spec, x0, steps, mode=mode, dt=dt)
                    assert [bits(s) for s in traj.states] == [bits(s) for s in want]
        assert strict >= 10  # starts whose classes strictly refine them

    @pytest.mark.parametrize("mode", ["discrete", "rk4"])
    def test_zero_reached_mid_orbit_stays_lumped(self, monkeypatch, mode):
        # a hears p1 before m2 and b hears m1 before p2, with swapped weights,
        # so a and b share a class.  The map evaluates one cell per class: one
        # sine per source class, and one for a plus two per group of its
        # inputs; every cell would take 14 sines per map call with two groups
        # and 10 with one.
        cells = ["p1", "m1", "p2", "m2", "a", "b"]
        edges = [("p1", "a", 1), ("m2", "a", 2), ("m1", "b", 2), ("p2", "b", 1)]
        net = parse_network({
            "cells": [{"id": c, "type": 1} for c in cells],
            "edges": [{"from": d, "to": c, "weight": w} for d, c, w in edges],
        })
        calls = []
        monkeypatch.setattr(synckit.dynamics, "sin", lambda v: calls.append(v) or math.sin(v))

        def sines_to_step(x0, k):
            calls.clear()
            evolve(net, SIGNED_ZERO, x0, k, mode=mode, dt=0.5)
            return len(calls)

        starts = {
            # in discrete mode the sources map to 0.0 (p1, p2) and -0.0 (m1,
            # m2) at step 1; from step 2 on, a hears one merged zero group
            (0.5, -0.5, 0.5, -0.5, 0.7, 0.7): {"discrete": [7, 5, 5, 5], "rk4": [28] * 4},
            # both zeros at the start make one source class
            (0.0, -0.0, 0.0, -0.0, 0.7, 0.7): {"discrete": [4] * 4, "rk4": [16] * 4},
        }
        for x0, sines in starts.items():
            totals = [sines_to_step(x0, k) for k in range(5)]
            assert [b - a for a, b in zip(totals, totals[1:])] == sines[mode]
            states = evolve(net, SIGNED_ZERO, x0, 4, mode=mode, dt=0.5).states
            want = oracle_evolve(net, SIGNED_ZERO, x0, 4, mode=mode, dt=0.5)
            assert [bits(s) for s in states] == [bits(s) for s in want]
            if mode == "discrete" and x0[0]:
                assert bits(states[1][:4]) == ["0x0.0p+0", "-0x0.0p+0"] * 2
                assert bits(states[2][4:5]) == bits(states[2][5:])

    def test_polydiagonal_step_evaluates_one_cell_per_class(self, monkeypatch):
        doc, planted = ring_lift_doc(10, 6)
        net = parse_network(doc)
        spec = sample_admissible(net, 1)
        rng = random.Random(3)
        calls = []
        monkeypatch.setattr(synckit.dynamics, "sin", lambda v: calls.append(v) or math.sin(v))

        def sines_in_one_step(x0):
            calls.clear()
            evolve(net, spec, x0, 1)
            return len(calls)

        generic = sines_in_one_step(tuple(rng.uniform(-1.5, 1.5) for _ in range(net.n_cells)))
        xbar = tuple(rng.uniform(-1.5, 1.5) for _ in range(planted.rank))
        lumped = sines_in_one_step(expand_state(xbar, planted))
        # a generic start evaluates every cell once: its own sine, one per
        # input and one per (sender, receiver type) pair
        pushes = {(d, net.cell_types[c]) for c, d, _ in edges_of(net)}
        assert generic == net.n_cells + len(edges_of(net)) + len(pushes) == 240
        # a polydiagonal start evaluates the class quotient the same way
        quotient = is_balanced(net, planted).quotient
        class_pushes = {(d, quotient.cell_types[c]) for c, d, _ in edges_of(quotient)}
        assert lumped == planted.rank + len(edges_of(quotient)) + len(class_pushes) == 40
        assert lumped * net.n_cells <= generic * planted.rank

    def test_each_check_finds_a_systems_classes_once(self, monkeypatch):
        # the trials of one check start from the same (type, state) partition,
        # so each compiled system runs cir once for all its orbits
        doc, planted = ring_lift_doc(10, 6)
        net = parse_network(doc)
        spec = sample_admissible(net, 1)
        calls = []
        monkeypatch.setattr(
            synckit.dynamics, "cir_balanced", lambda *a: calls.append(a) or cir_balanced(*a)
        )
        cell = net.n_cells - 1
        assert len(set(range(net.n_cells)) - cumulative_in_k(net, cell, 2)) > 0
        checks = {
            "subsystem": (lambda: check_subsystem(net, spec, cell, trials=5, steps=3), 2),
            "locality": (lambda: check_locality(net, spec, cell, 2, trials=5), 1),
            "invariance": (lambda: check_invariance(net, spec, planted, trials=5, steps=3), 1),
            "quotient": (lambda: check_quotient_consistency(
                net, spec, is_balanced(net, planted), trials=5, steps=3), 2),
        }
        for name, (check, want) in checks.items():
            calls.clear()
            check()
            assert len(calls) == want, name

    @pytest.mark.parametrize("mode, dt", [("discrete", 1e-3), ("rk4", 0.05)])
    @pytest.mark.parametrize("exo", [False, True])
    def test_cancelling_senders_in_different_classes(self, mode, dt, exo):
        # s1 and s2 share a type and a state but not a class, as only s1 hears
        # u.  Into r they weigh +1 and -1, so at the start their one fold
        # group has weight sum zero and is skipped, although neither class
        # alone sums to zero.
        net = parse_network({
            "cells": [{"id": c, "type": 1} for c in ("u", "s1", "s2", "r")],
            "edges": [{"from": d, "to": c, "weight": w}
                      for d, c, w in (("u", "s1", 1), ("s1", "r", 1), ("s2", "r", -1))],
        })
        x0 = (0.9, 0.5, 0.5, -0.5)
        assert cir_balanced(net, Partition.from_assignment(x0)).rank == 4
        signed_zero = SIGNED_ZERO._replace(exo=exo)
        for spec in [signed_zero, *(sample_admissible(net, seed, exo=exo) for seed in range(5))]:
            states = evolve(net, spec, x0, 6, mode=mode, dt=dt).states
            want = oracle_evolve(net, spec, x0, 6, mode=mode, dt=dt)
            assert [bits(s) for s in states] == [bits(s) for s in want]
        if mode == "discrete":
            # a(r) = -0.0, which adding the group's +1 and -1 terms would make +0.0
            assert bits(evolve(net, signed_zero, x0, 1).states[1][3:]) == ["-0x0.0p+0"]


def larger_lifts(count):
    """Seeded balanced lifts of 24 or more cells, with two and three cell types
    in turn, each with a sender that feeds cells of two types."""
    rng = random.Random(1818)
    while count:
        net, planted = random_balanced_lift(rng, max_quotient=6, max_cells=36, type_range=(2, 3))
        feeds = {}
        for c, d, _ in edges_of(net):
            feeds.setdefault(d, set()).add(net.cell_types[c])
        if net.n_cells >= 24 and net.num_types == 2 + count % 2 and max(map(len, feeds.values())) >= 2:
            count -= 1
            yield net, planted


class TestLargerLifts:
    """Generic, polydiagonal and pooled-value starts on lifts of 24 to 36 cells
    give the dict fold's bits, and their quotients and subsystems are exact."""

    @pytest.mark.parametrize("mode, steps, dt", [("discrete", 8, 1e-3), ("rk4", 3, 0.05)])
    def test_evolve_matches_oracle_loop(self, mode, steps, dt):
        rng = random.Random(f"larger:{mode}")
        for net, planted in larger_lifts(8):
            pool = [0.0, -0.0, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
            starts = [
                tuple(rng.uniform(-1.5, 1.5) for _ in range(net.n_cells)),
                expand_state(tuple(rng.uniform(-1.5, 1.5) for _ in range(planted.rank)), planted),
                tuple(rng.choice(pool) for _ in range(net.n_cells)),
            ]
            for exo in (False, True):
                spec = sample_admissible(net, rng.randrange(1000), exo=exo)
                for x0 in starts:
                    traj = evolve(net, spec, x0, steps, mode=mode, dt=dt)
                    want = oracle_evolve(net, spec, x0, steps, mode=mode, dt=dt)
                    assert [bits(s) for s in traj.states] == [bits(s) for s in want]

    @pytest.mark.parametrize("mode, dt", [("discrete", 1e-3), ("rk4", 0.05)])
    def test_quotient_and_subsystem_are_exact(self, mode, dt):
        rng = random.Random(f"larger-checks:{mode}")
        for net, planted in larger_lifts(8):
            cert = is_balanced(net, planted)
            for exo in (False, True):
                spec = sample_admissible(net, rng.randrange(1000), exo=exo)
                run = {"trials": 2, "steps": 10, "mode": mode, "dt": dt}
                report = check_quotient_consistency(net, spec, cert, rng_seed=1, **run)
                assert report.max_deviation == 0.0
                for c in rng.sample(range(net.n_cells), 2):
                    assert check_subsystem(net, spec, c, rng_seed=c, **run).max_deviation == 0.0


def hexed(value):
    """A report or verdict with every float as its hex form, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(hexed, value))
    return value


@pytest.fixture
def workers(monkeypatch):
    """Split every check's trials that have any work over three CPUs; the
    returned list gains one entry per fork."""
    dyn = synckit.dynamics
    monkeypatch.setattr(dyn, "_FORK_WORK", 1)
    monkeypatch.setattr(dyn.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = []
    fork = os.fork
    monkeypatch.setattr(dyn.os, "fork", lambda: forks.append(1) or fork())
    return forks


def in_process(monkeypatch, check):
    """check() with every trial run in this process."""
    monkeypatch.setattr(synckit.dynamics, "_FORK_WORK", sys.maxsize)
    try:
        return check()
    finally:
        monkeypatch.setattr(synckit.dynamics, "_FORK_WORK", 1)


def counted_work(run):
    """The work units that run()'s map evaluations counted."""
    before = synckit.dynamics._work_counted
    run()
    return synckit.dynamics._work_counted - before


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def worker_lifts(count):
    """Seeded lifts with a planted and a non-balanced partition, whose last
    cell has cells outside its 1-step neighborhood for locality to perturb."""
    rng = random.Random(2020)
    while count:
        net, planted = random_balanced_lift(rng, max_quotient=5, max_cells=12, type_range=(1, 3))
        bad = unbalanced_refinement(rng, net)
        last = net.n_cells - 1
        if bad is not None and set(range(net.n_cells)) - cumulative_in_k(net, last, 1):
            count -= 1
            yield net, planted, bad


class TestTrialWorkers:
    """Trials split over forked workers give the in-process loop's results,
    exceptions and early stops, bit for bit, and leave no child behind."""

    @pytest.mark.parametrize("mode, dt", [("discrete", 1e-3), ("rk4", 0.05)])
    def test_reports_match_in_process(self, workers, monkeypatch, mode, dt):
        run = {"trials": 5, "steps": 8, "mode": mode, "dt": dt}
        for net, planted, bad in worker_lifts(4):
            cert = is_balanced(net, planted)
            c = net.n_cells - 1
            for exo in (False, True):
                spec = sample_admissible(net, 7, exo=exo)
                checks = [
                    lambda: check_invariance(net, spec, planted, rng_seed=1, **run),
                    lambda: check_invariance(net, spec, bad, rng_seed=2, **run),
                    lambda: check_quotient_consistency(net, spec, cert, rng_seed=3, **run),
                    lambda: check_subsystem(net, spec, c, rng_seed=4, **run),
                    lambda: check_locality(net, spec, c, 1, trials=5, rng_seed=5),
                    lambda: numeric_verdict(net, bad, seeds=2, trials=5, steps=8, tol=1e-3, exo=exo),
                ]
                for check in checks:
                    forked = len(workers)
                    assert hexed(check()) == hexed(in_process(monkeypatch, check))
                    # a verdict may stop in each seed's trial 0, before any fork
                    assert len(workers) > forked or check is checks[-1]
        assert no_child_left()

    @pytest.mark.parametrize("failing", [1, 3], ids=["lower-block", "worker-block"])
    def test_blowup_raises_as_in_process(self, workers, monkeypatch, failing):
        # under x -> 20 x, trial `failing` starts 1e11 times larger and leaves
        # the overflow guard at step 1; with three CPUs, trial 1 runs here
        # while the workers run trials 2 and 3-4
        net, planted, _ = next(worker_lifts(1))
        growth = AdmissibleFunctionSpec(
            0, False, net.num_types, (SelfParams(0.0, 20.0, 0.0, 1.0, 0.0),) * net.num_types,
            ((CouplingParams(*[0.0] * 8),) * net.num_types,) * net.num_types)
        dyn = synckit.dynamics
        random_state = dyn._random_state

        def huge_in_failing_trial(check_name):
            first = random_state(random.Random(f"{check_name}:0:{failing}"), 1)

            def draw(rng, n):
                x = random_state(rng, n)
                return tuple(v * 1e11 for v in x) if x[:1] == first else x
            monkeypatch.setattr(dyn, "_random_state", draw)

        huge_in_failing_trial("subsystem")
        check = lambda: check_subsystem(net, growth, 0, steps=8)
        with pytest.raises(NumericalBlowup) as want:
            in_process(monkeypatch, check)
        assert no_child_left()
        with pytest.raises(NumericalBlowup) as got:
            check()
        assert (got.type, str(got.value)) == (want.type, str(want.value))
        assert no_child_left() and len(workers) == 2
        huge_in_failing_trial("invariance")
        check = lambda: check_invariance(net, growth, planted, trials=5, steps=8)
        report = check()
        assert [t.aborted for t in report.trials] == [t == failing for t in range(5)]
        assert hexed(report) == hexed(in_process(monkeypatch, check))
        assert no_child_left()

    @pytest.mark.parametrize("exit_early", [
        lambda trial, lo, hi, fd: None,
        lambda trial, lo, hi, fd: os.write(fd, marshal.dumps([trial(t) for t in range(lo, hi)])[:-2]),
        lambda trial, lo, hi, fd: os.kill(os.getpid(), 9),
    ], ids=["writes-nothing", "cut-short", "killed"])
    def test_lost_worker_trials_rerun_here(self, workers, monkeypatch, exit_early):
        monkeypatch.setattr(synckit.dynamics, "_work", exit_early)
        net, planted, bad = next(worker_lifts(1))
        spec = sample_admissible(net, 4)
        for check in (lambda: check_subsystem(net, spec, 0, steps=8),
                      lambda: check_invariance(net, spec, bad, trials=5, steps=8),
                      lambda: check_locality(net, spec, net.n_cells - 1, 1)):
            assert hexed(check()) == hexed(in_process(monkeypatch, check))
        assert len(workers) == 6
        assert no_child_left()

    def test_early_stop_kills_the_workers(self, workers, monkeypatch):
        net, _, bad = next(worker_lifts(1))
        dyn = synckit.dynamics
        spec = sample_admissible(net, 0)

        def trial(t):
            if t >= 2:
                time.sleep(60)
            evaluate(net, spec, (0.0,) * net.n_cells)  # a map evaluation's work to share out
            return t
        runs = dyn._trial_results(trial, 5)
        assert (next(runs), next(runs)) == (0, 1)
        start = time.perf_counter()
        runs.close()
        assert time.perf_counter() - start < 30 and len(workers) == 2
        assert no_child_left()
        # check_invariance stops after the first trial above stop_above, here
        # the first after trial 0 whose spread beats trial 0's
        for seed in range(20):
            spec = sample_admissible(net, seed)
            spreads = [t.max_spread for t in check_invariance(net, spec, bad, trials=5, steps=8).trials]
            if max(spreads[1:]) > spreads[0]:
                break
        stop = next(t for t in range(1, 5) if spreads[t] > spreads[0])
        check = lambda: check_invariance(net, spec, bad, trials=5, steps=8, stop_above=spreads[0])
        report = check()
        assert len(report.trials) == stop + 1
        assert hexed(report) == hexed(in_process(monkeypatch, check))
        assert no_child_left()

    def test_a_second_thread_keeps_trials_in_process(self, workers, monkeypatch):
        def refuse():
            raise AssertionError("forked with a second thread alive")
        monkeypatch.setattr(synckit.dynamics.os, "fork", refuse)
        net, planted, _ = next(worker_lifts(1))
        spec = sample_admissible(net, 6)
        check = lambda: check_subsystem(net, spec, 0, steps=8)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            report = check()
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert hexed(report) == hexed(in_process(monkeypatch, check))

    @pytest.mark.parametrize("setting", ["one-cpu", "one-trial", "little-work", "no-fork"])
    def test_stays_in_process(self, workers, monkeypatch, setting):
        dyn = synckit.dynamics
        net, _, _ = next(worker_lifts(1))
        trials = 1 if setting == "one-trial" else 5
        if setting == "one-cpu":
            monkeypatch.setattr(dyn.os, "sched_getaffinity", lambda pid: {0})
        spec = sample_admissible(net, 6)
        if setting == "little-work":
            one = counted_work(lambda: check_subsystem(net, spec, 0, trials=1, steps=8))
            monkeypatch.setattr(dyn, "_FORK_WORK", trials * one + 1)
        elif setting == "no-fork":
            monkeypatch.delattr(dyn.os, "fork")
        check_subsystem(net, spec, 0, trials=trials, steps=8)
        assert workers == []

    def test_planted_ring_lifts_stay_in_process(self, monkeypatch):
        # an orbit lumped to the colors counts their classes and quotient
        # edges: 7500 units for the 60-cell lift, where its cells and edges
        # would make 45000, work for two workers
        dyn = synckit.dynamics
        monkeypatch.setattr(dyn.os, "sched_getaffinity", lambda pid: set(range(8)))

        def refuse():
            raise AssertionError("forked for a lumped orbit")
        monkeypatch.setattr(dyn.os, "fork", refuse)
        for colors, size in ((4, 2), (6, 5), (10, 6)):
            doc, planted = ring_lift_doc(colors, size)
            net = parse_network(doc)
            spec = sample_admissible(net, colors)
            assert check_invariance(net, spec, planted, trials=5, steps=50).invariant
            cert = is_balanced(net, planted)
            assert check_quotient_consistency(net, spec, cert, trials=5, steps=50).exact
        assert 5 * 50 * (net.n_cells + len(edges_of(net))) >= 2 * dyn._FORK_WORK

    def test_each_worker_needs_its_own_share_of_work(self, workers, monkeypatch):
        # three CPUs, but work for one worker only
        net, _, _ = next(worker_lifts(1))
        spec = sample_admissible(net, 6)
        one = counted_work(lambda: check_subsystem(net, spec, 0, trials=1, steps=8))
        monkeypatch.setattr(synckit.dynamics, "_FORK_WORK", 5 * one)
        check = lambda: check_subsystem(net, spec, 0, steps=8)
        assert hexed(check()) == hexed(in_process(monkeypatch, check))
        assert len(workers) == 1

    def test_estimate_counts_every_orbit(self, workers, monkeypatch):
        # an orbit from a generic start evaluates one class per cell, so each
        # map evaluation counts the network's cells and edges; the estimate,
        # trials x trial 0's count, forks one worker at _FORK_WORK = work
        # and none at work + 1
        net, _, _ = next(worker_lifts(1))
        spec = sample_admissible(net, 6)
        full = net.n_cells + len(edges_of(net))
        reach = net.subnetwork(sorted(in_reachability(net, 0)))
        both = full + reach.n_cells + len(edges_of(reach))
        for check, work in [
            # the start's orbit and the bumped one, k = 1 step each
            (lambda: check_locality(net, spec, net.n_cells - 1, 1, trials=5), 5 * 1 * 2 * full),
            # the full orbit and the subnetwork's
            (lambda: check_subsystem(net, spec, 0, trials=5, steps=8), 5 * 8 * both),
            # four map evaluations per RK4 step
            (lambda: check_subsystem(net, spec, 0, trials=5, steps=8, mode="rk4", dt=0.05),
             5 * 8 * 4 * both),
        ]:
            monkeypatch.setattr(synckit.dynamics, "_FORK_WORK", work + 1)
            check()
            assert workers == []
            monkeypatch.setattr(synckit.dynamics, "_FORK_WORK", work)
            check()
            assert len(workers) == 1
            workers.clear()
        assert no_child_left()
