import math
import random

import pytest

from synckit.dynamics import (
    check_invariance,
    check_locality,
    check_quotient_consistency,
    check_subsystem,
    evaluate,
    evolve,
    expand_state,
    eval_on_neighborhood,
    probe_non_invariance,
    sample_admissible,
)
from synckit.errors import NumericalBlowup, SynckitError, UnsupportedMonoid
from synckit.connectivity import in_reachability
from synckit.monoid import IntegerAdd, TropicalMin
from synckit.network import parse_network
from synckit.partition import Partition, join, parse_partition, refines
from synckit.synchrony import enumerate_balanced, is_balanced

from conftest import fixture_net
from oracles import (
    from_matrix,
    in_polydiagonal,
    numeric_exo_verdict,
    one_color,
    oracle_type_refining,
    random_network,
    random_type_refinement,
)


def decoupled(n=3):
    return from_matrix(
        tuple(str(i + 1) for i in range(n)),
        (1,) * n,
        tuple(tuple(0 for _ in range(n)) for _ in range(n)),
        IntegerAdd(),
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
        spec = sample_admissible(net, 1)
        rng = random.Random(0)
        inputs = [(1, rng.choice([1, 2, -1]), rng.uniform(-1, 1)) for _ in range(6)]
        base = eval_on_neighborhood(spec, 1, 0.3, inputs)
        for _ in range(10):
            shuffled = inputs[:]
            rng.shuffle(shuffled)
            assert eval_on_neighborhood(spec, 1, 0.3, shuffled) == base

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
        from synckit.dynamics import AdmissibleFunctionSpec, CouplingParams, SelfParams

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
        from synckit.dynamics import AdmissibleFunctionSpec, CouplingParams, SelfParams

        spec = AdmissibleFunctionSpec(
            0,
            False,
            1,
            (SelfParams(0.0, 1e7, 0.0, 1.0, 0.0),),
            ((CouplingParams(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0),),),
        )
        with pytest.raises(NumericalBlowup):
            evolve(decoupled(), spec, (1.0, 1.0, 1.0), 10)

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
            assert probe_non_invariance(net, p, seeds=8, trials=5) == "falsified"

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
        spec = sample_admissible(chain4, 3)
        report = check_locality(chain4, spec, 2, 2, trials=8, perturb_inside=True)
        assert not report.all_agreed

    def test_all_fixture_cells_small_k(self, any_fixture):
        net = any_fixture
        spec = sample_admissible(net, 4)
        for c in range(net.n_cells):
            for k in range(0, 4):
                assert check_locality(net, spec, c, k, trials=2).all_agreed


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

    def test_rk4_mode_stays_within_tolerance(self, chain4):
        spec = sample_admissible(chain4, 8)
        report = check_subsystem(
            chain4, spec, 3, trials=1, steps=100, mode="rk4", tol=1e-6
        )
        assert report.max_deviation <= 1e-6


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
                numerical = numeric_exo_verdict(net, p, seeds=3, trials=3, steps=30)
                assert combinatorial == numerical
