"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one line per
criterion; each test prints its verdict line and enforces the stated
tolerance or time budget.
"""

import random
import time
from functools import lru_cache

from synckit.classification import (
    ColorClass,
    N_IN,
    R_IN,
    V_IN,
    classify_partition,
    is_invariant,
    is_matched,
    join_table_report,
    quotient_class_report,
    v_in_k,
)
from synckit.connectivity import (
    condensation,
    cumulative_in_k,
    in_reachability,
    rdc_decomposition,
    scc_decomposition,
)
from synckit.dynamics import (
    check_invariance,
    check_locality,
    check_quotient_consistency,
    check_subsystem,
    sample_admissible,
)
from synckit.partition import Partition, join, parse_partition
from synckit.synchrony import (
    cir_balanced,
    enumerate_balanced,
    is_balanced,
    is_exo_balanced,
    quotient_network,
)

from conftest import FIXTURE_NAMES, fixture_net
from oracles import (
    cumulative_in,
    dense,
    lattice_quotient,
    numeric_verdict,
    one_color,
    oracle_cir,
    oracle_type_refining,
    random_balanced_lift,
    random_network,
    random_type_refinement,
    top_nonweak,
    top_strong,
)


@lru_cache(maxsize=None)
def net(name):
    return fixture_net(name)


@lru_cache(maxsize=None)
def lattice(name):
    return enumerate_balanced(net(name))


def best_time(fn, runs=5):
    fn()  # warm caches
    return min(_timed(fn) for _ in range(runs))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def report(line):
    print(f"\n[acceptance] {line}")


def test_c01_triangle_balanced_quotient():
    tri = net("triangle")
    p = parse_partition("12/3", tri.cell_ids)
    cert = is_balanced(tri, p)
    assert cert is not None
    assert cert.quotient_matrix == ((1, 1), (2, 1))
    q = quotient_network(tri, cert)
    merged, hub = q.cell_ids.index("12"), q.cell_ids.index("3")
    # merged color receives one of itself and one hub; hub receives two merged and itself
    matrix = dense(q)
    assert matrix[merged][merged] == 1 and matrix[merged][hub] == 1
    assert matrix[hub][merged] == 2 and matrix[hub][hub] == 1
    elapsed = best_time(lambda: quotient_network(tri, is_balanced(tri, p)))
    assert elapsed < 1e-3
    report(f"criterion 1 PASS: 3-cell quotient matrix exact in {elapsed * 1e6:.0f} us")


def test_c02_two_roots_connectivity():
    tr = net("two_roots")

    def compute():
        return scc_decomposition(tr), condensation(tr), rdc_decomposition(tr)

    sccs, cond, rdcs = compute()
    assert sccs.blocks() == ((0, 1, 2), (3,), (4,), (5, 6))
    assert {(s, t) for t, ps in enumerate(cond.preds) for s in ps} == {(0, 1), (0, 3), (2, 3)}
    assert cond.roots == {0, 2}
    assert rdcs.blocks() == ((0, 1, 2, 3), (4,), (5, 6))
    elapsed = best_time(compute)
    assert elapsed < 1e-3
    report(f"criterion 2 PASS: 7-cell SCC/condensation/RDC exact in {elapsed * 1e6:.0f} us")


def test_c03_chain_reachability():
    ch = net("chain4")
    c3, c4 = ch.index_of("3"), ch.index_of("4")
    assert cumulative_in(ch, c3) == {1, 2}
    assert cumulative_in_k(ch, c3, 2) == in_reachability(ch, c3) == {0, 1, 2}
    assert cumulative_in_k(ch, c4, 3) == in_reachability(ch, c4) == {0, 1, 2, 3}
    sets = [in_reachability(ch, c) for c in range(4)]
    for earlier, later in zip(sets, sets[1:]):
        assert earlier < later
    report("criterion 3 PASS: chain cumulative/reachability sets exact")


def test_c04_driven_chain_tops_and_table():
    dc = net("driven_chain")
    assert top_strong(dc) == Partition.trivial(4)
    candidate, valid = top_nonweak(dc)
    assert candidate == parse_partition("13/24", dc.cell_ids)
    assert valid
    table = join_table_report(dc)
    assert table.rooted_all_reach_matched
    assert table.general_table_ok
    assert table.matched_table_ok
    report("criterion 4 PASS: positive-weight fixture tops and strict join table exact")


def test_c05_hub_fixture_rooted_joins_weak():
    th = net("twin_cycles_hub")
    lat = lattice("twin_cycles_hub")
    rooted = [
        b for b in lat.elements if classify_partition(th, b) is ColorClass.ROOTED
    ]
    full = one_color(5)
    assert full in lat.elements
    assert classify_partition(th, full) is ColorClass.WEAK
    weak_joins = [
        (a, b)
        for a in rooted
        for b in rooted
        if join(a, b) == full
    ]
    assert weak_joins, "no rooted pair joins to the full weak merge"
    table = join_table_report(th)
    assert table.general_table_ok
    assert not table.nonweak_join_closed
    report(
        "criterion 5 PASS: rooted pairs join to the weak full merge; "
        "non-weak subset is not join-closed"
    )


def test_c06_cir_matches_brute_force():
    rng = random.Random(602)
    start = time.perf_counter()
    for _ in range(200):
        network = random_network(rng, max_cells=7, num_types=2, weights=(-1, 0, 1, 2))
        bounds = [network.type_partition()] + [
            random_type_refinement(rng, network) for _ in range(5)
        ]
        for bound in bounds:
            assert cir_balanced(network, bound) == oracle_cir(network, bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"criterion 6 PASS: 200 networks x 6 bounds, cir == brute force, {elapsed:.1f}s")


def test_c07_quotient_lattice_law():
    rng = random.Random(701)
    start = time.perf_counter()
    checked = 0
    nontrivial = 0
    for i in range(100):
        if i % 2 == 0:
            network, _ = random_balanced_lift(rng, max_cells=7)
        else:
            network = random_network(rng, max_cells=7, num_types=2)
        lat = enumerate_balanced(network)
        for anchor in lat.elements:
            cert = is_balanced(network, anchor)
            via_quotient = set(enumerate_balanced(quotient_network(network, cert)).elements)
            via_lattice = set(lattice_quotient(lat, anchor).elements)
            assert via_quotient == via_lattice
            checked += 1
            if anchor.rank < network.n_cells:
                nontrivial += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert nontrivial >= 50, "generator produced too few nontrivial balanced anchors"
    report(
        f"criterion 7 PASS: lattice-of-quotient == quotient-of-lattice on "
        f"{checked} anchors ({nontrivial} nontrivial), {elapsed:.1f}s"
    )


def test_c08_hierarchies_and_counterexample_fixtures():
    rng = random.Random(801)
    kinds = [N_IN, V_IN, v_in_k(1), v_in_k(2), v_in_k(3), R_IN]
    for _ in range(100):
        network = random_network(rng, max_cells=6)
        p = random_type_refinement(rng, network)
        if is_matched(network, p, N_IN):
            assert is_matched(network, p, V_IN)
        if is_matched(network, p, V_IN):
            for kind in kinds[2:]:
                assert is_matched(network, p, kind)
        for b in enumerate_balanced(network).elements:
            cert = is_balanced(network, b)
            if is_invariant(network, cert, N_IN):
                assert is_invariant(network, cert, V_IN)
            if is_invariant(network, cert, V_IN):
                for kind in kinds[2:]:
                    assert is_invariant(network, cert, kind)

    ep = net("edge_pair")
    one = parse_partition("12", ep.cell_ids)
    assert not is_matched(ep, one, N_IN) and is_matched(ep, one, V_IN)

    cc = net("chorded_cycle")
    p = parse_partition("14/23", cc.cell_ids)
    assert not is_matched(cc, p, V_IN) and is_matched(cc, p, R_IN)

    zs = net("zero_sum_triangle")
    cert = is_balanced(zs, one_color(3))
    assert not is_invariant(zs, cert, N_IN) and is_invariant(zs, cert, V_IN)

    cy = net("cancel_cycle")
    cert = is_balanced(cy, parse_partition("1/23/4", cy.cell_ids))
    assert not is_invariant(cy, cert, V_IN) and is_invariant(cy, cert, R_IN)

    report("criterion 8 PASS: implication chains hold; all four counterexample patterns exact")


def test_c09_quotient_class_table():
    rng = random.Random(901)
    networks = [random_network(rng, max_cells=6) for _ in range(30)]
    networks += [random_balanced_lift(rng, max_cells=6)[0] for _ in range(30)]
    networks += [net(name) for name in FIXTURE_NAMES if net(name).n_cells <= 7]
    checked = 0
    for network in networks:
        for b in enumerate_balanced(network).elements:
            cert = is_balanced(network, b)
            if not is_invariant(network, cert, R_IN):
                continue
            rep = quotient_class_report(network, cert)
            assert rep.precondition_met
            assert not rep.violations
            checked += 1
    report(f"criterion 9 PASS: no class-weakening quotient transitions over {checked} anchors")


def test_c10_dynamics_invariance_and_falsification():
    # balanced partitions stay synchronized at the stated tolerances
    for name in FIXTURE_NAMES:
        network = net(name)
        for b in lattice(name).elements:
            for seed in range(20):
                spec = sample_admissible(network, seed)
                rep = check_invariance(
                    network, spec, b, trials=2, steps=100, tol=1e-9, rng_seed=seed
                )
                assert rep.max_spread <= 1e-9, (name, b, seed)
            for seed in range(2):
                spec = sample_admissible(network, seed)
                rep = check_invariance(
                    network, spec, b, trials=1, steps=1000, tol=1e-6,
                    mode="rk4", dt=1e-3, rng_seed=seed,
                )
                assert rep.max_spread <= 1e-6, (name, b, seed)

    # almost every non-balanced candidate must be caught
    attempted = 0
    falsified = 0
    for name in FIXTURE_NAMES:
        network = net(name)
        balanced = set(lattice(name).elements)
        for p in oracle_type_refining(network):
            if p in balanced:
                continue
            attempted += 1
            if not numeric_verdict(network, p, seeds=20, trials=10, steps=100, tol=1e-3):
                falsified += 1
    assert attempted > 0
    fraction = falsified / attempted
    assert fraction >= 0.95
    report(
        f"criterion 10 PASS: balanced spread <=1e-9/1e-6; falsified "
        f"{falsified}/{attempted} non-balanced candidates ({fraction:.1%})"
    )


# each RK4 stage acts on one cell at a time, so RK4 orbits agree bit for bit too
_MODES = (("discrete", 1e-3), ("rk4", 0.05))


def test_c11_locality_subsystem_quotient_bitwise():
    for name in FIXTURE_NAMES:
        network = net(name)
        spec = sample_admissible(network, 11)
        for c in range(network.n_cells):
            for k in range(0, 5):
                rep = check_locality(network, spec, c, k, trials=2, rng_seed=k)
                assert rep.all_agreed, (name, c, k)
            for mode, dt in _MODES:
                sub = check_subsystem(network, spec, c, trials=2, steps=30, mode=mode, dt=dt,
                                      rng_seed=c)
                assert sub.max_deviation == 0.0, (name, c, mode)
        for b in lattice(name).elements:
            cert = is_balanced(network, b)
            for mode, dt in _MODES:
                rep = check_quotient_consistency(
                    network, spec, cert, trials=2, steps=40, mode=mode, dt=dt, rng_seed=3
                )
                assert rep.max_deviation == 0.0, (name, b, mode)
    report("criterion 11 PASS: locality, subsystem and quotient trajectories bit-exact, "
           "RK4 included")


def test_c12_exo_crosscheck():
    rng = random.Random(1201)
    networks = [net(name) for name in FIXTURE_NAMES if net(name).n_cells <= 5]
    networks += [random_network(rng, max_cells=5) for _ in range(15)]
    disagreements = []
    checked = 0
    for network in networks:
        for p in oracle_type_refining(network):
            combinatorial = is_exo_balanced(network, p)
            numerical = numeric_verdict(
                network, p, seeds=4, trials=3, steps=40, tol=1e-9, exo=True
            )
            checked += 1
            if combinatorial != numerical:
                disagreements.append((network.cell_ids, p, combinatorial, numerical))
    assert not disagreements, disagreements[:3]
    report(f"criterion 12 PASS: exo verdicts agree on {checked} partitions")
