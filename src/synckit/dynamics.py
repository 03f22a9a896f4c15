"""Random admissible dynamics and numerical invariance checks.

Functions are built from one intrinsic term per cell type and one
coupling term per type pair, with the integer edge weight acting as a
multiplier:

    f_c(x) = a_i(x_c) + sum_d m_cd * h_ij(x_c, x_d),   i = type(c), j = type(d)

Evaluation first folds the incoming terms by (sender type, sender
state), dropping zero totals and summing in sorted order.  That makes
the value a function of the multiset of inputs, so neighbor permutation,
same-state merging and zero-edge deletion hold bit for bit, and a
quotient system or an induced reachability subsystem reproduces the
full trajectory exactly in discrete mode.  Each run or check compiles
the (network, spec) pair once into per-cell records of floats and
sender tuples, and folds every cell's inputs with one sort and a merge
of adjacent equal inputs.

The intrinsic term is an affine map plus a sinusoid and the coupling is
a degree-one polynomial in the sender state plus sinusoids; the linear
gains are scaled so every sampled system is globally bounded, which
keeps long verification runs away from the overflow guard.  With the
exo flag the coupling is replaced by h(x, y) - h(x, x), which vanishes
exactly for same-state senders.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain
from math import sin
from typing import NamedTuple, Optional

from .errors import NumericalBlowup, SynckitError, UnsupportedMonoid
from .network import Network
from .partition import Partition
from .synchrony import BalancedCertificate, _quotient
from .connectivity import cumulative_in_k, in_reachability

OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class SelfParams:
    bias: float
    gain: float
    amp: float
    freq: float
    phase: float


@dataclass(frozen=True)
class CouplingParams:
    lin: float
    amp1: float
    freq1: float
    phase1: float
    amp2: float
    freq_x: float
    freq_y: float
    phase2: float


@dataclass(frozen=True)
class AdmissibleFunctionSpec:
    """Seeded coefficients for one admissible system over a type set."""

    seed: int
    exo: bool
    num_types: int
    self_params: tuple[SelfParams, ...]
    coupling_params: tuple[tuple[CouplingParams, ...], ...]


def sample_admissible(net: Network, seed: int, exo: bool = False) -> AdmissibleFunctionSpec:
    """Draw a random admissible system for the network's type set.

    The linear coupling gain is scaled by the largest absolute in-row
    sum so the sampled map is a contraction plus bounded terms; the same
    spec then stays bounded on every quotient and subnetwork, whose
    in-rows can only shrink.
    """
    if net.monoid.kind != "int-add":
        raise UnsupportedMonoid("sampled dynamics require int-add weights")
    rng = random.Random(f"admissible:{seed}:{int(exo)}")
    weight_scale = max(
        (sum(abs(w) for _, w in net.in_edges[c]) for c in range(net.n_cells)),
        default=0,
    )
    try:
        lin_cap = 0.25 / max(1, weight_scale)
    except OverflowError:
        raise UnsupportedMonoid("edge weights too large for sampled dynamics") from None
    if exo:
        lin_cap /= 2.0

    selfs = []
    for _ in range(net.num_types):
        selfs.append(
            SelfParams(
                bias=rng.uniform(-1.0, 1.0),
                gain=rng.uniform(-0.4, 0.4),
                amp=rng.uniform(0.2, 1.0),
                freq=rng.uniform(0.5, 2.5),
                phase=rng.uniform(0.0, 2 * math.pi),
            )
        )
    couplings = []
    for _ in range(net.num_types):
        row = []
        for _ in range(net.num_types):
            row.append(
                CouplingParams(
                    lin=rng.uniform(-1.0, 1.0) * lin_cap,
                    amp1=rng.uniform(0.2, 1.0),
                    freq1=rng.uniform(0.5, 2.5),
                    phase1=rng.uniform(0.0, 2 * math.pi),
                    amp2=rng.uniform(0.2, 1.0),
                    freq_x=rng.uniform(0.5, 2.5),
                    freq_y=rng.uniform(0.5, 2.5),
                    phase2=rng.uniform(0.0, 2 * math.pi),
                )
            )
        couplings.append(tuple(row))
    return AdmissibleFunctionSpec(seed, exo, net.num_types, tuple(selfs), tuple(couplings))


# ---------------------------------------------------------------------------
# Compiled evaluation
#
# A system is compiled once per (network, spec) into one record per cell:
#
#     (self coefficients, coupling rows, sender indices, sender types, weights)
#
# where the coefficients are the spec's floats in field order, the coupling
# rows are the receiver type's rows indexed by sender type - 1, and the last
# three are parallel tuples over the cell's folded in-edges.


class _System(NamedTuple):
    exo: bool
    cells: tuple[tuple, ...]


def _self_coeffs(spec: AdmissibleFunctionSpec, cell_type: int) -> tuple[float, ...]:
    p = spec.self_params[cell_type - 1]
    return (p.bias, p.gain, p.amp, p.freq, p.phase)


def _coupling_rows(
    spec: AdmissibleFunctionSpec, receiver_type: int
) -> tuple[tuple[float, ...], ...]:
    return tuple(
        (p.lin, p.amp1, p.freq1, p.phase1, p.amp2, p.freq_x, p.freq_y, p.phase2)
        for p in spec.coupling_params[receiver_type - 1]
    )


def _compile(net: Network, spec: AdmissibleFunctionSpec) -> _System:
    if spec.num_types < net.num_types:
        raise SynckitError("spec was sampled for fewer cell types than the network has")
    by_type = {t: (_self_coeffs(spec, t), _coupling_rows(spec, t)) for t in set(net.cell_types)}
    sender_type = tuple(t - 1 for t in net.cell_types).__getitem__
    cells = []
    for t, edges in zip(net.cell_types, net.in_edges):
        senders, weights = tuple(zip(*edges)) or ((), ())
        cells.append((*by_type[t], senders, tuple(map(sender_type, senders)), weights))
    return _System(spec.exo, tuple(cells))


_FLUSH = ((None, None, 0),)  # a last input that joins no run, so the final run is added


def _apply(system: _System, x: tuple[float, ...]) -> tuple[float, ...]:
    """One application of the compiled map: the multiset fold, cell by cell.

    Sorting a cell's (sender type, state, weight) inputs brings equal
    (type, state) pairs together, so each run is one group of the fold,
    its integer weights summed exactly.  Runs are added in sorted order
    and zero sums are skipped.  A run merging 0.0 with -0.0 takes the
    state of its first sender in input order, so the sign of a zero does
    not hang on the weights that order the run.
    """
    exo = system.exo
    state = x.__getitem__
    out = []
    for ((bias, gain, amp, freq, phase), rows, senders, types, weights), xc in zip(
        system.cells, x
    ):
        total = bias + gain * xc + amp * sin(freq * xc + phase)
        t0, y0, acc = -1, None, 0  # types count from 0, so no input joins this run
        for t, y, w in chain(sorted(zip(types, map(state, senders), weights)), _FLUSH):
            if t == t0 and y == y0:
                acc += w
                if not y:
                    y0 = next(
                        state(d) for d, s in zip(senders, types) if s == t and not state(d)
                    )
                continue
            if acc:
                lin, amp1, freq1, phase1, amp2, freq_x, freq_y, phase2 = rows[t0]
                v = (
                    lin * y0
                    + amp1 * sin(freq1 * y0 + phase1)
                    + amp2 * sin(freq_x * xc + freq_y * y0 + phase2)
                )
                if exo:
                    v -= (
                        lin * xc
                        + amp1 * sin(freq1 * xc + phase1)
                        + amp2 * sin(freq_x * xc + freq_y * xc + phase2)
                    )
                total += acc * v
            t0, y0, acc = t, y, w
        out.append(total)
    return tuple(out)


def eval_on_neighborhood(
    spec: AdmissibleFunctionSpec,
    cell_type: int,
    x_self: float,
    inputs: list[tuple[int, int, float]],
) -> float:
    """Evaluate one cell on an explicit in-neighborhood.

    inputs are (sender type, integer weight, sender state) triples.
    The fold by (type, state) with exact integer weight sums is what
    gives the multiset semantics.
    """
    # a one-cell system whose senders index the state (x_self, *input states)
    cell = (
        _self_coeffs(spec, cell_type),
        _coupling_rows(spec, cell_type),
        tuple(range(1, len(inputs) + 1)),
        tuple(t - 1 for t, _, _ in inputs),
        tuple(w for _, w, _ in inputs),
    )
    return _apply(_System(spec.exo, (cell,)), (x_self, *(y for _, _, y in inputs)))[0]


def component_value(
    net: Network, spec: AdmissibleFunctionSpec, x: tuple[float, ...], c: int
) -> float:
    inputs = [(net.cell_types[d], w, x[d]) for d, w in net.in_edges[c]]
    return eval_on_neighborhood(spec, net.cell_types[c], x[c], inputs)


def evaluate(net: Network, spec: AdmissibleFunctionSpec, x: tuple[float, ...]) -> tuple[float, ...]:
    """One application of the admissible function to a full state."""
    return _apply(_compile(net, spec), x)


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    mode: str
    dt: Optional[float] = None


def _guard(x: tuple[float, ...]) -> None:
    if all(map(math.isfinite, x)) and max(map(abs, x), default=0.0) <= OVERFLOW_GUARD:
        return
    for v in x:
        if not math.isfinite(v) or abs(v) > OVERFLOW_GUARD:
            raise NumericalBlowup(f"state magnitude {v!r} exceeded the overflow guard")


def evolve(
    net: Network,
    spec: AdmissibleFunctionSpec,
    x0: tuple[float, ...],
    steps: int,
    mode: str = "discrete",
    dt: float = 1e-3,
) -> Trajectory:
    """Iterate the map (discrete) or integrate with fixed-step RK4."""
    _check_mode(mode)
    if len(x0) != net.n_cells:
        raise SynckitError("initial state length does not match the network")
    return _evolve(_compile(net, spec), tuple(x0), steps, mode, dt)


def _evolve(
    system: _System,
    x0: tuple[float, ...],
    steps: int,
    mode: str = "discrete",
    dt: float = 1e-3,
) -> Trajectory:
    _guard(x0)
    states = [x0]
    times = [0.0]
    x = x0
    for step in range(steps):
        x = _step(system, x, mode, dt)
        times.append(float(step + 1) if mode == "discrete" else dt * (step + 1))
        _guard(x)
        states.append(x)
    return Trajectory(tuple(times), tuple(states), mode, dt if mode == "rk4" else None)


def _check_mode(mode: str) -> None:
    if mode not in ("discrete", "rk4"):
        raise SynckitError(f"unknown mode {mode!r}")


def _step(system: _System, x: tuple[float, ...], mode: str, dt: float) -> tuple[float, ...]:
    """One map application, or one RK4 step of size dt (the caller checks mode)."""
    return _apply(system, x) if mode == "discrete" else _rk4_step(system, x, dt)


def _rk4_step(system: _System, x: tuple[float, ...], dt: float) -> tuple[float, ...]:
    half = 0.5 * dt
    k1 = _apply(system, x)
    k2 = _apply(system, _stage(x, half, k1))
    k3 = _apply(system, _stage(x, half, k2))
    k4 = _apply(system, _stage(x, dt, k3))
    sixth = dt / 6.0
    return tuple([
        xi + sixth * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ])


def _stage(x: tuple[float, ...], h: float, k: tuple[float, ...]) -> tuple[float, ...]:
    """An intermediate RK4 state, refused when not finite: the sinusoids
    cannot be evaluated there, and the step it leads to is not finite."""
    stage = tuple([xi + h * ki for xi, ki in zip(x, k)])
    if not all(map(math.isfinite, stage)):
        bad = next(v for v in stage if not math.isfinite(v))
        raise NumericalBlowup(f"RK4 stage state {bad!r} is not finite")
    return stage


# ---------------------------------------------------------------------------
# State helpers


def expand_state(xbar: tuple[float, ...], p: Partition) -> tuple[float, ...]:
    """Lift a per-color state onto the polydiagonal of p."""
    if len(xbar) != p.rank:
        raise SynckitError("per-color state length does not match the partition rank")
    return tuple(xbar[k] for k in p.colors)


def color_spread(x: tuple[float, ...], p: Partition) -> float:
    """Largest within-color state spread."""
    return _spread(x, p.blocks())


def _spread(x: tuple[float, ...], blocks: tuple[tuple[int, ...], ...]) -> float:
    worst = 0.0
    for block in blocks:
        if len(block) < 2:
            continue
        values = [x[c] for c in block]
        worst = max(worst, max(values) - min(values))
    return worst


def _random_state(rng: random.Random, n: int) -> tuple[float, ...]:
    return tuple(rng.uniform(-1.5, 1.5) for _ in range(n))


# ---------------------------------------------------------------------------
# Verification reports


@dataclass(frozen=True)
class TrialResult:
    max_spread: float
    steps_run: int
    aborted: bool


@dataclass(frozen=True)
class InvarianceReport:
    partition: Partition
    trials: tuple[TrialResult, ...]
    tol: float
    max_spread: float
    invariant: bool

    @property
    def aborted_trials(self) -> int:
        return sum(t.aborted for t in self.trials)

    def to_json(self) -> dict:
        return {
            "tol": self.tol,
            "max_spread": self.max_spread,
            "invariant": self.invariant,
            "trials": [
                {"max_spread": t.max_spread, "steps": t.steps_run, "aborted": t.aborted}
                for t in self.trials
            ],
        }


def check_invariance(
    net: Network,
    spec: AdmissibleFunctionSpec,
    p: Partition,
    trials: int = 20,
    steps: int = 100,
    tol: float = 1e-9,
    mode: str = "discrete",
    dt: float = 1e-3,
    rng_seed: int = 0,
    stop_above: Optional[float] = None,
) -> InvarianceReport:
    """Start on the polydiagonal, evolve, and track within-color spread.

    The verdict is invariant only when every trial ran to the end: a trial
    aborted by the overflow guard shows nothing about the spread.
    """
    _check_mode(mode)
    system = _compile(net, spec)
    blocks = p.blocks()
    results = []
    worst = 0.0
    for t in range(trials):
        rng = random.Random(f"invariance:{rng_seed}:{t}")
        xbar = _random_state(rng, p.rank)
        x = expand_state(xbar, p)
        spread = 0.0
        ran = 0
        aborted = False
        try:
            for step in range(steps):
                x = _step(system, x, mode, dt)
                _guard(x)
                ran = step + 1
                spread = max(spread, _spread(x, blocks))
                if stop_above is not None and spread > stop_above:
                    break
        except NumericalBlowup:
            aborted = True
        results.append(TrialResult(spread, ran, aborted))
        worst = max(worst, spread)
        if stop_above is not None and worst > stop_above:
            break
    invariant = worst <= tol and not any(r.aborted for r in results)
    return InvarianceReport(p, tuple(results), tol, worst, invariant)


def probe_non_invariance(
    net: Network,
    p: Partition,
    seeds: int = 20,
    trials: int = 10,
    steps: int = 100,
    threshold: float = 1e-3,
    exo: bool = False,
    rng_seed: int = 0,
) -> str:
    """Try to exhibit a spread above threshold; "falsified" or "inconclusive".

    A quiet run never counts as evidence of invariance, only as an
    inconclusive probe.
    """
    for s in range(seeds):
        spec = sample_admissible(net, seed=rng_seed * 7919 + s, exo=exo)
        report = check_invariance(
            net, spec, p,
            trials=trials, steps=steps, tol=threshold,
            rng_seed=rng_seed * 104729 + s, stop_above=threshold,
        )
        if report.max_spread > threshold:
            return "falsified"
    return "inconclusive"


@dataclass(frozen=True)
class LocalityTrial:
    agreed: bool
    first_mismatch_step: Optional[int]


@dataclass(frozen=True)
class LocalityReport:
    cell: int
    k: int
    trials: tuple[LocalityTrial, ...]
    all_agreed: bool

    def to_json(self) -> dict:
        return {
            "cell": self.cell,
            "k": self.k,
            "all_agreed": self.all_agreed,
            "trials": [
                {"agreed": t.agreed, "first_mismatch_step": t.first_mismatch_step}
                for t in self.trials
            ],
        }


def check_locality(
    net: Network,
    spec: AdmissibleFunctionSpec,
    c: int,
    k: int,
    trials: int = 5,
    rng_seed: int = 0,
    perturb_inside: bool = False,
) -> LocalityReport:
    """Perturb cells outside (or inside) the k-step neighborhood of c.

    Outside perturbations must leave x_c through step k bit-for-bit
    unchanged in discrete mode; inside perturbations are the
    falsification direction.  Trials with an empty perturbation support
    count as agreeing runs.
    """
    net.check_cell(c)
    cone = cumulative_in_k(net, c, k)
    if perturb_inside:
        support = sorted(cone - {c})
    else:
        support = sorted(set(range(net.n_cells)) - cone)
    system = _compile(net, spec)
    results = []
    for t in range(trials):
        rng = random.Random(f"locality:{rng_seed}:{t}")
        x0 = _random_state(rng, net.n_cells)
        if not support:
            results.append(LocalityTrial(True, None))
            continue
        bumped = list(x0)
        for d in support:
            bumped[d] += rng.uniform(0.1, 1.0)
        base = _evolve(system, x0, k)
        other = _evolve(system, tuple(bumped), k)
        mismatch = None
        for step in range(k + 1):
            if base.states[step][c] != other.states[step][c]:
                mismatch = step
                break
        results.append(LocalityTrial(mismatch is None, mismatch))
    return LocalityReport(c, k, tuple(results), all(t.agreed for t in results))


@dataclass(frozen=True)
class ComparisonReport:
    label: str
    max_deviation: float
    exact: bool
    tol: float

    def to_json(self) -> dict:
        return {
            "check": self.label,
            "max_deviation": self.max_deviation,
            "exact": self.exact,
            "tol": self.tol,
        }


def check_subsystem(
    net: Network,
    spec: AdmissibleFunctionSpec,
    c: int,
    trials: int = 5,
    steps: int = 50,
    mode: str = "discrete",
    dt: float = 1e-3,
    tol: float = 1e-6,
    rng_seed: int = 0,
) -> ComparisonReport:
    """Restricting a trajectory to the reach-in set solves the subsystem."""
    _check_mode(mode)
    net.check_cell(c)
    cells = sorted(in_reachability(net, c))
    full_system = _compile(net, spec)
    sub_system = _compile(net.subnetwork(cells), spec)
    worst = 0.0
    for t in range(trials):
        rng = random.Random(f"subsystem:{rng_seed}:{t}")
        x0 = _random_state(rng, net.n_cells)
        full = _evolve(full_system, x0, steps, mode, dt)
        part = _evolve(sub_system, tuple(x0[d] for d in cells), steps, mode, dt)
        for step in range(steps + 1):
            for i, d in enumerate(cells):
                worst = max(worst, abs(full.states[step][d] - part.states[step][i]))
    exact = worst == 0.0
    return ComparisonReport("subsystem", worst, exact, tol)


def check_quotient_consistency(
    net: Network,
    spec: AdmissibleFunctionSpec,
    cert: BalancedCertificate,
    trials: int = 5,
    steps: int = 50,
    mode: str = "discrete",
    dt: float = 1e-3,
    tol: float = 1e-6,
    rng_seed: int = 0,
) -> ComparisonReport:
    """The quotient system reproduces the full system on the polydiagonal."""
    _check_mode(mode)
    p = cert.partition
    full_system = _compile(net, spec)
    quotient_system = _compile(_quotient(net, cert), spec)
    worst = 0.0
    for t in range(trials):
        rng = random.Random(f"quotient:{rng_seed}:{t}")
        xbar = _random_state(rng, p.rank)
        full = _evolve(full_system, expand_state(xbar, p), steps, mode, dt)
        small = _evolve(quotient_system, xbar, steps, mode, dt)
        for step in range(steps + 1):
            for c in range(net.n_cells):
                worst = max(
                    worst, abs(full.states[step][c] - small.states[step][p.colors[c]])
                )
    exact = worst == 0.0
    return ComparisonReport("quotient", worst, exact, tol)

