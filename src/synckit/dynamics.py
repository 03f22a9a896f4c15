"""Random admissible dynamics and numerical invariance checks.

Functions are built from one intrinsic term per cell type and one
coupling term per type pair, with the integer edge weight acting as a
multiplier:

    f_c(x) = a_i(x_c) + sum_d m_cd * h_ij(x_c, x_d),   i = type(c), j = type(d)

The map's value is defined by a fold: read states with zeros unsigned,
group the incoming terms by (sender type, sender state) with exact
integer weight sums, skip zero sums and add the groups in ascending
(type, state) order.  That makes the value a function of the multiset
of inputs, so neighbor permutation, same-state merging and zero-edge
deletion hold bit for bit, and a quotient system or an induced
reachability subsystem reproduces the full trajectory exactly.  That
holds in RK4 mode too: each stage and the step's combination act on one
cell at a time, so a cell whose map values carry the full bits carries
them through every stage.

An orbit is evaluated once per synchronized class.  The classes are the
coarsest balanced refinement of the start's partition by (cell type,
state).  On the polydiagonal of a balanced partition, cells of one class
have one type, one state and the same weight sum per fold group, so the
fold gives them the same bits and the orbit, RK4 stages included, stays
there; a start whose states are all distinct has one cell per class.
With the classes, the class quotient is read off each class's first
cell: per sender class, the receiver classes with their exact weight
sums, zero sums dropped, grouped by receiver type.  Both are built once
per compiled system and start partition, so the orbits of one check
share them.

Each step then pushes senders' terms to receivers.  Every class's total
starts with its intrinsic term.  Per sender type in ascending order, the
type's classes are sorted by state once and walked in that order; a run
of equal states is one fold group, whose weights into each receiver are
summed exactly and skipped when zero.  Per (group, receiver type),
g = lin*y + amp1*sin(freq1*y + phase1) and freq_y*y are computed once,
and each receiver c adds acc * (g + amp2*sin(freq_x*x_c + freq_y*y +
phase2)).  So each receiver gains its groups' terms in ascending (sender
type, state) order, the fold's order, and since Python adds a + b + c
as (a + b) + c, hoisting g and freq_y*y changes no bit: the push gives
the fold's bits exactly.

The intrinsic term is an affine map plus a sinusoid and the coupling is
a degree-one polynomial in the sender state plus sinusoids; the linear
gains are scaled so every sampled system is globally bounded, which
keeps long verification runs away from the overflow guard.  With the
exo flag the coupling is replaced by h(x, y) - h(x, x), which vanishes
exactly for same-state senders; each step computes h(x_c, x_c) once per
(receiver class, sender type).
"""

from __future__ import annotations

import marshal
import math
import os
import random
import threading
from itertools import chain, groupby
from math import sin
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import NumericalBlowup, SynckitError, UnsupportedMonoid
from .network import Network
from .partition import Partition
from .synchrony import BalancedCertificate, cir_balanced
from .connectivity import cumulative_in_k, in_reachability

OVERFLOW_GUARD = 1e12


class SelfParams(NamedTuple):
    bias: float
    gain: float
    amp: float
    freq: float
    phase: float


class CouplingParams(NamedTuple):
    lin: float
    amp1: float
    freq1: float
    phase1: float
    amp2: float
    freq_x: float
    freq_y: float
    phase2: float


class AdmissibleFunctionSpec(NamedTuple):
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
# A system is compiled once per (network, spec) into the spec's coefficient
# rows, copied to exact tuples, which unpack faster than named ones: the
# intrinsic coefficients by cell type - 1 and the coupling's by (receiver
# type - 1, sender type - 1).  The system keeps its network, from which each
# orbit finds its synchronized classes and their quotient, and keeps those
# keyed by the start's (type, state) partition, which alone decides them:
# a check's orbits from starts with the same shared states build them once.


class _System(NamedTuple):
    net: Network
    exo: bool
    selfs: tuple[tuple[float, ...], ...]
    couplings: tuple[tuple[tuple[float, ...], ...], ...]
    quotients: dict[Partition, tuple]


def _compile(net: Network, spec: AdmissibleFunctionSpec) -> _System:
    if spec.num_types < net.num_types:
        raise SynckitError("spec was sampled for fewer cell types than the network has")
    couplings = tuple(tuple(map(tuple, row)) for row in spec.coupling_params)
    return _System(net, spec.exo, tuple(map(tuple, spec.self_params)), couplings, {})


def _merge(pushes: Iterable[tuple]) -> list[tuple]:
    """One sender's pushes from the pushes of several same-state classes:
    weights summed per receiver, zero sums dropped."""
    sums: dict[int, tuple] = {}
    for rt, coeffs, pairs in pushes:
        row = sums.setdefault(rt, (coeffs, {}))[1]
        for r, w in pairs:
            row[r] = row.get(r, 0) + w
    return [(rt, coeffs, pairs) for rt, (coeffs, row) in sums.items()
            if (pairs := [(r, w) for r, w in row.items() if w])]


def _class_quotient(system: _System, start: Partition) -> tuple:
    """The synchronized classes of orbits from a start with the given
    (type, state) partition, and the class quotient they push along."""
    net, exo, selfs, couplings, _ = system
    classes = cir_balanced(net, start)
    colors = classes.colors
    firsts = [block[0] for block in classes.blocks()]
    types = [net.cell_types[c] - 1 for c in firsts]
    own = [selfs[t] for t in types]
    # the class quotient, read off each receiver class's first cell: per sender
    # class, per receiver type, (type, coefficients, (receiver class, weight) pairs)
    pushes: list[list[tuple]] = [[] for _ in firsts]
    for rt in sorted(set(types)):
        sums: list[dict[int, int]] = [{} for _ in firsts]  # sender -> receiver -> weight
        for r, c in enumerate(firsts):
            if types[r] == rt:
                for d, w in net.in_edges[c]:
                    row = sums[colors[d]]
                    row[r] = row.get(r, 0) + w
        for s, row in enumerate(sums):
            if pairs := [rw for rw in row.items() if rw[1]]:
                pushes[s].append((rt, couplings[rt][types[s]], pairs))
    # per sender type, ascending: its pushing classes and, for exo, each receiver's coefficients
    by_type = []
    for t in sorted(set(types)):
        senders = [s for s, ts in enumerate(types) if ts == t and pushes[s]]
        hearing = exo and {r: coeffs for s in senders for _, coeffs, pairs in pushes[s] for r, _ in pairs}
        by_type.append((senders, hearing))
    return colors, firsts, own, pushes, by_type


def _orbit_map(
    system: _System, x0: tuple[float, ...]
) -> Callable[[tuple[float, ...]], tuple[float, ...]]:
    """The compiled map for the orbit from x0, evaluated once per synchronized class.

    Each step pushes every sender class's state along the class quotient
    and copies each class's value to its cells, which gives the full map's
    bits (see the module docstring).
    """
    exo, quotients = system.exo, system.quotients
    start = Partition.from_assignment(zip(system.net.cell_types, x0))
    if start not in quotients:
        quotients[start] = _class_quotient(system, start)
    colors, firsts, own, pushes, by_type = quotients[start]

    def step(x: tuple[float, ...]) -> tuple[float, ...]:
        xbar = list(map(x.__getitem__, firsts))
        if 0.0 in xbar:  # -0.0 == 0.0
            xbar = [v + 0.0 for v in xbar]
        state = xbar.__getitem__
        totals = [
            bias + gain * xc + amp * sin(freq * xc + phase)
            for (bias, gain, amp, freq, phase), xc in zip(own, xbar)
        ]
        for senders, hearing in by_type:
            if exo:
                hx = {}
                for r, (lin, amp1, freq1, phase1, amp2, freq_x, freq_y, phase2) in hearing.items():
                    xc = xbar[r]
                    hx[r] = (
                        lin * xc
                        + amp1 * sin(freq1 * xc + phase1)
                        + amp2 * sin(freq_x * xc + freq_y * xc + phase2)
                    )
            order = sorted(senders, key=state)
            ys = list(map(state, order))
            if len(set(ys)) == len(ys):
                runs = zip(ys, map(pushes.__getitem__, order))
            else:  # merge the pushes of each run of same-state classes
                runs = [(y, _merge(chain.from_iterable(map(pushes.__getitem__, run))))
                        for y, run in groupby(order, state)]
            for y, run_pushes in runs:
                for _, (lin, amp1, freq1, phase1, amp2, freq_x, freq_y, phase2), pairs in run_pushes:
                    g = lin * y + amp1 * sin(freq1 * y + phase1)
                    fy = freq_y * y
                    if exo:
                        for r, w in pairs:
                            totals[r] += w * (g + amp2 * sin(freq_x * xbar[r] + fy + phase2) - hx[r])
                    else:
                        for r, w in pairs:
                            totals[r] += w * (g + amp2 * sin(freq_x * xbar[r] + fy + phase2))
        return tuple(map(totals.__getitem__, colors))

    return step


# No command calls these two; they stay while bench/spans.py traces them.
def component_value(
    net: Network, spec: AdmissibleFunctionSpec, x: tuple[float, ...], c: int
) -> float:
    return evaluate(net, spec, x)[c]


def evaluate(net: Network, spec: AdmissibleFunctionSpec, x: tuple[float, ...]) -> tuple[float, ...]:
    """One application of the admissible function to a full state."""
    x = tuple(x)
    return _orbit_map(_compile(net, spec), x)(x)


class Trajectory(NamedTuple):
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
    _check_run(mode=mode, dt=dt, steps=steps, least_steps=0)
    if len(x0) != net.n_cells:
        raise SynckitError("initial state length does not match the network")
    states = tuple(_orbit(_compile(net, spec), tuple(x0), steps, mode, dt))
    times = (0.0, *(float(s) if mode == "discrete" else dt * s for s in range(1, len(states))))
    return Trajectory(times, states, mode, dt if mode == "rk4" else None)


def _check_run(
    *, mode: str = "discrete", dt: float = 1.0, steps: int = 1, trials: int = 1,
    tol: float = 0.0, least_steps: int = 1,
) -> None:
    """Refuse run settings under which a verdict would not rest on the run.

    No trials or no steps pass vacuously, a zero step size never moves the
    state, an infinite or NaN one cannot be integrated, and a negative or
    NaN tolerance fails every comparison while an infinite one passes
    every comparison.  A default stands for a setting the caller lacks.
    """
    if mode not in ("discrete", "rk4"):
        raise SynckitError(f"unknown mode {mode!r}")
    if trials < 1:
        raise SynckitError(f"trials must be at least 1, got {trials}")
    if steps < least_steps:
        raise SynckitError(f"steps must be at least {least_steps}, got {steps}")
    if not 0.0 < dt < math.inf:  # False for NaN
        raise SynckitError(f"dt must be finite and positive, got {dt}")
    if not 0.0 <= tol < math.inf:
        raise SynckitError(f"tol must be finite and at least 0, got {tol}")


def _orbit(
    system: _System, x: tuple[float, ...], steps: int, mode: str = "discrete", dt: float = 1e-3
) -> Iterator[tuple[float, ...]]:
    """x, then the state after each map application or RK4 step; all guarded, mode unchecked."""
    _guard(x)
    yield x
    if not steps:
        return
    f = _orbit_map(system, x)
    for _ in range(steps):
        x = f(x) if mode == "discrete" else _rk4_step(f, x, dt)
        _guard(x)
        yield x


def _rk4_step(
    f: Callable[[tuple[float, ...]], tuple[float, ...]], x: tuple[float, ...], dt: float
) -> tuple[float, ...]:
    half = 0.5 * dt
    k1 = f(x)
    k2 = f(_stage(x, half, k1))
    k3 = f(_stage(x, half, k2))
    k4 = f(_stage(x, dt, k3))
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


def _random_state(rng: random.Random, n: int) -> tuple[float, ...]:
    return tuple(rng.uniform(-1.5, 1.5) for _ in range(n))


# ---------------------------------------------------------------------------
# Trials
#
# A check's trials are seeded by index and share nothing but the compiled
# systems, so each is a function of its index that returns plain data, and
# one generator runs them in order, in-process or split with forked workers.
# Each worker needs _FORK_WORK units of estimated work, trials x steps x
# (cells + edges), so below it the trials stay in-process; the choice never
# depends on timing.  Forking a worker, reading its pipe and reaping it took
# 2.4-3.1 ms in an 18 MB CLI process on a 2-CPU Xeon, where an orbit step
# that evaluates every cell took 0.6-1.1 us per cell or edge.  A worker's
# block then holds a third of _FORK_WORK units or more, over 4 ms of such
# steps.  Orbits lumped to one cell per class cost about 0.17 us per unit
# and gain only from about 50000.

_FORK_WORK = 20_000
_SIGKILL = 9  # signal.SIGKILL, without loading the signal module


def _trial_results(
    trial: Callable[[int], object], trials: int, net: Network, steps: int
) -> Iterator:
    """trial(t) for t in range(trials), in order, as the in-process loop gives them.

    Trial 0 runs here first, building the compiled systems' class quotients
    that the workers then inherit.  When it pays, one worker per further
    CPU, up to one per _FORK_WORK units of work, runs a contiguous block of
    the upper trials while this process runs the lower block.  A trial that
    a worker did not return (it raised, the worker died or its output was
    cut short) is run again here, so the bits, the exception and the trial
    that raises are the in-process loop's.  Closing the generator kills and
    reaps every worker still running.
    """
    yield trial(0)
    blocks = 1
    if threading.active_count() == 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        work = trials * steps * (net.n_cells + len(net.edges))
        blocks = min(len(os.sched_getaffinity(0)), trials, work // _FORK_WORK + 1)
    # block k runs trials bounds[k] .. bounds[k + 1] - 1; block 0 is this process's
    bounds = [1 + (trials - 1) * k // blocks for k in range(blocks + 1)]
    workers: dict[int, tuple[int, int]] = {}  # block -> (pid, read end)
    try:
        for k in range(1, blocks):
            if (worker := _fork(trial, bounds[k], bounds[k + 1])) is not None:
                workers[k] = worker
        for t in range(1, bounds[1]):
            yield trial(t)
        for k in range(1, blocks):
            returned = []
            if k in workers:
                returned = _read(workers[k][1])
                _reap(*workers.pop(k))
            for t in range(bounds[k], bounds[k + 1]):
                i = t - bounds[k]
                yield returned[i] if i < len(returned) else trial(t)
    finally:
        for pid, fd in workers.values():
            os.kill(pid, _SIGKILL)
            _reap(pid, fd)


def _fork(trial: Callable[[int], object], lo: int, hi: int) -> Optional[tuple[int, int]]:
    """A worker running trials lo .. hi - 1, as (pid, read end), or None if none started."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # leave only through _exit: no inherited buffer is flushed, no atexit handler runs
        try:
            os.close(r)
            _work(trial, lo, hi, w)
        finally:
            os._exit(0)
    os.close(w)
    return pid, r


def _work(trial: Callable[[int], object], lo: int, hi: int, fd: int) -> None:
    """Write the marshalled list of trial(lo), trial(lo + 1), ... up to the
    first that raises, which the parent runs again."""
    done = []
    try:
        for t in range(lo, hi):
            done.append(trial(t))
    finally:
        data = memoryview(marshal.dumps(done))
        while data:
            data = data[os.write(fd, data):]


def _read(fd: int) -> list:
    """A worker's returned trials, read to the end of its pipe; [] if cut short."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    try:
        returned = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError, TypeError):
        return []
    return returned if isinstance(returned, list) else []


def _reap(pid: int, fd: int) -> None:
    os.close(fd)
    os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Verification reports


class TrialResult(NamedTuple):
    max_spread: float
    steps_run: int
    aborted: bool


class InvarianceReport(NamedTuple):
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
    _check_run(mode=mode, dt=dt, steps=steps, trials=trials, tol=tol)
    system = _compile(net, spec)
    # a getter per color of two or more cells, which returns its states as a tuple
    picks = [itemgetter(*block) for block in p.blocks() if len(block) > 1]

    def trial(t: int) -> tuple[float, int, bool]:
        rng = random.Random(f"invariance:{rng_seed}:{t}")
        orbit = _orbit(system, expand_state(_random_state(rng, p.rank), p), steps, mode, dt)
        next(orbit)  # the start, on the polydiagonal
        spread, ran, aborted = 0.0, 0, False
        try:
            for ran, x in enumerate(orbit, 1):
                for pick in picks:
                    values = pick(x)
                    gap = max(values) - min(values)
                    if gap > spread:
                        spread = gap
                if stop_above is not None and spread > stop_above:
                    break
        except NumericalBlowup:
            aborted = True
        return spread, ran, aborted

    results = []
    worst = 0.0
    runs = _trial_results(trial, trials, net, steps)
    try:
        for run in runs:
            results.append(TrialResult(*run))
            worst = max(worst, run[0])
            if stop_above is not None and worst > stop_above:
                break
    finally:
        runs.close()  # stops the workers of an early stop
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


class LocalityTrial(NamedTuple):
    agreed: bool
    first_mismatch_step: Optional[int]


class LocalityReport(NamedTuple):
    cell: int
    k: int
    trials: tuple[LocalityTrial, ...]
    all_agreed: bool

    def to_json(self, cell_ids: Sequence[str]) -> dict:
        return {
            "cell": cell_ids[self.cell],
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
) -> LocalityReport:
    """Perturb cells outside the k-step neighborhood of c.

    The perturbations must leave x_c through step k bit-for-bit unchanged
    in discrete mode.  Trials with an empty perturbation support count as
    agreeing runs.
    """
    _check_run(trials=trials)
    support = sorted(set(range(net.n_cells)) - cumulative_in_k(net, c, k))
    system = _compile(net, spec)

    def trial(t: int) -> tuple[bool, Optional[int]]:
        if not support:
            return True, None
        rng = random.Random(f"locality:{rng_seed}:{t}")
        x0 = _random_state(rng, net.n_cells)
        bumped = list(x0)
        for d in support:
            bumped[d] += rng.uniform(0.1, 1.0)
        # the two orbits run side by side, one state of each held at a time;
        # every step still runs, so a blowup after a mismatch aborts the check
        mismatch = None
        for s, (x, y) in enumerate(zip(_orbit(system, x0, k), _orbit(system, tuple(bumped), k))):
            if mismatch is None and x[c] != y[c]:
                mismatch = s
        return mismatch is None, mismatch

    runs = _trial_results(trial, trials, net, k if support else 0)
    results = [LocalityTrial(*run) for run in runs]
    return LocalityReport(c, k, tuple(results), all(t.agreed for t in results))


class ComparisonReport(NamedTuple):
    """How far a smaller system strayed from the full one.

    The verdict is `exact`, agreement bit for bit, in both modes: the
    smaller system reproduces the full orbit's bits in RK4 mode as in
    discrete mode (see the module docstring), so any deviation is a fault.
    """

    label: str
    max_deviation: float

    @property
    def exact(self) -> bool:
        return self.max_deviation == 0.0

    def to_json(self) -> dict:
        return {"check": self.label, "max_deviation": self.max_deviation, "exact": self.exact}


def check_subsystem(
    net: Network,
    spec: AdmissibleFunctionSpec,
    c: int,
    trials: int = 5,
    steps: int = 50,
    mode: str = "discrete",
    dt: float = 1e-3,
    rng_seed: int = 0,
) -> ComparisonReport:
    """Restricting a trajectory to the reach-in set solves the subsystem."""
    _check_run(mode=mode, dt=dt, steps=steps, trials=trials)
    net.check_cell(c)
    cells = sorted(in_reachability(net, c))

    def start(t: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        x0 = _random_state(random.Random(f"subsystem:{rng_seed}:{t}"), net.n_cells)
        return x0, tuple(x0[d] for d in cells)

    worst = _deviation(
        _compile(net, spec), _compile(net.subnetwork(cells), spec), start, trials,
        cells, range(len(cells)), steps, mode, dt,
    )
    return ComparisonReport("subsystem", worst)


def check_quotient_consistency(
    net: Network,
    spec: AdmissibleFunctionSpec,
    cert: BalancedCertificate,
    trials: int = 5,
    steps: int = 50,
    mode: str = "discrete",
    dt: float = 1e-3,
    rng_seed: int = 0,
) -> ComparisonReport:
    """The quotient system reproduces the full system on the polydiagonal."""
    _check_run(mode=mode, dt=dt, steps=steps, trials=trials)
    p = cert.partition

    def start(t: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        xbar = _random_state(random.Random(f"quotient:{rng_seed}:{t}"), p.rank)
        return expand_state(xbar, p), xbar

    worst = _deviation(
        _compile(net, spec), _compile(cert.quotient, spec), start, trials,
        range(net.n_cells), p.colors, steps, mode, dt,
    )
    return ComparisonReport("quotient", worst)


def _deviation(
    full_system: _System,
    small_system: _System,
    start: Callable[[int], tuple[tuple[float, ...], tuple[float, ...]]],
    trials: int,
    full_at: Sequence[int],
    small_at: Sequence[int],
    steps: int,
    mode: str,
    dt: float,
) -> float:
    """Largest |full[full_at[i]] - small[small_at[i]]| over the paired orbits
    from start(0), ..., start(trials - 1).

    Each full orbit is run to the end before its smaller one, so a
    blowup in both is reported from the full system.
    """
    def trial(t: int) -> float:
        x0, y0 = start(t)
        full = list(_orbit(full_system, x0, steps, mode, dt))
        small = list(_orbit(small_system, y0, steps, mode, dt))
        worst = 0.0
        for x, y in zip(full, small):
            gaps = map(sub, map(x.__getitem__, full_at), map(y.__getitem__, small_at))
            worst = max(worst, max(map(abs, gaps)))
        return worst

    return max(_trial_results(trial, trials, full_system.net, steps))
