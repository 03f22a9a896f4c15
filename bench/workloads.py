"""Seeded network generators, command scripts and output checks.

A workload is a fixed script of synckit CLI commands over networks
generated from the seed.  Every step names the exit code it must return
and a check that compares its JSON output with an answer known by
construction or recomputed by `oracle` (never by synckit itself).
Expected answers are computed lazily, on the first check that needs
them, so that none of that work lands in the timed set-up.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import oracle

WHY = {
    "structure": (
        "wide n=1000 planted lift plus a deep 200-cell chain: dense O(n^2) parse, "
        "connectivity and balance passes, and cir with about n rounds on the chain"
    ),
    "lattice": (
        "small networks under the 12-cell cap: Bell-number scans with nearly trivial "
        "lattices next to K6, whose 203-element lattice makes Hasse and join tables dominate"
    ),
    "dynamics": (
        "300-cell planted lift: the pure-Python evaluator dominates simulate and the "
        "invariance, quotient, subsystem and locality verifiers"
    ),
}

# Per workload and size: the generator parameters.
SIZES = {
    "full": {
        "wide_colors": 100, "wide_color_size": 10, "wide_per_row": 4,
        "chain_cells": 200,
        "lattice_cells": 9, "complete_cells": 6,
        "dyn_colors": 50, "dyn_color_size": 6, "dyn_per_row": 5,
        "sim_steps": 100, "rk4_steps": 20,
    },
    "small": {
        "wide_colors": 12, "wide_color_size": 4, "wide_per_row": 4,
        "chain_cells": 12,
        "lattice_cells": 6, "complete_cells": 4,
        "dyn_colors": 8, "dyn_color_size": 4, "dyn_per_row": 3,
        "sim_steps": 5, "rk4_steps": 3,
    },
}

# quotient weights cycle through 8 ones, 7 twos and 5 minus ones
WEIGHT_CYCLE = (1, 2, -1, 1, 2, 1, 2, -1, 1, 2, 1, -1, 2, 1, 2, -1, 1, 2, 1, -1)
CIR_DEPTH = 2


@dataclass
class Step:
    """One CLI invocation with its expected exit code and output check."""

    name: str
    family: str
    argv: list[str]
    code: int
    check: Callable[[Any], list[str]]


@dataclass
class Lift:
    """A generated network with a planted balanced partition."""

    ids: list[str]
    types: list[int]
    colors: list[int]
    edges: list[tuple[str, str, int]]
    sink: int = -1  # a cell with no out-edges, listed last, or -1

    @cached_property
    def net(self) -> oracle.Net:
        return oracle.Net.fold(self.ids, self.types, self.edges)

    @cached_property
    def reach(self) -> list[int]:
        return oracle.reach_bits(self.net)

    @cached_property
    def planted(self) -> tuple[int, ...]:
        return oracle.canonical(self.colors)

    def doc(self) -> dict:
        return {
            "monoid": "int-add",
            "cells": [{"id": i, "type": t} for i, t in zip(self.ids, self.types)],
            "edges": [{"from": s, "to": d, "weight": w} for s, d, w in self.edges],
        }

    def spec(self, colors) -> str:
        return oracle.spec_of(oracle.canonical(colors), self.ids)

    def type_colors(self) -> tuple[int, ...]:
        return oracle.canonical(self.types)


# ---------------------------------------------------------------------------
# generators


def _quotient_rows(rng: random.Random, color_types: list[int], per_row: int,
              feedforward: bool, depth: int | None) -> list[list[tuple[int, int]]]:
    """Random quotient rows; with a depth, cir from the types is discrete at it.

    The weight multiset is fixed per size, so edge counts do not depend
    on the seed; a fixed refinement depth keeps the number of cir rounds
    on the lift equal for every seed.
    """
    k_all = len(color_types)
    for _ in range(10000):
        weights = [WEIGHT_CYCLE[i % len(WEIGHT_CYCLE)] for i in range(k_all * per_row)]
        rng.shuffle(weights)
        rows = []
        for k, t in enumerate(color_types):
            allowed = [l for l in range(k_all)
                       if not (feedforward and t == 1 and color_types[l] != 1)]
            srcs = rng.sample(allowed, per_row)
            rows.append(sorted(zip(srcs, weights[k * per_row:(k + 1) * per_row])))
        if depth is None:
            return rows
        q = oracle.Net(tuple(map(str, range(k_all))), tuple(color_types),
                       tuple(tuple(r) for r in rows))
        final, rounds = oracle.refine(q, q.types)
        if len(set(final)) == k_all and rounds == depth:
            return rows
    raise ValueError(f"no quotient with a discrete cir at depth {depth}")


def planted_lift(rng: random.Random, prefix: str, n_colors: int, color_size: int,
                 n_types: int, per_row: int, feedforward: bool = False,
                 sink: bool = False, depth: int | None = CIR_DEPTH) -> Lift:
    """Lift a random quotient to color_size cells per color.

    Each quotient weight becomes unit edges from senders of the source
    color: a 2 is either two parallel +1 edges from one sender (folded) or
    +1 from two senders; every other +1 carries a +1/-1 pair from a second
    sender that cancels.  Senders are dealt round-robin from a shuffled
    deck per color so out-degrees stay even.  With sink=True the last
    listed cell sends to nobody.
    """
    color_types = [1 + k * n_types // n_colors for k in range(n_colors)]
    rows = _quotient_rows(rng, color_types, per_row, feedforward, depth)
    n = n_colors * color_size
    order = list(range(n))
    rng.shuffle(order)
    # cell c (in generation order) is color c // color_size; it is listed at position pos[c]
    pos = {c: i for i, c in enumerate(order)}
    members = [list(range(k * color_size, (k + 1) * color_size)) for k in range(n_colors)]
    sink_cell = order[-1] if sink else -1
    decks: list[list[int]] = [[] for _ in range(n_colors)]

    def draw(l: int, avoid: set[int]) -> int:
        for _ in range(2):
            if not decks[l]:
                decks[l] = [d for d in members[l] if d != sink_cell]
                rng.shuffle(decks[l])
            for i in range(len(decks[l]) - 1, -1, -1):
                if decks[l][i] not in avoid:
                    return decks[l].pop(i)
            decks[l] = []
        raise ValueError("color too small for its quotient row")

    units: list[tuple[int, int, int]] = []
    for c in range(n):
        k, j = divmod(c, color_size)
        for l, w in rows[k]:
            a = draw(l, {c})
            if w == 2 and j % 2 == 0:
                units += [(a, c, 1), (a, c, 1)]
            elif w == 2:
                units += [(a, c, 1), (draw(l, {c, a}), c, 1)]
            elif w == 1 and j % 2 == 1:
                b = draw(l, {c, a})
                units += [(a, c, 1), (b, c, 1), (b, c, -1)]
            else:
                units.append((a, c, w))
    rng.shuffle(units)
    ids = [f"{prefix}{i}" if prefix else str(i + 1) for i in range(n)]
    cells = sorted(range(n), key=pos.__getitem__)
    return Lift(
        ids=ids,
        types=[color_types[c // color_size] for c in cells],
        colors=[c // color_size for c in cells],
        edges=[(ids[pos[s]], ids[pos[d]], w) for s, d, w in units],
        sink=pos[sink_cell] if sink else -1,
    )


def chain(n: int) -> Lift:
    ids = [f"k{i}" for i in range(n)]
    return Lift(ids, [1] * n, list(range(n)), [(ids[i], ids[i + 1], 1) for i in range(n - 1)])


def ring(n: int) -> Lift:
    ids = [str(i + 1) for i in range(n)]
    return Lift(ids, [1] * n, list(range(n)), [(ids[i], ids[(i + 1) % n], 1) for i in range(n)])


def complete(n: int) -> Lift:
    ids = [str(i + 1) for i in range(n)]
    edges = [(ids[d], ids[c], 1) for c in range(n) for d in range(n) if c != d]
    return Lift(ids, [1] * n, [0] * n, edges)


def sparse_random(rng: random.Random, n: int, in_degree: int = 2) -> Lift:
    ids = [str(i + 1) for i in range(n)]
    edges = []
    for c in range(n):
        for d in rng.sample([d for d in range(n) if d != c], in_degree):
            edges.append((ids[d], ids[c], 1))
    return Lift(ids, [1] * n, list(range(n)), edges)


# ---------------------------------------------------------------------------
# checks


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        text = f"{what}: got {got!r}, want {want!r}"
        errors.append(text if len(text) < 300 else text[:300] + "...")


def _partition_set(blocks: list[list[str]], ids: list[str]) -> tuple[int, ...]:
    index = {cid: i for i, cid in enumerate(ids)}
    colors = [-1] * len(ids)
    for k, block in enumerate(blocks):
        for cid in block:
            colors[index[cid]] = k
    return oracle.canonical(colors)


def _scc_check(lift: Lift) -> Callable[[Any], list[str]]:
    def check(out) -> list[str]:
        errs: list[str] = []
        _expect(errs, "scc partition", _partition_set(out["sccs"], lift.ids),
                oracle.canonical(oracle.sccs(lift.net)))
        return errs
    return check


def _condense_check(lift: Lift) -> Callable[[Any], list[str]]:
    def check(out) -> list[str]:
        errs: list[str] = []
        label = oracle.canonical(oracle.sccs(lift.net))
        _expect(errs, "scc partition", _partition_set(out["sccs"], lift.ids), label)
        # map the printed block numbers onto canonical labels via a member cell
        index = {cid: i for i, cid in enumerate(lift.ids)}
        rename = {k: label[index[b[0]]] for k, b in enumerate(out["sccs"])}
        edges = {(label[d], label[c]) for c, row in enumerate(lift.net.rows)
                 for d, _ in row if label[c] != label[d]}
        _expect(errs, "dag edges", {(rename[s], rename[t]) for s, t in out["edges"]}, edges)
        _expect(errs, "roots", {rename[k] for k in out["roots"]},
                set(range(max(label) + 1)) - {t for _, t in edges})
        return errs
    return check


def _rdc_colors(lift: Lift) -> tuple[int, ...]:
    label = oracle.sccs(lift.net)
    roots = set(label) - {label[c] for c, row in enumerate(lift.net.rows)
                          for d, _ in row if label[c] != label[d]}
    return oracle.canonical(
        frozenset(label[d] for d in oracle.bits_to_cells(lift.reach[c]) if label[d] in roots)
        for c in range(lift.net.n)
    )


def _spec_check(lift: Lift, key: str, want: Callable[[], tuple[int, ...]]):
    def check(out) -> list[str]:
        errs: list[str] = []
        _expect(errs, key, oracle.parse_spec(out[key], lift.ids), want())
        return errs
    return check


def _fields_check(**want: Callable[[Any], Any]) -> Callable[[Any], list[str]]:
    def check(out) -> list[str]:
        errs: list[str] = []
        for key, expected in want.items():
            _expect(errs, key, out.get(key), expected(out))
        return errs
    return check


def _cir_check(lift: Lift, start: tuple[int, ...], want: Callable[[], tuple[int, ...]]):
    def check(out) -> list[str]:
        errs: list[str] = []
        got = oracle.parse_spec(out["cir"], lift.ids)
        _expect(errs, "cir", got, want())
        if not oracle.balanced_by_matmul(lift.net, got):
            errs.append("cir result is not balanced (M @ P rows differ within a color)")
        if not (oracle.refines(lift.planted, got) and oracle.refines(got, start)):
            errs.append("cir result is not between the planted and the starting partition")
        return errs
    return check


def _classify_check(lift: Lift, colors: Callable[[], tuple[int, ...]]):
    def check(out) -> list[str]:
        errs: list[str] = []
        per_color = [oracle.color_class(lift.reach, b) for b in oracle.blocks_of(colors())]
        _expect(errs, "colors", out["colors"], per_color)
        _expect(errs, "class", out["class"], oracle.partition_class(per_color))
        return errs
    return check


def _matched(lift: Lift, kind: str) -> bool:
    return oracle.is_matched(lift.planted, oracle.neighborhood_bits(lift.net, kind, lift.reach))


def _quotient(lift: Lift, colors) -> oracle.Net:
    """Quotient network, its cell ids joined as documented for the CLI."""
    joiner = "" if all(len(i) == 1 for i in lift.ids) else "+"
    return oracle.quotient_net(lift.net, colors, joiner)


def _quotient_doc_check(lift: Lift):
    def check(out) -> list[str]:
        errs: list[str] = []
        q = _quotient(lift, lift.planted)
        _expect(errs, "quotient cells", [(c["id"], c["type"]) for c in out["cells"]],
                list(zip(q.ids, q.types)))
        got = sorted((e["from"], e["to"], e["weight"]) for e in out["edges"])
        want = sorted((q.ids[d], q.ids[c], w) for c, row in enumerate(q.rows) for d, w in row)
        _expect(errs, "quotient edges", got, want)
        return errs
    return check


def _lattice_expected(lift: Lift) -> tuple[list[tuple[int, ...]], set[tuple[int, int]]]:
    elements = oracle.balanced_lattice(lift.net)
    return elements, oracle.cover_pairs(elements)


def _lattice_check(lift: Lift, expected: Callable[[], tuple[list, set]]):
    def check(out) -> list[str]:
        errs: list[str] = []
        elements, covers = expected()
        got = [oracle.parse_spec(s, lift.ids) for s in out["elements"]]
        _expect(errs, "lattice size", len(got), len(elements))
        _expect(errs, "lattice elements", set(got), set(elements))
        pos = {p: i for i, p in enumerate(elements)}
        if set(got) == set(elements):
            _expect(errs, "cover edges", {(pos[got[i]], pos[got[j]]) for i, j in out["cover_edges"]},
                    covers)
            n = len(lift.ids)
            _expect(errs, "bottom", got[out["bottom"]], tuple(range(n)))
            coarsest = max(elements, key=lambda p: sum(oracle.refines(q, p) for q in elements))
            _expect(errs, "top", got[out["top"]], coarsest)
        return errs
    return check


def _tables_check(lift: Lift, expected: Callable[[], tuple[list, set]]):
    def check(out) -> list[str]:
        errs: list[str] = []
        elements, _ = expected()
        classes = {p: oracle.partition_class([oracle.color_class(lift.reach, b)
                                              for b in oracle.blocks_of(p)]) for p in elements}
        got = {oracle.parse_spec(e["partition"], lift.ids): e["class"] for e in out["elements"]}
        _expect(errs, "element classes", got, classes)
        m = len(elements)
        _expect(errs, "pair count", len(out["pairs"]), m * (m + 1) // 2)
        parse_cache: dict[str, tuple[int, ...]] = {}

        def parse(s: str) -> tuple[int, ...]:
            if s not in parse_cache:
                parse_cache[s] = oracle.parse_spec(s, lift.ids)
            return parse_cache[s]

        nonweak_closed = True
        for pair in out["pairs"]:
            left, right, joined = parse(pair["left"]), parse(pair["right"]), parse(pair["join"])
            if oracle.join(left, right) != joined:
                errs.append(f"join of {pair['left']} and {pair['right']} is not {pair['join']}")
                break
            if (classes[left], classes[right], classes[joined]) != (
                    pair["left_class"], pair["right_class"], pair["join_class"]):
                errs.append(f"pair classes wrong for {pair['left']} | {pair['right']}")
                break
            if "weak" not in (classes[left], classes[right]) and classes[joined] == "weak":
                nonweak_closed = False
        reach_matched = all(
            oracle.is_matched(p, lift.reach) for p in elements if classes[p] == "rooted")
        _expect(errs, "general_table_ok", out["general_table_ok"], True)
        _expect(errs, "rooted_all_reach_matched", out["rooted_all_reach_matched"], reach_matched)
        _expect(errs, "matched_table_ok", out["matched_table_ok"], True if reach_matched else None)
        _expect(errs, "nonweak_join_closed", out["nonweak_join_closed"], nonweak_closed)
        return errs
    return check


def _quotient_tables_check(lift: Lift, expected: Callable[[], tuple[list, set]]):
    def check(out) -> list[str]:
        errs: list[str] = []
        elements, _ = expected()
        base = lift.planted
        qnet = _quotient(lift, base)
        qreach = oracle.reach_bits(qnet)

        def cls(reach, p):
            return oracle.partition_class([oracle.color_class(reach, b) for b in oracle.blocks_of(p)])

        want = {}
        for p in elements:
            if oracle.refines(base, p):
                image = {}
                for c, k in enumerate(base):
                    image[k] = p[c]
                qp = oracle.canonical(image[k] for k in range(len(qnet.ids)))
                want[p] = (cls(lift.reach, p), qp, cls(qreach, qp))
        got = {
            oracle.parse_spec(e["partition"], lift.ids): (
                e["class"], oracle.parse_spec(e["quotient_partition"], qnet.ids), e["quotient_class"])
            for e in out["entries"]
        }
        _expect(errs, "over", oracle.parse_spec(out["over"], lift.ids), base)
        _expect(errs, "entries", got, want)
        _expect(errs, "reach_invariant", out["reach_invariant"],
                oracle.reach_invariant(lift.net, base, lift.reach, qnet))
        _expect(errs, "table_ok", out["table_ok"], True)
        return errs
    return check


def _trajectory_check(lift: Lift, x0: list[float], steps: int, mode: str):
    def check(out) -> list[str]:
        errs: list[str] = []
        _expect(errs, "cells", out["cells"], lift.ids)
        _expect(errs, "mode", out["mode"], mode)
        _expect(errs, "time points", len(out["times"]), steps + 1)
        _expect(errs, "initial state", out["states"][0], x0)
        blocks = oracle.blocks_of(lift.planted)
        for t, state in enumerate(out["states"]):
            if not all(math.isfinite(v) for v in state):
                errs.append(f"non-finite state at step {t}")
                break
            if any(len({state[c] for c in b}) != 1 for b in blocks):
                errs.append(f"state left the planted polydiagonal at step {t}")
                break
        return errs
    return check


def _invariance_check(trials: int, invariant: bool):
    def check(out) -> list[str]:
        errs: list[str] = []
        _expect(errs, "invariant", out["invariant"], invariant)
        _expect(errs, "trials", len(out["trials"]), trials)
        _expect(errs, "aborted trials", sum(t["aborted"] for t in out["trials"]), 0)
        if invariant:
            _expect(errs, "max_spread", out["max_spread"], 0.0)
        elif not out["max_spread"] > out["tol"]:
            errs.append("non-balanced partition showed no spread above tol")
        return errs
    return check


def _exact_check(label: str):
    def check(out) -> list[str]:
        errs: list[str] = []
        _expect(errs, "check", out["check"], label)
        _expect(errs, "exact", out["exact"], True)
        _expect(errs, "max_deviation", out["max_deviation"], 0.0)
        return errs
    return check


def _locality_check(trials: int):
    def check(out) -> list[str]:
        errs: list[str] = []
        _expect(errs, "all_agreed", out["all_agreed"], True)
        _expect(errs, "trials", [t["first_mismatch_step"] for t in out["trials"]], [None] * trials)
        return errs
    return check


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    steps: list[Step]
    networks: dict[str, Lift]

    def inputs(self) -> dict[str, dict[str, int]]:
        return {k: {"cells": len(v.ids), "edges": v.net.n_edges, "edge_lines": len(v.edges)}
                for k, v in self.networks.items()}


def _write(workdir: str, name: str, lift: Lift) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lift.doc(), fh)
    return path


def _cmd(family: str, path: str, *extra: str) -> list[str]:
    return [family, "--network", path, "--format", "json", *extra]


def _perturbed(lift: Lift, rng: random.Random) -> tuple[int, ...]:
    """Move the sink cell to another color of its type: not balanced."""
    x = lift.sink
    others = sorted({k for c, k in enumerate(lift.colors)
                     if lift.types[c] == lift.types[x] and k != lift.colors[x]})
    colors = list(lift.colors)
    colors[x] = rng.choice(others)
    return oracle.canonical(colors)


def structure(seed: int, size: dict, workdir: str) -> Workload:
    """Wide planted lift and a deep chain.

    The planted partition is balanced, exo-balanced, matched for every
    kind and reach-invariant by construction (no color's in-weights
    cancel to zero), which fixes the exit codes; the checks still
    recompute each verdict with the oracle.
    """
    rng = random.Random(f"structure:{seed}")
    wide = planted_lift(rng, "w", size["wide_colors"], size["wide_color_size"], 2,
                        size["wide_per_row"], feedforward=True, sink=True)
    deep = chain(size["chain_cells"])
    wpath, cpath = _write(workdir, "wide", wide), _write(workdir, "chain", deep)
    planted, types = wide.planted, wide.type_colors()
    bad = _perturbed(wide, rng)
    probe = wide.ids[rng.choice([c for c in range(len(wide.ids)) if wide.types[c] == 2])]
    spec = wide.spec
    n_chain = size["chain_cells"]
    trivial = tuple(range(n_chain))

    def reach_cells(out) -> list[str]:
        c = wide.ids.index(probe)
        return [wide.ids[d] for d in oracle.bits_to_cells(wide.reach[c])]

    steps = [
        Step("wide.scc", "scc", _cmd("scc", wpath), 0, _scc_check(wide)),
        Step("wide.condense", "condense", _cmd("condense", wpath), 0, _condense_check(wide)),
        Step("wide.rdc", "rdc", _cmd("rdc", wpath), 0,
             lambda out: [] if _partition_set(out["rdcs"], wide.ids) == _rdc_colors(wide)
             else ["rdc partition differs from the root-dependency classes"]),
        Step("wide.reach", "reach", _cmd("reach", wpath, "--cell", probe), 0,
             _fields_check(cell=lambda out: probe, k=lambda out: None, cells=reach_cells)),
        Step("wide.balanced", "balanced", _cmd("balanced", wpath, "--partition", spec(planted)), 0,
             _fields_check(
                 balanced=lambda out: True,
                 quotient_matrix=lambda out: oracle.dense_rows(_quotient(wide, planted)))),
        Step("wide.balanced_perturbed", "balanced",
             _cmd("balanced", wpath, "--partition", spec(bad)), 1,
             _fields_check(balanced=lambda out: oracle.is_balanced(wide.net, bad))),
        Step("wide.cir", "cir", _cmd("cir", wpath, "--partition", spec(types)), 0,
             _cir_check(wide, types, lambda: planted)),
        Step("wide.exo", "exo", _cmd("exo", wpath, "--partition", spec(planted)), 0,
             _fields_check(exo_balanced=lambda out: oracle.exo_balanced(wide.net, planted))),
        Step("wide.classify", "classify", _cmd("classify", wpath, "--partition", spec(planted)), 0,
             _classify_check(wide, lambda: planted)),
    ]
    for kind in ("n", "v", "r"):
        steps.append(Step(f"wide.matched_{kind}", "matched",
                          _cmd("matched", wpath, "--partition", spec(planted), "--kind", kind),
                          0, _fields_check(matched=lambda out, k=kind: _matched(wide, k))))
    steps += [
        Step("wide.invariant_r", "invariant",
             _cmd("invariant", wpath, "--partition", spec(planted), "--kind", "r"), 0,
             _fields_check(invariant=lambda out: oracle.reach_invariant(
                 wide.net, planted, wide.reach, _quotient(wide, planted)))),
        Step("wide.quotient", "quotient", _cmd("quotient", wpath, "--partition", spec(planted)), 0,
             _quotient_doc_check(wide)),
        Step("chain.scc", "scc", _cmd("scc", cpath), 0, _scc_check(deep)),
        Step("chain.cir", "cir", _cmd("cir", cpath, "--partition", deep.spec([0] * n_chain)), 0,
             _spec_check(deep, "cir", lambda: oracle.refine(deep.net, [0] * n_chain)[0])),
        Step("chain.classify", "classify", _cmd("classify", cpath, "--partition", deep.spec(trivial)),
             0, _classify_check(deep, lambda: trivial)),
    ]
    return Workload("structure", steps, {"wide": wide, "chain": deep})


def lattice(seed: int, size: dict, workdir: str) -> Workload:
    rng = random.Random(f"lattice:{seed}")
    n = size["lattice_cells"]
    nets = {
        "sparse_a": sparse_random(rng, n),
        "sparse_b": sparse_random(rng, n),
        "ring": ring(n),
        "lift": planted_lift(rng, "", n // 3, 3, 1, 2, depth=None),
        "complete": complete(size["complete_cells"]),
    }
    paths = {k: _write(workdir, k, v) for k, v in nets.items()}
    expected = {}

    def lattice_of(key: str):
        def get():
            if key not in expected:
                expected[key] = _lattice_expected(nets[key])
            return expected[key]
        return get

    steps = [Step(f"{k}.lattice", "lattice", _cmd("lattice", paths[k]), 0,
                  _lattice_check(nets[k], lattice_of(k))) for k in nets]
    lift = nets["lift"]
    steps += [
        Step("complete.tables", "tables", _cmd("tables", paths["complete"]), 0,
             _tables_check(nets["complete"], lattice_of("complete"))),
        Step("lift.tables", "tables", _cmd("tables", paths["lift"]), 0,
             _tables_check(lift, lattice_of("lift"))),
        Step("lift.tables_quotient", "tables",
             _cmd("tables", paths["lift"], "--quotient", lift.spec(lift.planted)), 0,
             _quotient_tables_check(lift, lattice_of("lift"))),
    ]
    return Workload("lattice", steps, nets)


def dynamics(seed: int, size: dict, workdir: str) -> Workload:
    rng = random.Random(f"dynamics:{seed}")
    net = planted_lift(rng, "d", size["dyn_colors"], size["dyn_color_size"], 2,
                       size["dyn_per_row"], feedforward=True, sink=True)
    path = _write(workdir, "lift", net)
    planted = net.planted
    bad = _perturbed(net, rng)
    xbar = [rng.uniform(-1.5, 1.5) for _ in range(max(planted) + 1)]
    x0 = [xbar[k] for k in planted]
    x0_arg = ",".join(repr(v) for v in x0)
    sim_seed = str(seed % 100000)
    upstream = net.ids[rng.choice([c for c in range(len(net.ids)) if net.types[c] == 1 and c != net.sink])]
    downstream = net.ids[rng.choice([c for c in range(len(net.ids)) if net.types[c] == 2 and c != net.sink])]
    trials = 5
    verify = ["--seed", sim_seed, "--trials", str(trials)]
    spec = net.spec
    steps = [
        Step("lift.simulate", "simulate",
             _cmd("simulate", path, "--seed", sim_seed, "--steps", str(size["sim_steps"]),
                  f"--x0={x0_arg}"), 0,
             _trajectory_check(net, x0, size["sim_steps"], "discrete")),
        Step("lift.simulate_rk4", "simulate",
             _cmd("simulate", path, "--seed", sim_seed, "--steps", str(size["rk4_steps"]),
                  "--mode", "rk4", f"--x0={x0_arg}"), 0,
             _trajectory_check(net, x0, size["rk4_steps"], "rk4")),
        Step("lift.verify_invariance", "verify",
             _cmd("verify", path, "invariance", "--partition", spec(planted), *verify), 0,
             _invariance_check(trials, True)),
        Step("lift.verify_invariance_perturbed", "verify",
             _cmd("verify", path, "invariance", "--partition", spec(bad), *verify), 1,
             _invariance_check(trials, False)),
        Step("lift.verify_quotient", "verify",
             _cmd("verify", path, "quotient", "--partition", spec(planted), *verify), 0,
             _exact_check("quotient")),
        Step("lift.verify_subsystem", "verify",
             _cmd("verify", path, "subsystem", "--cell", upstream, *verify), 0,
             _exact_check("subsystem")),
        Step("lift.verify_locality", "verify",
             _cmd("verify", path, "locality", "--cell", downstream, "--k", "3", *verify), 0,
             _locality_check(trials)),
    ]
    return Workload("dynamics", steps, {"lift": net})


GENERATORS = {"structure": structure, "lattice": lattice, "dynamics": dynamics}


def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[name](seed, SIZES[size], workdir)
