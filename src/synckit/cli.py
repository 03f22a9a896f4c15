"""Command line front end.

Exit codes: 0 on success, 1 when a queried boolean verdict is false,
2 on usage or input errors.  Every subcommand but export-dot, which
prints DOT, has a JSON output mode (--format json) with a stable schema;
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import random
import sys
from types import SimpleNamespace
from typing import Iterable, Optional

from . import classification as cls
from . import connectivity as conn
from . import dynamics as dyn
from . import synchrony as syn
from .errors import NotBalanced, SynckitError, TooLarge
from .network import Network, export_dot, load_network, network_to_doc, quote_dot, save_network
from .partition import Partition, format_partition, parse_partition

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
# `tables --format json` writes each of the n(n+1)/2 pairs of n elements:
# K7's 385003 pairs (71 MB) pass, K8's 8.57 million (1.6 GB) do not
MAX_JSON_PAIRS = 1_000_000


def _emit(payload: dict, args, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _net(args) -> Network:
    return load_network(args.network)


def _partition(args, net: Network) -> Partition:
    return parse_partition(args.partition, net.cell_ids)


def _kind(text: str) -> cls.NeighborhoodKind:
    if text == "n":
        return cls.N_IN
    if text == "v":
        return cls.V_IN
    if text == "r":
        return cls.R_IN
    if text.startswith("vk:"):
        try:
            k = int(text[3:])
        except ValueError:
            raise SynckitError(f"kind {text!r} needs an integer k, as in vk:2") from None
        return cls.v_in_k(k)
    raise SynckitError(f"unknown neighborhood kind {text!r}; use n, v, vk:<k> or r")


def _certificate(net: Network, p: Partition, consequence: str) -> syn.BalancedCertificate:
    cert = syn.is_balanced(net, p)
    if cert is None:
        raise NotBalanced(f"partition is not balanced; {consequence}")
    return cert


def _fmt(net: Network, p: Partition) -> str:
    return format_partition(p, net.cell_ids)


def _blocks_as_ids(net: Network, p: Partition) -> list[list[str]]:
    return [[net.cell_ids[c] for c in block] for block in p.blocks()]


# ---------------------------------------------------------------------------
# subcommand handlers, each returning an exit code


def cmd_scc(args) -> int:
    net = _net(args)
    p = conn.scc_decomposition(net)
    blocks = _blocks_as_ids(net, p)
    _emit({"sccs": blocks}, args, _fmt(net, p))
    return EXIT_OK


def cmd_condense(args) -> int:
    net = _net(args)
    cond = conn.condensation(net)
    blocks = _blocks_as_ids(net, cond.scc_partition)
    edges = sorted((s, t) for t, ps in enumerate(cond.preds) for s in ps)
    payload = {
        "sccs": blocks,
        "edges": [[s, t] for s, t in edges],
        "roots": sorted(cond.roots),
    }
    if args.format == "dot":
        lines = ["digraph condensation {"]
        for k, block in enumerate(blocks):
            shape = "doublecircle" if k in cond.roots else "circle"
            lines.append(f'  "S{k}" [label={quote_dot(",".join(block))}, shape={shape}];')
        for s, t in edges:
            lines.append(f'  "S{s}" -> "S{t}";')
        lines.append("}")
        print("\n".join(lines))
        return EXIT_OK
    text = "\n".join(
        [f"S{k}: {{{','.join(b)}}}" for k, b in enumerate(blocks)]
        + [f"S{s} -> S{t}" for s, t in edges]
        + ["roots: " + " ".join(f"S{k}" for k in sorted(cond.roots))]
    )
    _emit(payload, args, text)
    return EXIT_OK


def cmd_roots(args) -> int:
    net = _net(args)
    cond = conn.condensation(net)
    blocks = _blocks_as_ids(net, cond.scc_partition)
    root_blocks = [blocks[k] for k in sorted(cond.roots)]
    _emit(
        {"roots": root_blocks},
        args,
        "\n".join("{" + ",".join(b) + "}" for b in root_blocks),
    )
    return EXIT_OK


def cmd_rdc(args) -> int:
    net = _net(args)
    p = conn.rdc_decomposition(net)
    _emit({"rdcs": _blocks_as_ids(net, p)}, args, _fmt(net, p))
    return EXIT_OK


def cmd_reach(args) -> int:
    net = _net(args)
    c = net.index_of(args.cell)
    if args.k is not None:
        cells = conn.cumulative_in_k(net, c, args.k)
        label = f"cumulative in-neighborhood ({args.k} steps)"
    else:
        cells = conn.in_reachability(net, c)
        label = "in-reachability"
    ids = [net.cell_ids[d] for d in sorted(cells)]
    _emit({"cell": args.cell, "k": args.k, "cells": ids}, args,
          f"{label} of {args.cell}: {{{','.join(ids)}}}")
    return EXIT_OK


def cmd_balanced(args) -> int:
    net = _net(args)
    p = _partition(args, net)
    cert = syn.is_balanced(net, p)
    payload = {"partition": _fmt(net, p), "balanced": cert is not None}
    if cert is None:
        _emit(payload, args, "not balanced")
        return EXIT_FALSE
    matrix = cert.quotient_matrix
    if args.format != "json":
        print("balanced\n" + "\n".join("[" + " ".join(map(str, row)) + "]" for row in matrix))
        return EXIT_OK
    payload["quotient_matrix"] = []
    # tropical-min's zero +inf is written as the document format spells it;
    # a row is never empty, so its items sit between its brackets
    _write_json(payload, "quotient_matrix", (
        "    [\n      "
        + json.dumps(["inf" if v == math.inf else v for v in row], separators=_ROW_ITEMS)[1:-1]
        + "\n    ]"
        for row in matrix
    ))
    return EXIT_OK


# the separators json.dumps(indent=2) puts between a nested list's items
_ROW_ITEMS = (",\n      ", ": ")


def cmd_cir(args) -> int:
    net = _net(args)
    p = _partition(args, net)
    result = syn.cir_balanced(net, p)
    _emit({"partition": _fmt(net, p), "cir": _fmt(net, result)}, args, _fmt(net, result))
    return EXIT_OK


def cmd_lattice(args) -> int:
    net = _net(args)
    lattice = syn.enumerate_balanced(net)
    texts = [_fmt(net, p) for p in lattice.elements]
    if args.format == "dot":
        lines = ["digraph lattice {", "  rankdir=BT;"]
        quoted = [quote_dot(t) for t in texts]
        for q in quoted:
            lines.append(f"  {q};")
        for i, j in sorted(lattice.cover_edges):
            lines.append(f"  {quoted[i]} -> {quoted[j]};")
        lines.append("}")
        print("\n".join(lines))
        return EXIT_OK
    if args.format == "json":
        payload = {"elements": texts, "cover_edges": [],
                   "bottom": lattice.bottom, "top": lattice.top}
        edges = [f"    [\n      {i},\n      {j}\n    ]" for i, j in sorted(lattice.cover_edges)]
        _write_json(payload, "cover_edges", [",\n".join(edges)] if edges else [])
        return EXIT_OK
    print("\n".join(texts))
    return EXIT_OK


def cmd_quotient_network(args) -> int:
    net = _net(args)
    cert = _certificate(net, _partition(args, net), "no quotient network")
    q = syn.quotient_network(net, cert)
    if args.out:
        save_network(q, args.out)
    if args.format == "json":
        print(json.dumps(network_to_doc(q), indent=2, sort_keys=True))
    else:
        print(export_dot(q).rstrip("\n"))
    return EXIT_OK


def cmd_exo(args) -> int:
    net = _net(args)
    p = _partition(args, net)
    verdict = syn.is_exo_balanced(net, p)
    _emit({"partition": _fmt(net, p), "exo_balanced": verdict}, args,
          "exo-balanced" if verdict else "not exo-balanced")
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_classify(args) -> int:
    net = _net(args)
    p = _partition(args, net)
    per_color = [
        cls.classify_color(net, block).value for block in p.blocks()
    ]
    overall = cls.classify_partition(net, p).value
    blocks = _blocks_as_ids(net, p)
    text = "\n".join(
        f"{{{','.join(b)}}}: {k}" for b, k in zip(blocks, per_color)
    ) + f"\npartition: {overall}"
    _emit(
        {"partition": _fmt(net, p), "colors": per_color, "class": overall},
        args,
        text,
    )
    return EXIT_OK


def cmd_matched(args) -> int:
    net = _net(args)
    p = _partition(args, net)
    kind = _kind(args.kind)
    verdict = cls.is_matched(net, p, kind)
    _emit(
        {"partition": _fmt(net, p), "kind": args.kind, "matched": verdict},
        args,
        f"{kind.label()}-matched: {verdict}",
    )
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_invariant(args) -> int:
    net = _net(args)
    p = _partition(args, net)
    cert = _certificate(net, p, "invariance is undefined")
    kind = _kind(args.kind)
    verdict = cls.is_invariant(net, cert, kind)
    _emit(
        {"partition": _fmt(net, p), "kind": args.kind, "invariant": verdict},
        args,
        f"{kind.label()}-invariant: {verdict}",
    )
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_tables(args) -> int:
    net = _net(args)
    if args.quotient:
        p = parse_partition(args.quotient, net.cell_ids)
        cert = _certificate(net, p, "no quotient class table")
        report = cls.quotient_class_report(net, cert)
        qnet = syn.quotient_network(net, cert)
        payload = _quotient_table(report, net.cell_ids, qnet.cell_ids)
        lines = [f"over {payload['over']} (reach-invariant: {report.precondition_met})"]
        lines += [
            f"{e['partition']} [{e['class']}] -> {e['quotient_partition']} [{e['quotient_class']}]"
            for e in payload["entries"]
        ]
        lines.append(f"table_ok: {payload['table_ok']}")
        _emit(payload, args, "\n".join(lines))
        return EXIT_OK if not report.violations else EXIT_FALSE
    report = cls.join_table_report(net)
    ok = report.general_table_ok and report.matched_table_ok is not False
    if args.format == "json":
        _write_join_table(net, report)
        return EXIT_OK if ok else EXIT_FALSE
    strict = report.matched_table_ok
    lines = [
        f"elements: {len(report.lattice.elements)}",
        f"general_table_ok: {report.general_table_ok}",
        f"rooted_all_reach_matched: {report.rooted_all_reach_matched}",
        f"matched_table_ok: {'n/a' if strict is None else strict}",
        f"nonweak_join_closed: {report.nonweak_join_closed}",
    ]
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_FALSE


def _quotient_table(report: cls.QuotientClassReport, cell_ids, quotient_ids) -> dict:
    """The `tables --quotient` JSON payload; its text lines reuse the formatted partitions."""
    return {
        "over": format_partition(report.base_partition, cell_ids),
        "reach_invariant": report.precondition_met,
        "entries": [
            {
                "partition": format_partition(e.partition, cell_ids),
                "class": e.class_in_base.value,
                "quotient_partition": format_partition(e.quotient_partition, quotient_ids),
                "quotient_class": e.class_in_quotient.value,
            }
            for e in report.entries
        ],
        "table_ok": not report.violations,
    }


def _write_json(payload: dict, key: str, runs: Iterable[str]) -> None:
    """Print payload as json.dumps(payload, indent=2, sort_keys=True) would,
    with the top-level list under `key` (empty in payload) written from runs
    of its items, each run already encoded and indented, as they come."""
    # string values never hold a raw newline, so this is the key's own line
    head, tail = json.dumps(payload, indent=2, sort_keys=True).split(f'\n  "{key}": []', 1)
    out = sys.stdout
    out.write(head + f'\n  "{key}": [')
    sep = "\n"
    for run in runs:
        out.write(sep + run)
        sep = ",\n"
    out.write(("]" if sep == "\n" else "\n  ]") + tail + "\n")


def _write_join_table(net: Network, report: cls.JoinTableReport) -> None:
    """Write the join table's JSON without holding its pairs.

    Everything but the pair list goes through json.dumps.  Each pair is
    the join's, the left's and the right's pieces of its json.dumps
    layout, each encoded once per element, joined row by row.
    """
    n = len(report.lattice.elements)
    if n * (n + 1) // 2 > MAX_JSON_PAIRS:
        raise TooLarge(f"the join table has {n * (n + 1) // 2} pairs, past {MAX_JSON_PAIRS} "
                       "for --format json; text output prints its verdicts")
    texts = [_fmt(net, p) for p in report.lattice.elements]
    payload = {
        "elements": [{"partition": t, "class": k.value} for t, k in zip(texts, report.classes)],
        "general_table_ok": report.general_table_ok,
        "matched_table_ok": report.matched_table_ok,
        "nonweak_join_closed": report.nonweak_join_closed,
        "pairs": [],
        "rooted_all_reach_matched": report.rooted_all_reach_matched,
    }
    encoded = [(json.dumps(t), json.dumps(k.value)) for t, k in zip(texts, report.classes)]
    joins = [f'    {{\n      "join": {t},\n      "join_class": {k},\n      ' for t, k in encoded]
    lefts = [f'"left": {t},\n      "left_class": {k},\n      ' for t, k in encoded]
    rights = [f'"right": {t},\n      "right_class": {k}\n    }}' for t, k in encoded]
    rows = (
        ",\n".join(map(str.__add__, map(joins.__getitem__, row), map(lefts[i].__add__, rights[i:])))
        for i, row in enumerate(cls.join_rows(report.lattice.up))
    )
    _write_json(payload, "pairs", rows)


def _reprs(state: tuple[float, ...]) -> Iterable[str]:
    """Each value's repr, which json.dumps writes for a finite float, made
    once per distinct value; 0.0 and -0.0 are one dict key, so zeros are
    written one by one."""
    distinct = set(state)
    if len(distinct) == len(state):
        return map(float.__repr__, state)
    reprs = dict(zip(distinct, map(float.__repr__, distinct)))
    if 0.0 in reprs:
        return [reprs[v] if v else float.__repr__(v) for v in state]
    return map(reprs.__getitem__, state)


def cmd_simulate(args) -> int:
    net = _net(args)
    spec = dyn.sample_admissible(net, args.seed, exo=args.exo)
    if args.x0 == "random":
        x0 = dyn._random_state(random.Random(f"simulate:{args.seed}"), net.n_cells)
    else:
        try:
            values = [float(v) for v in args.x0.split(",")]
        except ValueError:
            raise SynckitError(
                f"x0 must be 'random' or comma-separated numbers, got {args.x0!r}"
            ) from None
        if len(values) != net.n_cells:
            raise SynckitError(
                f"x0 needs {net.n_cells} comma-separated values, got {len(values)}"
            )
        x0 = tuple(values)
    traj = dyn.evolve(net, spec, x0, args.steps, mode=args.mode, dt=args.dt)
    if args.format == "json":
        payload = {"cells": list(net.cell_ids), "mode": traj.mode, "times": list(traj.times),
                   "states": []}
        _write_json(payload, "states", (
            "    [\n      " + ",\n      ".join(_reprs(s)) + "\n    ]" if s else "    []"
            for s in traj.states
        ))
        return EXIT_OK
    print("\n".join(
        f"t={t:g} " + " ".join(f"{v:+.6f}" for v in s) for t, s in zip(traj.times, traj.states)
    ))
    return EXIT_OK


# Each verify check's flags: the one it requires, and its own others with their
# defaults, which name the check's keyword arguments.  --network, --format,
# --seed and --exo are shared; a check refuses every other flag that is given.
_RUN_FLAGS = {"trials": 5, "steps": 50, "mode": "discrete", "dt": 1e-3}
_VERIFY_FLAGS = {
    "invariance": ("partition", {**_RUN_FLAGS, "tol": 1e-9}),
    "locality": ("cell", {"k": 2, "trials": 5}),
    "subsystem": ("cell", _RUN_FLAGS),
    "quotient": ("partition", _RUN_FLAGS),
}
_VERIFY_FLAG_NAMES = tuple(dict.fromkeys(
    name for required, own in _VERIFY_FLAGS.values() for name in (required, *own)
))


def _own_flags(what: str) -> str:
    required, own = _VERIFY_FLAGS[what]
    return f"--{required} (required) " + " ".join(f"--{name}" for name in own)


def cmd_verify(args) -> int:
    required, own = _VERIFY_FLAGS[args.what]
    for name in _VERIFY_FLAG_NAMES:
        if name != required and name not in own and getattr(args, name) is not None:
            raise SynckitError(
                f"verify {args.what} has no --{name}; it takes {_own_flags(args.what)}"
            )
    if getattr(args, required) is None:
        raise SynckitError(f"verify {args.what} needs --{required}")
    settings = {name: default if getattr(args, name) is None else getattr(args, name)
                for name, default in own.items()}
    net = _net(args)
    if args.what == "locality" and settings["k"] > net.n_cells:
        # from k = n - 1 on the k-step neighborhood is the in-reachability set
        raise SynckitError(
            f"verify locality --k {settings['k']} is past the network's {net.n_cells} cells; "
            "use verify subsystem --steps to check a cell's in-reachability set"
        )
    spec = dyn.sample_admissible(net, args.seed, exo=args.exo)
    if args.what == "invariance":
        report = dyn.check_invariance(net, spec, _partition(args, net), **settings,
                                      rng_seed=args.seed)
        text = f"max spread {report.max_spread:.3e} (tol {report.tol:g}): " + (
            "invariant" if report.invariant else "not invariant")
        if report.aborted_trials:
            text += f" ({report.aborted_trials} of {len(report.trials)} trials aborted)"
        _emit(report.to_json(), args, text)
        return EXIT_OK if report.invariant else EXIT_FALSE
    if args.what == "locality":
        c = net.index_of(args.cell)
        report = dyn.check_locality(net, spec, c, **settings, rng_seed=args.seed)
        _emit(report.to_json(net.cell_ids), args, f"locality agreed: {report.all_agreed}")
        return EXIT_OK if report.all_agreed else EXIT_FALSE
    if args.what == "subsystem":
        c = net.index_of(args.cell)
        report = dyn.check_subsystem(net, spec, c, **settings, rng_seed=args.seed)
    else:  # quotient
        cert = _certificate(net, _partition(args, net), "no quotient system")
        report = dyn.check_quotient_consistency(net, spec, cert, **settings, rng_seed=args.seed)
    _emit(report.to_json(), args,
          f"max deviation {report.max_deviation:.3e}: {'ok' if report.exact else 'mismatch'}")
    return EXIT_OK if report.exact else EXIT_FALSE


def cmd_export_dot(args) -> int:
    if args.format == "json":
        raise SynckitError("export-dot prints DOT; it has no --format json output")
    net = _net(args)
    p = parse_partition(args.partition, net.cell_ids) if args.partition else None
    sys.stdout.write(export_dot(net, p))
    return EXIT_OK


# ---------------------------------------------------------------------------


_SHARED = (("--network", {"required": True, "help": "path to a network JSON file"}),
           ("--format", {"choices": ["text", "json", "dot"], "default": "text"}))
_PARTITION = ("--partition", {"required": True, "help": "partition spec, e.g. 12/45"})
_OPTIONAL_PARTITION = ("--partition", {"default": None})
_KIND = ("--kind", {"required": True})

# Each subcommand's handler and its arguments after _SHARED's --network and
# --format, which all take, as (name, add_argument keywords) pairs.  Only the
# keywords _fast_args follows appear, and no str default beside a type.
_COMMANDS = {
    "scc": (cmd_scc, ()),
    "condense": (cmd_condense, ()),
    "roots": (cmd_roots, ()),
    "rdc": (cmd_rdc, ()),
    "reach": (cmd_reach, (("--cell", {"required": True}),
                          ("--k", {"type": int, "default": None}))),
    "balanced": (cmd_balanced, (_PARTITION,)),
    "cir": (cmd_cir, (_PARTITION,)),
    "lattice": (cmd_lattice, ()),
    "quotient": (cmd_quotient_network, (_PARTITION, ("--out", {"default": None}))),
    "exo": (cmd_exo, (_PARTITION,)),
    "classify": (cmd_classify, (_PARTITION,)),
    "matched": (cmd_matched, (_PARTITION, _KIND)),
    "invariant": (cmd_invariant, (_PARTITION, _KIND)),
    "tables": (cmd_tables, (("--quotient", {"default": None}),)),
    "simulate": (cmd_simulate, (
        ("--seed", {"type": int, "default": 0}),
        ("--steps", {"type": int, "default": 20}),
        ("--x0", {"default": "random"}),
        ("--mode", {"choices": ["discrete", "rk4"], "default": "discrete"}),
        ("--dt", {"type": float, "default": 1e-3}),
        ("--exo", {"action": "store_true"}),
    )),
    "verify": (cmd_verify, (
        _OPTIONAL_PARTITION,
        ("what", {"choices": list(_VERIFY_FLAGS)}),
        ("--seed", {"type": int, "default": 0}),
        ("--exo", {"action": "store_true"}),
        # None marks a flag not given; cmd_verify reads _VERIFY_FLAGS for the rest
        ("--cell", {}),
        ("--k", {"type": int}),
        ("--trials", {"type": int}),
        ("--steps", {"type": int}),
        ("--tol", {"type": float}),
        ("--mode", {"choices": ["discrete", "rk4"]}),
        ("--dt", {"type": float}),
    )),
    "export-dot": (cmd_export_dot, (_OPTIONAL_PARTITION,)),
}
_EPILOGS = {
    "verify": "Each check takes only its own flags besides --network, --format, --seed and "
              "--exo: " + "; ".join(f"{what} {_own_flags(what)}" for what in _VERIFY_FLAGS) + ".",
}


def build_parser() -> "argparse.ArgumentParser":
    """The synckit parser with every subcommand, for the argv _fast_args declines."""
    import argparse  # loaded with gettext only here: about a fifth of this module's import time

    parser = argparse.ArgumentParser(
        prog="synckit",
        description="Synchrony analysis for weighted coupled cell networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, own) in _COMMANDS.items():
        p = sub.add_parser(name, epilog=_EPILOGS.get(name))
        for flag, options in (*_SHARED, *own):
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


# Commands that print DOT for --format dot (quotient's text output is DOT;
# export-dot prints DOT for text and dot); the others refuse it.
_DOT_COMMANDS = {"condense", "lattice", "quotient", "export-dot"}


def _fast_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """The attributes build_parser().parse_args(argv) would return, read off
    _COMMANDS, or None unless argparse would surely return them unprompted.

    Taken: the command first, then each of its flags at most once, spelled
    in full as --flag=value or --flag value, where a separate value is "-"
    or a nonempty string not starting with "-", and verify's check once.
    Declined: help, "--", an abbreviated or unknown flag, a value that its
    type or choices refuse, and a missing required argument.  Whatever is
    declined goes to argparse, so help, usage errors and their exit codes
    come from it alone.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, own = _COMMANDS[argv[0]]
    values = {"command": argv[0], "handler": handler}
    flags, positional, required = {}, None, set()
    for name, options in (*_SHARED, *own):
        dest = name.lstrip("-").replace("-", "_")
        values[dest] = options.get("default", False if "action" in options else None)
        if name.startswith("-"):
            flags[name] = dest, options
        else:
            positional = dest, options
        if options.get("required") or not name.startswith("-"):
            required.add(dest)
    given = set()
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            if positional is None:
                return None
            (dest, options), value = positional, arg
        else:
            name, eq, value = arg.partition("=")
            if name not in flags:
                return None
            dest, options = flags[name]
            if "action" in options:
                if eq:
                    return None
                value = True
            elif not eq:
                value = next(rest, "")
                if not value or value[0] == "-" and value != "-":
                    return None
            elif value == "--":
                return None  # argparse would drop it and store []
        if dest in given:
            return None
        given.add(dest)
        if "type" in options:
            try:
                value = options["type"](value)
            except (TypeError, ValueError):
                return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[dest] = value
    if not required <= given:
        return None
    return SimpleNamespace(**values)


def run(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
            # for --flag=-- argparse drops the "--" and stores [] as the value
            empty = next((dest for dest, value in vars(args).items() if value == []), None)
            if empty is not None:
                parser.error(f"argument --{empty.replace('_', '-')}: expected one argument")
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.format == "dot" and args.command not in _DOT_COMMANDS:
            raise SynckitError(f"{args.command} has no --format dot output")
        return args.handler(args)
    except SynckitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
