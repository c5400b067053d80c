"""Command line entry point.

Subcommands::

    bddcheck verify LEFT.net RIGHT.net      equivalence check (exit 0/1/2/3)
    bddcheck simulate CIRCUIT.net           symbolic simulation stats
    bddcheck gen-tree N                     random fanout-free netlist
    bddcheck expand-bdd CIRCUIT.net         BDD-to-MUX netlist + round trip

Exit codes: 0 success/equivalent, 1 not equivalent (or round-trip
violation), 2 capacity abort, 3 usage or parse error.  All randomized
commands are reproducible from ``--seed``; every report echoes the tool
version, the seed and a hash of the effective configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import sys

from . import __version__
from .bdd import DEFAULT_NODE_LIMIT
from .bddcircuit import SourceBdds, roundtrip_verify
from .circuit import dfs_variable_order
from .equivalence import EQUIVALENT, NOT_EQUIVALENT, check_equivalence
from .errors import BddCheckError, ParseError
from .generators import random_tree_circuit
from .netlist import load, serialize
from .simulate import (PolyBoundConfig, SimulationCapacityError,
                       check_poly_bound, simulate, stats_to_csv,
                       stats_to_json)

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_CAPACITY = 2
EXIT_USAGE = 3


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _provenance(args, **extra) -> dict:
    cfg = {k: getattr(args, k, None) for k in
           ("command", "order", "capacity", "seed", "format", "mode")}
    cfg.update(extra)
    return {
        "tool": "bddcheck",
        "version": __version__,
        "seed": cfg["seed"],
        "config": cfg,
        "config_hash": _config_hash(cfg),
    }


def _emit(report: str | dict, out_path: str | None, stream=None):
    """Write a text report, or the JSON document ``json.dumps(report,
    indent=2)`` and a newline, to the file ``out_path`` or else to
    ``stream`` (stdout by default).

    A top-level ``signals`` list must hold only non-empty records of
    scalars: the rows of :func:`stats_to_json`, one per signal and the only
    list big enough for ``indent``'s pure-Python encoder to matter.  When
    it is not empty, ``json.dumps`` gets the document with ``signals`` set
    to ``None`` and the rows are encoded by one call of the C encoder.
    Only a top-level key starts a line indented by exactly two spaces, and
    an encoded string never holds a raw newline, so ``\\n  "signals": null``
    occurs once in the text; the rows are written in its place."""
    with (open(out_path, "w", encoding="utf-8") if out_path
          else contextlib.nullcontext(stream or sys.stdout)) as fh:
        if isinstance(report, str):
            fh.write(report)
            return
        rows = report.get("signals")
        text = json.dumps({**report, "signals": None} if rows else report,
                          indent=2)
        if rows:
            head, text = text.split('\n  "signals": null')
            # "[{a,\n      b},\n      {c}]": only a record boundary matches,
            # as no scalar ends in "}"
            body = json.JSONEncoder(separators=(",\n      ", ": ")).encode(
                rows)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
            fh.write(head + '\n  "signals": [\n    {\n      ')
            fh.write(body)
            text = "\n    }\n  ]" + text
        fh.write(text + "\n")


def _resolve_order(source: str, circuit) -> list[int]:
    if source == "dfs":
        return dfs_variable_order(circuit)
    if source == "declared":
        return list(range(len(circuit.inputs)))
    if source.startswith("file:"):
        path = source[5:]
        with open(path, "r", encoding="utf-8") as fh:
            names = fh.read().split()
        index = circuit.input_index()
        if sorted(names) != sorted(circuit.inputs):
            raise BddCheckError(
                f"order file '{path}' is not a permutation of the inputs")
        return [index[name] for name in names]
    raise BddCheckError(f"unknown order source '{source}'")


def _load(path: str):
    try:
        return load(path)
    except ParseError as exc:
        raise BddCheckError(f"{path}: {exc}") from None


VERIFY_STATS = ("created_total", "peak_live", "ite_entries_total",
                "order_used", "completed", "failing_signal")


def _cmd_verify(args) -> int:
    left = _load(args.left)
    right = _load(args.right)
    order = _resolve_order(args.order, left)
    outcome = check_equivalence(left, right, order, node_limit=args.capacity)
    report = {
        "verdict": outcome.verdict,
        "counterexample": outcome.counterexample,
        "stats": {k: getattr(outcome.stats, k) for k in VERIFY_STATS},
        "provenance": _provenance(args),
    }
    text = f"verdict: {outcome.verdict}\n"
    if outcome.counterexample is not None:
        pretty = " ".join(f"{k}={v}" for k, v in outcome.counterexample.items())
        text += f"counterexample: {pretty}\n"
    _emit(text if args.format == "text" else report, args.out)
    if outcome.verdict == EQUIVALENT:
        return EXIT_OK
    if outcome.verdict == NOT_EQUIVALENT:
        return EXIT_NOT_EQUIVALENT
    return EXIT_CAPACITY


def _cmd_simulate(args) -> int:
    circuit = _load(args.circuit)
    code = EXIT_OK
    order = _resolve_order(args.order, circuit)
    cfg = None
    if args.poly_degree is not None:
        try:
            cfg = PolyBoundConfig(args.poly_degree, args.poly_coeff,
                                  args.poly_gap)
            cfg.bound(len(circuit.inputs))
        except ValueError as exc:
            raise BddCheckError(f"poly bound: {exc}") from None
    try:
        stats = simulate(circuit, order, node_limit=args.capacity).stats
    except SimulationCapacityError as exc:
        stats = exc.stats
        code = EXIT_CAPACITY
        sys.stderr.write(
            f"capacity abort while simulating '{stats.failing_signal}'\n")
    poly_report = None
    if cfg is not None:
        poly_report = check_poly_bound(stats, cfg, outputs=set(circuit.outputs))
    if args.format == "csv":
        _emit(stats_to_csv(stats), args.out)
        if poly_report is not None:
            sys.stderr.write(_poly_text(poly_report))
    elif args.format == "text":
        text = (f"signals: {len(stats.rows)}\n"
                f"created_total: {stats.created_total}\n"
                f"peak_live: {stats.peak_live}\n"
                f"ite_entries_total: {stats.ite_entries_total}\n"
                f"completed: {stats.completed}\n")
        if poly_report is not None:
            text += _poly_text(poly_report)
        _emit(text, args.out)
    else:
        doc = stats_to_json(stats)
        doc["provenance"] = _provenance(args)
        if poly_report is not None:
            doc["poly_bound"] = dataclasses.asdict(poly_report)
        _emit(doc, args.out)
    return code


def _poly_text(report) -> str:
    head = (f"poly_bound: {'pass' if report.passed else 'FAIL'} "
            f"(bound {report.bound}, {report.checked} signals checked)\n")
    lines = [head]
    for v in report.violations:
        lines.append(f"  {v.signal}: size {v.size} margin {v.margin}\n")
    return "".join(lines)


def _cmd_gen_tree(args) -> int:
    try:
        circuit = random_tree_circuit(args.n, depth=args.depth, seed=args.seed)
    except ValueError as exc:
        raise BddCheckError(f"gen-tree: {exc}") from None
    prov = _provenance(args, n=args.n, depth=args.depth)
    header = (f"# bddcheck {__version__} gen-tree n={args.n} "
              f"depth={args.depth} seed={args.seed} "
              f"config={prov['config_hash']}\n")
    _emit(header + serialize(circuit), args.out)
    return EXIT_OK


def _cmd_expand_bdd(args) -> int:
    circuit = _load(args.circuit)
    if not circuit.outputs:                  # no BDD to expand, in any order
        raise BddCheckError("circuit has no outputs")
    order = _resolve_order(args.order, circuit)
    try:
        res = simulate(circuit, order, node_limit=args.capacity,
                       track_live=False)
    except SimulationCapacityError as exc:
        sys.stderr.write(
            f"capacity abort while simulating '{exc.stats.failing_signal}'\n")
        return EXIT_CAPACITY
    source = SourceBdds(res.manager,
                        [res.signal_bdds[po] for po in circuit.outputs])
    # the source manager and its tables are freed before the expansion,
    # so the peak is the larger of the two simulations, not their sum
    del res
    try:
        report = roundtrip_verify(source, source.roots, args.mode,
                                  circuit.inputs, node_limit=args.capacity)
    except SimulationCapacityError as exc:
        sys.stderr.write(
            f"capacity abort during round trip at '{exc.stats.failing_signal}'\n")
        return EXIT_CAPACITY
    doc = report.to_json()
    doc["provenance"] = _provenance(args)
    # the round trip's rows are read only for created_total, which the
    # report keeps; they are freed before serialize makes its text
    report.stats = None
    _emit(serialize(report.circuit), args.out)
    # the report goes to stdout unless the netlist does
    _emit(_roundtrip_text(report) if args.format == "text" else doc, None,
          sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK if report.ok else EXIT_NOT_EQUIVALENT


def _roundtrip_text(report) -> str:
    lines = [f"roundtrip: {'pass' if report.ok else 'FAIL'} "
             f"(original size {report.original_size}, "
             f"max internal size {report.max_internal_size}, "
             f"created {report.created_total})\n"]
    for v in report.violations:
        lines.append(f"  node {v.node} signal {v.signal}: {v.check} {v.detail}\n")
    return "".join(lines)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bddcheck",
        description="BDD-based combinational circuit verification toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=("json", "text")):
        sp.add_argument("--order", default="dfs",
                        help="variable order source: dfs, declared, or file:PATH")
        sp.add_argument("--capacity", type=int, default=DEFAULT_NODE_LIMIT,
                        help="node limit (default %(default)s)")
        sp.add_argument("--format", choices=formats, default="json")

    sp = sub.add_parser("verify", help="check two netlists for equivalence")
    sp.add_argument("left")
    sp.add_argument("right")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("simulate", help="symbolically simulate a netlist")
    sp.add_argument("circuit")
    common(sp, ("json", "csv", "text"))
    sp.add_argument("--poly-degree", type=int, default=None)
    sp.add_argument("--poly-coeff", type=float, default=1.0)
    sp.add_argument("--poly-gap", type=int, default=1)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("gen-tree", help="emit a random fanout-free netlist")
    sp.add_argument("n", type=int)
    sp.add_argument("--depth", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_gen_tree)

    sp = sub.add_parser("expand-bdd",
                        help="expand a netlist's output BDDs into a MUX netlist")
    sp.add_argument("circuit")
    common(sp)
    sp.add_argument("--mode", choices=("mux", "gates"), default="mux")
    sp.set_defaults(func=_cmd_expand_bdd)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="output path (default stdout)")
    return p


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if getattr(args, "capacity", 0) < 0:
            raise BddCheckError(f"--capacity must be >= 0, not {args.capacity}")
        return args.func(args)
    except (BddCheckError, OSError) as exc:
        # usage errors, and files that cannot be read or written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
