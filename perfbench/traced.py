"""Run one ``bddcheck`` CLI command with spans recorded around public calls.

    python3 perfbench/traced.py SPANS.json [--no-live] -- CLI-ARG...

The tracer replaces public functions of the ``bddcheck`` modules with
wrappers before ``bddcheck.cli.main`` runs; the program itself is not
changed.  Coarse calls (parse, order, simulate, miter, expansion, report)
become spans ``[name, parent, start, end]``.  The calls made once per
gate (``Manager.apply``/``ite`` and ``Manager.size``) are too many to
keep one by one, so each is summed per parent span as ``[name, parent,
calls, seconds, value]``, where ``value`` adds up what ``size`` returned.
Garbage collection is timed through ``gc.callbacks``.  Everything stays
in memory and is written to SPANS.json after ``main`` returns; the exit
code is ``main``'s.

``--no-live`` makes every ``simulate`` call run with ``track_live=False``,
so that the difference to a normal traced run is the live tracker's cost.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time

from bddcheck import bdd, bddcircuit, circuit, cli, equivalence, netlist

# the package exports the function ``simulate`` under the module's name
simulate_mod = importlib.import_module("bddcheck.simulate")

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or None, start, end]
        self.stack = []
        self.leaves = {}         # (name, parent) -> [calls, seconds, value]
        self.sims = []           # counters of every simulate call
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def span(self, name, fn):
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, clock(), None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def leaf(self, name, fn, add_result=False):
        leaves = self.leaves
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            key = (name, stack[-1] if stack else None)
            acc = leaves.get(key)
            if acc is None:
                acc = leaves[key] = [0, 0.0, 0]
            acc[0] += 1
            acc[1] += dt
            if add_result:
                acc[2] += result
            return result

        return wrapper

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_s += clock() - self._gc_start
            self.gc_collections += 1

    def to_json(self, exit_code: int) -> dict:
        return {
            "exit": exit_code,
            "spans": self.spans,
            "leaves": [[name, parent, *acc]
                       for (name, parent), acc in self.leaves.items()],
            "sims": self.sims,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
        }


class _JsonWithTracedDumps:
    """Stands in for the ``json`` module inside ``bddcheck.cli``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def install(tr: Tracer, track_live: bool = True) -> None:
    """Wrap the public calls of every layer that the CLI commands reach."""
    Manager = bdd.Manager
    Manager.apply = tr.leaf("bdd.ite", Manager.apply)
    Manager.ite = tr.leaf("bdd.ite", Manager.ite)
    Manager.size = tr.leaf("bdd.size", Manager.size, add_result=True)

    run_simulate = simulate_mod.simulate

    def simulate(*args, **kwargs):
        if not track_live:
            kwargs["track_live"] = False
        res = run_simulate(*args, **kwargs)
        tr.sims.append({"created": res.stats.created_total,
                        "ite_entries": res.manager.ite_calls,
                        "unique_entries": res.manager.unique_table_size(),
                        "peak_live": res.stats.peak_live})
        return res

    simulate = tr.span("simulate", simulate)
    topo = tr.span("circuit.topo", circuit.topological_order)
    dfs = tr.span("circuit.dfs_order", circuit.dfs_variable_order)
    expand = tr.span("bddcircuit.expand", bddcircuit.expand_to_circuit)
    # each module looks these names up in its own namespace
    for mod in (cli, equivalence, bddcircuit):
        mod.simulate = simulate
    for mod in (circuit, netlist, simulate_mod):
        mod.topological_order = topo
    for mod in (cli, equivalence, simulate_mod):
        mod.dfs_variable_order = dfs
    cli.expand_to_circuit = bddcircuit.expand_to_circuit = expand

    netlist.parse = tr.span("netlist.parse", netlist.parse)
    cli.serialize = tr.span("netlist.serialize", netlist.serialize)
    equivalence.build_miter = tr.span("equivalence.miter",
                                      equivalence.build_miter)
    cli.check_equivalence = tr.span("equivalence.check",
                                    equivalence.check_equivalence)
    cli.roundtrip_verify = tr.span("bddcircuit.roundtrip",
                                   bddcircuit.roundtrip_verify)
    for name in ("stats_to_json", "stats_to_csv", "check_poly_bound", "_emit"):
        setattr(cli, name, tr.span("cli.report", getattr(cli, name)))
    cli.json = _JsonWithTracedDumps(tr.span("cli.report", json.dumps))
    bddcircuit.RoundtripReport.to_json = tr.span(
        "cli.report", bddcircuit.RoundtripReport.to_json)
    gc.callbacks.append(tr.on_gc)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or "--" not in argv:
        sys.stderr.write(__doc__)
        return 3
    sep = argv.index("--")
    spans_path, opts, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    tr = Tracer()
    install(tr, track_live="--no-live" not in opts)
    code = tr.span("cli.main", cli.main)(cli_args)
    gc.callbacks.remove(tr.on_gc)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tr.to_json(code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
