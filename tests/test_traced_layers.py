"""The per-layer harness ``perfbench/traced.py`` on small inputs.

The harness swaps ``bddcheck`` functions by name, so a refactor that
moves a call to another function can leave a hook timing nothing.
Each test runs one CLI command under it and checks the span names that
``perfbench/run.py`` reads, one ``bdd.ite`` and one ``bdd.size`` leaf
call per gate under every ``simulate`` span, and the ``sims`` counters
against the command's own report.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bddcheck import build_miter, serialize
from bddcheck.generators import (array_multiplier, demorgan_rewrite,
                                 random_tree_circuit)

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"

# the spans whose times perfbench/run.py reports, per command
COMMON_SPANS = {"cli.main", "cli.report", "netlist.parse",
                "circuit.dfs_order", "circuit.topo", "simulate"}
SPANS = {
    "simulate": COMMON_SPANS,
    "verify": COMMON_SPANS | {"equivalence.miter"},
    "expand-bdd": COMMON_SPANS | {"bddcircuit.expand", "bddcircuit.roundtrip",
                                  "netlist.serialize"},
}


def trace(tmp_path, files, argv):
    """Run ``argv`` under the harness in ``tmp_path``; returns the span
    document and the command's standard output."""
    for name, circuit in files.items():
        (tmp_path / name).write_text(serialize(circuit), encoding="utf-8")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(TRACED), "spans.json", "--", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert doc["exit"] == 0
    assert {name for name, _, _, _ in doc["spans"]} >= SPANS[argv[0]]
    return doc, proc.stdout


def check_simulations(doc, gate_counts):
    """One ``simulate`` span per circuit, in call order, each with one
    ``bdd.ite`` and one ``bdd.size`` call per gate of its circuit."""
    sim_spans = [i for i, (name, _, _, _) in enumerate(doc["spans"])
                 if name == "simulate"]
    assert len(sim_spans) == len(doc["sims"]) == len(gate_counts)
    calls = {(name, parent): n for name, parent, n, _, _ in doc["leaves"]}
    for span, gates in zip(sim_spans, gate_counts):
        assert calls[("bdd.ite", span)] == gates
        assert calls[("bdd.size", span)] == gates


def test_simulate_a_tree(tmp_path):
    tree = random_tree_circuit(40, seed=3)
    doc, _ = trace(tmp_path, {"tree.net": tree},
                   ["simulate", "tree.net", "--out", "report.json"])
    check_simulations(doc, [len(tree.gates)])
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    sim = doc["sims"][0]
    assert sim["created"] == report["created_total"]
    assert sim["ite_entries"] == report["ite_entries_total"]
    assert sim["peak_live"] == report["peak_live"]


def test_verify_a_multiplier_against_its_rewrite(tmp_path):
    left = array_multiplier(4)
    right = demorgan_rewrite(left, 1)
    doc, _ = trace(tmp_path, {"left.net": left, "right.net": right},
                   ["verify", "left.net", "right.net", "--out", "report.json"])
    check_simulations(doc, [len(build_miter(left, right).gates)])
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["verdict"] == "equivalent"
    sim, stats = doc["sims"][0], report["stats"]
    assert sim["created"] == stats["created_total"]
    assert sim["ite_entries"] == stats["ite_entries_total"]


@pytest.mark.parametrize("mode", ["gates", "mux"])
def test_expand_bdd(tmp_path, mode):
    # the second simulation is the round trip's, of the expanded netlist,
    # whose MUX gates in mux mode reach Manager.apply
    mult = array_multiplier(4)
    doc, out = trace(tmp_path, {"mult.net": mult},
                     ["expand-bdd", "mult.net", "--mode", mode,
                      "--out", "expanded.net"])
    with open(tmp_path / "expanded.net", encoding="utf-8") as fh:
        expanded = sum(1 for line in fh if line.startswith(".gate "))
    report = json.loads(out)
    assert report["ok"]
    assert expanded == report["original_size"] * (4 if mode == "gates" else 1)
    check_simulations(doc, [len(mult.gates), expanded])
    assert doc["sims"][1]["created"] == report["created_total"]
