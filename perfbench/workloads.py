"""Seeded workload inputs for the CLI benchmark, and the checks on their outputs.

Each workload is one ``bddcheck`` CLI command.  ``files`` builds its input
netlists from the seed, ``argv`` gives the command line relative to the
working directory that holds them, and ``check`` reads what the command
left behind and returns ``(errors, counters)``.  ``counters`` are the
machine-free counts the command reports; they must repeat exactly between
runs at one seed.

Only the standard library and ``bddcheck`` are imported here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bddcheck.circuit import Circuit, Gate
from bddcheck.generators import (array_multiplier, demorgan_rewrite,
                                 random_tree_circuit)
from bddcheck.netlist import serialize

MULT_VERIFY_BITS = 9
XOR_CHAIN_INPUTS = 4000
FOREST_TREES = 8
FOREST_TREE_INPUTS = 3000
MUX_BITS = 8


# -- generators -------------------------------------------------------------

def mult_verify_pair(seed: int, bits: int = MULT_VERIFY_BITS):
    """An array multiplier and a seeded De Morgan rewrite of it."""
    left = array_multiplier(bits)
    return left, demorgan_rewrite(left, seed)


def xor_chain(n: int, seed: int):
    """Parity of ``n`` inputs as a chain of 2-input XORs.

    The inputs enter the chain in a seeded order.  Returns the circuit and
    the reversed variable order, top level first: the input that enters
    the chain last tests at the top, so every chain step adds a node above
    the running parity and the ``ite`` work stays linear.
    """
    rng = random.Random(seed)
    inputs = tuple(f"x{i}" for i in range(1, n + 1))
    chain = list(inputs)
    rng.shuffle(chain)
    gates = []
    acc = chain[0]
    for k, x in enumerate(chain[1:], 1):
        gates.append(Gate("xor", f"t{k}", (acc, x)))
        acc = f"t{k}"
    return Circuit(inputs, (acc,), tuple(gates)), chain[::-1]


def random_forest(trees: int, inputs_each: int, seed: int) -> Circuit:
    """``trees`` independent ``random_tree_circuit(inputs_each)`` trees side by
    side, one output each.

    Tree ``j`` uses the ``j``-th seed drawn from ``Random(seed)`` and has
    its signals prefixed ``t{j}_``.  The BDD work of one random tree varies
    a lot with its seed; the sum over several independent trees varies
    much less, which keeps the run-to-run spread of the workload small.
    """
    rng = random.Random(seed)
    inputs, outputs, gates = [], [], []
    for j in range(trees):
        t = random_tree_circuit(inputs_each, seed=rng.getrandbits(32))
        prefix = f"t{j}_"
        inputs += [prefix + x for x in t.inputs]
        outputs += [prefix + o for o in t.outputs]
        gates += [Gate(g.kind, prefix + g.output,
                       tuple(prefix + s for s in g.inputs)) for g in t.gates]
    return Circuit(tuple(inputs), tuple(outputs), tuple(gates))


def renamed_multiplier(bits: int, seed: int) -> Circuit:
    """``array_multiplier(bits)`` with inputs declared in a seeded order and
    every gate output given a seeded name.

    The function, the DFS variable order and the gate order are those of
    the plain multiplier, so the BDD work does not depend on the seed.
    """
    c = array_multiplier(bits)
    rng = random.Random(seed)
    inputs = list(c.inputs)
    rng.shuffle(inputs)
    ids = rng.sample(range(10 * len(c.gates)), len(c.gates))
    names = {g.output: f"s{k}" for g, k in zip(c.gates, ids)}
    names.update((x, x) for x in c.inputs)
    gates = tuple(Gate(g.kind, names[g.output],
                       tuple(names[s] for s in g.inputs)) for g in c.gates)
    return Circuit(tuple(inputs), tuple(names[o] for o in c.outputs), gates)


# -- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    files: Callable[[int], dict[str, str]]
    argv: list[str]
    check: Callable[[Path, int], tuple[list[str], dict[str, int]]]


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _exit_error(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}, expected 0"]


def _mult_verify_files(seed):
    left, right = mult_verify_pair(seed)
    return {"left.net": serialize(left), "right.net": serialize(right)}


def _mult_verify_check(work: Path, code: int):
    errors = _exit_error(code)
    doc = _read_json(work / "report.json")
    if doc["verdict"] != "equivalent":
        errors.append(f"verdict {doc['verdict']!r}, expected 'equivalent'")
    s = doc["stats"]
    return errors, {"created_total": s["created_total"],
                    "ite_entries_total": s["ite_entries_total"],
                    "peak_live": s["peak_live"]}


def _xor_chain_files(seed):
    circuit, order = xor_chain(XOR_CHAIN_INPUTS, seed)
    return {"chain.net": serialize(circuit), "order.txt": "\n".join(order) + "\n"}


def _xor_chain_check(work: Path, code: int):
    errors = _exit_error(code)
    with open(work / "report.csv", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    # topo_index,signal,gate_kind,signal_size,created_cum,live_nodes,ite_entries_cum
    last = rows[-1]
    if int(last[3]) != 2 * XOR_CHAIN_INPUTS - 1:
        errors.append(f"last signal_size {last[3]}, expected "
                      f"{2 * XOR_CHAIN_INPUTS - 1}")
    n_inputs = sum(1 for r in rows if r[2] == "input")
    live = [int(r[5]) for r in rows if r[5]]      # empty without live tracking
    return errors, {"created_total": int(last[4]),
                    "ite_entries_total": int(last[6]),
                    "peak_live": max(live) if live else None,
                    "unique_entries": n_inputs + int(last[4]),
                    "size_sum": sum(int(r[3]) for r in rows)}


def _tree_files(seed):
    forest = random_forest(FOREST_TREES, FOREST_TREE_INPUTS, seed)
    return {"forest.net": serialize(forest)}


def _tree_check(work: Path, code: int):
    errors = _exit_error(code)
    doc = _read_json(work / "report.json")
    if not doc["poly_bound"]["passed"]:
        errors.append("poly bound failed")
    return errors, {"created_total": doc["created_total"],
                    "ite_entries_total": doc["ite_entries_total"],
                    "peak_live": doc["peak_live"],
                    "unique_entries": doc["created_baseline"] + doc["created_total"],
                    "size_sum": sum(s["signal_size"] for s in doc["signals"])}


def _mux_files(seed):
    return {"mult.net": serialize(renamed_multiplier(MUX_BITS, seed))}


def _mux_check(work: Path, code: int):
    errors = _exit_error(code)
    doc = _read_json(work / "stdout.txt")
    if not doc["ok"] or doc["violations"]:
        errors.append(f"round trip not ok: {len(doc['violations'])} violations")
    with open(work / "expanded.net", encoding="utf-8") as fh:
        gates = sum(1 for line in fh if line.startswith(".gate "))
    if gates != 4 * doc["original_size"]:
        errors.append(f"{gates} gates for {doc['original_size']} BDD nodes, "
                      "expected four per node")
    return errors, {"roundtrip_created": doc["created_total"],
                    "original_size": doc["original_size"],
                    "max_internal_size": doc["max_internal_size"]}


WORKLOADS = {w.name: w for w in (
    Workload(
        "mult-verify",
        f"verify array_multiplier({MULT_VERIFY_BITS}) against its seeded "
        "De Morgan rewrite: the paper's blow-up witness, ite-kernel bound",
        _mult_verify_files,
        ["verify", "left.net", "right.net", "--out", "report.json"],
        _mult_verify_check),
    Workload(
        "xor-chain",
        f"simulate a {XOR_CHAIN_INPUTS}-input XOR chain in reversed order to "
        "CSV: linear BDD work, quadratic per-signal size()",
        _xor_chain_files,
        ["simulate", "chain.net", "--order", "file:order.txt",
         "--format", "csv", "--out", "report.csv"],
        _xor_chain_check),
    Workload(
        "tree-simulate",
        f"simulate {FOREST_TREES} random {FOREST_TREE_INPUTS}-input trees, "
        "each held to a linear size bound, to JSON: the linearity claim; "
        "parse, order and export matter",
        _tree_files,
        # coefficient 1/trees makes the bound exactly the inputs of one tree
        ["simulate", "forest.net", "--poly-degree", "1",
         "--poly-coeff", repr(1 / FOREST_TREES), "--out", "report.json"],
        _tree_check),
    Workload(
        "mux-roundtrip",
        f"expand-bdd --mode gates on array_multiplier({MUX_BITS}): the only "
        "run of bddcircuit expansion and the node-for-node round trip",
        _mux_files,
        ["expand-bdd", "mult.net", "--mode", "gates", "--out", "expanded.net"],
        _mux_check),
)}
