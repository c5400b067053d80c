"""Counter invariants on small seeded versions of the benchmark workloads.

Nodes are canonical and never freed, so a kernel change that only saves
work must leave ``created_count``, every signal size, the peak live count
and every node handle as they are; ``ite`` entries may only go down.  The
pinned values are those of the kernel before entry normalisation.  A
change that moves one of them fails here, not only in the benchmark.
"""

import hashlib
import json
import random

from bddcheck import Circuit, Gate, check_equivalence, simulate
from bddcheck.cli import main as cli_main
from bddcheck.generators import (array_multiplier, demorgan_rewrite,
                                 random_tree_circuit)
from bddcheck.netlist import serialize

SEED = 1


def _sim_counters(stats) -> dict:
    return {"created_total": stats.created_total,
            "ite_entries_total": stats.ite_entries_total,
            "peak_live": stats.peak_live,
            "size_sum": sum(r.size for r in stats.rows)}


def _check(got: dict, pinned: dict):
    """Every pinned counter is equal, except ``ite_entries_total``, which
    may only have gone down."""
    entries = got.pop("ite_entries_total")
    pinned = dict(pinned)
    assert entries <= pinned.pop("ite_entries_total")
    assert got == pinned


def mult_verify(bits: int = 6, seed: int = SEED) -> dict:
    left = array_multiplier(bits)
    outcome = check_equivalence(left, demorgan_rewrite(left, seed))
    assert outcome.verdict == "equivalent"
    return _sim_counters(outcome.stats)


def xor_chain(n: int = 200, seed: int = SEED) -> dict:
    """Parity chain over inputs taken in a seeded order, simulated with the
    input that enters last at the top."""
    inputs = tuple(f"x{i}" for i in range(n))
    chain = list(range(n))
    random.Random(seed).shuffle(chain)
    gates, acc = [], inputs[chain[0]]
    for k, i in enumerate(chain[1:], 1):
        gates.append(Gate("xor", f"t{k}", (acc, inputs[i])))
        acc = f"t{k}"
    res = simulate(Circuit(inputs, (acc,), tuple(gates)), chain[::-1])
    assert res.stats.rows[-1].size == 2 * n - 1
    return _sim_counters(res.stats)


def tree_forest(trees: int = 2, n: int = 200, seed: int = SEED) -> dict:
    rng = random.Random(seed)
    inputs, outputs, gates = [], [], []
    for j in range(trees):
        t = random_tree_circuit(n, seed=rng.getrandbits(32))
        p = f"t{j}_"
        inputs += [p + x for x in t.inputs]
        outputs += [p + o for o in t.outputs]
        gates += [Gate(g.kind, p + g.output, tuple(p + s for s in g.inputs))
                  for g in t.gates]
    res = simulate(Circuit(tuple(inputs), tuple(outputs), tuple(gates)))
    return _sim_counters(res.stats)


def mux_roundtrip(tmp_path, capsys, bits: int = 5) -> dict:
    net = tmp_path / "mult.net"
    net.write_text(serialize(array_multiplier(bits)))
    out = tmp_path / "expanded.net"
    assert cli_main(["expand-bdd", str(net), "--mode", "gates",
                     "--out", str(out)]) == 0
    report = capsys.readouterr().out
    doc = json.loads(report)
    assert doc["ok"]
    return {"roundtrip_created": doc["created_total"],
            "original_size": doc["original_size"],
            "max_internal_size": doc["max_internal_size"],
            "netlist_sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
            "report_sha256": hashlib.sha256(report.encode()).hexdigest()}


def test_mult_verify_counters():
    _check(mult_verify(), {"created_total": 13730, "ite_entries_total": 24113,
                           "peak_live": 2843, "size_sum": 28723})


def test_xor_chain_counters():
    _check(xor_chain(), {"created_total": 597, "ite_entries_total": 795,
                         "peak_live": 598, "size_sum": 40199})


def test_tree_forest_counters():
    _check(tree_forest(), {"created_total": 2989, "ite_entries_total": 3357,
                           "peak_live": 799, "size_sum": 4983})


def test_mux_roundtrip_counters(tmp_path, capsys):
    assert mux_roundtrip(tmp_path, capsys) == {
        "roundtrip_created": 1259, "original_size": 578,
        "max_internal_size": 170,
        "netlist_sha256": "9712f0cdc2c5c23b8cd5bdc2ff8b2f5c"
                          "2787881ec7a82b93c2822ccc6c73458a",
        "report_sha256": "99c73519a02351d9aa7ef8517712bdd1"
                         "24c2ed15aa1901ca8ecc2a85e5547617"}
