"""Counter invariants on small seeded versions of the benchmark workloads.

Nodes are canonical and never freed, so a kernel change that only saves
work must leave ``created_count``, every signal size, the peak live count
and every node handle as they are; ``ite`` entries may only go down.  The
pinned values are those of the kernel before entry normalisation.  A
change that moves one of them fails here, not only in the benchmark.
The chain's ``size_walked`` is pinned as measured when size walks began
to reuse the previous signal's nodes.
"""

import hashlib
import json
import random

import pytest

from bddcheck import Circuit, Gate, check_equivalence, simulate
from bddcheck.cli import main as cli_main
from bddcheck.generators import (array_multiplier, demorgan_rewrite,
                                 mutate_gate, random_dag_circuit,
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
    return {**_sim_counters(res.stats), "size_walked": res.manager.size_walked}


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
                         "peak_live": 598, "size_sum": 40199,
                         "size_walked": 399})


def test_xor_chain_size_walks_are_linear():
    # each signal's walk starts from the previous signal's nodes, so the
    # walks add about 2n nodes while the sizes sum to about n*n
    n = 2000
    got = xor_chain(n)
    assert got["size_sum"] == n * n + n - 1
    assert got["size_walked"] <= 4 * n


def test_tree_forest_counters():
    _check(tree_forest(), {"created_total": 2989, "ite_entries_total": 3357,
                           "peak_live": 799, "size_sum": 4983})


@pytest.mark.parametrize("seed, entries", [(18, 499), (52, 84), (150, 129)])
def test_random_dag_ite_entries(seed, entries):
    # seeds whose count the OR operand ordering at ite entry lowers; the
    # workloads' counters do not move with it
    stats = simulate(random_dag_circuit(10, 40, seed=seed)).stats
    assert stats.ite_entries_total <= entries


def test_mux_roundtrip_counters(tmp_path, capsys):
    assert mux_roundtrip(tmp_path, capsys) == {
        "roundtrip_created": 1259, "original_size": 578,
        "max_internal_size": 170,
        "netlist_sha256": "9712f0cdc2c5c23b8cd5bdc2ff8b2f5c"
                          "2787881ec7a82b93c2822ccc6c73458a",
        "report_sha256": "4bb7777436ab66ef61f5e0ce00df4c99"
                         "b148ba9ee84ab9de053ff629dc70c44d"}


# SHA-256 of the stdout of each CLI report, byte for byte, on small seeded
# inputs; the JSON tests in ``test_cli.py`` pin only the parsed documents.
REPORTS = {
    "simulate-json-poly": (
      ["simulate", "tree.net", "--poly-degree", "1"], 0,
      "957b19da4a1aca64987ffdad82a1c70e"
      "406322ff8359607018e1ba3333a750d2"),
    "simulate-csv": (
      ["simulate", "tree.net", "--format", "csv"], 0,
      "d218dbb603d0399719cabbff19f378d0"
      "05c81349aa4d0037033118e608bef698"),
    "simulate-text": (
      ["simulate", "tree.net", "--format", "text",
       "--poly-degree", "1", "--poly-coeff", "0.5"], 0,
      "7122e9b35a3d1ab65e93f9d39dbec62a"
      "99a2120a2dbb67df4a4c1660ea167e76"),
    "verify-json-equivalent": (
      ["verify", "mult.net", "rewrite.net"], 0,
      "6cd2a34e02e9c831c66a6a25933f8bf2"
      "9a0502a3f38a0be1b8f72c46c54d46ef"),
    "verify-text-equivalent": (
      ["verify", "mult.net", "rewrite.net", "--format", "text"], 0,
      "2611cbbe594a140eadf28659e420ff4b"
      "363238cde2f40d788c3ce1372df0acce"),
    "verify-json-not-equivalent": (
      ["verify", "mult.net", "mutant.net"], 1,
      "eb9dc2c73e02ef11013449ab8e50b663"
      "5e6916550e65c0a7c44adc29f68db2b6"),
    "verify-text-not-equivalent": (
      ["verify", "mult.net", "mutant.net", "--format", "text"], 1,
      "1f4e741b255fd6dc3eb2d3079a098eb2"
      "4ba1f90ffa23095915f0754133595707"),
    "expand-bdd-text": (
      ["expand-bdd", "mult.net", "--mode", "gates", "--format",
       "text", "--out", "expanded.net"], 0,
      "b319c8ba7f039de4c6daa487d2a51bf7"
      "1f02adb3ea92267ff095adeede5e9251"),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes(name, tmp_path, monkeypatch, capsys):
    argv, code, pinned = REPORTS[name]
    mult = array_multiplier(4)
    for fname, circuit in (("tree.net", random_tree_circuit(40, seed=SEED)),
                           ("mult.net", mult),
                           ("rewrite.net", demorgan_rewrite(mult, SEED)),
                           ("mutant.net", mutate_gate(mult, seed=SEED))):
        (tmp_path / fname).write_text(serialize(circuit))
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == pinned
