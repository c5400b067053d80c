"""Cross-checks of the benchmark's input generators against the truth-table
oracle, at small sizes of each workload and several seeds.

The oracle evaluates gates bitwise and never touches the BDD code, so
these tests trust the benchmark's inputs independently of what the
benchmark measures.

    PYTHONPATH=src python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import json
import random
import unittest
from pathlib import Path

from bddcheck.bddcircuit import expand_to_circuit
from bddcheck.circuit import fanout_counts
from bddcheck.generators import array_multiplier, random_tree_circuit
from bddcheck.netlist import parse, serialize
from bddcheck.oracle import (bdd_function_table, circuit_truth_table,
                             evaluate_circuit, tables_equal)
from bddcheck.simulate import simulate

import run
from workloads import (WORKLOADS, mult_verify_pair, random_forest,
                       renamed_multiplier, xor_chain)

SEEDS = (1, 2, 7)


def _same_function_by_name(a, b) -> bool:
    """Equal outputs on every assignment, matching inputs by name."""
    assert sorted(a.inputs) == sorted(b.inputs)
    for bits in itertools.product((0, 1), repeat=len(a.inputs)):
        assignment = dict(zip(a.inputs, bits))
        if evaluate_circuit(a, assignment) != evaluate_circuit(b, assignment):
            return False
    return True


class DeMorganRewrite(unittest.TestCase):
    def test_rewrite_is_equivalent(self):
        for bits, seed in itertools.product((3, 4), SEEDS):
            left, right = mult_verify_pair(seed, bits)
            self.assertNotEqual(len(left.gates), len(right.gates))
            equal, first = tables_equal(circuit_truth_table(left),
                                        circuit_truth_table(right))
            self.assertTrue(equal, f"bits={bits} seed={seed} differ at {first}")


class XorChain(unittest.TestCase):
    def test_chain_is_parity_and_order_is_reversed(self):
        n = 12
        for seed in SEEDS:
            c, order = xor_chain(n, seed)
            table = circuit_truth_table(c)
            parity = sum(1 << r for r in range(1 << n) if bin(r).count("1") & 1)
            self.assertEqual(table.columns, (parity,))
            self.assertEqual(sorted(order), sorted(c.inputs))
            # the input consumed by the last gate tests at the top
            self.assertEqual(order[0], c.gates[-1].inputs[1])

    def test_chain_depends_on_the_seed(self):
        self.assertNotEqual(xor_chain(12, 1)[1], xor_chain(12, 2)[1])


class RandomForest(unittest.TestCase):
    def test_each_output_is_its_tree(self):
        for seed in SEEDS:
            forest = random_forest(3, 5, seed)
            self.assertTrue(all(k == 1 for k in fanout_counts(forest).values()))
            table = circuit_truth_table(forest)
            n = len(forest.inputs)
            rng = random.Random(seed)
            tree_seeds = [rng.getrandbits(32) for _ in table.columns]
            for j, column in enumerate(table.columns):
                prefix = f"t{j}_"
                mine = [i for i, x in enumerate(forest.inputs)
                        if x.startswith(prefix)]
                tree = circuit_truth_table(
                    random_tree_circuit(5, seed=tree_seeds[j]))
                for r in range(1 << n):
                    sub = sum(((r >> i) & 1) << k for k, i in enumerate(mine))
                    self.assertEqual((column >> r) & 1, tree.bit(sub))


class MuxRoundtrip(unittest.TestCase):
    def test_renamed_multiplier_is_the_multiplier(self):
        for seed in SEEDS:
            self.assertTrue(_same_function_by_name(renamed_multiplier(3, seed),
                                                   array_multiplier(3)))

    def test_expanded_netlist_computes_the_original_function(self):
        for mode, seed in itertools.product(("gates", "mux"), SEEDS):
            original = renamed_multiplier(3, seed)
            res = simulate(original)
            roots = [res.signal_bdds[o] for o in original.outputs]
            names = dict(enumerate(original.inputs))
            expanded, _ = expand_to_circuit(res.manager, roots, mode, names)
            expanded = parse(serialize(expanded))
            self.assertEqual(expanded.inputs, original.inputs)
            equal, first = tables_equal(circuit_truth_table(expanded),
                                        circuit_truth_table(original))
            self.assertTrue(equal, f"{mode} seed={seed} differ at {first}")
            want = circuit_truth_table(original).columns
            got = tuple(bdd_function_table(res.manager, f) for f in roots)
            self.assertEqual(got, want)


class Workloads(unittest.TestCase):
    def test_files_repeat_for_a_seed_and_parse(self):
        for w in WORKLOADS.values():
            if w.name == "tree-simulate":
                continue                  # covered by RandomForest, and slow
            files = w.files(3)
            self.assertEqual(files, w.files(3))
            for name, text in files.items():
                if name.endswith(".net"):
                    parse(text)

    def test_benchmark_json_matches_the_metrics(self):
        spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
