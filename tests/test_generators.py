"""Seeded generators: determinism and the promised structural shapes."""

import pytest

from bddcheck import (Manager, circuit_truth_table, fanout_counts, is_tree,
                      serialize)
from bddcheck.generators import (array_multiplier, demorgan_rewrite,
                                 mutate_gate, random_bdd, random_dag_circuit,
                                 random_tree_circuit)
from bddcheck.oracle import tables_equal


class TestTreeGenerator:
    def test_deterministic_per_seed(self):
        a = serialize(random_tree_circuit(9, seed=7))
        b = serialize(random_tree_circuit(9, seed=7))
        assert a == b
        assert a != serialize(random_tree_circuit(9, seed=8))

    def test_is_fanout_free_with_each_input_once(self):
        for seed in range(25):
            c = random_tree_circuit(6 + seed % 11, seed=seed)
            ok, violator = is_tree(c)
            assert ok, violator
            counts = fanout_counts(c)
            for name in c.inputs:
                assert counts[name] == 1
            assert all(g.kind in ("and", "or", "nand", "nor", "inv")
                       for g in c.gates)

    def test_depth_cap_flattens(self):
        c = random_tree_circuit(32, depth=2, seed=1)
        assert is_tree(c).ok

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            random_tree_circuit(8, depth=-1)


def test_sizes_below_the_smallest_are_rejected():
    with pytest.raises(ValueError, match="one input"):
        random_dag_circuit(0, 1)
    with pytest.raises(ValueError, match="2 bits"):
        array_multiplier(1)
    with pytest.raises(ValueError, match="one variable"):
        random_bdd(Manager(2), variables=[])


class TestDagGenerator:
    def test_deterministic(self):
        a = random_dag_circuit(5, 12, seed=3)
        assert a == random_dag_circuit(5, 12, seed=3)

    def test_outputs_exist(self):
        c = random_dag_circuit(5, 12, seed=3, n_outputs=3)
        assert len(c.outputs) == 3
        assert len(set(c.outputs)) == 3


class TestMultiplier:
    def test_small_multiplier_is_correct(self):
        bits = 3
        c = array_multiplier(bits)
        assert len(c.inputs) == 2 * bits
        assert len(c.outputs) == 2 * bits
        t = circuit_truth_table(c)
        for a in range(1 << bits):
            for b in range(1 << bits):
                row = a | (b << bits)
                got = sum(t.bit(row, j) << j for j in range(2 * bits))
                assert got == a * b, (a, b, got)

    def test_four_bit_multiplier_is_correct(self):
        c = array_multiplier(4)
        t = circuit_truth_table(c)
        for a in range(16):
            for b in range(16):
                row = a | (b << 4)
                got = sum(t.bit(row, j) << j for j in range(8))
                assert got == a * b


class TestRewrites:
    def test_demorgan_preserves_function(self):
        for seed in range(15):
            c = random_dag_circuit(6, 14, seed=seed)
            r = demorgan_rewrite(c, seed=seed, prob=1.0)
            eq, diff = tables_equal(circuit_truth_table(c),
                                    circuit_truth_table(r))
            assert eq, diff

    def test_mutation_changes_one_gate(self):
        c = random_dag_circuit(5, 10, seed=2)
        m = mutate_gate(c, seed=3)
        changed = [
            (a, b) for a, b in zip(c.gates, m.gates)
            if (a.kind, a.inputs) != (b.kind, b.inputs)
        ]
        assert len(changed) == 1
