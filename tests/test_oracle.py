"""Truth-table oracle: the ground truth the rest of the suite leans on."""

import operator
import random
from functools import reduce

import pytest

from bddcheck import (Circuit, Gate, Manager, ONE, check_equivalence,
                      circuit_truth_table, dfs_variable_order,
                      evaluate_circuit, expand_to_circuit, simulate,
                      tables_equal)
from bddcheck.generators import (array_multiplier, demorgan_rewrite,
                                 mutate_gate, random_dag_circuit,
                                 random_tree_circuit)
from bddcheck.oracle import (TABLE_CAP, _bdd_columns, _evaluate,
                             bdd_function_table, input_pattern,
                             random_columns)

ROWS = 256                          # seeded random assignments per check


def agreed_columns(c, res, seed):
    """The output columns of ``c`` on ``ROWS`` seeded random assignments,
    once every output BDD of the simulation ``res`` gives the same."""
    cols = random_columns(len(c.inputs), ROWS, seed)
    full = (1 << ROWS) - 1
    want = _evaluate(c, dict(zip(c.inputs, cols)), full)
    roots = [res.signal_bdds[po] for po in c.outputs]
    assert _bdd_columns(res.manager, roots, cols, full) == want
    return want


class TestTables:
    def test_and_vector(self):
        c = Circuit(("x1", "x2"), ("y",), (Gate("and", "y", ("x1", "x2")),))
        t = circuit_truth_table(c)
        # rows ascend 00,01,10,11; only row 3 (both true) is set
        assert t.columns[0] == 0b1000
        assert [t.bit(r) for r in range(4)] == [0, 0, 0, 1]

    def test_inv_vector(self):
        c = Circuit(("x1",), ("y",), (Gate("inv", "y", ("x1",)),))
        t = circuit_truth_table(c)
        assert [t.bit(r) for r in range(2)] == [1, 0]

    def test_input_pattern(self):
        # variable i reads bit (row >> i) & 1
        for n in (1, 2, 3, 5):
            for i in range(n):
                pat = input_pattern(i, n)
                for r in range(1 << n):
                    assert (pat >> r) & 1 == (r >> i) & 1

    def test_constants_and_every_kind(self):
        c = Circuit(
            ("a", "b", "s"), ("o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8"),
            (Gate("and", "o1", ("a", "b")),
             Gate("or", "o2", ("a", "b")),
             Gate("nand", "o3", ("a", "b")),
             Gate("nor", "o4", ("a", "b")),
             Gate("xor", "o5", ("a", "b")),
             Gate("inv", "o6", ("a",)),
             Gate("buf", "o7", ("one",)),
             Gate("mux", "o8", ("s", "a", "b"))),
            (("one", 1),))
        t = circuit_truth_table(c)
        for r in range(8):
            a, b, s = r & 1, (r >> 1) & 1, (r >> 2) & 1
            assert t.bit(r, 0) == (a & b)
            assert t.bit(r, 1) == (a | b)
            assert t.bit(r, 2) == 1 - (a & b)
            assert t.bit(r, 3) == 1 - (a | b)
            assert t.bit(r, 4) == a ^ b
            assert t.bit(r, 5) == 1 - a
            assert t.bit(r, 6) == 1
            assert t.bit(r, 7) == (b if s else a)

    def test_cap(self):
        # the cap is checked before any table is built
        c = Circuit(tuple(f"x{i}" for i in range(TABLE_CAP + 1)), ("x0",), ())
        with pytest.raises(ValueError, match="21 inputs exceed .* cap of 20"):
            circuit_truth_table(c)
        with pytest.raises(ValueError, match="cap of 20"):
            bdd_function_table(Manager(TABLE_CAP + 1), ONE)


class TestTablesEqual:
    def test_table_equals_itself(self):
        t = circuit_truth_table(
            Circuit(("a", "b"), ("o",), (Gate("xor", "o", ("a", "b")),)))
        eq, diff = tables_equal(t, t)
        assert eq and diff is None

    def test_and_vs_or_first_differs_at_row_one(self):
        and_t = circuit_truth_table(
            Circuit(("a", "b"), ("o",), (Gate("and", "o", ("a", "b")),)))
        or_t = circuit_truth_table(
            Circuit(("a", "b"), ("o",), (Gate("or", "o", ("a", "b")),)))
        eq, diff = tables_equal(and_t, or_t)
        assert not eq
        assert diff == (1, 0)

    def test_shape_mismatch(self):
        a = circuit_truth_table(Circuit(("x",), ("x",), ()))
        b = circuit_truth_table(Circuit(("x", "y"), ("x",), ()))
        with pytest.raises(ValueError):
            tables_equal(a, b)

    def test_equivalence_relation_on_same_shape_tables(self):
        tables = [circuit_truth_table(random_dag_circuit(4, 8, seed=s))
                  for s in range(6)]
        tables.append(tables[0])
        for a in tables:
            assert tables_equal(a, a)[0]
            for b in tables:
                assert tables_equal(a, b)[0] == tables_equal(b, a)[0]
                for c in tables:
                    if tables_equal(a, b)[0] and tables_equal(b, c)[0]:
                        assert tables_equal(a, c)[0]

    def test_mutant_difference_replays_at_gate_level(self):
        for seed in range(20):
            c = random_dag_circuit(4, 10, seed=seed)
            m = mutate_gate(c, seed=seed + 1)
            eq, diff = tables_equal(circuit_truth_table(c),
                                    circuit_truth_table(m))
            if eq:
                continue
            row, po = diff
            assignment = {name: (row >> i) & 1
                          for i, name in enumerate(c.inputs)}
            got_c = evaluate_circuit(c, assignment)
            got_m = evaluate_circuit(m, assignment)
            assert got_c[po] != got_m[po]


class TestCrossModuleAgreement:
    def test_simulated_bdds_match_tables_exhaustively(self):
        for seed in range(12):
            c = random_dag_circuit(8, 16, seed=seed, n_outputs=2)
            t = circuit_truth_table(c)
            res = simulate(c)
            for j, po in enumerate(c.outputs):
                mask = bdd_function_table(res.manager, res.signal_bdds[po])
                assert mask == t.columns[j], (seed, po)

    def test_eval_matches_table_rows(self):
        rng = random.Random(3)
        c = random_dag_circuit(8, 20, seed=42)
        t = circuit_truth_table(c)
        res = simulate(c)
        po = c.outputs[0]
        for _ in range(64):
            row = rng.randrange(1 << 8)
            a = [(row >> i) & 1 for i in range(8)]
            assert res.manager.eval(res.signal_bdds[po], a) == t.bit(row, 0)


class TestRandomAssignments:
    """Past the truth-table cap: every output BDD of a benchmark-sized
    input agrees with gate-level evaluation on seeded random assignments."""

    def test_columns_are_seeded(self):
        cols = random_columns(5, ROWS, seed=1)
        assert cols == random_columns(5, ROWS, seed=1)
        assert cols != random_columns(5, ROWS, seed=2)
        assert len(cols) == 5 and all(x >> ROWS == 0 for x in cols)

    @pytest.mark.parametrize("bits, order", [(8, "dfs"), (7, "declared")])
    def test_multiplier(self, bits, order):
        c = array_multiplier(bits)
        order = None if order == "dfs" else range(len(c.inputs))
        agreed_columns(c, simulate(c, order), seed=bits)

    def test_trees(self):
        for seed in range(3):
            c = random_tree_circuit(1024, seed=seed)
            agreed_columns(c, simulate(c), seed=seed)

    def test_xor_chain_in_reversed_order(self):
        n = 4000
        inputs = tuple(f"x{i}" for i in range(n))
        chain = list(range(n))
        random.Random(5).shuffle(chain)
        gates, acc = [], inputs[chain[0]]
        for k, i in enumerate(chain[1:], 1):
            gates.append(Gate("xor", f"t{k}", (acc, inputs[i])))
            acc = f"t{k}"
        c = Circuit(inputs, (acc,), tuple(gates))
        # the input that enters the chain last tests at the top
        want = agreed_columns(c, simulate(c, chain[::-1]), seed=5)
        assert want == [reduce(operator.xor, random_columns(n, ROWS, 5))]

    def test_gates_mode_roundtrip_circuit(self):
        mult = array_multiplier(6)
        res = simulate(mult)
        roots = [res.signal_bdds[po] for po in mult.outputs]
        circuit, _ = expand_to_circuit(res.manager, roots, "gates",
                                       mult.inputs)
        sim = simulate(circuit, res.manager.var_order(), track_live=False)
        assert (agreed_columns(circuit, sim, seed=6)
                == agreed_columns(mult, res, seed=6))

    def test_mult_verify_pair(self):
        left = array_multiplier(7)
        right = demorgan_rewrite(left, seed=7)
        order = dfs_variable_order(left)
        assert (agreed_columns(left, simulate(left, order), seed=7)
                == agreed_columns(right, simulate(right, order), seed=7))
        assert check_equivalence(left, right, order).verdict == "equivalent"
