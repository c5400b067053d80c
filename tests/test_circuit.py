"""Circuit DAG model: validation, ordering, tree analysis, rewrites."""

import pytest

from bddcheck import (Circuit, CircuitError, Gate, build_miter,
                      circuit_truth_table, decompose_multi_input,
                      dfs_variable_order, expand_mux, fanout_counts, is_tree,
                      tables_equal, topological_order)
from bddcheck.circuit import _validate
from bddcheck.generators import random_dag_circuit


def two_and_two_or():
    """f = (x1 AND x2) OR (x3 AND x4), declared in topological order."""
    return Circuit(
        ("x1", "x2", "x3", "x4"), ("y",),
        (Gate("and", "a", ("x1", "x2")),
         Gate("and", "b", ("x3", "x4")),
         Gate("or", "y", ("a", "b"))))


def test_gate_has_no_instance_dict():
    g = Gate("and", "y", ["a", "b"])
    assert not hasattr(g, "__dict__")
    assert g.inputs == ("a", "b")


class TestValidation:
    def test_duplicate_signal(self):
        with pytest.raises(CircuitError, match="duplicate"):
            Circuit(("x", "x"), ("x",), ())

    def test_undefined_gate_input(self):
        with pytest.raises(CircuitError, match="undefined"):
            Circuit(("x",), ("y",), (Gate("inv", "y", ("zz",)),))

    def test_undefined_output(self):
        with pytest.raises(CircuitError, match="undefined output"):
            Circuit(("x",), ("nope",), (Gate("inv", "y", ("x",)),))

    def test_bad_arity(self):
        with pytest.raises(CircuitError, match="exactly 1"):
            Circuit(("x", "z"), ("y",), (Gate("inv", "y", ("x", "z")),))
        with pytest.raises(CircuitError, match="at least 2"):
            Circuit(("x",), ("y",), (Gate("and", "y", ("x",)),))
        with pytest.raises(CircuitError, match="exactly 3"):
            Circuit(("x", "z"), ("y",), (Gate("mux", "y", ("x", "z")),))

    def test_unknown_kind(self):
        with pytest.raises(CircuitError, match="unknown kind"):
            Circuit(("x", "z"), ("y",), (Gate("xnor", "y", ("x", "z")),))

    def test_bad_constant(self):
        with pytest.raises(CircuitError, match="must be 0 or 1"):
            Circuit(("x",), ("x",), (), (("c", 2),))

    @pytest.mark.parametrize("args, signal", [
        ((("x", ""), ("x",), ()), ""),
        ((("x", "x"), ("x",), ()), "x"),
        ((("x",), ("x",), (), (("c", 2),)), "c"),
        ((("x", "z"), ("y",), (Gate("xnor", "y", ("x", "z")),)), "y"),
        ((("x", "z"), ("y",), (Gate("inv", "y", ("x", "z")),)), "y"),
        ((("x",), ("y",), (Gate("inv", "y", ("zz",)),)), "y"),
        ((("x",), ("nope",), (Gate("inv", "y", ("x",)),)), "nope"),
        ((("x",), ("y",), (Gate("and", "y", ("x", "y")),)), "y"),
    ])
    def test_every_error_names_its_signal(self, args, signal):
        with pytest.raises(CircuitError) as err:
            Circuit(*args)
        assert err.value.signal == signal


class TestTopologicalOrder:
    def test_single_gate(self):
        c = Circuit(("x1", "x2"), ("y",), (Gate("and", "y", ("x1", "x2")),))
        assert [g.output for g in topological_order(c)] == ["y"]

    def test_reversed_chain_is_sorted_forward(self):
        c = Circuit(
            ("x",), ("c3",),
            (Gate("inv", "c3", ("c2",)),
             Gate("inv", "c2", ("c1",)),
             Gate("inv", "c1", ("x",))))
        assert [g.output for g in topological_order(c)] == ["c1", "c2", "c3"]

    def test_declaration_order_is_kept_only_when_topological(self):
        c = two_and_two_or()
        assert _validate(c) is c.gates
        # Kahn's order: among ready gates the first declared goes first
        c = Circuit(("x",), ("a",),
                    (Gate("inv", "a", ("b",)),
                     Gate("inv", "c", ("x",)),
                     Gate("inv", "b", ("x",))))
        assert [g.output for g in _validate(c)] == ["c", "b", "a"]

    def test_self_feeding_gate_is_a_cycle(self):
        with pytest.raises(CircuitError, match="cycle through signal"):
            Circuit(("x",), ("y",), (Gate("and", "y", ("x", "y")),))

    def test_two_gate_cycle_names_a_cycle_signal(self):
        with pytest.raises(CircuitError, match="cycle through signal '[ab]'"):
            Circuit(("x",), ("a",),
                    (Gate("and", "a", ("x", "b")),
                     Gate("and", "b", ("x", "a"))))

    def test_order_is_a_permutation_respecting_dependencies(self):
        c = two_and_two_or()
        order = topological_order(c)
        assert sorted(g.output for g in order) == ["a", "b", "y"]
        pos = {g.output: i for i, g in enumerate(order)}
        produced = {g.output for g in c.gates}
        for g in c.gates:
            for s in g.inputs:
                if s in produced:
                    assert pos[s] < pos[g.output]

    def test_gates_declared_after_their_inputs_keep_declaration_order(self):
        c = random_dag_circuit(6, 40, seed=5, n_outputs=3)
        assert topological_order(c) == list(c.gates)
        # one gate moved ahead of its producer leaves the declaration
        # order, and the heap sort still honours every dependency
        gates = list(c.gates)
        last = gates.pop()
        assert set(last.inputs) & {g.output for g in gates}
        moved = Circuit(c.inputs, c.outputs, [last] + gates, c.constants)
        order = topological_order(moved)
        assert order != list(moved.gates)
        assert sorted(g.output for g in order) == sorted(g.output for g in gates + [last])
        pos = {g.output: i for i, g in enumerate(order)}
        for g in order:
            for s in g.inputs:
                if s in pos:
                    assert pos[s] < pos[g.output]

    def test_deterministic_among_ready_gates(self):
        c = Circuit(("x",), ("b",),
                    (Gate("inv", "a", ("x",)), Gate("inv", "b", ("x",))))
        assert [g.output for g in topological_order(c)] == ["a", "b"]


class TestIsTree:
    def test_two_level_tree(self):
        ok, violator = is_tree(two_and_two_or())
        assert ok and violator is None
        # a constant may feed any number of gates
        c = Circuit(("x1", "x2"), ("y",),
                    (Gate("and", "a", ("x1", "one")),
                     Gate("and", "b", ("x2", "one")),
                     Gate("or", "y", ("a", "b"))), (("one", 1),))
        assert is_tree(c) == (True, None)

    def test_same_input_twice_is_fanout(self):
        c = Circuit(("x1",), ("y",), (Gate("and", "y", ("x1", "x1")),))
        ok, violator = is_tree(c)
        assert not ok and violator == "x1"

    def test_miter_shares_inputs(self):
        c = Circuit(("x1", "x2"), ("y",), (Gate("and", "y", ("x1", "x2")),))
        m = build_miter(c, c)
        ok, violator = is_tree(m)
        assert not ok and violator in ("x1", "x2")

    def test_multi_output_is_not_a_tree(self):
        c = Circuit(("x1", "x2"), ("a", "b"),
                    (Gate("and", "a", ("x1", "x2")),
                     Gate("inv", "b", ("a",))))
        ok, violator = is_tree(c)
        assert not ok and violator == "a"
        # fanout-free, but two outputs: no signal is at fault
        c = Circuit(("x1", "x2"), ("a", "b"),
                    (Gate("inv", "a", ("x1",)), Gate("inv", "b", ("x2",))))
        assert is_tree(c) == (False, None)


class TestDfsVariableOrder:
    def test_left_to_right(self):
        assert dfs_variable_order(two_and_two_or()) == [0, 1, 2, 3]

    def test_first_input_subtree_first(self):
        c = Circuit(
            ("x1", "x2", "x3", "x4"), ("y",),
            (Gate("and", "a", ("x3", "x4")),
             Gate("and", "b", ("x1", "x2")),
             Gate("or", "y", ("a", "b"))))
        assert dfs_variable_order(c) == [2, 3, 0, 1]

    def test_unreferenced_input_appended_last(self):
        c = Circuit(("x1", "x5", "x2"), ("y",),
                    (Gate("or", "y", ("x1", "x2")),))
        assert dfs_variable_order(c) == [0, 2, 1]

    def test_permutation_and_deterministic(self):
        c = two_and_two_or()
        order = dfs_variable_order(c)
        assert sorted(order) == [0, 1, 2, 3]
        assert order == dfs_variable_order(c)

    def test_no_outputs_is_an_error(self):
        with pytest.raises(CircuitError, match="no outputs"):
            dfs_variable_order(Circuit(("x1",), (), ()))


class TestDecompose:
    def test_four_input_and(self):
        c = Circuit(("w", "x", "y", "z"), ("o",),
                    (Gate("and", "o", ("w", "x", "y", "z")),))
        d = decompose_multi_input(c)
        assert [g.kind for g in d.gates] == ["and", "and", "and"]
        assert d.gates[0].inputs == ("w", "x")
        assert d.gates[1].inputs == (d.gates[0].output, "y")
        assert d.gates[2].inputs == (d.gates[1].output, "z")
        assert d.gates[2].output == "o"

    def test_two_input_circuit_unchanged(self):
        c = two_and_two_or()
        assert decompose_multi_input(c) == c

    def test_three_input_nand_truth_table(self):
        c = Circuit(("a", "b", "c"), ("o",),
                    (Gate("nand", "o", ("a", "b", "c")),))
        d = decompose_multi_input(c)
        assert [g.kind for g in d.gates] == ["and", "nand"]
        eq, _ = tables_equal(circuit_truth_table(c), circuit_truth_table(d))
        assert eq

    def test_multi_input_kinds_preserve_function(self):
        for kind in ("and", "or", "nand", "nor", "xor"):
            c = Circuit(("a", "b", "c", "d"), ("o",),
                        (Gate(kind, "o", ("a", "b", "c", "d")),))
            d = decompose_multi_input(c)
            assert all(len(g.inputs) == 2 for g in d.gates)
            eq, diff = tables_equal(circuit_truth_table(c),
                                    circuit_truth_table(d))
            assert eq, (kind, diff)


class TestExpandMux:
    def test_mux_of_constants_computes_select(self):
        c = Circuit(("x",), ("o",),
                    (Gate("mux", "o", ("x", "zero", "one")),),
                    (("zero", 0), ("one", 1)))
        e = expand_mux(c)
        assert [g.kind for g in e.gates] == ["inv", "and", "and", "or"]
        t = circuit_truth_table(e)
        assert t.columns[0] == circuit_truth_table(
            Circuit(("x",), ("x",), ())).columns[0]

    def test_mux_with_equal_data_is_that_data(self):
        c = Circuit(("x", "g"), ("o",), (Gate("mux", "o", ("x", "g", "g")),))
        e = expand_mux(c)
        tt = circuit_truth_table(e)
        g_col = circuit_truth_table(Circuit(("x", "g"), ("g",), ())).columns[0]
        assert tt.columns[0] == g_col

    def test_mux_truth_table_eight_rows(self):
        c = Circuit(("x1", "x2", "x3"), ("o",),
                    (Gate("mux", "o", ("x1", "x2", "x3")),))
        e = expand_mux(c)
        eq, _ = tables_equal(circuit_truth_table(c), circuit_truth_table(e))
        assert eq
        # NOT x1 AND x2  OR  x1 AND x3, enumerated over the 8 rows
        want = 0
        for r in range(8):
            x1, x2, x3 = r & 1, (r >> 1) & 1, (r >> 2) & 1
            want |= ((x3 if x1 else x2) << r)
        assert circuit_truth_table(e).columns[0] == want


class TestFanout:
    def test_tree_counts_at_most_one(self):
        counts = fanout_counts(two_and_two_or())
        assert all(v <= 1 for v in counts.values())

    def test_miter_inputs_count_two(self):
        c = Circuit(("x1", "x2"), ("y",), (Gate("and", "y", ("x1", "x2")),))
        m = build_miter(c, c)
        counts = fanout_counts(m)
        assert counts["x1"] == 2 and counts["x2"] == 2

    def test_dangling_output_reported_not_rejected(self):
        c = Circuit(("x1", "x2"), ("y",),
                    (Gate("and", "y", ("x1", "x2")),
                     Gate("or", "dead", ("x1", "x2"))))
        assert fanout_counts(c)["dead"] == 0
