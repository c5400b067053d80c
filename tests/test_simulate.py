"""Symbolic simulation: instrumentation, liveness, bound monitor, probe."""

import csv
import io
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from bddcheck import (Circuit, Gate, Manager, PolyBoundConfig,
                      SimulationCapacityError, ZERO, ONE, check_poly_bound,
                      circuit_truth_table, evaluate_circuit, expand_mux,
                      simulate, stats_to_csv, stats_to_json,
                      top_variable_probe)
from bddcheck.generators import (array_multiplier, random_dag_circuit,
                                 random_tree_circuit)
from bddcheck.oracle import bdd_function_table
from bddcheck.simulate import CSV_HEADER


def single_and():
    return Circuit(("x1", "x2"), ("y",), (Gate("and", "y", ("x1", "x2")),))


def two_and_two_or():
    return Circuit(
        ("x1", "x2", "x3", "x4"), ("y",),
        (Gate("and", "a", ("x1", "x2")),
         Gate("and", "b", ("x3", "x4")),
         Gate("or", "y", ("a", "b"))))


class TestSimulate:
    def test_single_and_gate_builds_two_nodes(self):
        res = simulate(single_and())
        assert res.stats.per_signal_size["y"] == 2
        assert res.manager.size(res.signal_bdds["y"]) == 2

    def test_every_input_maps_to_its_projection(self):
        res = simulate(two_and_two_or())
        for i, name in enumerate(("x1", "x2", "x3", "x4")):
            assert res.signal_bdds[name] == res.manager.var(i)

    def test_dfs_tree_output_is_linear(self):
        res = simulate(two_and_two_or())
        assert res.stats.per_signal_size["y"] == 4
        assert res.stats.created_total == 4

    def test_constant_inputs_fold_to_terminals(self):
        c = Circuit((), ("y",),
                    (Gate("and", "a", ("one", "zero")),
                     Gate("or", "y", ("a", "one"))),
                    (("zero", 0), ("one", 1)))
        res = simulate(c, order=[])
        assert res.signal_bdds["a"] == ZERO
        assert res.signal_bdds["y"] == ONE

    def test_mux_native_and_expanded_agree(self):
        for seed in range(8):
            c = random_dag_circuit(6, 12, seed=seed, kinds=("and", "mux", "or"))
            native = simulate(c)
            expanded = simulate(expand_mux(c))
            po = c.outputs[0]
            t_native = bdd_function_table(native.manager,
                                          native.signal_bdds[po])
            t_exp = bdd_function_table(expanded.manager,
                                       expanded.signal_bdds[po])
            assert t_native == t_exp
            assert t_native == circuit_truth_table(c).columns[0]

    def test_order_must_cover_inputs(self):
        with pytest.raises(ValueError):
            simulate(single_and(), order=[0])
        with pytest.raises(ValueError):
            simulate(single_and(), order=[0, 0])

    def test_explicit_order_is_respected(self):
        res = simulate(single_and(), order=[1, 0])
        assert res.stats.order_used == (1, 0)
        assert res.manager.level_of_var(1) == 0

    def test_boolean_order_is_reported_as_integers(self):
        stats = simulate(single_and(), order=[True, False]).stats
        assert json.dumps(stats_to_json(stats)["order_used"]) == "[1, 0]"

    def test_created_after_is_monotone(self):
        for seed in range(6):
            c = random_dag_circuit(6, 15, seed=seed)
            rows = simulate(c).stats.rows
            for a, b in zip(rows, rows[1:]):
                assert b.created_cum >= a.created_cum

    def test_order_sensitivity_witness(self):
        # interleaving the blocks of a tree inflates the result:
        # a documented witness, not a universal claim
        c = two_and_two_or()
        good = simulate(c, order=[0, 1, 2, 3])
        bad = simulate(c, order=[0, 2, 1, 3])
        assert good.stats.per_signal_size["y"] == 4
        assert bad.stats.per_signal_size["y"] > 4
        assert bad.stats.created_total > good.stats.created_total

    def test_semantics_against_gate_level_oracle(self):
        rng = random.Random(11)
        for seed in range(10):
            c = random_dag_circuit(7, 14, seed=seed, n_outputs=2)
            res = simulate(c)
            t = circuit_truth_table(c)
            for j, po in enumerate(c.outputs):
                mask = bdd_function_table(res.manager, res.signal_bdds[po])
                assert mask == t.columns[j]

    def test_every_signal_matches_the_oracle_exhaustively(self):
        for seed in range(6):
            c = random_dag_circuit(6, 12, seed=seed)
            # re-declare with every signal observable, so the oracle
            # tabulates all of them
            all_out = Circuit(c.inputs, c.signals, c.gates, c.constants)
            t = circuit_truth_table(all_out)
            res = simulate(all_out)
            for j, sig in enumerate(all_out.outputs):
                mask = bdd_function_table(res.manager, res.signal_bdds[sig])
                assert mask == t.columns[j], (seed, sig)

    def test_constant_variant_folds_like_gate_level_propagation(self):
        rng = random.Random(77)
        for seed in range(8):
            c = random_dag_circuit(5, 12, seed=seed, n_outputs=2)
            assignment = {name: rng.randrange(2) for name in c.inputs}
            consts = tuple((name, assignment[name]) for name in c.inputs)
            folded = Circuit((), c.outputs, c.gates, c.constants + consts)
            res = simulate(folded, order=[])
            want = evaluate_circuit(c, assignment)
            for j, po in enumerate(folded.outputs):
                assert res.signal_bdds[po] == (ONE if want[j] else ZERO)


class TestLiveness:
    def test_inputs_stay_live(self):
        res = simulate(single_and())
        # both projections and the AND node are reachable at the end
        assert res.stats.rows[-1].live_nodes == 3
        assert res.stats.peak_live == 3

    def test_dead_intermediates_drop_out(self):
        # c1 = and(x1,x2); c2 = inv(c1): after c2 the complement chain
        # is live, c1's top node is reachable only from... it is not:
        # inv rebuilds the chain, so c1 drops when consumed
        c = Circuit(("x1", "x2"), ("o",),
                    (Gate("and", "c1", ("x1", "x2")),
                     Gate("inv", "o", ("c1",))))
        res = simulate(c)
        rows = {r.signal: r for r in res.stats.rows}
        # live after o: projections (2) + inv result (2); c1 is dead
        assert rows["o"].live_nodes == 4
        assert rows["c1"].live_nodes == 3
        assert res.stats.peak_live == max(r.live_nodes
                                          for r in res.stats.rows)

    def test_live_nodes_match_a_recount_of_the_live_signals(self):
        # live after a row: the inputs, the outputs defined so far and
        # the signals that a gate of a later row still reads
        for seed in range(12):
            c = random_dag_circuit(6, 30, seed=seed, n_outputs=4)
            res = simulate(c)
            rows = res.stats.rows
            row_of = {r.signal: r.topo_index for r in rows}
            last_read = {}
            for g in c.gates:
                for s in g.inputs:
                    last_read[s] = max(last_read.get(s, -1), row_of[g.output])
            kept = set(c.inputs) | set(c.outputs)
            for k, row in enumerate(rows):
                live = [res.signal_bdds[r.signal] for r in rows[:k + 1]
                        if r.signal in kept or last_read.get(r.signal, -1) > k]
                assert row.live_nodes == len(res.manager.reachable(live))

    def test_tracking_can_be_disabled(self):
        res = simulate(two_and_two_or(), track_live=False)
        assert res.stats.peak_live is None
        assert all(r.live_nodes is None for r in res.stats.rows)
        rows = stats_to_csv(res.stats).splitlines()[1:]
        assert all(line.split(",")[5] == "" for line in rows)


class TestCapacity:
    def test_capacity_abort_names_failing_signal(self):
        c = random_dag_circuit(20, 60, seed=3, kinds=("xor", "and", "or"))
        with pytest.raises(SimulationCapacityError) as err:
            simulate(c, node_limit=10)
        stats = err.value.stats
        assert not stats.completed
        assert stats.failing_signal is not None
        assert stats.rows    # partial trace survives
        assert err.value.node_limit == 10

    def test_abort_holds_only_its_stats(self):
        c = random_dag_circuit(20, 60, seed=3, kinds=("xor", "and", "or"))
        full = simulate(c).stats.rows
        with pytest.raises(SimulationCapacityError) as err:
            simulate(c, node_limit=40)
        exc = err.value
        rows = exc.stats.rows
        assert len(c.inputs) < len(rows) < len(full)
        assert rows == full[:len(rows)]          # the partial trace
        assert str(exc) == ("node limit of 40 reached while simulating "
                            f"signal '{exc.stats.failing_signal}'")
        assert not hasattr(exc, "signal_bdds")
        assert not hasattr(exc, "manager")

    def test_partial_stats_cover_prefix(self):
        c = Circuit(("a", "b", "c", "d"), ("o",),
                    (Gate("xor", "t1", ("a", "b")),
                     Gate("xor", "t2", ("t1", "c")),
                     Gate("xor", "t3", ("t2", "d")),
                     Gate("xor", "o", ("t3", "a"))))
        try:
            simulate(c, node_limit=5)
        except SimulationCapacityError as exc:
            signals = [r.signal for r in exc.stats.rows]
            assert signals[:4] == ["a", "b", "c", "d"]
            assert exc.stats.failing_signal not in signals
        else:
            pytest.fail("expected a capacity abort")

    def test_abort_during_the_inputs_reports_the_peak_of_its_rows(self):
        # the third projection reaches the limit of 3; the fourth aborts
        with pytest.raises(SimulationCapacityError) as err:
            simulate(array_multiplier(5), node_limit=3)
        stats = err.value.stats
        assert [r.live_nodes for r in stats.rows] == [1, 2, 3]
        assert stats.peak_live == 3


class TestPolyBound:
    def test_tree_run_passes_linear_bound(self):
        c = random_tree_circuit(12, seed=4)
        stats = simulate(c).stats
        report = check_poly_bound(stats, PolyBoundConfig(1, 1),
                                  outputs=set(c.outputs))
        assert report.passed
        assert report.bound == 12

    def test_violation_margin_arithmetic(self):
        c = single_and()
        stats = simulate(c).stats
        # force a failing threshold: degree 0, coefficient 1 -> bound 1
        report = check_poly_bound(stats, PolyBoundConfig(0, 1))
        assert not report.passed
        v = report.violations[0]
        assert v.signal == "y" and v.size == 2 and v.margin == 1

    def test_an_output_that_is_an_input_or_a_constant_is_checked(self):
        c = Circuit(("x1", "x2"), ("x1", "k", "y"),
                    (Gate("and", "y", ("x1", "x2")),), (("k", 1),))
        stats = simulate(c).stats
        report = check_poly_bound(stats, PolyBoundConfig(0, 0.5),
                                  outputs=set(c.outputs))
        assert report.checked == 3
        assert [(v.signal, v.size) for v in report.violations] == [
            ("x1", 1), ("y", 2)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolyBoundConfig(-1, 1)

    @pytest.mark.parametrize("coefficient", [math.nan, math.inf])
    def test_non_finite_coefficient_is_rejected(self, coefficient):
        # size > nan is false for every size, so a NaN bound would pass
        with pytest.raises(ValueError, match="finite"):
            PolyBoundConfig(1, coefficient)

    @pytest.mark.parametrize("degree, coefficient", [
        (600, 1.0), (600, 1), (10 ** 12, 1.0), (2, 1e308),
        pytest.param(1, 10 ** 400, id="1-10**400")])
    def test_bound_past_the_floats_is_rejected(self, degree, coefficient):
        # 4**600 overflows a float; the huge degree fails before any power;
        # an int coefficient past the floats is a finite config, no bound
        stats = simulate(two_and_two_or()).stats
        with pytest.raises(ValueError, match="not a finite float"):
            check_poly_bound(stats, PolyBoundConfig(degree, coefficient))

    def test_zero_coefficient_and_small_n_take_any_degree(self):
        stats = simulate(two_and_two_or()).stats
        report = check_poly_bound(stats, PolyBoundConfig(10 ** 12, 0.0))
        assert report.bound == 0.0 and not report.passed
        assert type(PolyBoundConfig(3, 0).bound(5)) is float
        assert PolyBoundConfig(10 ** 12, 2.0).bound(1) == 2.0
        assert PolyBoundConfig(10 ** 12, 2.0).bound(0) == 0.0
        # the largest power of two a float holds keeps its exact value
        assert PolyBoundConfig(341, 1.0).bound(8) == 2.0 ** 1023
        # 2**1024 is no float, but half of it is
        assert PolyBoundConfig(1024, 0.5).bound(2) == 2.0 ** 1023
        with pytest.raises(ValueError, match="not a finite float"):
            PolyBoundConfig(1024, 1.0).bound(2)
        with pytest.raises(ValueError, match="not a finite float"):
            PolyBoundConfig(1, 10 ** 400).bound(1)

    def test_bound_is_the_exact_product_rounded_once(self):
        # c * n**d would round n**d to a float and then the product;
        # 0.1 * 17**13 then ends in .6
        assert PolyBoundConfig(13, 0.1).bound(17) == 990457803290593.8
        for c in (0.1, 0.3, 1 / 3, 0.7, 1e-5, 2.5, 3, 10 ** 20):
            for n in range(2, 65):
                for d in range(0, 120, 8):
                    exact = Fraction(c) * n ** d
                    if exact < 2.0 ** 1023:
                        assert PolyBoundConfig(d, c).bound(n) == float(exact)

    def test_bdd_circuit_run_passes_with_size_override(self):
        # the linear bound over s + inputs covers every internal signal
        # of a standard-gates expansion of a BDD of size s
        from bddcheck import expand_to_circuit
        m = Manager(8)
        pool = [m.var(i) for i in range(8)]
        rng = random.Random(6)
        for _ in range(20):
            pool.append(m.apply(rng.choice(("and", "or", "xor")),
                                (rng.choice(pool), rng.choice(pool))))
        root = next(f for f in reversed(pool) if f > 1)
        s = m.size(root)
        circuit, _ = expand_to_circuit(m, [root], "gates")
        order = [circuit.inputs.index(f"x{v}") for v in m.var_order()]
        stats = simulate(circuit, order).stats
        bound = 2 * (s + len(circuit.inputs))
        assert all(r.size <= bound for r in stats.rows
                   if r.kind not in ("input", "const"))


class TestTopVariableProbe:
    def test_probe_on_small_conjunction(self):
        m = Manager(3)
        g = m.apply("and", [m.var(1), m.var(2)])
        report = top_variable_probe(m, g, 0, "and")
        assert report.new_nodes <= m.size(g) + 1
        assert report.ite_entries <= 2 * m.size(g) + 2
        assert report.result == m.apply("and", [m.var(0), g])

    def test_probe_on_terminal_operand(self):
        m = Manager(2)
        report = top_variable_probe(m, ONE, 0, "and")
        assert report.new_nodes <= 1
        assert report.result == m.var(0)

    def test_probe_rejects_support_overlap(self):
        m = Manager(3)
        g = m.apply("and", [m.var(0), m.var(2)])
        with pytest.raises(ValueError, match="support"):
            top_variable_probe(m, g, 0, "and")

    def test_probe_rejects_an_op_it_does_not_measure(self):
        m = Manager(3)
        g = m.apply("and", [m.var(1), m.var(2)])
        with pytest.raises(ValueError, match="not 'xor'"):
            top_variable_probe(m, g, 0, "xor")

    def test_probe_rejects_non_top_variable(self):
        m = Manager(3, [1, 0, 2])       # variable 0 sits at level 1
        g = m.apply("and", [m.var(1), m.var(2)])
        with pytest.raises(ValueError, match="above"):
            top_variable_probe(m, g, 0, "and")

    def test_randomized_probe_sweep(self):
        rng = random.Random(321)
        for seed in range(25):
            m = Manager(10)
            pool = [m.var(i) for i in range(1, 10)]
            for _ in range(20):
                op = rng.choice(("and", "or", "xor"))
                pool.append(m.apply(op, (rng.choice(pool), rng.choice(pool))))
            g = pool[-1]
            if 0 in m.support(g):
                continue
            sz = m.size(g)
            for op in ("and", "or", "nand", "nor"):
                for positive in (True, False):
                    report = top_variable_probe(m, g, 0, op, positive)
                    assert report.new_nodes <= sz + 1, (seed, op, positive)
                    assert report.ite_entries <= 2 * sz + 2, (seed, op, positive)


class TestExports:
    def test_csv_schema(self):
        stats = simulate(two_and_two_or()).stats
        text = stats_to_csv(stats)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(stats.rows)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "x1" and first[2] == "input"

    def test_csv_quotes_a_name_with_a_comma(self):
        c = Circuit(("a", "b"), ('x,"y"',),
                    (Gate("and", 'x,"y"', ("a", "b")),))
        stats = simulate(c).stats
        rows = list(csv.reader(io.StringIO(stats_to_csv(stats))))
        assert all(len(row) == len(rows[0]) for row in rows)
        assert rows[-1][1] == 'x,"y"'

    def test_json_mirrors_stats(self):
        stats = simulate(two_and_two_or()).stats
        doc = stats_to_json(stats)
        assert doc["created_total"] == stats.created_total
        assert doc["peak_live"] == stats.peak_live
        assert len(doc["signals"]) == len(stats.rows)
        assert doc["signals"][-1]["signal"] == "y"
        assert doc["order_used"] == [0, 1, 2, 3]


class TestRecursionLimit:
    def test_a_manager_deeper_than_the_limit_leaves_it_alone(self):
        """The kernel keeps its own stack, so the inversion of an AND
        chain over more levels than the limit has frames runs with the
        limit as it was."""
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            n = 1100
            gates = [Gate("buf", f"g{n - 1}", (f"x{n - 1}",))]
            gates += [Gate("and", f"g{i}", (f"x{i}", f"g{i + 1}"))
                      for i in reversed(range(n - 1))]
            gates.append(Gate("inv", "o", ("g0",)))
            c = Circuit(tuple(f"x{i}" for i in range(n)), ("o",), gates)
            result = simulate(c)
            assert sys.getrecursionlimit() == 1000
            assert result.stats.per_signal_size["o"] == n
        finally:
            sys.setrecursionlimit(saved)
