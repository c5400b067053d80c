"""BDD-to-MUX expansion and the node-for-node round trip."""

import random
import re
import weakref

import pytest

from bddcheck import (BddCheckError, Circuit, Gate, Manager, ONE, SourceBdds,
                      bddcircuit, circuit_truth_table, cli, expand_mux,
                      expand_to_circuit, roundtrip_verify, serialize, simulate)
from bddcheck.cli import main
from bddcheck.generators import array_multiplier, random_bdd
from bddcheck.oracle import bdd_function_table


def widen_root_gates(mgr, roots, mode, var_names):
    """The expansion with the first root's inverter and AND gates turned
    into XORs, each reading what it read before (the inverter also reads
    another input): all three signals outgrow their round-trip bounds."""
    c, signals = expand_to_circuit(mgr, roots, mode, var_names)
    producers = c.producers()
    a0, a1 = producers[signals[roots[0]]].inputs
    ns = producers[a0].inputs[0]
    sel = producers[a1].inputs[0]
    other = next(x for x in c.inputs if x != sel)
    reads = {ns: (sel, other), a0: producers[a0].inputs,
             a1: producers[a1].inputs}
    gates = tuple(Gate("xor", g.output, reads[g.output])
                  if g.output in reads else g for g in c.gates)
    return Circuit(c.inputs, c.outputs, gates, c.constants), signals


def or_bdd():
    m = Manager(2)
    f = m.apply("or", [m.var(0), m.var(1)])
    return m, f


class TestExpand:
    def test_or_function_two_mux_cells(self):
        m, f = or_bdd()
        circuit, signals = expand_to_circuit(m, [f], "mux")
        assert sum(1 for g in circuit.gates if g.kind == "mux") == 2
        assert len(circuit.gates) == 2
        assert sum(1 for u in signals if u > 1) == 2
        t = circuit_truth_table(circuit)
        assert t.columns[0] == 0b1110

    def test_or_function_standard_mode_has_eight_gates(self):
        m, f = or_bdd()
        circuit, _ = expand_to_circuit(m, [f], "gates")
        assert len(circuit.gates) == 8
        kinds = [g.kind for g in circuit.gates]
        assert kinds.count("inv") == 2
        assert kinds.count("and") == 4
        assert kinds.count("or") == 2
        assert circuit.constants       # terminals wired as constants
        t = circuit_truth_table(circuit)
        assert t.columns[0] == 0b1110

    def test_terminal_root_becomes_constant_output(self):
        m = Manager(2)
        circuit, signals = expand_to_circuit(m, [ONE], "mux")
        assert circuit.outputs == (signals[ONE],)
        assert not circuit.gates

    def test_mux_count_equals_bdd_size(self):
        for seed in range(15):
            m = Manager(8)
            f = random_bdd(m, seed=seed)
            circuit, signals = expand_to_circuit(m, [f], "mux")
            assert len(circuit.gates) == m.size(f)
            # independent traversal: reachable set has the same cardinality
            assert sum(1 for u in signals if u > 1) == len(m.reachable(f))

    def test_shared_nodes_become_shared_signals(self):
        m = Manager(3)
        # two roots sharing structure
        f = m.apply("and", [m.var(0), m.var(2)])
        g = m.apply("or", [m.var(1), f])
        circuit, signals = expand_to_circuit(m, [f, g], "mux")
        assert len(circuit.gates) == len(m.reachable([f, g]))
        assert circuit.outputs == (signals[f], signals[g])

    def test_function_preserved_multi_root(self):
        for seed in range(10):
            m = Manager(6)
            roots = [random_bdd(m, seed=seed), random_bdd(m, seed=seed + 50)]
            circuit, _ = expand_to_circuit(m, roots, "mux")
            t = circuit_truth_table(circuit)
            for j, r in enumerate(roots):
                assert t.columns[j] == bdd_function_table(m, r)

    def test_missing_variable_name_is_an_error(self):
        m = Manager(2)
        f = m.apply("and", [m.var(0), m.var(1)])
        with pytest.raises(BddCheckError, match="no input name"):
            expand_to_circuit(m, [f], "mux", var_names={0: "a"})
        with pytest.raises(BddCheckError, match="duplicate input names"):
            expand_to_circuit(m, [f], "mux", var_names=["a", "a"])

    def test_variable_outside_the_support_needs_a_name_too(self):
        # variable i is input i of the circuit, whether f tests it or not
        m = Manager(2)
        with pytest.raises(BddCheckError, match="no input name"):
            expand_to_circuit(m, [m.var(0)], "mux", var_names={0: "a"})
        circuit, _ = expand_to_circuit(m, [m.var(0)], "mux")
        assert circuit.inputs == ("x0", "x1")

    def test_explicit_names_used(self):
        m, f = or_bdd()
        circuit, _ = expand_to_circuit(m, [f], "mux", var_names=["p", "q"])
        assert circuit.inputs == ("p", "q")

    def test_gates_mode_is_the_mux_mode_netlist_expanded(self):
        # the reference for the one-pass expansion: the same inputs,
        # outputs, constants and gates, in order and name for name
        cases = []
        for case in range(50):                   # criterion 5's BDDs
            m = Manager(12)
            cases.append((m, [random_bdd(m, seed=50_000 + case)]))
        mult = array_multiplier(6)
        res = simulate(mult)
        cases.append((res.manager, [res.signal_bdds[po] for po in mult.outputs]))
        for m, roots in cases:
            gates, signals = expand_to_circuit(m, roots, "gates")
            mux, mux_signals = expand_to_circuit(m, roots, "mux")
            assert gates == expand_mux(mux)
            assert signals == mux_signals

    def test_gates_mode_constructs_no_mux_gate(self, monkeypatch):
        kinds = []
        post_init = Gate.__post_init__

        def record(g):
            kinds.append(g.kind)
            post_init(g)

        monkeypatch.setattr(Gate, "__post_init__", record)
        m, f = or_bdd()
        circuit, _ = expand_to_circuit(m, [f], "gates")
        assert sorted(kinds) == sorted(g.kind for g in circuit.gates)
        assert "mux" not in kinds

    def test_bad_mode(self):
        m, f = or_bdd()
        with pytest.raises(ValueError):
            expand_to_circuit(m, [f], "nonsense")
        with pytest.raises(ValueError, match="root"):
            expand_to_circuit(m, [], "mux")


class TestRoundtrip:
    def test_or_function_roundtrip(self):
        m, f = or_bdd()
        report = roundtrip_verify(m, [f], "gates")
        assert report.ok
        assert report.original_size == 2
        assert report.max_internal_size <= 3
        assert not report.violations

    def test_single_variable(self):
        m = Manager(1)
        report = roundtrip_verify(m, [m.var(0)], "mux")
        assert report.ok
        assert report.original_size == 1

    def test_mux_mode_roundtrip(self):
        for seed in range(10):
            m = Manager(8)
            f = random_bdd(m, seed=seed)
            report = roundtrip_verify(m, [f], "mux")
            assert report.ok, report.violations

    def test_randomized_standard_mode_sweep(self):
        for seed in range(20):
            m = Manager(12)
            f = random_bdd(m, seed=seed)
            report = roundtrip_verify(m, [f], "gates")
            assert report.ok, (seed, report.violations)
            s = report.original_size
            assert report.max_internal_size <= s + 1
            assert report.created_total <= 5 * s * (s + 2)

    def test_roundtrip_under_permuted_order(self):
        rng = random.Random(17)
        for seed in range(6):
            order = list(range(9))
            rng.shuffle(order)
            m = Manager(9, order)
            f = random_bdd(m, seed=seed)
            report = roundtrip_verify(m, [f], "gates")
            assert report.ok, report.violations

    def test_data_input_on_the_select_variable_is_reported(self, monkeypatch):
        # x0 on top, x1 below; the expansion is made to select the lower
        # node on x0, so the top node's then-input depends on its select
        m = Manager(2)
        f = m.apply("and", [m.var(0), m.var(1)])
        lower = m.high(f)
        expand = bddcircuit.expand_to_circuit

        def select_on_x0_below(mgr, roots, mode, var_names):
            c, signals = expand(mgr, roots, "mux", var_names)
            gates = tuple(Gate("mux", g.output, ("x0", *g.inputs[1:]))
                          if g.output == signals[lower] else g
                          for g in c.gates)
            return expand_mux(Circuit(c.inputs, c.outputs, gates,
                                      c.constants)), signals

        monkeypatch.setattr(bddcircuit, "expand_to_circuit",
                            select_on_x0_below)
        report = roundtrip_verify(m, [f], "gates")
        checks = {(v.node, v.check) for v in report.violations}
        assert (f, "then_independent") in checks
        assert (f, "node_identity") in checks

    def test_gate_size_violations_are_reported(self, monkeypatch):
        m = Manager(3)
        x0, x1, x2 = (m.var(i) for i in range(3))
        f = m.ite(x0, m.apply("and", [x1, x2]), m.apply("or", [x1, x2]))
        monkeypatch.setattr(bddcircuit, "expand_to_circuit", widen_root_gates)
        report = roundtrip_verify(m, [f], "gates")
        checks = {(v.node, v.check) for v in report.violations}
        assert {(f, "and_else"), (f, "and_then"),
                (f, "inverter_size")} <= checks

    def test_cli_text_report_lists_the_violations(self, tmp_path, monkeypatch,
                                                  capsys):
        net = tmp_path / "f.net"
        net.write_text(".inputs x0 x1 x2\n.outputs y\n.gate and a x1 x2\n"
                       ".gate or o x1 x2\n.gate mux y x0 o a\n.end\n")
        monkeypatch.setattr(bddcircuit, "expand_to_circuit", widen_root_gates)
        assert main(["expand-bdd", str(net), "--mode", "gates", "--format",
                     "text", "--out", str(tmp_path / "x.net")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("roundtrip: FAIL")
        checks = {re.fullmatch(r"  node \d+ signal \S+: (\w+) .*", line)[1]
                  for line in lines[1:]}
        assert {"and_else", "and_then", "inverter_size"} <= checks

    def test_report_json_shape(self):
        m, f = or_bdd()
        doc = roundtrip_verify(m, [f], "gates").to_json()
        assert doc["ok"] is True
        assert doc["mode"] == "gates"
        assert doc["violations"] == []

    def test_hostile_input_names_survive_uniquification(self):
        # input names that collide with generated node/const signals
        m = Manager(2)
        f = m.apply("or", [m.var(0), m.var(1)])
        names = ["n3", "n4__ns"]
        circuit, _ = expand_to_circuit(m, [f], "gates", var_names=names)
        assert set(names) <= set(circuit.inputs)
        report = roundtrip_verify(m, [f], "gates", var_names=names)
        assert report.ok, report.violations


class TestSourceBdds:
    def _sources(self):
        """Criterion 5's 50 BDDs and the outputs of array_multiplier(4..6)."""
        for case in range(50):
            m = Manager(12)
            yield m, [random_bdd(m, seed=50_000 + case)]
        for k in (4, 5, 6):
            c = array_multiplier(k)
            res = simulate(c, track_live=False)
            yield res.manager, [res.signal_bdds[po] for po in c.outputs]

    @pytest.mark.parametrize("mode", ["mux", "gates"])
    def test_reports_match_the_manager(self, mode):
        for m, roots in self._sources():
            want = roundtrip_verify(m, roots, mode)
            got = roundtrip_verify(SourceBdds(m, roots), roots, mode)
            assert got.to_json() == want.to_json()
            assert serialize(got.circuit) == serialize(want.circuit)

    def test_other_roots_are_refused(self):
        m, f = or_bdd()
        src = SourceBdds(m, [f])
        for roots in ([m.var(0)], [f, f], []):
            with pytest.raises(ValueError, match="holds the nodes"):
                src.nodes(roots)
        with pytest.raises(ValueError, match="holds the nodes"):
            roundtrip_verify(src, [m.var(1)])
        assert src.nodes([f]) == m.nodes([f])
        assert src.var_order() == m.var_order()

    def test_expand_bdd_frees_the_source_before_the_round_trip(
            self, tmp_path, monkeypatch):
        net = tmp_path / "mult.net"
        net.write_text(serialize(array_multiplier(4)))
        source, checked = [], []
        run = cli.simulate

        def keep_a_weakref(*args, **kwargs):
            res = run(*args, **kwargs)
            source.append(weakref.ref(res.manager))
            return res

        def source_is_gone(*args, **kwargs):
            assert [ref() for ref in source] == [None]
            checked.append(True)
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate", keep_a_weakref)
        monkeypatch.setattr(bddcircuit, "simulate", source_is_gone)
        assert main(["expand-bdd", str(net), "--mode", "gates",
                     "--out", str(tmp_path / "x.net")]) == 0
        assert checked == [True]

    def test_expand_bdd_frees_the_round_trip_rows_before_serialize(
            self, tmp_path, monkeypatch):
        # serialize's text is expand-bdd's peak; the report keeps
        # created_total, the one figure the CLI reads from the rows
        net = tmp_path / "mult.net"
        net.write_text(serialize(array_multiplier(4)))
        rows, checked = [], []
        verify, write = cli.roundtrip_verify, cli.serialize

        def keep_a_weakref(*args, **kwargs):
            report = verify(*args, **kwargs)
            rows.append(weakref.ref(report.stats))
            return report

        def rows_are_gone(circuit):
            assert [ref() for ref in rows] == [None]
            checked.append(True)
            return write(circuit)

        monkeypatch.setattr(cli, "roundtrip_verify", keep_a_weakref)
        monkeypatch.setattr(cli, "serialize", rows_are_gone)
        assert main(["expand-bdd", str(net), "--mode", "gates",
                     "--out", str(tmp_path / "x.net")]) == 0
        assert checked == [True]
