"""Command line: exit codes, report artifacts, reproducibility."""

import io
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bddcheck.circuit as circuit_module
from bddcheck import (bddcircuit, circuit_truth_table, cli, evaluate_circuit,
                      is_tree, parse, roundtrip_verify, serialize, simulate,
                      tables_equal)
from bddcheck.cli import main
from bddcheck.generators import (array_multiplier, mutate_gate,
                                 random_tree_circuit)
from bddcheck.simulate import CSV_HEADER

AND_NET = ".inputs x1 x2\n.outputs y\n.gate and y x1 x2\n.end\n"
OR_NET = ".inputs x1 x2\n.outputs y\n.gate or y x1 x2\n.end\n"
TREE_NET = (".inputs a b c d\n.outputs y\n"
            ".gate and t1 a b\n.gate and t2 c d\n.gate or y t1 t2\n.end\n")


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


class TestVerify:
    def test_identical_files_exit_zero(self, files, capsys):
        left = files("l.net", AND_NET)
        right = files("r.net", AND_NET)
        assert main(["verify", left, right]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "equivalent"
        assert doc["counterexample"] is None

    def test_and_vs_or_exit_one_with_counterexample(self, files, capsys):
        left = files("l.net", AND_NET)
        right = files("r.net", OR_NET)
        assert main(["verify", left, right]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "not_equivalent"
        cex = doc["counterexample"]
        c1, c2 = parse(AND_NET), parse(OR_NET)
        assert evaluate_circuit(c1, cex) != evaluate_circuit(c2, cex)

    def test_unparsable_file_exit_three(self, files, capsys):
        left = files("l.net", ".inputs x\n.gate and y x\n.end\n")
        right = files("r.net", AND_NET)
        assert main(["verify", left, right]) == 3
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_capacity_exit_two(self, files, tmp_path):
        big = ".inputs " + " ".join(f"x{i}" for i in range(16)) + "\n"
        big += ".outputs y\n"
        prev = "x0"
        for i in range(1, 16):
            big += f".gate xor t{i} {prev} x{i}\n"
            prev = f"t{i}"
        big += f".gate buf y {prev}\n.end\n"
        left = (tmp_path / "big1.net")
        left.write_text(big)
        right = (tmp_path / "big2.net")
        right.write_text(big.replace(".gate buf y", ".gate inv y"))
        assert main(["verify", str(left), str(right), "--capacity", "8"]) == 2

    def test_counterexample_at_the_miter_node_limit_exit_one(self, files,
                                                              capsys):
        left = array_multiplier(6)
        right = mutate_gate(left, seed=25)
        l = files("l.net", serialize(left))
        r = files("r.net", serialize(right))
        assert main(["verify", l, r, "--capacity", "15594"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "not_equivalent"
        cex = doc["counterexample"]
        assert evaluate_circuit(left, cex) != evaluate_circuit(right, cex)

    def test_both_sides_declaring_constants_agree_with_the_oracle(
            self, files, capsys):
        left = parse(".inputs a b s\n.outputs y\n.const one 1\n.const zero 0\n"
                     ".gate mux m s zero one\n.gate and t a m\n"
                     ".gate or y t b\n.end\n")
        right = parse(".inputs a b s\n.outputs y\n.const one 1\n"
                      ".gate and m s one\n.gate and t m a\n"
                      ".gate or y b t\n.end\n")
        for other in [right] + [mutate_gate(right, seed=k) for k in range(4)]:
            same, _ = tables_equal(circuit_truth_table(left),
                                   circuit_truth_table(other))
            code = main(["verify", files("l.net", serialize(left)),
                         files("r.net", serialize(other))])
            assert code == (0 if same else 1)
            cex = json.loads(capsys.readouterr().out)["counterexample"]
            if not same:
                assert evaluate_circuit(left, cex) != evaluate_circuit(other,
                                                                       cex)

    def test_text_format(self, files, capsys):
        left = files("l.net", AND_NET)
        right = files("r.net", OR_NET)
        assert main(["verify", left, right, "--format", "text"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("verdict: not_equivalent")
        assert "counterexample:" in out

    def test_provenance_echoed(self, files, capsys):
        left = files("l.net", AND_NET)
        main(["verify", left, left])
        doc = json.loads(capsys.readouterr().out)
        prov = doc["provenance"]
        assert prov["tool"] == "bddcheck"
        assert prov["config"]["capacity"] == 1048574
        assert prov["config"]["order"] == "dfs"
        assert len(prov["config_hash"]) == 12


class TestSimulate:
    def test_csv_artifact(self, files, tmp_path):
        net = files("t.net", TREE_NET)
        out = tmp_path / "stats.csv"
        assert main(["simulate", net, "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        last = lines[-1].split(",")
        assert last[1] == "y"
        assert int(last[3]) == 4        # linear-size output for the tree
        assert int(last[4]) == 4        # gate processing created n nodes

    def test_csv_poly_bound_goes_to_stderr(self, files, capsys):
        net = files("t.net", TREE_NET)
        assert main(["simulate", net, "--format", "csv",
                     "--poly-degree", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER + "\n")
        assert captured.err == "poly_bound: pass (bound 4.0, 3 signals checked)\n"

    def test_json_poly_bound_pass(self, files, capsys):
        net = files("t.net", TREE_NET)
        assert main(["simulate", net, "--order", "dfs",
                     "--poly-degree", "1", "--poly-coeff", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["poly_bound"]["passed"] is True
        assert doc["poly_bound"]["bound"] == 4.0

    def test_bound_just_inside_the_floats_passes(self, files, capsys):
        # 0.5 * 2**1024, though 2**1024 is no float
        net = files("and.net", AND_NET)
        assert main(["simulate", net, "--poly-degree", "1024",
                     "--poly-coeff", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["poly_bound"]["bound"] == 2.0 ** 1023

    def test_text_bound_is_the_exact_product_rounded_once(self, tmp_path,
                                                          capsys):
        # 0.1 * float(17**13) rounds twice and ends in .6
        net = str(tmp_path / "t17.net")
        assert main(["gen-tree", "17", "--out", net]) == 0
        assert main(["simulate", net, "--poly-degree", "13",
                     "--poly-coeff", "0.1", "--format", "text"]) == 0
        assert "(bound 990457803290593.8," in capsys.readouterr().out

    def test_capacity_ten_aborts_with_partial_trace(self, files, tmp_path, capsys):
        lines = [".inputs " + " ".join(f"x{i}" for i in range(20)),
                 ".outputs y"]
        prev = "x0"
        for i in range(1, 20):
            lines.append(f".gate xor t{i} {prev} x{i}")
            prev = f"t{i}"
        lines.append(f".gate buf y {prev}")
        lines.append(".end")
        net = files("dense.net", "\n".join(lines) + "\n")
        out = tmp_path / "partial.csv"
        assert main(["simulate", net, "--capacity", "10",
                     "--format", "csv", "--out", str(out)]) == 2
        text = out.read_text()
        assert text.startswith(CSV_HEADER)
        assert len(text.strip().split("\n")) > 1
        assert "capacity abort" in capsys.readouterr().err

    def test_abort_during_the_inputs_reports_peak_live(self, files, capsys):
        net = files("mult5.net", serialize(array_multiplier(5)))
        assert main(["simulate", net, "--capacity", "3",
                     "--format", "json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert [s["live_nodes"] for s in doc["signals"]] == [1, 2, 3]
        assert doc["peak_live"] == 3

    def test_order_file(self, files, tmp_path, capsys):
        net = files("t.net", TREE_NET)
        order = tmp_path / "order.txt"
        order.write_text("d c b a\n")
        assert main(["simulate", net, "--order", f"file:{order}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order_used"] == [3, 2, 1, 0]

    def test_bad_order_file(self, files, tmp_path):
        net = files("t.net", TREE_NET)
        order = tmp_path / "order.txt"
        order.write_text("a a b c\n")
        assert main(["simulate", net, "--order", f"file:{order}"]) == 3


    @pytest.mark.parametrize("inputs, options", [
        (8, ["--poly-degree", "400", "--format", "text"]),
        (40, ["--poly-degree", "3000000"]),
        (8, ["--poly-coeff", "1e308", "--poly-degree", "2"]),
    ])
    def test_bound_past_the_floats_is_a_usage_error(self, inputs, options,
                                                    files, capsys):
        net = files("tree.net", serialize(random_tree_circuit(inputs, seed=1)))
        start = time.perf_counter()
        assert main(["simulate", net] + options) == 3
        # checked before simulating, and before any long integer power
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: poly bound: ")
        assert captured.err.count("\n") == 1


class TestGenTree:
    def test_byte_identical_per_seed(self, capsys):
        assert main(["gen-tree", "6", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gen-tree", "6", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_output_is_a_tree(self, capsys):
        assert main(["gen-tree", "12", "--seed", "3"]) == 0
        c = parse(capsys.readouterr().out)
        assert is_tree(c).ok
        assert len(c.inputs) == 12


class TestExpandBdd:
    def test_two_input_or_gives_two_mux_netlist(self, files, capsys):
        net = files("or.net", OR_NET)
        assert main(["expand-bdd", net]) == 0
        captured = capsys.readouterr()
        generated = parse(captured.out)
        assert sum(1 for g in generated.gates if g.kind == "mux") == 2
        report = json.loads(captured.err)
        assert report["ok"] is True

    def test_constant_circuit_expands_to_const_wiring(self, files, capsys):
        net = files("c.net",
                    ".inputs x\n.outputs y\n.const zero 0\n"
                    ".gate and y x zero\n.end\n")
        assert main(["expand-bdd", net]) == 0
        generated = parse(capsys.readouterr().out)
        assert not generated.gates
        assert generated.constants

    def test_gates_mode_writes_artifacts(self, files, tmp_path, capsys):
        net = files("t.net", TREE_NET)
        out = tmp_path / "expanded.net"
        assert main(["expand-bdd", net, "--mode", "gates",
                     "--out", str(out)]) == 0
        generated = parse(out.read_text())
        assert all(g.kind in ("inv", "and", "or") for g in generated.gates)
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["max_internal_size"] <= report["original_size"] + 1

    @pytest.mark.parametrize("order", ["dfs", "declared", "file:{order}"])
    def test_circuit_without_outputs_is_a_usage_error(self, files, capsys,
                                                       order):
        # exit 1 would read as a round-trip violation
        net = files("n.net", ".inputs a\n.inputs b\n.gate and c a b\n.end\n")
        order = order.format(order=files("order.txt", "b a\n"))
        assert main(["expand-bdd", net, "--order", order]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: circuit has no outputs\n"

    def test_capacity_abort_in_the_first_simulation(self, files, capsys):
        net = files("t.net", TREE_NET)
        assert main(["expand-bdd", net, "--mode", "gates",
                     "--capacity", "5"]) == 2
        captured = capsys.readouterr()
        assert "capacity abort while simulating" in captured.err
        assert captured.out == ""

    def test_capacity_abort_in_the_round_trip_only(self, files, capsys):
        # a capacity that holds the original BDD but not the round trip's
        c = parse(OR_NET)
        res = simulate(c)
        original = res.manager.created_count
        rep = roundtrip_verify(res.manager, [res.signal_bdds["y"]], "gates",
                               dict(enumerate(c.inputs)))
        assert rep.stats.created_baseline + rep.stats.created_total > original
        net = files("or.net", OR_NET)
        assert main(["expand-bdd", net, "--mode", "gates",
                     "--capacity", str(original)]) == 2
        captured = capsys.readouterr()
        assert "capacity abort during round trip" in captured.err
        assert captured.out == ""


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 3

    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0), (["frobnicate"], 3)])
    def test_module_entry_point_exit_code(self, argv, code):
        # the benchmark runs the CLI as this module
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "bddcheck.cli", *argv],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == code

    def test_missing_file(self, capsys):
        assert main(["simulate", "/nonexistent/zz.net"]) == 3

    @pytest.mark.parametrize("argv", [
        ["verify", "{net}", "{net}", "--format", "csv"],
        ["expand-bdd", "{net}", "--format", "csv"],
        ["gen-tree", "6", "--order", "declared"],
        ["gen-tree", "6", "--capacity", "10"],
        ["gen-tree", "6", "--format", "json"],
    ])
    def test_option_the_command_does_not_use(self, argv, files):
        net = files("and.net", AND_NET)
        assert main([a.format(net=net) for a in argv]) == 3

    @pytest.mark.parametrize("argv", [
        ["gen-tree", "1"],
        ["gen-tree", "6", "--depth", "-1"],
        ["simulate", "{net}", "--poly-degree", "1", "--poly-gap", "0"],
        ["simulate", "{net}", "--poly-degree", "-1"],
        ["simulate", "{net}", "--poly-degree", "1", "--poly-coeff", "nan"],
        ["simulate", "{net}", "--order", "bogus"],
    ])
    def test_invalid_option_value_is_a_usage_error(self, argv, files, capsys):
        # exit 1 would read as "not equivalent"
        net = files("and.net", AND_NET)
        assert main([a.format(net=net) for a in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "{net}", "{net}"],
        ["simulate", "{net}", "--format", "text"],
        ["expand-bdd", "{net}"],
    ])
    def test_negative_capacity_is_a_usage_error(self, argv, files, capsys):
        # not a capacity abort (exit 2); a capacity of 0 still is one
        net = files("and.net", AND_NET)
        argv = [a.format(net=net) for a in argv]
        assert main(argv + ["--capacity", "-5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --capacity must be >= 0, not -5\n"
        assert main(argv + ["--capacity", "0"]) == 2


def _provenance(command, config_hash, mode=None):
    return {"tool": "bddcheck", "version": "0.1.0", "seed": None,
            "config": {"command": command, "order": "dfs",
                       "capacity": 1048574, "seed": None,
                       "format": "json", "mode": mode},
            "config_hash": config_hash}


def _signal(topo, name, kind, size, created, live, ite):
    return {"topo_index": topo, "signal": name, "gate_kind": kind,
            "signal_size": size, "created_cum": created,
            "live_nodes": live, "ite_entries_cum": ite}


class TestReports:
    """The JSON documents of each command, keys in order and values."""

    def test_verify_report(self, files, capsys):
        left = files("l.net", AND_NET)
        right = files("r.net", OR_NET)
        assert main(["verify", left, right]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["verdict", "counterexample", "stats",
                             "provenance"]
        assert list(doc["stats"]) == ["created_total", "peak_live",
                                      "ite_entries_total", "order_used",
                                      "completed", "failing_signal"]
        assert list(doc["provenance"]) == ["tool", "version", "seed",
                                           "config", "config_hash"]
        assert list(doc["provenance"]["config"]) == [
            "command", "order", "capacity", "seed", "format", "mode"]
        assert doc == {
            "verdict": "not_equivalent",
            "counterexample": {"x1": 0, "x2": 1},
            "stats": {"created_total": 5, "peak_live": 4,
                      "ite_entries_total": 5, "order_used": [0, 1],
                      "completed": True, "failing_signal": None},
            "provenance": _provenance("verify", "fa042a9bc2ce"),
        }

    def test_simulate_report_with_poly_bound(self, files, capsys):
        net = files("t.net", TREE_NET)
        assert main(["simulate", net, "--format", "json",
                     "--poly-degree", "1", "--poly-coeff", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["order_used", "input_count", "node_limit",
                             "peak_live", "ite_entries_total",
                             "created_baseline", "created_total", "completed",
                             "failing_signal", "signals", "provenance",
                             "poly_bound"]
        assert list(doc["signals"][0]) == [
            "topo_index", "signal", "gate_kind", "signal_size",
            "created_cum", "live_nodes", "ite_entries_cum"]
        assert list(doc["poly_bound"]) == ["passed", "bound", "n", "checked",
                                           "violations"]
        assert list(doc["poly_bound"]["violations"][0]) == ["signal", "size",
                                                            "margin"]
        assert doc == {
            "order_used": [0, 1, 2, 3],
            "input_count": 4,
            "node_limit": 1048574,
            "peak_live": 7,
            "ite_entries_total": 4,
            "created_baseline": 4,
            "created_total": 4,
            "completed": True,
            "failing_signal": None,
            "signals": [
                _signal(0, "a", "input", 1, 0, 1, 0),
                _signal(1, "b", "input", 1, 0, 2, 0),
                _signal(2, "c", "input", 1, 0, 3, 0),
                _signal(3, "d", "input", 1, 0, 4, 0),
                _signal(4, "t1", "and", 2, 1, 5, 1),
                _signal(5, "t2", "and", 2, 2, 6, 2),
                _signal(6, "y", "or", 4, 4, 7, 4),
            ],
            "provenance": _provenance("simulate", "c1a6327b3213"),
            "poly_bound": {"passed": False, "bound": 2.0, "n": 4,
                           "checked": 3,
                           "violations": [{"signal": "y", "size": 4,
                                           "margin": 2.0}]},
        }

    def test_expand_bdd_report(self, files, tmp_path, capsys):
        net = files("or.net", OR_NET)
        out = tmp_path / "expanded.net"
        assert main(["expand-bdd", net, "--mode", "gates",
                     "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["ok", "mode", "original_size",
                             "max_internal_size", "created_total",
                             "violations", "provenance"]
        assert doc == {
            "ok": True, "mode": "gates", "original_size": 2,
            "max_internal_size": 2, "created_total": 4, "violations": [],
            "provenance": _provenance("expand-bdd", "9aea3097eca3", "gates"),
        }

    def test_roundtrip_violation_keys(self):
        report = bddcircuit.RoundtripReport(
            False, "mux", 3, 4, 5,
            [bddcircuit.RoundtripViolation(7, "n7", "node_identity", "d")])
        doc = report.to_json()
        assert list(doc) == ["ok", "mode", "original_size",
                             "max_internal_size", "created_total",
                             "violations"]
        assert doc["violations"] == [{"node": 7, "signal": "n7",
                                      "check": "node_identity",
                                      "detail": "d"}]


# the last two are the line that the rows replace and the boundary
# between two of them
text = st.one_of(st.text(max_size=6),
                 st.sampled_from(["a\nb", '"\\', "\u00e9\u2028",
                                  '\n  "signals": null', '},\n      {"']))
scalar = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                   st.sampled_from([1e300, -1e300, -2.5, -0.0]), text)
values = st.recursive(
    scalar,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(text | st.just("signals"), inner,
                                     max_size=4)),
    max_leaves=30)
# the rows of a simulate report: non-empty records of scalars
rows = st.lists(st.dictionaries(text, scalar, min_size=1, max_size=4),
                max_size=8)


@st.composite
def documents(draw):
    items = list(draw(st.dictionaries(text, values, max_size=4)).items())
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))),
                     ("signals", draw(rows)))
    return dict(items)


class TestJsonWriter:
    """JSON reports have the bytes of ``json.dumps(doc, indent=2)``."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(documents())
    def test_same_text_as_json_dumps(self, doc):
        out = io.StringIO()
        cli._emit(doc, None, out)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"

    def test_simulate_report_of_a_large_tree(self, tmp_path):
        net = tmp_path / "tree.net"
        net.write_text(serialize(random_tree_circuit(1500, seed=4)))
        out = tmp_path / "report.json"
        assert main(["simulate", str(net), "--format", "json",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_rows_skip_json_dumps_and_arrive_in_one_write(self, monkeypatch):
        stats = simulate(random_tree_circuit(1500, seed=4)).stats
        doc = cli.stats_to_json(stats)
        given_signals = []

        def dumps(obj, **kwargs):
            given_signals.append(obj["signals"])
            return json.dumps(obj, **kwargs)

        monkeypatch.setattr(cli, "json", types.SimpleNamespace(
            dumps=dumps, JSONEncoder=json.JSONEncoder))
        writes = []
        cli._emit(doc, None, types.SimpleNamespace(write=writes.append))
        assert given_signals == [None]
        assert "".join(writes) == json.dumps(doc, indent=2) + "\n"
        assert max(w.count('"topo_index"') for w in writes) \
            == len(doc["signals"])


class TestSingleExpansion:
    def _count_expansions(self, monkeypatch):
        calls = []
        expand = bddcircuit.expand_to_circuit

        def counting(*args, **kwargs):
            calls.append(args)
            return expand(*args, **kwargs)

        monkeypatch.setattr(bddcircuit, "expand_to_circuit", counting)
        monkeypatch.setattr(cli, "expand_to_circuit", counting, raising=False)
        return calls

    def _capture_reports(self, monkeypatch):
        reports = []
        verify = cli.roundtrip_verify

        def capturing(*args, **kwargs):
            reports.append(verify(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "roundtrip_verify", capturing)
        return reports

    @pytest.mark.parametrize("mode", ["mux", "gates"])
    def test_expand_bdd_expands_once(self, files, tmp_path, monkeypatch, mode):
        calls = self._count_expansions(monkeypatch)
        net = files("t.net", TREE_NET)
        assert main(["expand-bdd", net, "--mode", mode,
                     "--out", str(tmp_path / "x.net")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["mux", "gates"])
    def test_expand_bdd_validates_one_circuit(self, files, tmp_path,
                                              monkeypatch, mode):
        reports = self._capture_reports(monkeypatch)
        validated = []
        check = circuit_module._validate

        def recording(c):
            validated.append(c)
            return check(c)

        monkeypatch.setattr(circuit_module, "_validate", recording)
        net = files("t.net", TREE_NET)
        assert main(["expand-bdd", net, "--mode", mode,
                     "--out", str(tmp_path / "x.net")]) == 0
        # the netlist read, then the expansion, with no circuit between
        assert len(validated) == 2
        assert validated[1] is reports[0].circuit

    def test_out_netlist_is_the_verified_circuit(self, files, tmp_path,
                                                 monkeypatch, capsys):
        reports = self._capture_reports(monkeypatch)
        net = files("t.net", TREE_NET)
        out = tmp_path / "x.net"
        assert main(["expand-bdd", net, "--mode", "gates",
                     "--out", str(out)]) == 0
        assert len(reports) == 1
        assert out.read_text() == serialize(reports[0].circuit)

    def test_stdout_netlist_is_the_verified_circuit(self, files, monkeypatch,
                                                    capsys):
        reports = self._capture_reports(monkeypatch)
        net = files("or.net", OR_NET)
        assert main(["expand-bdd", net]) == 0
        assert capsys.readouterr().out == serialize(reports[0].circuit)


class TestFileErrors:
    def test_unreadable_order_file_exit_three(self, files, tmp_path, capsys):
        net = files("t.net", TREE_NET)
        missing = tmp_path / "nowhere" / "order.txt"
        assert main(["simulate", net, "--order", f"file:{missing}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert str(missing) in err

    def test_verify_out_in_missing_directory_exit_three(self, files, tmp_path,
                                                        capsys):
        left = files("l.net", AND_NET)
        right = files("r.net", OR_NET)
        out = tmp_path / "nowhere" / "report.json"
        # exit 1 would read as "not equivalent"
        assert main(["verify", left, right, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert str(out) in err
