"""Miter construction and equivalence verdicts against the oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bddcheck import (ABORTED, BddCheckError, Circuit, EQUIVALENT, Gate,
                      InterfaceError, Manager, NOT_EQUIVALENT, ZERO,
                      build_miter, check_equivalence, circuit_truth_table,
                      decompose_multi_input, evaluate_circuit, expand_mux,
                      extract_counterexample, simulate, tables_equal)
from bddcheck.generators import (array_multiplier, demorgan_rewrite,
                                 mutate_gate, random_bdd, random_dag_circuit)


def and2():
    return Circuit(("x1", "x2"), ("y",), (Gate("and", "y", ("x1", "x2")),))


def or2():
    return Circuit(("x1", "x2"), ("y",), (Gate("or", "y", ("x1", "x2")),))


class TestBuildMiter:
    def test_self_miter_is_constant_zero(self):
        m = build_miter(and2(), and2())
        assert m.outputs == ("out",)
        res = simulate(m)
        assert res.signal_bdds["out"] == ZERO

    def test_and_vs_or_differs(self):
        t = circuit_truth_table(build_miter(and2(), or2()))
        # the miter output is x1 XOR x2: true on rows 1 and 2
        assert t.columns[0] == 0b0110

    def test_two_output_shape(self):
        c = Circuit(("a", "b"), ("s", "t"),
                    (Gate("xor", "s", ("a", "b")), Gate("and", "t", ("a", "b"))))
        m = build_miter(c, c)
        kinds = [g.kind for g in m.gates]
        assert kinds.count("xor") == 2 + 2   # two from each side, two miter
        assert kinds.count("or") == 1
        assert m.outputs == ("out",)

    def test_input_mismatch_names_discrepancy(self):
        c1 = and2()
        c2 = Circuit(("x1", "zz"), ("y",), (Gate("and", "y", ("x1", "zz")),))
        with pytest.raises(InterfaceError, match="zz"):
            build_miter(c1, c2)
        c3 = Circuit(("x1",), ("y",), (Gate("buf", "y", ("x1",)),))
        with pytest.raises(InterfaceError, match="count"):
            build_miter(c1, c3)

    def test_output_count_mismatch(self):
        c = Circuit(("x1", "x2"), ("y", "y2"),
                    (Gate("and", "y", ("x1", "x2")),
                     Gate("or", "y2", ("x1", "x2"))))
        with pytest.raises(InterfaceError, match="output counts"):
            build_miter(and2(), c)
        none = Circuit(("x1", "x2"), (), ())
        with pytest.raises(InterfaceError, match="no outputs"):
            build_miter(none, none)

    def test_miter_preserves_shared_input_order(self):
        m = build_miter(and2(), or2())
        assert m.inputs == ("x1", "x2")


class TestExtractCounterexample:
    def test_constant_one_gives_all_zeros(self):
        m = Manager(3)
        assert extract_counterexample(m, 1) == [0, 0, 0]

    def test_single_variable(self):
        m = Manager(4)
        assert extract_counterexample(m, m.var(3)) == [0, 0, 0, 1]

    def test_xor_prefers_low_index_zero(self):
        m = Manager(2)
        f = m.apply("xor", [m.var(0), m.var(1)])
        # satisfying rows are (0,1) and (1,0); smallest by variable
        # index preferring 0 is x0=0, x1=1
        assert extract_counterexample(m, f) == [0, 1]

    def test_no_witness(self):
        m = Manager(1)
        with pytest.raises(BddCheckError):
            extract_counterexample(m, 0)

    def test_lexicographic_minimality_randomized(self):
        rng = random.Random(8)
        m = Manager(6)
        pool = [m.var(i) for i in range(6)]
        for _ in range(30):
            op = rng.choice(("and", "or", "xor"))
            f = m.apply(op, (rng.choice(pool), rng.choice(pool)))
            pool.append(f)
            if f == ZERO:
                continue
            got = extract_counterexample(m, f)
            want = min(
                (tuple((r >> i) & 1 for i in range(6))
                 for r in range(64)
                 if m.eval(f, [(r >> i) & 1 for i in range(6)])),
            )
            assert tuple(got) == want

    @settings(derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_minimal_under_a_permuted_order(self, data):
        # smallest by variable index, whatever level each variable tests at
        n = data.draw(st.integers(1, 10))
        m = Manager(n, data.draw(st.permutations(range(n))))
        f = random_bdd(m, seed=data.draw(st.integers(0, 2 ** 32 - 1)))
        got = extract_counterexample(m, f)
        rows = ([(r >> i) & 1 for i in range(n)] for r in range(1 << n))
        want = min(tuple(row) for row in rows if m.eval(f, row))
        assert tuple(got) == want

    def test_extraction_creates_no_nodes(self):
        # bottom-up order: fixing variable 0 first restricts the lowest level
        m = Manager(8, list(reversed(range(8))))
        f = random_bdd(m, seed=3)
        created, calls = m.created_count, m.ite_calls
        bits = extract_counterexample(m, f)
        assert m.eval(f, bits) == 1
        assert (m.created_count, m.ite_calls) == (created, calls)


class TestCheckEquivalence:
    def test_reflexivity_on_random_circuits(self):
        for seed in range(10):
            c = random_dag_circuit(10, 25, seed=seed)
            assert check_equivalence(c, c).verdict == EQUIVALENT

    def test_de_morgan_pair(self):
        c1 = Circuit(("x1", "x2"), ("y",), (Gate("nand", "y", ("x1", "x2")),))
        c2 = Circuit(("x1", "x2"), ("y",),
                     (Gate("inv", "n1", ("x1",)),
                      Gate("inv", "n2", ("x2",)),
                      Gate("or", "y", ("n1", "n2"))))
        assert check_equivalence(c1, c2).verdict == EQUIVALENT

    def test_and_vs_or_counterexample_validates(self):
        out = check_equivalence(and2(), or2())
        assert out.verdict == NOT_EQUIVALENT
        cex = out.counterexample
        assert evaluate_circuit(and2(), cex) != evaluate_circuit(or2(), cex)
        # lexicographically smallest differing assignment
        assert cex == {"x1": 0, "x2": 1}

    def test_mutant_detected_with_valid_counterexample(self):
        for seed in range(15):
            c = random_dag_circuit(8, 18, seed=seed)
            m = mutate_gate(c, seed=seed + 100)
            eq, _ = tables_equal(circuit_truth_table(c), circuit_truth_table(m))
            out = check_equivalence(c, m)
            assert (out.verdict == EQUIVALENT) == eq
            if out.verdict == NOT_EQUIVALENT:
                got_c = evaluate_circuit(c, out.counterexample)
                got_m = evaluate_circuit(m, out.counterexample)
                assert got_c != got_m

    def test_structural_invariance(self):
        for seed in range(8):
            c1 = random_dag_circuit(6, 12, seed=seed)
            c2 = mutate_gate(c1, seed=seed + 1)
            base = check_equivalence(c1, c2).verdict
            assert check_equivalence(decompose_multi_input(c1), c2).verdict == base
            assert check_equivalence(c1, expand_mux(c2)).verdict == base
            assert check_equivalence(
                expand_mux(decompose_multi_input(c1)),
                decompose_multi_input(expand_mux(c2))).verdict == base

    def test_restructured_copies_stay_equivalent(self):
        for seed in range(10):
            c = random_dag_circuit(7, 16, seed=seed)
            r = demorgan_rewrite(decompose_multi_input(expand_mux(c)),
                                 seed=seed)
            out = check_equivalence(c, r)
            assert out.verdict == EQUIVALENT

    def test_capacity_abort_outcome(self):
        c1 = random_dag_circuit(16, 60, seed=5, kinds=("xor", "and", "or"))
        c2 = mutate_gate(c1, seed=6)
        out = check_equivalence(c1, c2, node_limit=8)
        assert out.verdict == ABORTED
        assert out.counterexample is None
        assert not out.stats.completed

    def test_witness_found_at_the_miter_node_limit(self):
        # the miter fits in 15594 nodes; extracting its witness must not
        # need any more
        c1 = array_multiplier(6)
        c2 = mutate_gate(c1, seed=25)
        out = check_equivalence(c1, c2, node_limit=15594)
        assert out.verdict == NOT_EQUIVALENT
        assert evaluate_circuit(c1, out.counterexample) != evaluate_circuit(
            c2, out.counterexample)

    def test_chain_witness_follows_from_the_structure(self):
        # a parity chain against the copy whose last XOR is an OR: the
        # outputs differ exactly where the last input and the parity of
        # the others are both 1, and the smallest such assignment sets
        # the last input and the highest-index other input
        n = 2000
        enter = list(range(n))
        random.Random(4).shuffle(enter)
        inputs = tuple(f"x{i}" for i in range(n))

        def chain(last_kind):
            gates, acc = [], inputs[enter[0]]
            for k, i in enumerate(enter[1:], 1):
                kind = last_kind if k == n - 1 else "xor"
                gates.append(Gate(kind, f"t{k}", (acc, inputs[i])))
                acc = f"t{k}"
            return Circuit(inputs, (acc,), tuple(gates))

        out = check_equivalence(chain("xor"), chain("or"), enter[::-1])
        assert out.verdict == NOT_EQUIVALENT
        other = max(i for i in range(n) if i != enter[-1])
        assert out.counterexample == {
            x: int(i in (enter[-1], other)) for i, x in enumerate(inputs)}

    def test_outcome_stats_present(self):
        out = check_equivalence(and2(), and2())
        assert out.stats.completed
        assert out.stats.order_used == (0, 1)
