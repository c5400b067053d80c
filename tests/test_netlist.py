"""Netlist format: strict parsing diagnostics and round-trip properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bddcheck import (Circuit, CircuitError, Gate, GATE_KINDS, ParseError,
                      parse, serialize)
from bddcheck.generators import random_dag_circuit, random_tree_circuit

MINIMAL_AND = """\
.inputs x1 x2
.outputs y
.gate and y x1 x2
.end
"""


class TestParse:
    def test_minimal_and(self):
        c = parse(MINIMAL_AND)
        assert c.inputs == ("x1", "x2")
        assert c.outputs == ("y",)
        assert len(c.gates) == 1
        assert c.gates[0].kind == "and"

    def test_comments_blanks_and_crlf(self):
        text = "# header\r\n\r\n.inputs a b\r\n.outputs o\r\n.gate or o a b\r\n.end\r\n"
        c = parse(text)
        assert c.inputs == ("a", "b")

    def test_const_and_mux(self):
        text = (".inputs s d\n.outputs o\n.const zero 0\n"
                ".gate mux o s zero d\n.end\n")
        c = parse(text)
        assert c.constants == (("zero", 0),)
        assert c.gates[0].inputs == ("s", "zero", "d")

    def test_forward_references_are_legal(self):
        text = (".inputs x\n.outputs o\n.gate inv o t\n.gate inv t x\n.end\n")
        c = parse(text)
        assert {g.output for g in c.gates} == {"o", "t"}

    def test_undefined_signal_diagnostic(self):
        text = ".inputs x\n.outputs o\n.gate and o x ghost\n.end\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 3
        assert "undefined signal 'ghost'" in str(err.value)

    def test_duplicate_definition_diagnostic(self):
        text = ".inputs x\n.const x 1\n.outputs x\n.end\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 2
        assert "duplicate" in str(err.value)

    def test_arity_diagnostic(self):
        text = ".inputs x\n.outputs o\n.gate inv o x x\n.end\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 3

    def test_cycle_diagnostic_names_line(self):
        text = (".inputs x\n.outputs a\n.gate and a x b\n"
                ".gate and b x a\n.end\n")
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line in (3, 4)
        assert "cycle" in str(err.value)

    def test_unknown_kind(self):
        text = ".inputs x y\n.outputs o\n.gate xnor o x y\n.end\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "unknown gate kind" in str(err.value)

    def test_invalid_name(self):
        with pytest.raises(ParseError) as err:
            parse(".inputs 1x\n.end\n")
        assert "invalid name" in str(err.value)

    def test_missing_end(self):
        with pytest.raises(ParseError) as err:
            parse(".inputs x\n.outputs x\n")
        assert ".end missing" in str(err.value)

    def test_content_after_end(self):
        text = MINIMAL_AND + ".inputs z\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "after .end" in str(err.value)

    def test_unrecognized_directive(self):
        with pytest.raises(ParseError) as err:
            parse(".wires a b\n.end\n")
        assert err.value.line == 1

    def test_every_diagnostic_carries_a_line(self):
        bad_docs = [
            ".inputs\n.end\n",
            ".const c\n.end\n",
            ".const c 2\n.end\n",
            ".gate and\n.end\n",
            "junk\n.end\n",
        ]
        for doc in bad_docs:
            with pytest.raises(ParseError) as err:
                parse(doc)
            assert err.value.line >= 1


def declared(text):
    """The Circuit arguments a well-formed document declares."""
    inputs, outputs, gates, constants = [], [], [], []
    for line in text.splitlines():
        directive, *args = line.split()
        if directive == ".inputs":
            inputs += args
        elif directive == ".outputs":
            outputs += args
        elif directive == ".const":
            constants.append((args[0], int(args[1])))
        elif directive == ".gate":
            gates.append(Gate(args[0], args[1], tuple(args[2:])))
    return inputs, outputs, gates, constants


class TestStructuralErrors:
    """Structure is checked by Circuit alone; parse reports its error on
    the line that declares the signal at fault."""

    @pytest.mark.parametrize("text, line", [
        # duplicates: the second definition in file order
        (".inputs x y x\n.outputs y\n.end\n", 1),
        (".inputs x\n.outputs o\n.const k 0\n.const k 1\n"
         ".gate buf o x\n.end\n", 4),
        (".inputs x\n.outputs o\n.gate buf o x\n.gate inv o x\n.end\n", 4),
        (".gate buf x y\n.inputs x y\n.outputs x\n.end\n", 2),
        # a mention in .outputs is not a definition
        (".outputs x\n.inputs x\n.const x 1\n.end\n", 3),
        # a gate's kind, arity and inputs: the gate's line
        (".inputs x\n.outputs o\n.gate mux o x x\n.end\n", 3),
        (".inputs x\n.outputs o\n.gate and o x ghost\n.end\n", 3),
        # an undefined output: its .outputs line
        (".inputs x\n.outputs o y\n.gate buf o x\n.end\n", 2),
        # Circuit's order, not the file's: gates before outputs
        (".inputs x\n.outputs y\n.gate and o x ghost\n.end\n", 3),
        # a cycle: the line of the gate Circuit names
        (".inputs x\n.outputs a\n.gate and a x b\n.gate and b x a\n.end\n",
         3),
    ])
    def test_circuit_message_on_the_declaring_line(self, text, line):
        with pytest.raises(CircuitError) as want:
            Circuit(*declared(text))
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.reason == str(want.value)
        assert err.value.line == line

    @pytest.mark.parametrize("text, line, reason", [
        (".inputs x\n.outputs o\n.gate and o x ghost\n.gate and p 1x x\n"
         ".end\n", 4, "invalid name '1x'"),
        (".inputs x x\n.outputs x\n", 3, ".end missing"),
    ])
    def test_syntax_errors_come_before_structural_ones(self, text, line,
                                                        reason):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.reason) == (line, reason)


class TestSerialize:
    def test_single_and_is_the_five_line_canonical_document(self):
        c = parse(MINIMAL_AND)
        assert serialize(c) == (".inputs x1\n.inputs x2\n.outputs y\n"
                                ".gate and y x1 x2\n.end\n")

    def test_constants_come_before_gates(self):
        c = Circuit(("x",), ("o",),
                    (Gate("mux", "o", ("x", "zero", "one")),),
                    (("zero", 0), ("one", 1)))
        text = serialize(c)
        lines = text.splitlines()
        assert ".const zero 0" in lines and ".const one 1" in lines
        assert lines.index(".const zero 0") < lines.index(".gate mux o x zero one")

    def test_gates_emitted_topologically(self):
        c = Circuit(("x",), ("o",),
                    (Gate("inv", "o", ("t",)), Gate("inv", "t", ("x",))))
        lines = serialize(c).splitlines()
        assert lines.index(".gate inv t x") < lines.index(".gate inv o t")


class TestRoundTrip:
    def test_parse_serialize_identity_on_generated_circuits(self):
        for seed in range(50):
            tree = random_tree_circuit(4 + seed % 9, seed=seed)
            assert parse(serialize(tree)) == tree
            dag = random_dag_circuit(3 + seed % 5, 8 + seed % 13, seed=seed,
                                     n_outputs=1 + seed % 3)
            assert parse(serialize(dag)) == dag

    def test_serialize_parse_idempotent_from_messy_documents(self):
        docs = [
            "#c\n.inputs   a    b\n.outputs o\n\n.gate and o a b\n.end\n",
            ".inputs a b\r\n.outputs o\r\n.gate or o b a\r\n.end\r\n",
            ".inputs x\n.outputs o\n.gate inv o t\n.gate inv t x\n.end\n",
            ".inputs s\n.const z 0\n.outputs o\n.gate mux o s z s\n.end",
        ]
        for doc in docs:
            once = serialize(parse(doc))
            assert serialize(parse(once)) == once

    def test_round_trip_preserves_declaration_facts(self):
        rng = random.Random(9)
        for seed in range(20):
            c = random_dag_circuit(4, 12, seed=rng.randrange(10**6))
            c2 = parse(serialize(c))
            assert c2.inputs == c.inputs
            assert c2.outputs == c.outputs
            assert sorted(g.output for g in c2.gates) == \
                sorted(g.output for g in c.gates)
            assert {g.output: (g.kind, g.inputs) for g in c2.gates} == \
                {g.output: (g.kind, g.inputs) for g in c.gates}


# -- fuzz: documents from netlist tokens and random text ------------------

INPUTS = ("a", "b", "c")
NAMES = INPUTS + ("t", "o")
WORDS = NAMES + GATE_KINDS + ("0", "1", "#", "1x", "a-b")
DIRECTIVES = (".inputs", ".outputs", ".const", ".gate", ".end", "#", "",
              ".gates")
ARITY = {"inv": 1, "buf": 1, "mux": 3}          # the others take 2
word = st.one_of(st.sampled_from(WORDS), st.text(max_size=4))
random_line = st.builds(
    lambda d, ws, sep, cr: sep.join([d, *ws]) + cr,
    st.one_of(st.sampled_from(DIRECTIVES), st.text(max_size=6)),
    st.lists(word, max_size=4),
    st.sampled_from((" ", "  ", "\t")),
    st.sampled_from(("", "\r")))
gate_line = st.sampled_from(GATE_KINDS).flatmap(lambda kind: st.builds(
    lambda out, ins: " ".join((".gate", kind, out, *ins)),
    st.sampled_from(("t", "o")),
    st.lists(st.sampled_from(NAMES), min_size=ARITY.get(kind, 2),
             max_size=ARITY.get(kind, 2))))


@st.composite
def framed(draw):
    """A well-formed frame around gate lines and at most one random line,
    so that documents which parse are common enough to test."""
    ins = draw(st.permutations(INPUTS))
    body = draw(st.lists(gate_line, max_size=3,
                         unique_by=lambda line: line.split()[2]))
    defined = [*ins, *(line.split()[2] for line in body)]
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), draw(random_line))
    outs = draw(st.lists(st.sampled_from(defined), min_size=1, max_size=2))
    return "\n".join([".inputs " + " ".join(ins), *body,
                      ".outputs " + " ".join(outs), ".end"])


document = st.one_of(
    framed(),
    st.lists(st.one_of(random_line, gate_line), max_size=8).map("\n".join),
    st.text(max_size=40))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(document)
def test_fuzzed_documents_fail_on_a_line_or_round_trip(text):
    try:
        c = parse(text)
    except ParseError as exc:
        assert 1 <= exc.line <= text.count("\n") + 1
        return
    once = serialize(c)
    assert serialize(parse(once)) == once
