"""Line-based netlist format: the package's only circuit persistence layer.

Grammar (one directive per line, lowercase, ``#`` starts a comment)::

    .inputs NAME...
    .outputs NAME...
    .const NAME BIT
    .gate KIND OUT IN...
    .end

``KIND`` is one of and/or/nand/nor/xor/inv/buf/mux; mux inputs are
ordered (select, else, then).  Names match ``[A-Za-z_][A-Za-z0-9_]*``.
``.end`` is mandatory.  Gates may reference signals defined later in
the file.  Parsing is strict and every diagnostic carries a 1-based
line number.  ``parse`` checks only the syntax, and its first syntax
error wins.  A document without one is checked for structure by
:class:`Circuit`, whose first error is reported on the line that
declares the signal at fault: the second definition of a duplicated
name, the gate itself, or the ``.outputs`` line of an undefined output.
"""

from __future__ import annotations

import re

from .circuit import Circuit, Gate, GATE_KINDS, topological_order
from .errors import CircuitError, ParseError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_name(name: str, line: int) -> str:
    if not _NAME_RE.match(name):
        raise ParseError(f"invalid name '{name}'", line)
    return name


def parse(text: str) -> Circuit:
    """Parse a netlist document into a validated :class:`Circuit`."""
    inputs: list[str] = []
    outputs: list[tuple[str, int]] = []
    constants: list[tuple[str, int]] = []
    gates: list[Gate] = []
    defs: list[str] = []                 # defined names, in file order,
    def_lines: list[int] = []            # and the line of each
    end_seen = False
    lines = text.split("\n")
    for ln, raw in enumerate(lines, 1):
        stripped = raw.rstrip("\r").strip()
        if not stripped or stripped.startswith("#"):
            continue
        if end_seen:
            raise ParseError("content after .end", ln)
        tokens = stripped.split()
        directive, args = tokens[0], tokens[1:]
        if directive == ".inputs":
            if not args:
                raise ParseError(".inputs needs at least one name", ln)
            for name in args:
                defs.append(_check_name(name, ln))
                def_lines.append(ln)
            inputs += args
        elif directive == ".outputs":
            if not args:
                raise ParseError(".outputs needs at least one name", ln)
            for name in args:
                outputs.append((_check_name(name, ln), ln))
        elif directive == ".const":
            if len(args) != 2:
                raise ParseError(".const takes a name and a bit", ln)
            name, bit = args
            if bit not in ("0", "1"):
                raise ParseError(f"constant bit must be 0 or 1, got '{bit}'", ln)
            defs.append(_check_name(name, ln))
            def_lines.append(ln)
            constants.append((name, int(bit)))
        elif directive == ".gate":
            if len(args) < 3:
                raise ParseError(".gate takes a kind, an output and inputs", ln)
            kind, out, ins = args[0], args[1], args[2:]
            if kind not in GATE_KINDS:
                raise ParseError(f"unknown gate kind '{kind}'", ln)
            defs.append(_check_name(out, ln))
            def_lines.append(ln)
            for name in ins:
                _check_name(name, ln)
            gates.append(Gate(kind, out, tuple(ins)))
        elif directive == ".end":
            end_seen = True
        else:
            raise ParseError(f"unrecognized directive '{directive}'", ln)
    if not end_seen:
        raise ParseError(".end missing", max(1, len(lines)))

    try:
        return Circuit(tuple(inputs), tuple(n for n, _ in outputs),
                       tuple(gates), tuple(constants))
    except CircuitError as exc:
        # a name's second definition, else its only one, else .outputs
        at = [ln for name, ln in zip(defs, def_lines) if name == exc.signal]
        at = at[1:] or at or [ln for name, ln in outputs if name == exc.signal]
        raise ParseError(str(exc), at[0]) from exc


def serialize(c: Circuit) -> str:
    """Canonical text form of a circuit.

    One name per ``.inputs``/``.outputs`` line, constants before gates,
    gates in topological order, single spaces, newline terminated.
    ``parse(serialize(c))`` is structurally identical to ``c`` whenever
    ``c`` already declares its gates topologically.
    """
    lines = [f".inputs {name}" for name in c.inputs]
    lines += [f".outputs {name}" for name in c.outputs]
    lines += [f".const {name} {bit}" for name, bit in c.constants]
    lines += [f".gate {g.kind} {g.output} {' '.join(g.inputs)}"
              for g in topological_order(c)]
    lines.append(".end")
    return "\n".join(lines) + "\n"


def load(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save(c: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(c))
