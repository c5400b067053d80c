"""Gate-level combinational circuit DAG and structural analyses.

A :class:`Circuit` is immutable after construction and validated on
construction: unique signal names, known gate kinds and arities, no
undefined references, no cycles.  This is the package's only structural
check; each :class:`CircuitError` it raises names the signal at fault.
Gates may be declared in any order; only the dependency graph has to be
acyclic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CircuitError

GATE_KINDS = ("and", "or", "nand", "nor", "xor", "inv", "buf", "mux")
# a k-input gate is a left fold of 2-input steps; every step but the last
# is of the kind named here, or of the gate's own kind
FOLD_STEP = {"nand": "and", "nor": "or"}


@dataclass(slots=True)
class Gate:
    """One gate: ``kind``, output signal, ordered input signals.

    MUX inputs are ordered (select, else-data, then-data).
    """

    kind: str
    output: str
    inputs: tuple[str, ...]

    def __post_init__(self):
        self.inputs = tuple(self.inputs)


@dataclass
class Circuit:
    """Combinational DAG over named primary inputs and outputs.

    ``constants`` binds signal names to fixed 0/1 values; constant
    signals share the namespace of inputs and gate outputs.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    constants: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        self.gates = tuple(self.gates)
        self.constants = tuple((n, b) for n, b in self.constants)
        self._order = _validate(self)

    @property
    def signals(self) -> tuple[str, ...]:
        """Every defined signal: inputs, constants, gate outputs."""
        return (self.inputs + tuple(n for n, _ in self.constants)
                + tuple(g.output for g in self.gates))

    def producers(self) -> dict[str, Gate]:
        return {g.output: g for g in self.gates}

    def input_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.inputs)}


def _check_arity(gate: Gate):
    n = len(gate.inputs)
    if gate.kind in ("inv", "buf"):
        ok, want = n == 1, "exactly 1 input"
    elif gate.kind == "mux":
        ok, want = n == 3, "exactly 3 inputs"
    else:
        ok, want = n >= 2, "at least 2 inputs"
    if not ok:
        raise CircuitError(f"gate '{gate.output}': {gate.kind} takes {want}, "
                           f"got {n}", signal=gate.output)


def _validate(c: Circuit) -> tuple[Gate, ...]:
    """Check the structure; return the gates in :func:`_sort`'s order.

    When every gate reads only signals declared before it, that order
    is the declaration order: gate ``i`` is ready once gates ``0..i-1``
    are done, and no smaller index is left waiting.
    """
    # signal -> index of its gate; inputs and constants get negative ones
    rank = {}
    for i, name in enumerate(c.signals, -len(c.inputs) - len(c.constants)):
        if not name:
            raise CircuitError("empty signal name", signal=name)
        if name in rank:
            raise CircuitError(f"duplicate signal '{name}'", signal=name)
        rank[name] = i
    for name, bit in c.constants:
        if bit not in (0, 1):
            raise CircuitError(f"constant '{name}' must be 0 or 1", signal=name)
    ordered = True
    for i, g in enumerate(c.gates):
        if g.kind not in GATE_KINDS:
            raise CircuitError(f"gate '{g.output}': unknown kind '{g.kind}'",
                               signal=g.output)
        _check_arity(g)
        for s in g.inputs:
            r = rank.get(s)
            if r is None:
                raise CircuitError(
                    f"undefined signal '{s}' feeding gate '{g.output}'",
                    signal=g.output)
            if r >= i:
                ordered = False
    for name in c.outputs:
        if name not in rank:
            raise CircuitError(f"undefined output signal '{name}'", signal=name)
    return c.gates if ordered else _sort(c)  # _sort raises on cycles


def topological_order(c: Circuit) -> list[Gate]:
    """Gates ordered so producers precede consumers.

    Deterministic: among ready gates, declaration order wins.  The order
    is computed once, when the circuit is validated.
    """
    return list(c._order)


def _sort(c: Circuit) -> tuple[Gate, ...]:
    """Kahn's algorithm with declaration order breaking ties.  Raises
    :class:`CircuitError` naming a signal on the cycle if there is one.
    """
    avail = set(c.inputs) | {n for n, _ in c.constants}
    waiting = []                     # per gate: unavailable input references
    consumers = {}                   # signal -> gate indices waiting on it
    ready = []
    for i, g in enumerate(c.gates):
        need = sum(1 for s in g.inputs if s not in avail)
        waiting.append(need)
        for s in g.inputs:
            if s not in avail:
                consumers.setdefault(s, []).append(i)
        if need == 0:
            heapq.heappush(ready, i)
    order = []
    done = [False] * len(c.gates)
    while ready:
        i = heapq.heappop(ready)
        done[i] = True
        g = c.gates[i]
        order.append(g)
        for j in consumers.pop(g.output, ()):
            waiting[j] -= 1
            if waiting[j] == 0:
                heapq.heappush(ready, j)
    if len(order) < len(c.gates):
        signal = _find_cycle_signal(c, done)
        raise CircuitError(f"cycle through signal '{signal}'", signal=signal)
    return tuple(order)


def _find_cycle_signal(c: Circuit, done) -> str:
    """Walk unresolved dependencies from an unfinished gate to a cycle."""
    producers = c.producers()
    finished = {g.output for i, g in enumerate(c.gates) if done[i]}
    resolved = set(c.inputs) | {n for n, _ in c.constants} | finished
    start = next(g for i, g in enumerate(c.gates) if not done[i])
    seen = set()
    cur = start
    while cur.output not in seen:
        seen.add(cur.output)
        nxt = next(s for s in cur.inputs if s not in resolved)
        cur = producers[nxt]
    return cur.output


class TreeCheck(NamedTuple):
    ok: bool
    violator: str | None


def fanout_counts(c: Circuit) -> dict[str, int]:
    """Consumer count per signal: gate-input references plus PO references."""
    counts = {name: 0 for name in c.signals}
    for g in c.gates:
        for s in g.inputs:
            counts[s] += 1
    for name in c.outputs:
        counts[name] += 1
    return counts


def is_tree(c: Circuit) -> TreeCheck:
    """True iff the circuit is fanout-free with a single output.

    Every input and gate output may feed at most one consumer (gate
    input or output port).  Reports the first violating signal in
    definition order, or ``None`` when the output count is the problem.
    """
    counts = fanout_counts(c)
    const_names = {n for n, _ in c.constants}
    for name in c.signals:
        if name in const_names:
            continue
        if counts[name] > 1:
            return TreeCheck(False, name)
    if len(c.outputs) != 1:
        return TreeCheck(False, None)
    return TreeCheck(True, None)


def dfs_variable_order(c: Circuit) -> list[int]:
    """Input indices in first-visit order of a DFS from the first output.

    The traversal descends into gate inputs in declared order, then
    continues from the remaining outputs; inputs never reached are
    appended in declaration order.  The result lists the variable at
    level 0 first.
    """
    if not c.outputs:
        raise CircuitError("circuit has no outputs")
    producers = c.producers()
    index_of = c.input_index()
    const_names = {n for n, _ in c.constants}
    seen = set()
    order = []
    for po in c.outputs:
        stack = [po]
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            if s in index_of:
                order.append(index_of[s])
            elif s in const_names:
                continue
            else:
                stack.extend(reversed(producers[s].inputs))
    for i, name in enumerate(c.inputs):
        if name not in seen:
            order.append(i)
    return order


def fresh_name(base: str, taken: set[str]) -> str:
    """``base`` with ``_`` appended until it is not in ``taken``; claims it."""
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def decompose_multi_input(c: Circuit) -> Circuit:
    """Rewrite every >2-input and/or/nand/nor/xor gate into a 2-input left fold.

    Every fold step but the last is of kind ``FOLD_STEP.get(kind, kind)``
    and the last keeps the gate's kind, so k-input nand/nor become an
    and/or fold with the final inversion absorbed into the last gate.
    The function is preserved and fresh signal names are deterministic.
    """
    taken = set(c.signals)
    gates = []
    for g in c.gates:
        if g.kind == "mux" or len(g.inputs) <= 2:
            gates.append(Gate(g.kind, g.output, g.inputs))
            continue
        step = FOLD_STEP.get(g.kind, g.kind)
        acc = g.inputs[0]
        for k, s in enumerate(g.inputs[1:-1]):
            out = fresh_name(f"{g.output}__d{k}", taken)
            gates.append(Gate(step, out, (acc, s)))
            acc = out
        gates.append(Gate(g.kind, g.output, (acc, g.inputs[-1])))
    return Circuit(c.inputs, c.outputs, gates, c.constants)


def mux_gates(out: str, sel: str, else_in: str, then_in: str,
              taken: set[str]) -> list[Gate]:
    """The standard realization of ``out = mux(sel, else_in, then_in)``:
    ``inv(sel) -> ns``, ``and(ns, else_in) -> a0``, ``and(sel, then_in)
    -> a1`` and ``or(a0, a1) -> out``, in that order.  The three new
    names are claimed from ``taken``.  No MUX gate is built.
    """
    ns = fresh_name(f"{out}__ns", taken)
    a0 = fresh_name(f"{out}__a0", taken)
    a1 = fresh_name(f"{out}__a1", taken)
    return [Gate("inv", ns, (sel,)), Gate("and", a0, (ns, else_in)),
            Gate("and", a1, (sel, then_in)), Gate("or", out, (a0, a1))]


def expand_mux(c: Circuit) -> Circuit:
    """Replace every MUX ``g`` by ``mux_gates(g.output, *g.inputs)``, the
    standard realization that ``bddcircuit`` emits in ``gates`` mode."""
    taken = set(c.signals)
    gates = []
    for g in c.gates:
        if g.kind == "mux":
            gates += mux_gates(g.output, *g.inputs, taken)
        else:
            gates.append(Gate(g.kind, g.output, g.inputs))
    return Circuit(c.inputs, c.outputs, gates, c.constants)
