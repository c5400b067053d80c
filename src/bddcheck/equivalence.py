"""Miter construction and BDD-based equivalence checking.

Two circuits over the same inputs are compared by XOR-ing corresponding
outputs and OR-ing the XOR results into a single signal.  The circuits
are equivalent exactly when the BDD built for that signal is the
0-terminal; otherwise any satisfying assignment is a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bdd import DEFAULT_NODE_LIMIT, Manager, ONE, ZERO
from .circuit import Circuit, Gate, dfs_variable_order, fresh_name
from .errors import BddCheckError, InterfaceError
from .oracle import evaluate_circuit
from .simulate import SimStats, SimulationCapacityError, simulate

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
ABORTED = "aborted"


@dataclass
class VerifyOutcome:
    verdict: str
    counterexample: dict[str, int] | None
    stats: SimStats


def _rename_side(c: Circuit, prefix: str, taken: set[str]):
    """Clone a circuit's gates and constants with prefixed signal names.

    Inputs keep their names (they are shared across the miter); every
    other signal gets a fresh prefixed name.
    """
    mapping = {name: name for name in c.inputs}
    gates = []
    constants = []
    for name, bit in c.constants:
        fresh = fresh_name(prefix + name, taken)
        mapping[name] = fresh
        constants.append((fresh, bit))
    for g in c.gates:
        fresh = fresh_name(prefix + g.output, taken)
        mapping[g.output] = fresh
    for g in c.gates:
        gates.append(Gate(g.kind, mapping[g.output],
                          tuple(mapping[s] for s in g.inputs)))
    return gates, constants, [mapping[po] for po in c.outputs]


def build_miter(c1: Circuit, c2: Circuit) -> Circuit:
    """Single-output circuit that is constant 0 iff ``c1`` equals ``c2``.

    Requires identical input name lists (order-sensitive) and equal
    output counts.  Output pair ``j`` feeds an XOR; with several pairs
    the XOR outputs are OR-folded left-associatively into ``out``.
    """
    if list(c1.inputs) != list(c2.inputs):
        if len(c1.inputs) != len(c2.inputs):
            raise InterfaceError(
                f"input counts differ: {len(c1.inputs)} vs {len(c2.inputs)}")
        diff = next(i for i, (a, b) in enumerate(zip(c1.inputs, c2.inputs))
                    if a != b)
        raise InterfaceError(
            f"input {diff} differs: '{c1.inputs[diff]}' vs '{c2.inputs[diff]}'")
    if len(c1.outputs) != len(c2.outputs):
        raise InterfaceError(
            f"output counts differ: {len(c1.outputs)} vs {len(c2.outputs)}")
    if not c1.outputs:
        raise InterfaceError("circuits have no outputs to compare")
    taken = set(c1.inputs)
    gates1, consts1, pos1 = _rename_side(c1, "l__", taken)
    gates2, consts2, pos2 = _rename_side(c2, "r__", taken)
    gates = gates1 + gates2
    out = fresh_name("out", taken)
    if len(pos1) == 1:
        gates.append(Gate("xor", out, (pos1[0], pos2[0])))
    else:
        xors = []
        for j, (a, b) in enumerate(zip(pos1, pos2)):
            x = fresh_name(f"miter__x{j}", taken)
            gates.append(Gate("xor", x, (a, b)))
            xors.append(x)
        acc = xors[0]
        for j, x in enumerate(xors[1:]):
            nxt = out if j == len(xors) - 2 else fresh_name(f"miter__o{j}", taken)
            gates.append(Gate("or", nxt, (acc, x)))
            acc = nxt
    return Circuit(c1.inputs, (out,), gates, tuple(consts1 + consts2))


def _satisfiable(mgr: Manager, f: int, fixed: list[int]) -> bool:
    """Whether ``f`` has a 1-path once variable ``i`` is set to ``fixed[i]``
    for every ``i < len(fixed)``; the other variables stay free."""
    n = len(fixed)
    seen = set()
    stack = [f]
    while stack:
        u = stack.pop()
        if u == ONE:
            return True
        if u == ZERO or u in seen:
            continue
        seen.add(u)
        i = mgr.var_index(u)
        if i >= n:
            stack.append(mgr.low(u))
            stack.append(mgr.high(u))
        else:
            stack.append(mgr.high(u) if fixed[i] else mgr.low(u))
    return False


def extract_counterexample(mgr: Manager, f: int) -> list[int]:
    """Lexicographically smallest satisfying assignment of ``f``.

    Smallest by variable index, preferring 0; variables outside the
    support are fixed to 0.  Returns one bit per manager variable.
    Only walks the existing nodes, so it creates none and cannot hit
    the node limit.
    """
    if f == ZERO:
        raise BddCheckError("function is constant 0: no witness exists")
    bits = []
    for _ in range(mgr.var_count):
        bits.append(0)
        if not _satisfiable(mgr, f, bits):
            bits[-1] = 1
    assert mgr.eval(f, bits) == ONE
    return bits


def check_equivalence(c1: Circuit, c2: Circuit, order=None,
                      node_limit: int = DEFAULT_NODE_LIMIT) -> VerifyOutcome:
    """Decide equivalence by symbolic simulation of the miter.

    ``order`` lists input indices from the top level down and defaults
    to the DFS order of ``c1``.  Capacity exhaustion yields an aborted
    outcome carrying the partial stats.
    """
    miter = build_miter(c1, c2)
    if order is None:
        order = dfs_variable_order(c1)
    try:
        res = simulate(miter, order, node_limit=node_limit)
    except SimulationCapacityError as exc:
        return VerifyOutcome(ABORTED, None, exc.stats)
    out = res.signal_bdds[miter.outputs[0]]
    if out == ZERO:
        return VerifyOutcome(EQUIVALENT, None, res.stats)
    bits = extract_counterexample(res.manager, out)
    cex = {name: bits[i] for i, name in enumerate(c1.inputs)}
    if evaluate_circuit(c1, cex) == evaluate_circuit(c2, cex):
        raise BddCheckError("internal error: counterexample failed replay")
    return VerifyOutcome(NOT_EQUIVALENT, cex, res.stats)
