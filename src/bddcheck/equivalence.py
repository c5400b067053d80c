"""Miter construction and BDD-based equivalence checking.

Two circuits over the same inputs are compared by XOR-ing corresponding
outputs and OR-ing the XOR results into a single signal.  The circuits
are equivalent exactly when the BDD built for that signal is the
0-terminal; otherwise any satisfying assignment is a counterexample.
The one reported is the smallest by variable index, 0 first: the
smallest int whose bit ``n-1-i`` is variable ``i``, found in one pass
over the nodes of the miter output.
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
    output counts.  Output pair ``j`` feeds an XOR, and the XOR outputs
    are OR-folded left-associatively; the last gate, the one XOR of a
    single pair, drives ``out``.
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
    last = len(pos1) - 1
    xors = []
    for j, pair in enumerate(zip(pos1, pos2)):
        x = out if last == 0 else fresh_name(f"miter__x{j}", taken)
        gates.append(Gate("xor", x, pair))
        xors.append(x)
    acc = xors[0]
    for j, x in enumerate(xors[1:]):
        nxt = out if j == last - 1 else fresh_name(f"miter__o{j}", taken)
        gates.append(Gate("or", nxt, (acc, x)))
        acc = nxt
    return Circuit(c1.inputs, (out,), gates, tuple(consts1 + consts2))


def extract_counterexample(mgr: Manager, f: int) -> list[int]:
    """Lexicographically smallest satisfying assignment of ``f``.

    Smallest by variable index, preferring 0; variables outside the
    support are 0.  Returns one bit per manager variable.

    An assignment read as an int whose bit ``n-1-i`` is variable ``i``
    orders the same way, so the witness is the smallest such int.  Each
    node's smallest int is the smaller of its low child's and its high
    child's with the node's variable set: neither child tests that
    variable, and a variable a path skips stays 0.  One pass over the
    nodes of ``f`` in ascending handle order, children first, finds
    them all.  It creates no node, so it cannot hit the node limit.
    """
    if f == ZERO:
        raise BddCheckError("function is constant 0: no witness exists")
    n = mgr.var_count
    best = {ZERO: None, ONE: 0}
    for u, var, hi, lo in mgr.nodes(f):
        w = best[lo]
        h = best[hi]
        if h is not None:
            h |= 1 << (n - 1 - var)
            if w is None or h < w:
                w = h
        best[u] = w
    w = best[f]
    bits = [(w >> (n - 1 - i)) & 1 for i in range(n)]
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
