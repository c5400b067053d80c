"""One-to-one expansion of a BDD into a multiplexer netlist.

Variable ``i`` of the manager is input ``i`` of the circuit.  Each
internal node becomes one MUX whose select is the node's variable,
whose else-input is the low child's signal and whose then-input is the
high child's signal; terminals become constant signals.  Shared nodes
become shared signals, so the generated circuit is a DAG with fanout,
not a tree.  In ``gates`` mode no MUX gate is built: each node is
emitted as the inverter/AND/AND/OR realization of its MUX, by the
helper ``circuit.mux_gates`` that ``circuit.expand_mux`` shares.

``roundtrip_verify`` symbolically simulates the generated circuit under
the manager's own order, ``mgr.var_order()``, so a simulated node tests
the same variable index at the same level as the node it came from.  It
checks, node for node, that the simulation reproduces the original BDD,
plus the size and independence properties of the internal MUX signals
in ``gates`` mode.

The expansion and the round trip read only three things of the
manager: its variable count, its order and the nodes under the roots.
:class:`SourceBdds` reads them once, so a caller can drop the manager,
with its arena and tables, before the expanded circuit is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, Sequence

from .bdd import DEFAULT_NODE_LIMIT, Manager, ONE, ZERO
from .circuit import Circuit, Gate, fresh_name, mux_gates
from .errors import BddCheckError
from .simulate import SimStats, simulate

MODES = ("mux", "gates")


class SourceBdds:
    """The BDDs under ``roots`` as the expansion reads them: the
    manager's ``var_count``, its ``var_order()`` and ``nodes(roots)``,
    each read once.

    It holds no reference to the manager, so the manager can be freed
    while the expansion and the round trip run.  ``nodes`` answers only
    for the roots it was made from.
    """

    def __init__(self, mgr: Manager, roots: Sequence[int]):
        self.roots = tuple(roots)
        self.var_count = mgr.var_count
        self._order = mgr.var_order()
        self._nodes = mgr.nodes(self.roots)

    def var_order(self) -> list[int]:
        return list(self._order)

    def nodes(self, roots: Sequence[int]) -> list[tuple[int, int, int, int]]:
        """``Manager.nodes(roots)`` as read at construction."""
        if tuple(roots) != self.roots:
            raise ValueError(f"holds the nodes under {list(self.roots)}, "
                             f"not under {list(roots)}")
        return self._nodes


def expand_to_circuit(mgr: Manager | SourceBdds, roots: Sequence[int],
                      mode: str = "mux",
                      var_names: Mapping[int, str] | Sequence[str] | None = None,
                      ) -> tuple[Circuit, dict[int, str]]:
    """Map the BDDs under ``roots`` into a circuit, one MUX per node; in
    ``gates`` mode the k-th node's four gates are gates 4k to 4k+3.

    Reads ``mgr.var_count`` and ``mgr.nodes(roots)`` only, so ``mgr``
    may be a :class:`SourceBdds`.  Variable ``i`` is input ``i`` of the
    circuit, named ``x{i}`` or ``var_names[i]``; a variable without a
    name is a configuration error.  Output ``j`` is the signal of
    ``roots[j]``.  Also returns a dict from every handle the circuit
    wires (the internal nodes, in ascending order, after the terminals
    it uses) to its signal name.  Gates are declared children first, so
    the declaration order is the circuit's topological order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    roots = list(roots)
    if not roots:
        raise ValueError("need at least one root")
    nodes = mgr.nodes(roots)

    inputs = []
    for i in range(mgr.var_count):
        try:
            inputs.append(f"x{i}" if var_names is None else var_names[i])
        except (KeyError, IndexError):
            raise BddCheckError(
                f"no input name configured for variable {i}") from None
    taken = set(inputs)
    if len(taken) != len(inputs):
        raise BddCheckError("duplicate input names")

    signals = {}
    for t in (ZERO, ONE):
        if t in roots or any(t in (hi, lo) for _, _, hi, lo in nodes):
            signals[t] = fresh_name(f"const{t}", taken)
    for u, _, _, _ in nodes:
        signals[u] = fresh_name(f"n{u}", taken)

    gates = []
    for u, var, hi, lo in nodes:         # ascending handles: children first
        ins = (inputs[var], signals[lo], signals[hi])
        gates += (mux_gates(signals[u], *ins, taken) if mode == "gates"
                  else [Gate("mux", signals[u], ins)])
    outputs = tuple(signals[r] for r in roots)
    constants = tuple((signals[t], t) for t in (ZERO, ONE) if t in signals)
    circuit = Circuit(tuple(inputs), outputs, gates, constants)
    return circuit, signals


@dataclass
class RoundtripViolation:
    node: int
    signal: str
    check: str
    detail: str


@dataclass
class RoundtripReport:
    ok: bool
    mode: str
    original_size: int
    max_internal_size: int
    created_total: int
    violations: list[RoundtripViolation] = field(default_factory=list)
    stats: SimStats | None = None
    circuit: Circuit | None = None       # the expanded circuit that was checked

    def to_json(self) -> dict:
        """The report's scalar fields and violations; not stats or circuit."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("stats", "circuit")}
        doc["violations"] = [asdict(v) for v in self.violations]
        return doc


def roundtrip_verify(mgr: Manager | SourceBdds, roots: Sequence[int],
                     mode: str = "gates", var_names=None,
                     node_limit: int = DEFAULT_NODE_LIMIT) -> RoundtripReport:
    """Simulate the expanded circuit and compare it node-for-node.

    Reads ``mgr.var_count``, ``mgr.var_order()`` and ``mgr.nodes(roots)``
    only, through one :class:`SourceBdds` made here unless ``mgr`` is one.
    Under the original variable order, the signal of every original
    node must rebuild to the canonical copy of that node.  In ``gates``
    mode the inverted select must have size 1, each AND output size at
    most its data child's size plus one, and the data-input signals
    must be independent of the select variable.  The simulation does
    not track liveness, so ``report.stats`` carries no live counts.
    """
    roots = list(roots)
    src = mgr if isinstance(mgr, SourceBdds) else SourceBdds(mgr, roots)
    circuit, signals = expand_to_circuit(src, roots, mode, var_names)
    res = simulate(circuit, src.var_order(), node_limit=node_limit,
                   track_live=False)
    sim = res.manager
    # the declaration order is the topological order, so gate i is row i
    rows = res.stats.rows[len(circuit.inputs) + len(circuit.constants):]

    iso = {0: 0, 1: 1}
    violations = []
    for k, (u, var, hi, lo) in enumerate(src.nodes(roots)):
        iso[u] = sim.make(var, iso[hi], iso[lo])
        sig = signals[u]
        got = res.signal_bdds[sig]
        if got != iso[u]:
            violations.append(RoundtripViolation(
                u, sig, "node_identity",
                f"signal rebuilds to {got}, expected canonical {iso[u]}"))
        if mode == "gates":
            # holds while expand_to_circuit emits the k-th node's
            # inverter, AND gates and OR, in that order, as gates 4k..4k+3
            ns, a0, a1 = rows[4 * k:4 * k + 3]
            for check, row, child in (("and_else", a0, lo),
                                      ("and_then", a1, hi)):
                limit = sim.size(iso[child]) + 1
                if row.size > limit:
                    violations.append(RoundtripViolation(
                        u, row.signal, check,
                        f"size {row.size} exceeds child+1 = {limit}"))
            if ns.size != 1:
                violations.append(RoundtripViolation(
                    u, ns.signal, "inverter_size",
                    f"size {ns.size}, expected 1"))
            for check, child in (("else_independent", lo),
                                 ("then_independent", hi)):
                data_sig = signals[child]
                if sim.depends_on(res.signal_bdds[data_sig], var):
                    violations.append(RoundtripViolation(
                        u, data_sig, check,
                        f"data input depends on select variable {var}"))
    # every internal signal is the output of one gate
    max_size = max((row.size for row in rows), default=0)
    return RoundtripReport(not violations, mode, len(iso) - 2, max_size,
                           res.stats.created_total, violations, res.stats,
                           circuit)
