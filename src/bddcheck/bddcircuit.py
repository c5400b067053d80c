"""One-to-one expansion of a BDD into a multiplexer netlist.

Variable ``i`` of the manager is input ``i`` of the circuit.  Each
internal node becomes one MUX whose select is the node's variable,
whose else-input is the low child's signal and whose then-input is the
high child's signal; terminals become constant signals.  Shared nodes
become shared signals, so the generated circuit is a DAG with fanout,
not a tree.  In ``gates`` mode every MUX is further expanded into the
standard inverter/AND/AND/OR realization by ``circuit.expand_mux``.

``roundtrip_verify`` symbolically simulates the generated circuit under
the manager's own order, ``mgr.var_order()``, so a simulated node tests
the same variable index at the same level as the node it came from.  It
checks, node for node, that the simulation reproduces the original BDD,
plus the size and independence properties of the internal MUX signals
in ``gates`` mode.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, Sequence

from .bdd import DEFAULT_NODE_LIMIT, Manager, ONE, ZERO
from .circuit import Circuit, Gate, expand_mux, fresh_name
from .errors import BddCheckError
from .simulate import SimStats, simulate

MODES = ("mux", "gates")


def expand_to_circuit(mgr: Manager, roots: Sequence[int], mode: str = "mux",
                      var_names: Mapping[int, str] | Sequence[str] | None = None,
                      ) -> tuple[Circuit, dict[int, str]]:
    """Map the BDDs under ``roots`` into a circuit, one MUX per node.

    Variable ``i`` is input ``i`` of the circuit, named ``x{i}`` or
    ``var_names[i]``; a variable without a name is a configuration
    error.  Output ``j`` is the signal of ``roots[j]``.  Also returns a
    dict from every handle the circuit wires (the internal nodes, in
    ascending order, after the terminals it uses) to its signal name.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    roots = list(roots)
    if not roots:
        raise ValueError("need at least one root")
    nodes = mgr.reachable(roots)

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

    used = set(roots)
    for u in nodes:
        used.add(mgr.low(u))
        used.add(mgr.high(u))
    signals = {}
    for t in (ZERO, ONE):
        if t in used:
            signals[t] = fresh_name(f"const{t}", taken)
    for u in nodes:
        signals[u] = fresh_name(f"n{u}", taken)

    gates = tuple(Gate("mux", signals[u],
                       (inputs[mgr.var_index(u)], signals[mgr.low(u)],
                        signals[mgr.high(u)]))
                  for u in nodes)        # ascending handles: children first
    outputs = tuple(signals[r] for r in roots)
    constants = tuple((signals[t], t) for t in (ZERO, ONE) if t in signals)
    circuit = Circuit(tuple(inputs), outputs, gates, constants)
    if mode == "gates":
        circuit = expand_mux(circuit)
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


def roundtrip_verify(mgr: Manager, roots: Sequence[int], mode: str = "gates",
                     var_names=None,
                     node_limit: int = DEFAULT_NODE_LIMIT) -> RoundtripReport:
    """Simulate the expanded circuit and compare it node-for-node.

    Under the original variable order, the signal of every original
    node must rebuild to the canonical copy of that node.  In ``gates``
    mode the inverted select must have size 1, each AND output size at
    most its data child's size plus one, and the data-input signals
    must be independent of the select variable.  The simulation does
    not track liveness, so ``report.stats`` carries no live counts.
    """
    circuit, signals = expand_to_circuit(mgr, roots, mode, var_names)
    res = simulate(circuit, mgr.var_order(), node_limit=node_limit,
                   track_live=False)
    sim = res.manager
    sizes = res.stats.per_signal_size
    producers = circuit.producers()

    iso = {0: 0, 1: 1}
    violations = []
    max_size = 0
    for u, sig in signals.items():           # ascending handles
        if u in iso:
            continue                         # a terminal
        var = mgr.var_index(u)
        iso[u] = sim.make(var, iso[mgr.high(u)], iso[mgr.low(u)])
        got = res.signal_bdds[sig]
        sz = sizes[sig]
        max_size = max(max_size, sz)
        if got != iso[u]:
            violations.append(RoundtripViolation(
                u, sig, "node_identity",
                f"signal rebuilds to {got}, expected canonical {iso[u]}"))
        if mode == "gates":
            # the node's OR gate reads (and(ns, else), and(sel, then))
            a0_sig, a1_sig = producers[sig].inputs
            ns_sig = producers[a0_sig].inputs[0]
            for check, name, child in (("and_else", a0_sig, mgr.low(u)),
                                       ("and_then", a1_sig, mgr.high(u))):
                bsz = sizes[name]
                max_size = max(max_size, bsz)
                limit = sim.size(iso[child]) + 1
                if bsz > limit:
                    violations.append(RoundtripViolation(
                        u, name, check, f"size {bsz} exceeds child+1 = {limit}"))
            nsz = sizes[ns_sig]
            max_size = max(max_size, nsz)
            if nsz != 1:
                violations.append(RoundtripViolation(
                    u, ns_sig, "inverter_size", f"size {nsz}, expected 1"))
            for check, child in (("else_independent", mgr.low(u)),
                                 ("then_independent", mgr.high(u))):
                data_sig = signals[child]
                if sim.depends_on(res.signal_bdds[data_sig], var):
                    violations.append(RoundtripViolation(
                        u, data_sig, check,
                        f"data input depends on select variable {var}"))
    return RoundtripReport(not violations, mode, len(iso) - 2, max_size,
                           res.stats.created_total, violations, res.stats,
                           circuit)
