"""One-to-one expansion of a BDD into a multiplexer netlist.

Each internal node becomes one MUX whose select is the node's variable,
whose else-input is the low child's signal and whose then-input is the
high child's signal; terminals become constant signals.  Shared nodes
become shared signals, so the generated circuit is a DAG with fanout,
not a tree.  In ``gates`` mode every MUX is further expanded into the
standard inverter/AND/AND/OR realization by ``circuit.expand_mux``.

``roundtrip_verify`` symbolically simulates the generated circuit under
the original variable order and checks, node for node, that the
simulation reproduces the original BDD, plus the size and independence
properties of the internal MUX signals in ``gates`` mode.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, Sequence

from .bdd import DEFAULT_NODE_LIMIT, Manager
from .circuit import Circuit, Gate, expand_mux, fresh_name
from .errors import BddCheckError
from .simulate import SimStats, simulate

MODES = ("mux", "gates")


@dataclass
class NodeSignalMap:
    """Injective map from reachable internal nodes to signal names."""

    signals: dict[int, str]
    var_signals: dict[int, str]          # variable index -> input name
    const0: str | None = None
    const1: str | None = None

    def signal_for(self, ref: int) -> str:
        if ref == 0:
            if self.const0 is None:
                raise KeyError("constant-0 signal was not emitted")
            return self.const0
        if ref == 1:
            if self.const1 is None:
                raise KeyError("constant-1 signal was not emitted")
            return self.const1
        return self.signals[ref]


def expand_to_circuit(mgr: Manager, roots: Sequence[int], mode: str = "mux",
                      var_names: Mapping[int, str] | Sequence[str] | None = None,
                      ) -> tuple[Circuit, NodeSignalMap]:
    """Map the BDDs under ``roots`` into a circuit, one MUX per node.

    Every manager variable becomes an input (named ``x{i}`` unless
    ``var_names`` provides a name); a support variable without a name is
    a configuration error.  Output ``j`` is the signal of ``roots[j]``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    roots = list(roots)
    if not roots:
        raise ValueError("need at least one root")
    nodes = mgr.reachable(roots)

    support = set()
    for u in nodes:
        support.add(mgr.var_index(u))
    names = {}
    for i in range(mgr.var_count):
        if var_names is None:
            names[i] = f"x{i}"
        else:
            try:
                names[i] = var_names[i]
            except (KeyError, IndexError):
                if i in support:
                    raise BddCheckError(
                        f"no input name configured for variable {i}") from None
                names[i] = None
    inputs = tuple(names[i] for i in range(mgr.var_count) if names[i] is not None)
    taken = set(inputs)
    if len(taken) != len(inputs):
        raise BddCheckError("duplicate input names")

    need0 = any(r == 0 for r in roots)
    need1 = any(r == 1 for r in roots)
    for u in nodes:
        if mgr.high(u) <= 1:
            need1 = need1 or mgr.high(u) == 1
            need0 = need0 or mgr.high(u) == 0
        if mgr.low(u) <= 1:
            need1 = need1 or mgr.low(u) == 1
            need0 = need0 or mgr.low(u) == 0
    const0 = fresh_name("const0", taken) if need0 else None
    const1 = fresh_name("const1", taken) if need1 else None
    constants = []
    if const0 is not None:
        constants.append((const0, 0))
    if const1 is not None:
        constants.append((const1, 1))

    nmap = NodeSignalMap({}, {i: n for i, n in names.items() if n is not None},
                         const0, const1)
    for u in nodes:
        nmap.signals[u] = fresh_name(f"n{u}", taken)

    gates = tuple(Gate("mux", nmap.signals[u],
                       (names[mgr.var_index(u)], nmap.signal_for(mgr.low(u)),
                        nmap.signal_for(mgr.high(u))))
                  for u in nodes)        # ascending handles: children first
    outputs = tuple(nmap.signal_for(r) for r in roots)
    circuit = Circuit(inputs, outputs, gates, tuple(constants))
    if mode == "gates":
        circuit = expand_mux(circuit)
    return circuit, nmap


def copy_bdd(src: Manager, ref: int, dst: Manager) -> int:
    """Rebuild a BDD in another manager that uses the same variable order."""
    if src.var_count != dst.var_count or src.var_order() != dst.var_order():
        raise ValueError("managers must share the variable order")
    iso = {0: 0, 1: 1}
    for u in src.reachable(ref):
        iso[u] = dst.make(src.var_index(u), iso[src.high(u)], iso[src.low(u)])
    return iso[ref]


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
    must be independent of the select variable.
    """
    circuit, nmap = expand_to_circuit(mgr, roots, mode, var_names)
    # simulate under the original variable order
    input_index = {name: i for i, name in enumerate(circuit.inputs)}
    order = [input_index[nmap.var_signals[v]] for v in mgr.var_order()
             if v in nmap.var_signals]
    res = simulate(circuit, order, node_limit=node_limit)
    sim = res.manager
    sizes = res.stats.per_signal_size
    producers = circuit.producers()

    iso = {0: 0, 1: 1}
    violations = []
    max_size = 0
    for u, sig in nmap.signals.items():      # ascending handles
        sel_var = input_index[nmap.var_signals[mgr.var_index(u)]]
        iso[u] = sim.make(sel_var, iso[mgr.high(u)], iso[mgr.low(u)])
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
                if sel_var in sim.support(iso[child]):
                    violations.append(RoundtripViolation(
                        u, nmap.signal_for(child), check,
                        f"data input depends on select variable {sel_var}"))
    return RoundtripReport(not violations, mode,
                           len(nmap.signals), max_size,
                           res.stats.created_total, violations, res.stats,
                           circuit)
