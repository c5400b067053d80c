"""Symbolic simulation: build a BDD for every circuit signal in
topological order, recording per-signal sizes, node creations, live
node counts and ite work.

Creation accounting: the input projections are generated first and form
the baseline; ``created_cum``/``created_total`` count the nodes created
by gate processing on top of that baseline (the raw arena counter is
``baseline + created_total``).

A signal is *live* while some not-yet-simulated gate still consumes it,
or it is an output that has been computed, or it is an input (inputs
stay live for the whole run).  ``live_nodes`` is the number of internal
nodes reachable from the live signals, tracked incrementally;
``peak_live`` is its maximum over the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

from .bdd import DEFAULT_NODE_LIMIT, Manager, ONE, ZERO
from .circuit import Circuit, dfs_variable_order, expand_mux, topological_order
from .errors import CapacityError


@dataclass
class SignalRow:
    topo_index: int
    signal: str
    kind: str            # gate kind, or "input" / "const"
    size: int
    created_cum: int
    live_nodes: int | None
    ite_entries_cum: int


@dataclass
class SimStats:
    order_used: tuple[int, ...]
    input_count: int
    node_limit: int
    rows: list[SignalRow] = field(default_factory=list)
    peak_live: int | None = None
    ite_entries_total: int = 0
    created_baseline: int = 0
    created_total: int = 0
    completed: bool = True
    failing_signal: str | None = None

    @property
    def per_signal_size(self) -> dict[str, int]:
        return {r.signal: r.size for r in self.rows}

    @property
    def created_after(self) -> dict[str, int]:
        return {r.signal: r.created_cum for r in self.rows}


@dataclass
class SimResult:
    signal_bdds: dict[str, int]
    stats: SimStats
    manager: Manager


class SimulationCapacityError(CapacityError):
    """The manager hit its node limit mid-run.

    Carries the stats gathered so far, the name of the signal being
    simulated when the limit was hit, and the partial signal map.
    """

    def __init__(self, stats: SimStats, signal_bdds, manager):
        super().__init__(
            f"node limit of {manager.node_limit} reached while simulating "
            f"signal '{stats.failing_signal}'", manager.node_limit)
        self.stats = stats
        self.signal_bdds = signal_bdds
        self.manager = manager


class _LiveTracker:
    """Incremental count of internal nodes reachable from the root set.

    ``_refs[v]`` counts root slots on ``v`` plus reachable parents of
    ``v``; a node is live while its count is positive.  Adding or
    removing a root costs one traversal of the nodes whose reachability
    actually changes.
    """

    def __init__(self, mgr: Manager):
        # the arena lists grow in place, so binding them once is safe
        self._high = mgr._high
        self._low = mgr._low
        self._refs = {}
        self.live = 0

    def add_root(self, ref: int):
        high = self._high
        low = self._low
        refs = self._refs
        stack = [ref]
        while stack:
            u = stack.pop()
            c = refs.get(u, 0)
            refs[u] = c + 1
            if c == 0 and u > 1:
                self.live += 1
                stack.append(high[u])
                stack.append(low[u])

    def remove_root(self, ref: int):
        high = self._high
        low = self._low
        refs = self._refs
        stack = [ref]
        while stack:
            u = stack.pop()
            c = refs[u] - 1
            refs[u] = c
            if c == 0 and u > 1:
                self.live -= 1
                stack.append(high[u])
                stack.append(low[u])


def order_to_levels(order: list[int]) -> list[int]:
    """Invert an order listing (level -> variable) into variable -> level."""
    levels = [0] * len(order)
    for lvl, idx in enumerate(order):
        levels[idx] = lvl
    return levels


def simulate(circuit: Circuit, order=None, node_limit: int = DEFAULT_NODE_LIMIT,
             track_live: bool = True, expand_muxes: bool = False) -> SimResult:
    """Build BDDs for every signal of the circuit.

    ``order`` lists input indices from the top level down; ``None``
    selects the DFS order.  MUX gates are simulated natively as one ite
    call unless ``expand_muxes`` replaces them by their standard gate
    realization first.  On capacity exhaustion a
    :class:`SimulationCapacityError` carries the partial stats and
    names the failing signal.
    """
    if expand_muxes:
        circuit = expand_mux(circuit)
    n = len(circuit.inputs)
    order = list(order) if order is not None else dfs_variable_order(circuit)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the input indices")
    mgr = Manager(n, order_to_levels(order), node_limit=node_limit)

    bdds: dict[str, int] = {}
    stats = SimStats(order_used=tuple(order), input_count=n,
                     node_limit=node_limit)
    tracker = _LiveTracker(mgr) if track_live else None
    pi_set = set(circuit.inputs)
    po_set = set(circuit.outputs)
    remaining = {}                    # signal -> unsimulated consumer gates
    for g in circuit.gates:
        for s in g.inputs:
            remaining[s] = remaining.get(s, 0) + 1
    rooted = set()

    topo_index = 0
    current_signal = None
    peak = tracker.live if tracker else None
    try:
        for i, name in enumerate(circuit.inputs):
            current_signal = name
            b = mgr.var(i)
            bdds[name] = b
            if tracker:
                tracker.add_root(b)
                rooted.add(name)
            stats.rows.append(SignalRow(topo_index, name, "input", 1, 0,
                                        tracker.live if tracker else None, 0))
            topo_index += 1
        for name, bit in circuit.constants:
            bdds[name] = ONE if bit else ZERO
            if tracker and (remaining.get(name, 0) > 0 or name in po_set):
                tracker.add_root(bdds[name])
                rooted.add(name)
            stats.rows.append(SignalRow(topo_index, name, "const", 0, 0,
                                        tracker.live if tracker else None, 0))
            topo_index += 1

        stats.created_baseline = mgr.created_count
        peak = tracker.live if tracker else None
        for gate in topological_order(circuit):
            current_signal = gate.output
            ins = [bdds[s] for s in gate.inputs]
            if gate.kind == "mux":
                sel, else_b, then_b = ins
                result = mgr.ite(sel, then_b, else_b)
            else:
                result = mgr.apply(gate.kind, ins)
            bdds[gate.output] = result
            if tracker:
                if remaining.get(gate.output, 0) > 0 or gate.output in po_set:
                    tracker.add_root(result)
                    rooted.add(gate.output)
                for s in gate.inputs:
                    remaining[s] -= 1
                    if (remaining[s] == 0 and s not in pi_set
                            and s not in po_set and s in rooted):
                        tracker.remove_root(bdds[s])
                        rooted.discard(s)
                if tracker.live > peak:
                    peak = tracker.live
            stats.rows.append(SignalRow(
                topo_index, gate.output, gate.kind, mgr.size(result),
                mgr.created_count - stats.created_baseline,
                tracker.live if tracker else None, mgr.ite_calls))
            topo_index += 1
    except CapacityError:
        stats.completed = False
        stats.failing_signal = current_signal
        stats.peak_live = peak
        stats.ite_entries_total = mgr.ite_calls
        stats.created_total = max(0, mgr.created_count - stats.created_baseline)
        raise SimulationCapacityError(stats, bdds, mgr) from None

    stats.peak_live = peak
    stats.ite_entries_total = mgr.ite_calls
    stats.created_total = mgr.created_count - stats.created_baseline
    return SimResult(bdds, stats, mgr)


# -- poly-bound monitor ----------------------------------------------------

@dataclass
class PolyBoundConfig:
    """Size bound ``coefficient * n**degree`` checked every ``gate_gap`` gates."""

    degree: int
    coefficient: Real
    gate_gap: int = 1

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.gate_gap < 1:
            raise ValueError("gate_gap must be >= 1")


@dataclass
class PolyBoundViolation:
    signal: str
    size: int
    margin: Real         # size - bound


@dataclass
class PolyBoundReport:
    passed: bool
    bound: Real
    n: int
    checked: int
    violations: list[PolyBoundViolation]


def check_poly_bound(stats: SimStats, cfg: PolyBoundConfig,
                     n: int | None = None,
                     outputs: set[str] | None = None) -> PolyBoundReport:
    """Check sampled signal sizes against ``coefficient * n**degree``.

    Samples every ``gate_gap``-th gate signal in topological order,
    plus every signal named in ``outputs``, using the run's input count
    for ``n`` unless overridden.  Purely a measurement of this run; it
    proves nothing beyond it.
    """
    if n is None:
        n = stats.input_count
    bound = cfg.coefficient * n ** cfg.degree
    gate_rows = [r for r in stats.rows if r.kind not in ("input", "const")]
    outputs = outputs or set()
    sampled = [row for k, row in enumerate(gate_rows, 1)
               if k % cfg.gate_gap == 0 or row.signal in outputs]
    violations = [PolyBoundViolation(row.signal, row.size, row.size - bound)
                  for row in sampled if row.size > bound]
    return PolyBoundReport(not violations, bound, n, len(sampled), violations)


# -- single-gate probe ------------------------------------------------------

@dataclass
class ProbeReport:
    new_nodes: int
    ite_entries: int
    result: int


def top_variable_probe(mgr: Manager, g: int, index: int, op: str,
                       positive: bool = True) -> ProbeReport:
    """Measure one ``apply(op, [literal, g])`` with a fresh top variable.

    Requires variable ``index`` to sit strictly above every variable in
    the support of ``g`` (so in particular it does not occur in ``g``).
    The literal (plain or complemented) is built before measurement
    starts; the apply then runs against a fresh computed table and the
    report gives the node creations and ite entries it caused.
    """
    if op not in ("and", "or", "nand", "nor"):
        raise ValueError(f"probe supports and/or/nand/nor, not {op!r}")
    lvl = mgr.level_of_var(index)
    sup = mgr.support(g)
    if index in sup:
        raise ValueError(f"variable {index} occurs in the operand's support")
    for j in sup:
        if mgr.level_of_var(j) <= lvl:
            raise ValueError(
                f"variable {j} sits at or above the probe variable in the order")
    lit = mgr.var(index)
    if not positive:
        lit = mgr.inv(lit)
    mgr.clear_computed_cache()
    created0 = mgr.created_count
    calls0 = mgr.ite_calls
    result = mgr.apply(op, [lit, g])
    return ProbeReport(mgr.created_count - created0, mgr.ite_calls - calls0,
                       result)


# -- exports ---------------------------------------------------------------

CSV_HEADER = "topo_index,signal,gate_kind,signal_size,created_cum,live_nodes,ite_entries_cum"


def stats_to_csv(stats: SimStats) -> str:
    lines = [CSV_HEADER]
    for r in stats.rows:
        live = "" if r.live_nodes is None else r.live_nodes
        lines.append(f"{r.topo_index},{r.signal},{r.kind},{r.size},"
                     f"{r.created_cum},{live},{r.ite_entries_cum}")
    return "\n".join(lines) + "\n"


def stats_to_json(stats: SimStats) -> dict:
    return {
        "order_used": list(stats.order_used),
        "input_count": stats.input_count,
        "node_limit": stats.node_limit,
        "peak_live": stats.peak_live,
        "ite_entries_total": stats.ite_entries_total,
        "created_baseline": stats.created_baseline,
        "created_total": stats.created_total,
        "completed": stats.completed,
        "failing_signal": stats.failing_signal,
        "signals": [
            {
                "topo_index": r.topo_index,
                "signal": r.signal,
                "gate_kind": r.kind,
                "signal_size": r.size,
                "created_cum": r.created_cum,
                "live_nodes": r.live_nodes,
                "ite_entries_cum": r.ite_entries_cum,
            }
            for r in stats.rows
        ],
    }
