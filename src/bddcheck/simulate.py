"""Symbolic simulation: build a BDD for every circuit signal in
topological order, recording per-signal sizes, node creations, live
node counts and ite work.

Creation accounting: the input projections are generated first and form
the baseline; ``created_cum``/``created_total`` count the nodes created
by gate processing on top of that baseline (the raw arena counter is
``baseline + created_total``).

A signal is *live* from its definition until its last consumer gate
has been simulated; inputs and outputs stay live to the end of the run.
``live_nodes`` is ``Manager.live`` after the row, with a slot held
(``Manager.hold``) on every live signal; ``peak_live`` is its maximum
over the rows, so an aborted run reports the peak of the rows it
recorded.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field, fields
from numbers import Real
from typing import NamedTuple

from .bdd import DEFAULT_NODE_LIMIT, Manager, ONE, ZERO
from .circuit import (Circuit, dfs_variable_order, fanout_counts,
                      topological_order)
from .errors import CapacityError


class SignalRow(NamedTuple):
    """One signal of the trace; the field order is the column order of
    :data:`SIGNAL_KEYS`."""

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
    peak_live: int | None = None
    ite_entries_total: int = 0
    created_baseline: int = 0
    created_total: int = 0
    completed: bool = True
    failing_signal: str | None = None
    rows: list[SignalRow] = field(default_factory=list)

    @property
    def per_signal_size(self) -> dict[str, int]:
        return {r.signal: r.size for r in self.rows}


@dataclass
class SimResult:
    signal_bdds: dict[str, int]
    stats: SimStats
    manager: Manager


class SimulationCapacityError(CapacityError):
    """The manager hit its node limit mid-run.

    Carries only the stats gathered so far: the rows recorded, the node
    limit and the name of the signal being simulated when it was hit.
    """

    def __init__(self, stats: SimStats):
        super().__init__(
            f"node limit of {stats.node_limit} reached while simulating "
            f"signal '{stats.failing_signal}'", stats.node_limit)
        self.stats = stats


def simulate(circuit: Circuit, order=None, node_limit: int = DEFAULT_NODE_LIMIT,
             track_live: bool = True) -> SimResult:
    """Build BDDs for every signal of the circuit.

    ``order`` lists input indices from the top level down; ``None``
    selects the DFS order.  Every gate is one ``Manager.apply`` call, so
    a MUX gate, with operands (select, else, then), is one ite; to
    simulate its standard gate realization instead, pass
    ``expand_mux(circuit)``.
    With ``track_live=False`` the rows and ``peak_live`` carry ``None``
    for the live node count.  On capacity exhaustion a
    :class:`SimulationCapacityError` carries the partial stats and
    names the failing signal.
    """
    n = len(circuit.inputs)
    order = list(order) if order is not None else dfs_variable_order(circuit)
    mgr = Manager(n, order, node_limit=node_limit)      # checks the order

    bdds: dict[str, int] = {}
    stats = SimStats(order_used=tuple(mgr.var_order()), input_count=n,
                     node_limit=node_limit)
    rows = stats.rows
    if track_live:
        # one use per gate still to read the signal, and one that never
        # ends for each input and output: a signal is a root of the live
        # count from its definition until its uses reach 0
        uses = fanout_counts(circuit)
        for s in circuit.inputs:
            uses[s] += 1

    def define(name, ref):
        bdds[name] = ref
        if track_live and uses[name]:
            mgr.hold(ref, 1)

    signal = None
    try:
        for i, signal in enumerate(circuit.inputs):
            define(signal, mgr.var(i))
            rows.append(SignalRow(len(rows), signal, "input", 1, 0,
                                  mgr.live if track_live else None, 0))
        for signal, bit in circuit.constants:
            define(signal, ONE if bit else ZERO)
            rows.append(SignalRow(len(rows), signal, "const", 0, 0,
                                  mgr.live if track_live else None, 0))

        stats.created_baseline = mgr.created_count
        for gate in topological_order(circuit):
            signal = gate.output
            result = mgr.apply(gate.kind, [bdds[s] for s in gate.inputs])
            define(signal, result)
            if track_live:
                for s in gate.inputs:
                    uses[s] -= 1
                    if not uses[s]:
                        mgr.hold(bdds[s], -1)
            rows.append(SignalRow(
                len(rows), signal, gate.kind, mgr.size(result),
                mgr.created_count - stats.created_baseline,
                mgr.live if track_live else None, mgr.ite_calls))
    except CapacityError:
        stats.completed = False
        stats.failing_signal = signal
    stats.peak_live = (max((r.live_nodes for r in rows), default=0)
                       if track_live else None)
    stats.ite_entries_total = mgr.ite_calls
    stats.created_total = mgr.created_count - stats.created_baseline
    if not stats.completed:
        raise SimulationCapacityError(stats)
    return SimResult(bdds, stats, mgr)


# -- poly-bound monitor ----------------------------------------------------

# past this, coefficient * n**degree is no float; the slack of 1 leaves
# the bounds near the limit to the exact computation
_LOG_MAX = math.log(sys.float_info.max) + 1


@dataclass
class PolyBoundConfig:
    """Size bound ``coefficient * n**degree`` on every gate and output."""

    degree: int
    coefficient: Real

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        c = self.coefficient
        # a NaN bound would pass every size; compared, not converted to
        # a float, so that an int past the floats is left to bound()
        if c != c or abs(c) == math.inf:
            raise ValueError("coefficient must be finite")

    def bound(self, n: int) -> Real:
        """``coefficient * n**degree``, the exact product rounded once to
        a float, which must be finite.

        Its magnitude is checked from logarithms before the power is
        computed, so a degree far too large fails at once rather than
        after a long integer power.
        """
        c, d = self.coefficient, self.degree
        if c == 0:
            return float(c)                      # c * n**d, at any degree
        if n <= 1 or math.log(abs(c)) + d * math.log(n) <= _LOG_MAX:
            num, den = c.as_integer_ratio()
            try:
                # an int division rounds once; 0.5 * 2**1024 is 2**1023
                return num * n ** d / den
            except OverflowError:
                pass
        raise ValueError(f"bound {c} * {n}**{d} is not a finite float")


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
                     outputs: set[str] | None = None) -> PolyBoundReport:
    """Check signal sizes against ``coefficient * n**degree``.

    Checks every gate signal, in topological order, and every signal
    named in ``outputs``, an input or a constant too, with the run's
    input count as ``n``.  Purely a measurement of this run; it proves
    nothing beyond it.
    """
    n = stats.input_count
    bound = cfg.bound(n)
    outputs = outputs or set()
    checked = [row for row in stats.rows
               if row.kind not in ("input", "const") or row.signal in outputs]
    violations = [PolyBoundViolation(row.signal, row.size, row.size - bound)
                  for row in checked if row.size > bound]
    return PolyBoundReport(not violations, bound, n, len(checked), violations)


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
    if mgr.depends_on(g, index):
        raise ValueError(f"variable {index} occurs in the operand's support")
    if mgr.level(g) < mgr.level_of_var(index):
        # the root tests the topmost variable of the support
        raise ValueError(f"variable {mgr.var_index(g)} sits above the "
                         "probe variable in the order")
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

# CSV columns and JSON keys of a signal row, in SignalRow's field order
SIGNAL_KEYS = ("topo_index", "signal", "gate_kind", "signal_size",
               "created_cum", "live_nodes", "ite_entries_cum")
CSV_HEADER = ",".join(SIGNAL_KEYS)


def stats_to_csv(stats: SimStats) -> str:
    """The signal rows as CSV under :data:`CSV_HEADER`; no live count is
    an empty field, and a signal name that holds a comma or a quote is
    quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([SIGNAL_KEYS, *stats.rows])
    return buf.getvalue()


def stats_to_json(stats: SimStats) -> dict:
    """The scalar fields in field order, then the rows as ``signals``."""
    doc = {f.name: getattr(stats, f.name) for f in fields(stats)
           if f.name != "rows"}
    doc["order_used"] = list(stats.order_used)
    doc["signals"] = [dict(zip(SIGNAL_KEYS, r)) for r in stats.rows]
    return doc
