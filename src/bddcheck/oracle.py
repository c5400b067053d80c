"""Brute-force truth-table semantics for circuits and BDDs.

The independent ground truth used by the tests: tables are computed by
plain gate-level evaluation over every assignment, packed into int
bitmasks (bit ``r`` of a column is the value under assignment ``r``,
where input ``i`` carries bit ``(r >> i) & 1``, so the last-declared
input is the most significant).  BDD functions are tabulated by a
structural Shannon walk that never touches the ite machinery.  Past
:data:`TABLE_CAP` inputs, :func:`random_columns` packs seeded random
assignments the same way, and both evaluators take those columns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .circuit import Circuit, topological_order

TABLE_CAP = 20


@dataclass
class TruthTable:
    n: int
    outputs: tuple[str, ...]
    columns: tuple[int, ...]     # one 2**n-bit mask per output

    def bit(self, row: int, po: int = 0) -> int:
        return (self.columns[po] >> row) & 1


def input_pattern(i: int, n: int) -> int:
    """Mask of variable ``i``'s column over all 2**n assignment rows."""
    rows = 1 << n
    chunk = 1 << i
    period = chunk << 1
    full = (1 << rows) - 1
    # 0..0 1..1 repeating with period 2**(i+1)
    return full // ((1 << period) - 1) * (((1 << chunk) - 1) << chunk)


def random_columns(n: int, k: int, seed: int) -> list[int]:
    """``k`` seeded random assignments of ``n`` inputs, one column per
    input: bit ``r`` of column ``i`` is input ``i``'s value in assignment
    ``r``."""
    rng = random.Random(seed)
    return [rng.getrandbits(k) for _ in range(n)]


def _evaluate(c: Circuit, masks: dict[str, int], full: int) -> list[int]:
    """Bitwise gate-level evaluation of many assignments at once.

    ``masks`` maps every input to its column (one bit per assignment
    row) and ``full`` has a 1 in every row; returns one column per output.
    """
    for name, bit in c.constants:
        masks[name] = full if bit else 0
    for g in topological_order(c):
        ins = [masks[s] for s in g.inputs]
        kind = g.kind
        v = ins[0]
        if kind in ("and", "nand"):
            for m in ins[1:]:
                v &= m
        elif kind in ("or", "nor"):
            for m in ins[1:]:
                v |= m
        elif kind == "xor":
            for m in ins[1:]:
                v ^= m
        elif kind == "mux":          # (select, else, then)
            s, e, t = ins
            v = (s & t) | ((s ^ full) & e)
        if kind in ("nand", "nor", "inv"):
            v ^= full
        masks[g.output] = v
    return [masks[po] for po in c.outputs]


def circuit_truth_table(c: Circuit) -> TruthTable:
    """Gate-level evaluation of every assignment, one column per output."""
    n = len(c.inputs)
    if n > TABLE_CAP:
        raise ValueError(f"{n} inputs exceed the truth-table cap of {TABLE_CAP}")
    masks = {name: input_pattern(i, n) for i, name in enumerate(c.inputs)}
    columns = _evaluate(c, masks, (1 << (1 << n)) - 1)
    return TruthTable(n, c.outputs, tuple(columns))


def tables_equal(a: TruthTable, b: TruthTable):
    """Bitwise comparison; returns (equal, first differing (row, po) or None)."""
    if a.n != b.n or len(a.columns) != len(b.columns):
        raise ValueError("tables have different shapes")
    first = None
    for j, (x, y) in enumerate(zip(a.columns, b.columns)):
        d = x ^ y
        if d:
            row = (d & -d).bit_length() - 1
            if first is None or (row, j) < first:
                first = (row, j)
    return (first is None), first


def evaluate_circuit(c: Circuit, assignment: Mapping[str, int]) -> list[int]:
    """Gate-level evaluation of one assignment; returns the output bits."""
    row = {name: 1 if int(assignment[name]) else 0 for name in c.inputs}
    return _evaluate(c, row, 1)


def bdd_function_table(mgr, f: int) -> int:
    """Truth-table mask of a BDD node over all manager variables.

    Independent of the ite path: a bottom-up Shannon expansion over the
    node graph, ``table(v) = (x & table(high)) | (~x & table(low))``.
    """
    n = mgr.var_count
    if n > TABLE_CAP:
        raise ValueError(f"{n} variables exceed the truth-table cap of {TABLE_CAP}")
    columns = [input_pattern(i, n) for i in range(n)]
    return _bdd_columns(mgr, [f], columns, (1 << (1 << n)) - 1)[0]


def _bdd_columns(mgr, roots, columns: list[int], full: int) -> list[int]:
    """The columns of the BDDs ``roots`` when variable ``i`` takes
    ``columns[i]``; ``full`` has a 1 in every row."""
    memo = {0: 0, 1: full}
    for u, var, hi, lo in mgr.nodes(roots):  # ascending handles: children first
        x = columns[var]
        memo[u] = (x & memo[hi]) | ((x ^ full) & memo[lo])
    return [memo[f] for f in roots]
