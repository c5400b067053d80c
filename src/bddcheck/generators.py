"""Deterministic, seed-driven circuit and BDD generators.

Everything here is reproducible: the same arguments and seed give the
same artifact, byte for byte once serialized.
"""

from __future__ import annotations

import random
from typing import Sequence

from .bdd import Manager, ONE, ZERO
from .circuit import Circuit, Gate, fresh_name

TREE_KINDS = ("and", "or", "nand", "nor")
DAG_KINDS = ("and", "or", "nand", "nor", "xor", "inv", "buf", "mux")


def random_tree_circuit(n: int, depth: int = 0, seed: int = 0,
                        inv_prob: float = 0.15) -> Circuit:
    """Random fanout-free circuit over and/or/nand/nor/inv.

    Exactly ``n`` inputs, each used once, one output.  ``depth`` caps
    the nesting depth: beyond the cap, subtrees split evenly; 0 leaves
    the shape to the RNG.
    """
    if n < 2:
        raise ValueError("need at least 2 inputs")
    rng = random.Random(seed)
    inputs = tuple(f"x{i + 1}" for i in range(n))
    gates: list[Gate] = []
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"g{counter[0]}"

    def build(lo: int, hi: int, level: int) -> str:
        if hi - lo == 1:
            sig = inputs[lo]
        else:
            if depth and level >= depth:
                split = lo + (hi - lo) // 2
            else:
                split = rng.randint(lo + 1, hi - 1)
            left = build(lo, split, level + 1)
            right = build(split, hi, level + 1)
            sig = fresh()
            gates.append(Gate(rng.choice(TREE_KINDS), sig, (left, right)))
        if rng.random() < inv_prob:
            out = fresh()
            gates.append(Gate("inv", out, (sig,)))
            sig = out
        return sig

    root = build(0, n, 0)
    return Circuit(inputs, (root,), tuple(gates))


def random_dag_circuit(n_inputs: int, n_gates: int, seed: int = 0,
                       n_outputs: int = 1,
                       kinds: Sequence[str] = DAG_KINDS) -> Circuit:
    """Random combinational DAG; gates may share operands and fan out."""
    if n_inputs < 1 or n_gates < 1:
        raise ValueError("need at least one input and one gate")
    rng = random.Random(seed)
    inputs = tuple(f"x{i + 1}" for i in range(n_inputs))
    pool = list(inputs)
    gates = []
    for k in range(n_gates):
        kind = rng.choice(list(kinds))
        if kind in ("inv", "buf"):
            ins = (rng.choice(pool),)
        elif kind == "mux":
            ins = tuple(rng.choice(pool) for _ in range(3))
        else:
            ins = tuple(rng.choice(pool) for _ in range(rng.randint(2, 3)))
        out = f"g{k + 1}"
        gates.append(Gate(kind, out, ins))
        pool.append(out)
    gate_outs = [g.output for g in gates]
    outputs = [gate_outs[-1]]
    extra = min(n_outputs - 1, len(gate_outs) - 1)
    if extra > 0:
        outputs += rng.sample(gate_outs[:-1], extra)
    return Circuit(inputs, tuple(outputs), tuple(gates))


def array_multiplier(bits: int = 16) -> Circuit:
    """Unsigned array multiplier: ``bits`` x ``bits`` -> ``2*bits`` product.

    Partial products feed a ripple array of full adders.  The BDDs of
    the middle product bits are exponential in ``bits`` under every
    variable order, which makes this the standard blow-up witness.
    """
    if bits < 2:
        raise ValueError("need at least 2 bits")
    a = [f"a{i}" for i in range(bits)]
    b = [f"b{i}" for i in range(bits)]
    gates: list[Gate] = []
    counter = [0]

    def fresh(tag: str) -> str:
        counter[0] += 1
        return f"{tag}_{counter[0]}"

    def full_adder(x: str, y: str, cin: str) -> tuple[str, str]:
        s1 = fresh("s")
        gates.append(Gate("xor", s1, (x, y)))
        s = fresh("sum")
        gates.append(Gate("xor", s, (s1, cin)))
        c1 = fresh("c")
        gates.append(Gate("and", c1, (x, y)))
        c2 = fresh("c")
        gates.append(Gate("and", c2, (s1, cin)))
        cout = fresh("cout")
        gates.append(Gate("or", cout, (c1, c2)))
        return s, cout

    def half_adder(x: str, y: str) -> tuple[str, str]:
        s = fresh("sum")
        gates.append(Gate("xor", s, (x, y)))
        c = fresh("cout")
        gates.append(Gate("and", c, (x, y)))
        return s, c

    def pp(i: int, j: int) -> str:
        out = f"pp{i}_{j}"
        gates.append(Gate("and", out, (a[i], b[j])))
        return out

    outputs: list[str] = []
    # row 0 contributes the partial products of b0 directly
    row = [pp(i, 0) for i in range(bits)]
    outputs.append(row[0])
    row = row[1:]
    for j in range(1, bits):
        adds = [pp(i, j) for i in range(bits)]
        new_row = []
        carry = None
        for pos in range(bits):
            x = adds[pos]
            y = row[pos] if pos < len(row) else None
            if y is None and carry is None:
                s, carry = x, None
                new_row.append(s)
                continue
            if y is None:
                s, carry = half_adder(x, carry)
            elif carry is None:
                s, carry = half_adder(x, y)
            else:
                s, carry = full_adder(x, y, carry)
            new_row.append(s)
        if carry is not None:
            new_row.append(carry)
        outputs.append(new_row[0])
        row = new_row[1:]
    outputs.extend(row)
    return Circuit(tuple(a + b), tuple(outputs), tuple(gates))


def demorgan_rewrite(c: Circuit, seed: int = 0, prob: float = 0.5) -> Circuit:
    """Equivalent restructuring of random 2-input and/or/nand/nor gates.

    ``and(a,b)`` becomes ``nor(inv(a), inv(b))`` and so on; the function
    is preserved, the structure is not.
    """
    rng = random.Random(seed)
    taken = set(c.signals)
    swap = {"and": "nor", "or": "nand", "nand": "or", "nor": "and"}
    gates = []
    for g in c.gates:
        if g.kind in swap and len(g.inputs) == 2 and rng.random() < prob:
            na = fresh_name(f"{g.output}__dm0", taken)
            nb = fresh_name(f"{g.output}__dm1", taken)
            gates.append(Gate("inv", na, (g.inputs[0],)))
            gates.append(Gate("inv", nb, (g.inputs[1],)))
            gates.append(Gate(swap[g.kind], g.output, (na, nb)))
        else:
            gates.append(Gate(g.kind, g.output, g.inputs))
    return Circuit(c.inputs, c.outputs, tuple(gates), c.constants)


def mutate_gate(c: Circuit, seed: int = 0) -> Circuit:
    """Change the kind of one random gate (mux gates swap data inputs)."""
    rng = random.Random(seed)
    idx = rng.randrange(len(c.gates))
    gates = list(c.gates)
    g = gates[idx]
    if g.kind == "mux":
        sel, e, t = g.inputs
        gates[idx] = Gate("mux", g.output, (sel, t, e))
    elif g.kind in ("inv", "buf"):
        gates[idx] = Gate("buf" if g.kind == "inv" else "inv",
                          g.output, g.inputs)
    else:
        choices = [k for k in ("and", "or", "nand", "nor", "xor")
                   if k != g.kind]
        gates[idx] = Gate(rng.choice(choices), g.output, g.inputs)
    return Circuit(c.inputs, c.outputs, tuple(gates), c.constants)


def random_bdd(mgr: Manager, seed: int = 0,
               variables: Sequence[int] | None = None) -> int:
    """Random non-terminal BDD from a seeded formula tree.

    Builds a random binary expression tree over the given variables
    (all of them by default), each literal possibly complemented, then
    mixes in a second tree.  This yields structurally rich functions
    rather than the near-constants a flat op soup collapses to.
    """
    rng = random.Random(seed)
    if variables is None:
        variables = range(mgr.var_count)
    variables = list(variables)
    if not variables:
        raise ValueError("need at least one variable")

    def tree() -> int:
        lits = []
        for i in variables:
            v = mgr.var(i)
            lits.append(mgr.inv(v) if rng.random() < 0.5 else v)
        rng.shuffle(lits)

        def build(lo, hi):
            if hi - lo == 1:
                return lits[lo]
            split = rng.randint(lo + 1, hi - 1)
            op = rng.choice(("and", "or", "xor", "nand", "nor"))
            return mgr.apply(op, (build(lo, split), build(split, hi)))

        return build(0, len(lits))

    f = tree()
    if len(variables) > 1:
        f = mgr.apply(rng.choice(("xor", "or", "and")), (f, tree()))
    if f in (ZERO, ONE):
        f = mgr.apply("xor", (f, mgr.var(variables[0])))
    return f
