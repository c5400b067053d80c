"""Acceptance suite: one test per criterion, exact tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import random
import time

from bddcheck import (EQUIVALENT, Circuit, Gate, Manager, NOT_EQUIVALENT,
                      check_equivalence, circuit_truth_table,
                      decompose_multi_input, evaluate_circuit, expand_mux,
                      parse, roundtrip_verify, serialize, simulate,
                      tables_equal, top_variable_probe)
from bddcheck import generators
from bddcheck.cli import main as cli_main
from bddcheck.generators import (array_multiplier, demorgan_rewrite,
                                 mutate_gate, random_bdd, random_dag_circuit,
                                 random_tree_circuit)
from bddcheck.oracle import bdd_function_table, input_pattern
from bddcheck.simulate import CSV_HEADER


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_tree_linearity():
    """Fanout-free circuits under DFS order: the simulation builds every
    output from exactly one node per support variable, at every size,
    with zero tolerance; the full sweep stays under 10 seconds."""
    t0 = time.monotonic()
    violations = []
    created_excess = []
    checked = 0
    for n in (16, 64, 256, 1024):
        for seed in range(100):
            c = random_tree_circuit(n, seed=seed)
            res = simulate(c)          # DFS order is the default
            po = c.outputs[0]
            size = res.stats.per_signal_size[po]
            support = res.manager.support(res.signal_bdds[po])
            checked += 1
            if size != n or len(support) != n:
                violations.append((n, seed, size, len(support)))
            created_excess.append(res.stats.created_total - n)
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 10.0
    report(1, ok,
           f"{checked} trees, output node count == n == |support| in all; "
           f"arena overhead beyond the final n nodes: "
           f"min {min(created_excess)}, max {max(created_excess)}; "
           f"sweep {elapsed:.1f}s (< 10s)")
    assert not violations, violations[:5]
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_fresh_top_variable_probes():
    """200 seeded random operands over 12 variables, all four gate kinds
    and both literal polarities: at most size(g)+1 new nodes and
    2*size(g)+2 ite entries per apply; zero violations."""
    violations = []
    probes = 0
    for case in range(200):
        m = Manager(13)                     # variable 0 is the fresh top
        g = random_bdd(m, seed=20_000 + case, variables=range(1, 13))
        sz = m.size(g)
        for op in ("and", "or", "nand", "nor"):
            for positive in (True, False):
                r = top_variable_probe(m, g, 0, op, positive)
                probes += 1
                if r.new_nodes > sz + 1 or r.ite_entries > 2 * sz + 2:
                    violations.append((case, op, positive, sz,
                                       r.new_nodes, r.ite_entries))
    report(2, not violations,
           f"{probes} probes over 200 operands: new nodes <= size+1 and "
           f"entries <= 2*size+2 in all")
    assert not violations, violations[:5]


def test_criterion_3_ite_product_bound():
    """500 seeded random triples over <= 10 variables on fresh computed
    tables: non-memoized recursive entries and the result size stay
    within (|F|+2)(|G|+2)(|H|+2); zero violations."""
    rng = random.Random(30_000)
    violations = []
    m = Manager(10)
    pool = [m.var(i) for i in range(10)]
    for _ in range(300):
        op = rng.choice(("and", "or", "xor", "nand", "nor"))
        pool.append(m.apply(op, (rng.choice(pool), rng.choice(pool))))
    for trial in range(500):
        f, g, h = (rng.choice(pool) for _ in range(3))
        bound = (m.size(f) + 2) * (m.size(g) + 2) * (m.size(h) + 2)
        m.clear_computed_cache()
        calls0 = m.ite_calls
        r = m.ite(f, g, h)
        entries = m.ite_calls - calls0
        if entries > bound or m.size(r) > bound:
            violations.append((trial, entries, m.size(r), bound))
    report(3, not violations,
           "500 fresh-table triples: entries and result size within "
           "(|F|+2)(|G|+2)(|H|+2)")
    assert not violations, violations[:5]


def test_criterion_4_miter_soundness_completeness():
    """500 circuit pairs with <= 12 inputs: 250 identical modulo
    restructuring and 250 single-gate mutants; the verdict matches the
    truth-table oracle in 100% of cases, every inequivalence carries a
    replay-validated counterexample, and the suite runs under 60 s."""
    t0 = time.monotonic()
    rng = random.Random(40_000)
    mismatches = []
    bad_cex = []
    neq_count = 0
    for pair in range(500):
        n = rng.randint(3, 12)
        base = random_dag_circuit(n, rng.randint(4, 30),
                                  seed=rng.randrange(10 ** 9),
                                  n_outputs=rng.randint(1, 4))
        if pair % 2 == 0:
            other = base
            for step in rng.sample(("decompose", "mux", "demorgan"),
                                   rng.randint(1, 3)):
                if step == "decompose":
                    other = decompose_multi_input(other)
                elif step == "mux":
                    other = expand_mux(other)
                else:
                    other = demorgan_rewrite(other,
                                             seed=rng.randrange(10 ** 9))
        else:
            other = mutate_gate(base, seed=rng.randrange(10 ** 9))
        truth_equal, _ = tables_equal(circuit_truth_table(base),
                                      circuit_truth_table(other))
        outcome = check_equivalence(base, other)
        if (outcome.verdict == EQUIVALENT) != truth_equal:
            mismatches.append(pair)
            continue
        if outcome.verdict == NOT_EQUIVALENT:
            neq_count += 1
            if (evaluate_circuit(base, outcome.counterexample)
                    == evaluate_circuit(other, outcome.counterexample)):
                bad_cex.append(pair)
    elapsed = time.monotonic() - t0
    ok = not mismatches and not bad_cex and elapsed < 60.0
    report(4, ok,
           f"500 pairs: verdicts match the oracle in all; "
           f"{neq_count} inequivalences all replay-validated; "
           f"{elapsed:.1f}s (< 60s)")
    assert not mismatches, mismatches[:5]
    assert not bad_cex, bad_cex[:5]
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_bdd_circuit_roundtrip():
    """50 seeded random 12-variable BDDs expanded with standard gates:
    node-for-node round trip with zero violations, inverter signals of
    size 1, AND signals within child+1, select-independent data inputs,
    and total creation within 5*s*(s+2)."""
    failures = []
    max_ratio = 0.0
    sizes = []
    for case in range(50):
        m = Manager(12)
        root = random_bdd(m, seed=50_000 + case)
        sizes.append(m.size(root))
        rep = roundtrip_verify(m, [root], "gates")
        s = rep.original_size
        envelope = 5 * s * (s + 2)
        if not rep.ok or rep.created_total > envelope:
            failures.append((case, rep.violations[:3], rep.created_total,
                             envelope))
        if envelope:
            max_ratio = max(max_ratio, rep.created_total / envelope)
    report(5, not failures,
           f"50 round trips (sizes {min(sizes)}..{max(sizes)}): zero "
           f"violations; creation at most {max_ratio:.2f}x of the "
           f"5*s*(s+2) envelope")
    assert not failures, failures[:3]


def test_criterion_6_canonicity_and_semantics():
    """1000 seeded random construction sequences over <= 10 variables:
    oracle-equal functions land on identical references, and evaluation
    agrees with the oracle on every row."""
    rng = random.Random(60_000)
    n = 10
    rows = 1 << n
    full = (1 << rows) - 1
    m = Manager(n)
    patterns = [input_pattern(i, n) for i in range(n)]
    pool = [(m.var(i), patterns[i]) for i in range(n)]
    ref_of_mask = {}
    clashes = []
    mask_mismatches = []
    results = []
    for step in range(1000):
        op = rng.choice(("and", "or", "xor", "nand", "nor", "inv", "ite"))
        if op == "inv":
            (a, ma) = rng.choice(pool)
            ref = m.inv(a)
            mask = ma ^ full
        elif op == "ite":
            (f, mf), (g, mg), (h, mh) = (rng.choice(pool) for _ in range(3))
            ref = m.ite(f, g, h)
            mask = (mf & mg) | ((mf ^ full) & mh)
        else:
            (a, ma), (b, mb) = rng.choice(pool), rng.choice(pool)
            ref = m.apply(op, (a, b))
            mask = {"and": ma & mb, "or": ma | mb, "xor": ma ^ mb,
                    "nand": full ^ (ma & mb), "nor": full ^ (ma | mb)}[op]
        pool.append((ref, mask))
        results.append((ref, mask))
        if bdd_function_table(m, ref) != mask:
            mask_mismatches.append(step)
        if ref_of_mask.setdefault(mask, ref) != ref:
            clashes.append(step)
    # eval agreement row by row on sampled functions
    eval_bad = 0
    for ref, mask in rng.sample(results, 50):
        for r in range(rows):
            a = [(r >> i) & 1 for i in range(n)]
            if m.eval(ref, a) != (mask >> r) & 1:
                eval_bad += 1
    ok = not clashes and not mask_mismatches and not eval_bad
    report(6, ok,
           f"1000 constructions: {len(ref_of_mask)} distinct functions, "
           f"all duplicates reference-identical; eval checked on "
           f"{50 * rows} rows with 0 disagreements")
    assert not mask_mismatches, mask_mismatches[:5]
    assert not clashes, clashes[:5]
    assert eval_bad == 0


def test_criterion_7_netlist_round_trip():
    """parse(serialize(c)) is the identity on 200 generated circuits and
    serialize(parse(doc)) is idempotent from any accepted document."""
    rng = random.Random(70_000)
    identity_failures = []
    for case in range(200):
        if case % 2 == 0:
            c = random_tree_circuit(rng.randint(3, 24),
                                    seed=rng.randrange(10 ** 9))
        else:
            c = random_dag_circuit(rng.randint(2, 10), rng.randint(3, 40),
                                   seed=rng.randrange(10 ** 9),
                                   n_outputs=rng.randint(1, 3))
        if parse(serialize(c)) != c:
            identity_failures.append(case)
    messy = [
        "# x\n.inputs   a  b\n\n.outputs o\n.gate nand o b a\n.end\n",
        ".inputs a b\r\n.outputs o\r\n.gate xor o a b\r\n.end",
        ".inputs s\n.outputs o\n.const z 0\n.gate mux o s z s\n.end\n# t\n",
        ".inputs x\n.outputs o\n.gate inv o t\n.gate inv t x\n.end\n",
    ]
    idempotence_failures = []
    for i, doc in enumerate(messy):
        once = serialize(parse(doc))
        if serialize(parse(once)) != once:
            idempotence_failures.append(i)
    ok = not identity_failures and not idempotence_failures
    report(7, ok, "200 circuits round-trip to identity; "
                  "serialize/parse idempotent from messy documents")
    assert not identity_failures, identity_failures[:5]
    assert not idempotence_failures


def test_criterion_8_multiplier_blowup_witness(tmp_path, capsys):
    """A 16-bit array multiplier exceeds a 2^20-node capacity: the CLI
    exits with code 2 and leaves a partial trace.  A smoke witness of
    the known exponential blow-up, not a growth-curve reproduction."""
    net_path = tmp_path / "mult16.net"
    net_path.write_text(serialize(array_multiplier(16)))
    out_path = tmp_path / "partial.csv"
    code = cli_main(["simulate", str(net_path), "--order", "declared",
                     "--capacity", str(1 << 20),
                     "--format", "csv", "--out", str(out_path)])
    err = capsys.readouterr().err
    text = out_path.read_text()
    lines = text.strip().split("\n")
    ok = (code == 2 and text.startswith(CSV_HEADER) and len(lines) > 33
          and "capacity abort" in err)
    report(8, ok,
           f"exit code {code}, partial trace of {len(lines) - 1} signals, "
           f"abort message names the failing signal")
    assert code == 2
    assert text.startswith(CSV_HEADER)
    assert len(lines) > 33          # at least the inputs plus some gates
    assert "capacity abort" in err


def gate_work(stats, circuit):
    """``(ite entries, new nodes, sum of input sizes)`` for each gate row:
    the counters' increase from the row before, and the bound."""
    inputs = {g.output: g.inputs for g in circuit.gates}
    size = stats.per_signal_size
    return [(row.ite_entries_cum - prev.ite_entries_cum,
             row.created_cum - prev.created_cum,
             sum(size[s] for s in inputs[row.signal]))
            for prev, row in zip(stats.rows, stats.rows[1:])
            if row.signal in inputs]


def and_chain(n):
    """The left-deep AND chain over n inputs: a tree."""
    inputs = tuple(f"x{i}" for i in range(n))
    gates = [Gate("and", "a1", inputs[:2])]
    for k in range(2, n):
        gates.append(Gate("and", f"a{k}", (f"a{k - 1}", inputs[k])))
    return Circuit(inputs, (f"a{n - 1}",), tuple(gates))


def test_criterion_9_gate_work_within_operand_sizes():
    """The time half of the claim, per gate and with zero tolerance: on
    75 seeded trees under DFS order and on criterion 5's 50 gates-mode
    round trips, each gate's ite entries and new nodes are each at most
    the sum of its input signals' sizes.  Per-gate work bounds no total
    linearly: the left-deep AND chain, a tree, creates n(n-1)/2 nodes.
    The bound is not vacuous: array_multiplier(6) breaks it."""
    t0 = time.monotonic()
    families = {"tree": [], "round-trip": []}
    for n in (16, 64, 256):
        for seed in range(25):
            c = random_tree_circuit(n, seed=seed)
            families["tree"] += gate_work(simulate(c).stats, c)
    for case in range(50):
        m = Manager(12)
        rep = roundtrip_verify(m, [random_bdd(m, seed=50_000 + case)], "gates")
        families["round-trip"] += gate_work(rep.stats, rep.circuit)
    elapsed = time.monotonic() - t0
    violations = {name: [w for w in work if max(w[:2]) > w[2]]
                  for name, work in families.items()}
    exact = {name: sum(max(w[:2]) == w[2] for w in work)
             for name, work in families.items()}
    chain_expected = {n: n * (n - 1) // 2 for n in (10, 50, 200)}
    chain_created = {n: simulate(and_chain(n)).stats.created_total
                     for n in chain_expected}
    mult = array_multiplier(6)
    mult_work = gate_work(simulate(mult).stats, mult)
    mult_broken = sum(max(w[:2]) > w[2] for w in mult_work)
    ok = (not any(violations.values()) and chain_created == chain_expected
          and (mult_broken, len(mult_work)) == (44, 168))
    report(9, ok,
           ", ".join(f"{len(families[k])} {k} gates within the bound "
                     f"({exact[k]} exactly)" for k in families)
           + f" in {elapsed:.1f}s; AND chain created {chain_created}; "
           f"array_multiplier(6) breaks it on {mult_broken} of "
           f"{len(mult_work)} gates")
    assert not any(violations.values()), {k: v[:5]
                                          for k, v in violations.items()}
    assert chain_created == chain_expected
    assert (mult_broken, len(mult_work)) == (44, 168)


def projections(m, nodes):
    """Nodes of the form (x, 1, 0): the input's own node, made before
    the first gate."""
    return sum(1 for u in nodes if (m.high(u), m.low(u)) == (1, 0))


def test_criterion_10_roundtrip_work_linear():
    """The round trip's total work is linear in the BDD, with zero
    tolerance: on criterion 5's 50 BDDs, mux mode creates exactly s
    minus the projection nodes, and gates mode creates and enters at
    most 3s + |support|.  The multi-root outputs of array_multiplier(4..6)
    under DFS order are pinned exactly."""
    # Mux mode: under the BDD's own order, mux(x, low, high) of two
    # signals below x's level is one ite entry that makes node (x, high,
    # low), a new node unless it is a projection the inputs already made.
    # Gates mode: inv(x) is one new node per support variable, and
    # and(not x, low), and(x, high) and their or are one ite entry and at
    # most one new node each, three per BDD node.
    failures = []
    worst = 0.0
    for case in range(50):
        m = Manager(12)
        root = random_bdd(m, seed=50_000 + case)
        s = m.size(root)
        mux = roundtrip_verify(m, [root], "mux")
        gates = roundtrip_verify(m, [root], "gates")
        bound = 3 * s + len(m.support(root))
        work = (gates.created_total, gates.stats.ite_entries_total)
        if (mux.created_total != s - projections(m, m.reachable(root))
                or max(work) > bound):
            failures.append((case, s, mux.created_total, work, bound))
        worst = max(worst, max(work) / bound)
    multi = {}
    for k in (4, 5, 6):
        c = array_multiplier(k)
        res = simulate(c, track_live=False)
        m = res.manager
        roots = [res.signal_bdds[po] for po in c.outputs]
        nodes = m.reachable(roots)
        mux = roundtrip_verify(m, roots, "mux")
        gates = roundtrip_verify(m, roots, "gates")
        multi[k] = (len(nodes), projections(m, nodes), mux.created_total,
                    gates.created_total, gates.stats.ite_entries_total)
    expected = {4: (178, 7, 171, 383, 383), 5: (578, 9, 569, 1259, 1259),
                6: (1792, 11, 1781, 3932, 3932)}
    report(10, not failures and multi == expected,
           f"50 round trips: mux mode creates s minus the projections, "
           f"gates mode at most {worst:.2f}x of 3s+|support|; "
           f"array_multiplier(4..6) (s, projections, mux created, gates "
           f"created, gates ite entries) = {multi}")
    assert not failures, failures[:3]
    assert multi == expected


def cone_inputs(c):
    """The number of inputs below each signal of a tree."""
    leaves = dict.fromkeys(c.inputs, 1)
    for g in c.gates:                      # the generators declare children first
        leaves[g.output] = sum(leaves[s] for s in g.inputs)
    return leaves


def path_length(c):
    """L: the sum, over the inputs of a tree, of the gates above each."""
    leaves = cone_inputs(c)
    return sum(leaves[s] for g in c.gates for s in g.inputs)


def test_criterion_11_tree_totals_within_path_length():
    """On criterion 9's 75 trees under DFS order, the nodes created and
    the ite entries of the whole run are each at most the total path
    length L, with zero tolerance.  The left-deep AND chain creates
    exactly L - (n-1) nodes, so the bound is tight up to n."""
    # By criterion 1 a tree signal has one node per input below it, so a
    # gate's input sizes sum to the input count below it; criterion 9's
    # per-gate bound, summed over the gates, is L.
    failures = []
    worst = 0.0
    for n in (16, 64, 256):
        for seed in range(25):
            c = random_tree_circuit(n, seed=seed)
            stats = simulate(c).stats
            work = (stats.created_total, stats.ite_entries_total)
            length = path_length(c)
            if max(work) > length:
                failures.append((n, seed, work, length))
            worst = max(worst, max(work) / length)
    chain = {n: (simulate(and_chain(n)).stats.created_total,
                 path_length(and_chain(n)) - (n - 1)) for n in (10, 50, 200)}
    exact = all(created == want for created, want in chain.values())
    report(11, not failures and exact,
           f"75 trees: nodes created and ite entries at most {worst:.2f}x "
           f"of L; AND chain (created, L-(n-1)) = {chain}")
    assert not failures, failures[:3]
    assert exact, chain


def test_criterion_12_multiplier_growth_per_bit():
    """Product bit k-1 of array_multiplier(k), for k = 4..8, under the
    DFS order and the declared order: the sizes are pinned exactly and
    grow at least 2x per bit.  This is a measured curve, not a proof;
    Bryant (IEEE Trans. Computers, 1991) proves that this bit needs at
    least 2^(k/8) nodes under every order."""
    sizes = {"dfs": [], "declared": []}
    for k in range(4, 9):
        c = array_multiplier(k)
        for name, order in (("dfs", None), ("declared", range(2 * k))):
            stats = simulate(c, order, track_live=False).stats
            sizes[name].append(stats.per_signal_size[c.outputs[k - 1]])
    expected = {"dfs": [34, 71, 167, 379, 926],
                "declared": [41, 97, 236, 567, 1367]}
    growth = min(b / a for row in sizes.values() for a, b in zip(row, row[1:]))
    report(12, sizes == expected and growth >= 2,
           f"product bit k-1 for k = 4..8: {sizes}, at least {growth:.2f}x "
           f"per bit")
    assert sizes == expected
    assert growth >= 2


def test_criterion_13_tree_space():
    """The space half of the tree claim, with zero tolerance: on
    criterion 9's 75 trees under DFS order, every gate signal has
    exactly one node per input of its cone, and the live count peaks at
    most 2n (n = 16, seed 0 reaches it).  On the left-deep AND chain the
    sizes are 2..n and the peak is exactly 2n-1: the n input projections
    and the output's other n-1 nodes."""
    failures = []
    worst = 0.0
    signals = 0
    peaks = {}
    for n in (16, 64, 256):
        for seed in range(25):
            c = random_tree_circuit(n, seed=seed)
            stats = simulate(c).stats
            cone = cone_inputs(c)
            gate_rows = stats.rows[n:]
            signals += len(gate_rows)
            wrong = [(r.signal, r.size, cone[r.signal]) for r in gate_rows
                     if r.size != cone[r.signal]]
            if wrong or stats.peak_live > 2 * n:
                failures.append((n, seed, wrong[:3], stats.peak_live))
            peaks[n, seed] = stats.peak_live
            worst = max(worst, stats.peak_live / n)
    chain = {}
    for n in (10, 50, 200):
        stats = simulate(and_chain(n)).stats
        chain[n] = ([r.size for r in stats.rows[n:]] == list(range(2, n + 1)),
                    stats.peak_live)
    expected_chain = {n: (True, 2 * n - 1) for n in (10, 50, 200)}
    ok = not failures and peaks[16, 0] == 32 and chain == expected_chain
    report(13, ok,
           f"75 trees: all {signals} gate signals have one node per cone "
           f"input; peak live at most {worst:.2f}n (n = 16, seed 0: "
           f"{peaks[16, 0]}); AND chain (sizes 2..n, peak live) = {chain}")
    assert not failures, failures[:3]
    assert peaks[16, 0] == 32
    assert chain == expected_chain


def xor_envelope(c):
    """For each signal of a tree, the sum over the inputs i of its cone
    of 2^x(i), where x(i) counts the xor gates from i up to the signal."""
    env = dict.fromkeys(c.inputs, 1)
    for g in c.gates:                      # the generators declare children first
        e = sum(env[s] for s in g.inputs)
        env[g.output] = 2 * e if g.kind == "xor" else e
    return env


def test_criterion_14_xor_trees(monkeypatch):
    """Where the tree claim stops: criterion 9's 75 trees with xor added
    to the basis, under DFS order.  Every gate signal has at most
    sum 2^x(i) nodes over the inputs i of its cone, x(i) counting the xor
    gates between i and the signal, with zero tolerance; without xor
    this is criterion 13's one node per input.  Criterion 9's per-gate
    bound still holds, but criterion 11's totals do not: n = 64, seed 2
    enters 1,098 triples against L = 703."""
    monkeypatch.setattr(generators, "TREE_KINDS",
                        generators.TREE_KINDS + ("xor",))
    signals = exact = 0
    failures = []
    beyond_length = {}
    for n in (16, 64, 256):
        for seed in range(25):
            c = random_tree_circuit(n, seed=seed)
            stats = simulate(c).stats
            env = xor_envelope(c)
            gate_rows = stats.rows[n:]
            signals += len(gate_rows)
            exact += sum(r.size == env[r.signal] for r in gate_rows)
            over = [(r.signal, r.size, env[r.signal]) for r in gate_rows
                    if r.size > env[r.signal]]
            heavy = [w for w in gate_work(stats, c) if max(w[:2]) > w[2]]
            if over or heavy:
                failures.append((n, seed, over[:3], heavy[:3]))
            work = (stats.created_total, stats.ite_entries_total)
            if max(work) > path_length(c):
                beyond_length[n, seed] = (*work, path_length(c))
    ok = (not failures and (signals, exact) == (10_893, 6_149)
          and beyond_length.get((64, 2)) == (1_096, 1_098, 703))
    report(14, ok,
           f"75 xor trees: all {signals} gate signals within sum 2^x(i) "
           f"({exact} exactly) and every gate within criterion 9's bound; "
           f"{len(beyond_length)} trees beyond L, n = 64, seed 2 "
           f"(created, ite entries, L) = {beyond_length.get((64, 2))}")
    assert not failures, failures[:3]
    assert (signals, exact) == (10_893, 6_149)
    assert beyond_length.get((64, 2)) == (1_096, 1_098, 703)
