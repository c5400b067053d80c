"""Core BDD engine: canonicity, reduction, ordering, ite semantics and
the measured cost bounds."""

import gc
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from bddcheck import CapacityError, Manager, ONE, ZERO, bdd, simulate
from bddcheck.generators import (random_bdd, random_dag_circuit,
                                 random_tree_circuit)
from bddcheck.oracle import bdd_function_table


def brute_eval(mgr, f, assignment):
    """Independent recursive Shannon evaluation (no edge following)."""
    if f <= 1:
        return f
    i = mgr.var_index(f)
    child = mgr.high(f) if assignment[i] else mgr.low(f)
    return brute_eval(mgr, child, assignment)


def unpack(mgr, key):
    """``(a, b, c)`` of a table key ``c << 2w | b << w | a`` (see ``bdd``)."""
    w = (mgr.node_limit + 1).bit_length()
    mask = (1 << w) - 1
    return key & mask, key >> w & mask, key >> 2 * w


def all_assignments(n):
    for r in range(1 << n):
        yield [(r >> i) & 1 for i in range(n)]


def random_node(mgr, rng, pool):
    op = rng.choice(("and", "or", "xor", "nand", "nor"))
    r = mgr.apply(op, (rng.choice(pool), rng.choice(pool)))
    pool.append(r)
    return r


class TestManagerConstruction:
    def test_empty_universe(self):
        m = Manager(1, [0])
        assert m.created_count == 0
        assert m.unique_table_size() == 0
        assert repr(m) == "<Manager vars=1 nodes=0 ite_calls=0>"

    def test_reversal_order_places_var0_at_bottom(self):
        m = Manager(4, [3, 2, 1, 0])
        assert m.level_of_var(0) == 3
        assert m.var_order() == [3, 2, 1, 0]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="non-negative"):
            Manager(-1)
        with pytest.raises(ValueError):
            Manager(2, [0, 0])
        with pytest.raises(ValueError):
            Manager(2, [0, 2])
        with pytest.raises(ValueError):
            Manager(3, [0, 1])

    def test_order_entries_are_integers(self):
        m = Manager(2, [True, False])
        assert m.var_order() == [1, 0]
        assert all(type(i) is int for i in m.var_order())
        # floats pass the permutation check and would fail inside it
        with pytest.raises(TypeError):
            Manager(2, [1.0, 0.0])


class TestVar:
    def test_var_is_canonical(self):
        m = Manager(2)
        assert m.var(0) == m.var(0)

    def test_var_creates_exactly_one_node(self):
        m = Manager(3)
        before = m.created_count
        m.var(1)
        assert m.created_count == before + 1
        m.var(1)
        assert m.created_count == before + 1

    def test_var_semantics(self):
        m = Manager(2)
        x0 = m.var(0)
        assert m.eval(x0, {0: 1}) == 1
        assert m.eval(x0, {0: 0}) == 0

    def test_var_out_of_range(self):
        m = Manager(2)
        with pytest.raises(ValueError):
            m.var(2)

    def test_variable_index_is_checked_as_an_integer(self):
        # a float passes the range check; it must fail there, not in a
        # table lookup behind it
        m = Manager(2)
        x0 = m.var(0)
        not_int = "'float' object cannot be interpreted as an integer"
        with pytest.raises(TypeError, match=not_int):
            m.var(1.0)
        with pytest.raises(TypeError, match=not_int):
            m.cofactor(x0, 0.0, 1)
        with pytest.raises(ValueError, match="variable index 2 out of range"):
            m.cofactor(x0, 2, 1)
        assert m.var(True) == m.var(1)


class TestIteTerminalCases:
    def test_ite_true_returns_then(self):
        m = Manager(2)
        g, h = m.var(0), m.var(1)
        assert m.ite(ONE, g, h) == g

    def test_ite_false_returns_else(self):
        m = Manager(2)
        g, h = m.var(0), m.var(1)
        assert m.ite(ZERO, g, h) == h

    def test_ite_equal_branches(self):
        m = Manager(2)
        g = m.var(1)
        assert m.ite(m.var(0), g, g) == g
        assert m.support(m.ite(m.var(0), g, g)) == {1}

    def test_ite_projection_identity(self):
        m = Manager(2)
        x0 = m.var(0)
        assert m.ite(x0, ONE, ZERO) == x0

    def test_terminal_cases_cost_nothing(self):
        m = Manager(2)
        g = m.var(1)
        before = (m.created_count, m.ite_calls)
        m.ite(ONE, g, ZERO)
        m.ite(ZERO, g, g)
        m.ite(g, ONE, ZERO)
        assert (m.created_count, m.ite_calls) == before


class TestIteSemantics:
    def test_ite_matches_brute_force_on_random_triples(self):
        rng = random.Random(1234)
        m = Manager(6)
        pool = [m.var(i) for i in range(6)]
        for _ in range(25):
            f, g, h = (random_node(m, rng, pool) for _ in range(3))
            r = m.ite(f, g, h)
            for a in all_assignments(6):
                fa = brute_eval(m, f, a)
                want = brute_eval(m, g, a) if fa else brute_eval(m, h, a)
                assert brute_eval(m, r, a) == want

    def test_memoization_hits_do_not_recount(self):
        m = Manager(4)
        f, g, h = m.var(0), m.var(1), m.var(2)
        m.ite(f, g, h)
        calls = m.ite_calls
        m.ite(f, g, h)
        assert m.ite_calls == calls

    def test_computed_table_entries_recompute_to_stored_result(self):
        rng = random.Random(99)
        m = Manager(6)
        pool = [m.var(i) for i in range(6)]
        for _ in range(40):
            random_node(m, rng, pool)
        entries = list(m._cache.items())
        rng.shuffle(entries)
        for key, r in entries[:200]:
            f, g, h = unpack(m, key)
            tf = bdd_function_table(m, f)
            tg = bdd_function_table(m, g)
            th = bdd_function_table(m, h)
            full = (1 << (1 << 6)) - 1
            assert bdd_function_table(m, r) == (tf & tg) | ((tf ^ full) & th)


class TestApply:
    def test_and_with_noncontrolling_constant(self):
        m = Manager(2)
        g = m.var(1)
        assert m.apply("and", [ONE, g]) == g

    def test_and_with_controlling_constant(self):
        m = Manager(2)
        g = m.var(1)
        assert m.apply("and", [ZERO, g]) == ZERO

    def test_or_of_two_vars_has_two_nodes(self):
        m = Manager(2, [0, 1])
        f = m.apply("or", [m.var(0), m.var(1)])
        # enumeration of the 4 assignments forces a 2-node BDD: the
        # x0 test plus the shared x1 projection
        assert m.size(f) == 2

    def test_controlling_values_short_circuit(self):
        # cv on the first operand: no nodes, at most one ite entry
        # (xor on a 0 is no controlling value, but it decides as early)
        for op, cv in (("and", ZERO), ("or", ONE), ("nand", ZERO), ("nor", ONE),
                       ("xor", ZERO)):
            m = Manager(3)
            g = m.apply("and", [m.var(1), m.var(2)])
            before_nodes = m.created_count
            before_calls = m.ite_calls
            m.apply(op, [cv, g])
            assert m.created_count == before_nodes, op
            assert m.ite_calls - before_calls <= 1, op

    def test_apply_semantics_pointwise(self):
        rng = random.Random(7)
        m = Manager(8)
        pool = [m.var(i) for i in range(8)]
        for _ in range(30):
            random_node(m, rng, pool)
        samples = rng.sample(pool, 6)
        cases = {
            "and": lambda bits: int(all(bits)),
            "or": lambda bits: int(any(bits)),
            "nand": lambda bits: int(not all(bits)),
            "nor": lambda bits: int(not any(bits)),
            "xor": lambda bits: bits[0] ^ bits[1] ^ bits[2],
            "mux": lambda bits: bits[2] if bits[0] else bits[1],
        }
        ops = {op: m.apply(op, samples[:3]) for op in cases}
        for a in all_assignments(8):
            bits = [brute_eval(m, f, a) for f in samples[:3]]
            for op, want in cases.items():
                assert brute_eval(m, ops[op], a) == want(bits), op

    def test_multi_input_fold_is_left_associative(self):
        m = Manager(4)
        xs = [m.var(i) for i in range(4)]
        folded = m.apply("nand", xs)
        explicit = m.apply(
            "nand", [m.apply("and", [m.apply("and", [xs[0], xs[1]]), xs[2]]), xs[3]])
        assert folded == explicit

    def test_arity_errors(self):
        m = Manager(2)
        with pytest.raises(ValueError):
            m.apply("inv", [m.var(0), m.var(1)])
        with pytest.raises(ValueError):
            m.apply("and", [m.var(0)])
        with pytest.raises(ValueError):
            m.apply("mux", [m.var(0), m.var(1)])
        with pytest.raises(ValueError):
            m.apply("nop", [m.var(0), m.var(1)])


class TestCofactorEvalSizeSupport:
    def test_cofactor_of_projection(self):
        m = Manager(2)
        assert m.cofactor(m.var(0), 0, 1) == ONE
        assert m.cofactor(m.var(0), 0, 0) == ZERO

    def test_cofactor_vacuous(self):
        m = Manager(3)
        g = m.apply("xor", [m.var(0), m.var(2)])
        assert m.cofactor(g, 1, 0) == g
        assert m.cofactor(g, 1, 1) == g

    def test_cofactor_of_and(self):
        m = Manager(2)
        f = m.apply("and", [m.var(0), m.var(1)])
        assert m.cofactor(f, 0, 1) == m.var(1)
        assert m.cofactor(f, 0, 0) == ZERO

    def test_cofactor_matches_truth_table_restriction(self):
        rng = random.Random(55)
        m = Manager(5)
        pool = [m.var(i) for i in range(5)]
        for _ in range(15):
            f = random_node(m, rng, pool)
            i = rng.randrange(5)
            v = rng.randrange(2)
            r = m.cofactor(f, i, v)
            assert i not in m.support(r)
            for a in all_assignments(5):
                restricted = list(a)
                restricted[i] = v
                assert brute_eval(m, r, a) == brute_eval(m, f, restricted)

    def test_cofactor_makes_what_the_recursive_restriction_makes(self):
        def restrict(m, u, target, value, memo):
            if m.level(u) > target:
                return u
            if u not in memo:
                if m.level(u) == target:
                    memo[u] = m.high(u) if value else m.low(u)
                else:
                    memo[u] = m.make(m.var_index(u),
                                     restrict(m, m.high(u), target, value, memo),
                                     restrict(m, m.low(u), target, value, memo))
            return memo[u]

        for seed in range(20):
            n = 3 + seed % 5
            order = list(reversed(range(n))) if seed % 2 else None
            m, twin = Manager(n, order), Manager(n, order)
            f, g = random_bdd(m, seed), random_bdd(twin, seed)
            for i in range(n):
                for v in (0, 1):
                    made, twin_made = m.created_count, twin.created_count
                    r = m.cofactor(f, i, v)
                    s = restrict(twin, g, twin.level_of_var(i), v, {})
                    assert (m.created_count - made
                            == twin.created_count - twin_made)
                    assert bdd_function_table(m, r) == bdd_function_table(twin, s)

    def test_cofactor_on_the_top_variable_makes_nothing(self):
        m = Manager(6)
        f = random_bdd(m, seed=4)
        made = m.created_count
        assert m.cofactor(f, m.var_index(f), 1) == m.high(f)
        assert m.cofactor(f, m.var_index(f), 0) == m.low(f)
        assert m.created_count == made

    def test_eval_terminals(self):
        m = Manager(1)
        assert m.eval(ZERO, {}) == 0
        assert m.eval(ONE, {}) == 1

    def test_eval_and(self):
        m = Manager(2)
        f = m.apply("and", [m.var(0), m.var(1)])
        assert m.eval(f, [1, 1]) == 1
        assert m.eval(f, [1, 0]) == 0

    def test_eval_missing_variable(self):
        m = Manager(2)
        f = m.apply("and", [m.var(0), m.var(1)])
        with pytest.raises(ValueError):
            m.eval(f, {0: 1})

    def test_eval_agrees_with_recursive_expansion(self):
        rng = random.Random(2024)
        m = Manager(8)
        pool = [m.var(i) for i in range(8)]
        for _ in range(40):
            f = random_node(m, rng, pool)
            for _ in range(16):
                a = [rng.randrange(2) for _ in range(8)]
                assert m.eval(f, a) == brute_eval(m, f, a)

    def test_size_of_terminals_and_projections(self):
        m = Manager(2)
        assert m.size(ONE) == 0
        assert m.size(ZERO) == 0
        assert m.size(m.var(0)) == 1

    def test_support(self):
        m = Manager(4)
        assert m.support(ZERO) == set()
        assert m.support(m.var(3)) == {3}
        f = m.apply("or", [m.var(1), m.var(3)])
        assert m.support(f) == {1, 3}

    def test_nodes_read_what_the_checked_accessors_read(self):
        order = list(range(9))
        random.Random(5).shuffle(order)
        m = Manager(9, order)
        roots = [random_bdd(m, seed=seed) for seed in range(3)] + [ONE]
        assert m.nodes(roots) == [(u, m.var_index(u), m.high(u), m.low(u))
                                  for u in m.reachable(roots)]
        assert m.nodes(roots[0]) == m.nodes([roots[0]])
        assert m.nodes(ZERO) == []
        for bad in (-1, roots[0] + 10 ** 6, "x"):
            with pytest.raises(ValueError):
                m.nodes([roots[0], bad])


class TestStructuralInvariants:
    def _walk(self, m, f):
        return m.reachable(f)

    def test_reduced_and_ordered(self):
        rng = random.Random(31)
        m = Manager(8)
        pool = [m.var(i) for i in range(8)]
        for _ in range(60):
            random_node(m, rng, pool)
        triples = set()
        for f in pool:
            for u in m.reachable(f):
                hi, lo = m.high(u), m.low(u)
                assert hi != lo
                key = (m.level(u), hi, lo)
                assert key not in triples or True
                triples.add(key)
                # ordered: levels strictly increase downward
                assert m.level(hi) > m.level(u)
                assert m.level(lo) > m.level(u)
        # no two distinct reachable nodes share a triple
        seen = {}
        for f in pool:
            for u in m.reachable(f):
                key = (m.level(u), m.high(u), m.low(u))
                assert seen.setdefault(key, u) == u

    def test_canonicity_same_function_same_ref(self):
        # different construction routes to the same function
        m = Manager(3)
        x, y, z = m.var(0), m.var(1), m.var(2)
        a = m.apply("or", [m.apply("and", [x, y]), m.apply("and", [x, z])])
        b = m.apply("and", [x, m.apply("or", [y, z])])
        assert a == b
        demorgan = m.inv(m.apply("nand", [x, m.apply("or", [y, z])]))
        assert demorgan == a

    def test_unique_table_size_tracks_created(self):
        m = Manager(4)
        rng = random.Random(5)
        pool = [m.var(i) for i in range(4)]
        for _ in range(20):
            random_node(m, rng, pool)
        assert m.unique_table_size() == m.created_count


class TestCostBounds:
    def test_ite_entry_and_size_product_bound(self):
        rng = random.Random(77)
        m = Manager(10)
        pool = [m.var(i) for i in range(10)]
        for _ in range(60):
            random_node(m, rng, pool)
        for _ in range(100):
            f, g, h = (rng.choice(pool) for _ in range(3))
            bound = (m.size(f) + 2) * (m.size(g) + 2) * (m.size(h) + 2)
            m.clear_computed_cache()
            calls0 = m.ite_calls
            r = m.ite(f, g, h)
            assert m.ite_calls - calls0 <= bound
            assert m.size(r) <= bound

    def test_fresh_top_variable_apply_is_linear(self):
        # with the new variable on top and absent from g, each apply
        # creates at most size(g)+1 nodes and 2*size(g)+2 entries
        rng = random.Random(123)
        m = Manager(10, list(range(10)))
        pool = [m.var(i) for i in range(1, 10)]
        for _ in range(40):
            random_node(m, rng, pool)
        lit = m.var(0)
        nlit = m.inv(lit)
        for g in rng.sample(pool, 12):
            sz = m.size(g)
            if 0 in m.support(g):
                continue
            for a in (lit, nlit):
                for op in ("and", "or", "nand", "nor"):
                    m.clear_computed_cache()
                    nodes0, calls0 = m.created_count, m.ite_calls
                    m.apply(op, [a, g])
                    assert m.created_count - nodes0 <= sz + 1
                    assert m.ite_calls - calls0 <= 2 * sz + 2


class TestDumpAndCapacity:
    def test_dump_golden(self):
        m = Manager(2)
        f = m.apply("or", [m.var(0), m.var(1)])
        assert m.dump(f) == "3 1 1 0\n4 0 1 3\n"

    def test_dump_terminal_is_empty(self):
        m = Manager(1)
        assert m.dump(ONE) == ""

    def test_capacity_error_is_typed(self):
        m = Manager(8, node_limit=10)
        with pytest.raises(CapacityError):
            rng = random.Random(0)
            pool = [m.var(i) for i in range(8)]
            for _ in range(100):
                random_node(m, rng, pool)

    def test_kernel_is_freed_with_the_manager(self):
        # the kernel closure refers neither to itself nor to the manager,
        # so the tables do not wait for the cycle collector
        enabled = gc.isenabled()
        gc.disable()
        try:
            m = Manager(3)
            m.apply("xor", [m.var(0), m.apply("or", [m.var(1), m.var(2)])])
            kernel = weakref.ref(m._rec)
            del m
            assert kernel() is None
        finally:
            if enabled:
                gc.enable()

    def test_capacity_abort_in_a_deep_ite_leaves_the_manager_usable(self):
        n = 50
        m = Manager(n, node_limit=n + 15)
        chain = [m.make(n - 1, ONE, ZERO)]              # x_i AND ... AND x_n-1
        for i in reversed(range(n - 1)):
            chain.append(m.make(i, chain[-1], ZERO))
        sub = chain[4]
        earlier = m.inv(sub)
        assert m.size(earlier) == 5
        with pytest.raises(CapacityError):
            m.inv(chain[-1])                             # n - 5 levels to make
        assert m.created_count == m.node_limit           # not one node more
        m.clear_computed_cache()
        created = m.created_count
        assert m.inv(sub) == earlier
        assert m.created_count == created

    def test_ite_deeper_than_the_recursion_limit(self):
        n = 200000
        limit = sys.getrecursionlimit()
        m = Manager(n)
        f = m.make(n - 1, ONE, ZERO)
        for i in reversed(range(n - 1)):
            f = m.make(i, f, ZERO)
        g = m.inv(f)                                     # one ite, n levels deep
        assert m.size(g) == n
        r = m.cofactor(g, n - 1, 1)
        assert m.size(r) == n - 1
        assert m.depends_on(g, n - 1) and not m.depends_on(r, n - 1)
        assert sys.getrecursionlimit() == limit

    def test_node_limit_must_be_an_integer(self):
        with pytest.raises(TypeError):
            Manager(2, node_limit=1.5)

    def test_node_limit_must_be_non_negative(self):
        with pytest.raises(ValueError, match="node_limit"):
            Manager(2, node_limit=-3)
        m = Manager(2, node_limit=0)        # no internal node fits
        with pytest.raises(CapacityError):
            m.var(0)

    def test_packed_keys_stay_distinct_at_a_small_limit(self):
        # keys pack handles in the bit length of node_limit + 1, so a small
        # limit is where two triples would share a key if any could; at 63
        # the last handle, 64, is the first to need a seventh bit
        for limit in (60, 63):
            m = Manager(6, node_limit=limit)
            rng = random.Random(3)
            pool = [m.var(i) for i in range(6)]
            with pytest.raises(CapacityError):
                for _ in range(500):
                    random_node(m, rng, pool)
            tables = [bdd_function_table(m, u)
                      for u in range(2, m.created_count + 2)]
            assert len(set(tables)) == len(tables)
            full = (1 << (1 << 6)) - 1
            for key, r in m._cache.items():
                tf, tg, th = (bdd_function_table(m, x)
                              for x in unpack(m, key))
                assert bdd_function_table(m, r) == (tf & tg) | ((tf ^ full) & th)

    def test_invalid_ref_rejected(self):
        m = Manager(2)
        with pytest.raises(ValueError):
            m.size(999)
        with pytest.raises(ValueError):
            m.ite(0, 1, -3)
        for terminal in (ZERO, ONE):
            for accessor in (m.var_index, m.high, m.low):
                with pytest.raises(ValueError, match="terminals"):
                    accessor(terminal)
        with pytest.raises(ValueError, match="0 or 1"):
            m.cofactor(m.var(0), 0, 2)


class TestMakeAndReachable:
    def test_make_finds_or_adds_canonically(self):
        m = Manager(2)
        x1 = m.var(1)
        u = m.make(0, x1, ZERO)
        assert u == m.apply("and", [m.var(0), x1])
        assert m.make(0, x1, ZERO) == u

    def test_make_applies_reduction(self):
        m = Manager(2)
        g = m.var(1)
        assert m.make(0, g, g) == g

    def test_make_rejects_ordering_violation(self):
        m = Manager(2)
        x0 = m.var(0)
        with pytest.raises(ValueError):
            m.make(1, x0, ZERO)     # child tests above the new node

    def test_reachable_is_ascending_and_closed(self):
        m = Manager(4)
        f = m.apply("xor", [m.var(0), m.apply("and", [m.var(1), m.var(2)])])
        nodes = m.reachable(f)
        assert nodes == sorted(nodes)
        inside = set(nodes)
        for u in nodes:
            for child in (m.high(u), m.low(u)):
                assert child <= 1 or child in inside


class TestEntryNormalisation:
    """``ite`` rewrites standard triples at entry; results stay canonical."""

    N = 6
    FULL = (1 << (1 << 6)) - 1

    def _pool(self, seed):
        rng = random.Random(seed)
        m = Manager(self.N)
        pool = [m.var(i) for i in range(self.N)]
        for _ in range(30):
            random_node(m, rng, pool)
        for f in rng.sample(pool, 12):
            pool.append(m.inv(f))            # negations the table knows
        return m, rng, pool

    def test_rewrite_rules_match_brute_force(self):
        m, rng, pool = self._pool(4242)
        neg = {f: m.inv(f) for f in pool}
        ref_of_table = {}
        for _ in range(150):
            f, g, h = (rng.choice(pool) for _ in range(3))
            nf = neg[f]
            triples = [(f, f, h), (f, g, f), (f, g, ZERO), (g, f, ZERO),
                       (f, ONE, h), (h, ONE, f), (f, ZERO, h), (f, g, ONE),
                       (f, nf, ZERO), (nf, f, ZERO), (f, ONE, nf),
                       (nf, ONE, f), (f, nf, f), (f, f, nf)]
            for a, b, c in triples:
                r = m.ite(a, b, c)
                ta, tb, tc = (bdd_function_table(m, x) for x in (a, b, c))
                want = (ta & tb) | ((ta ^ self.FULL) & tc)
                assert bdd_function_table(m, r) == want
                assert ref_of_table.setdefault(want, r) == r

    def test_complementary_operands_resolve_to_terminals(self):
        m, rng, pool = self._pool(77)
        for f in pool[self.N:]:
            nf = m.inv(f)
            calls = m.ite_calls
            assert m.apply("and", [f, nf]) == ZERO
            assert m.apply("and", [nf, f]) == ZERO
            assert m.apply("or", [f, nf]) == ONE
            assert m.apply("or", [nf, f]) == ONE
            assert m.ite_calls == calls

    def test_de_morgan_nor_of_inversions_hits_the_and(self):
        m, rng, pool = self._pool(5)
        for _ in range(20):
            a, b = rng.choice(pool), rng.choice(pool)
            ab = m.apply("and", [a, b])
            na, nb = m.inv(a), m.inv(b)
            calls = m.ite_calls
            assert m.apply("nor", [na, nb]) == ab
            assert m.ite_calls == calls

    def test_xor_with_itself_creates_only_the_inversion(self):
        for seed in range(10):
            # twin managers: the same construction, then xor(f, f) in one
            # and inv(f) in the other
            (m, f), (t, tf) = (self._last_node(seed) for _ in range(2))
            before = set(range(2, m.created_count + 2))
            calls = m.ite_calls
            assert m.apply("xor", [f, f]) == ZERO
            new = set(range(2, m.created_count + 2)) - before
            assert new == set(m.reachable(m.inv(f))) - before
            t_calls = t.ite_calls
            t.inv(tf)
            assert m.ite_calls - calls == t.ite_calls - t_calls
            assert m.created_count == t.created_count

    @pytest.mark.parametrize("triple", [lambda x, y: (x, ONE, y),
                                        lambda x, y: (x, y, ZERO)],
                             ids=["or", "and"])
    def test_swapped_operands_share_one_entry(self, triple):
        m, rng, pool = self._pool(31)
        for _ in range(40):
            a, b = rng.sample(pool, 2)
            m.clear_computed_cache()
            m.ite(*triple(b, a))
            calls = m.ite_calls
            m.ite(*triple(a, b))             # ordered by handle at entry
            assert m.ite_calls == calls

    def test_f_f_h_shares_the_entry_of_f_1_h(self):
        # ite(f,f,h) = ite(f,1,h): the OR entry answers it
        m, rng, pool = self._pool(8)
        internal = sorted({u for u in pool if u > 1})
        for _ in range(40):
            f, h = rng.sample(internal, 2)
            m.clear_computed_cache()
            r = m.ite(f, ONE, h)
            calls = m.ite_calls
            assert m.ite(f, f, h) == r
            assert m.ite_calls == calls

    def test_f_g_1_shares_the_entry_of_not_f_1_g(self):
        # with ~f known, ite(f,g,1) = ite(~f,1,g): the OR entry answers it
        m, rng, pool = self._pool(9)
        internal = sorted({u for u in pool if u > 1})
        for _ in range(40):
            f, g = rng.sample(internal, 2)
            m.clear_computed_cache()
            nf = m.inv(f)
            if g == nf:
                continue
            r = m.ite(nf, ONE, g)
            calls = m.ite_calls
            assert m.ite(f, g, ONE) == r
            assert m.ite_calls == calls

    def _last_node(self, seed):
        rng = random.Random(seed)
        m = Manager(self.N)
        pool = [m.var(i) for i in range(self.N)]
        for _ in range(25):
            random_node(m, rng, pool)
        return m, max(pool)

    def test_clear_computed_cache_forgets_negations(self):
        m, rng, pool = self._pool(13)
        f, g = max(pool), rng.choice(pool)
        nf = m.inv(f)
        fg = m.apply("and", [f, g])
        calls = m.ite_calls
        assert m.inv(nf) == f                # the inversion stored both ways
        assert m.ite(nf, ZERO, g) == fg      # ~nf is known: the AND of f, g
        assert m.ite_calls == calls
        m.clear_computed_cache()
        assert m.inv(nf) == f
        assert m.ite_calls > calls


class TestSizeMemo:
    def test_memo_and_terminal_child_rule_match_a_fresh_walk(self):
        for seed in range(8):
            rng = random.Random(seed)
            m = Manager(8, rng.sample(range(8), 8))
            pool = [m.var(i) for i in range(8)]
            for _ in range(60):
                random_node(m, rng, pool)
            handles = list(range(2, m.created_count + 2))
            rng.shuffle(handles)
            for u in handles + handles:        # second pass: memo hits
                assert m.size(u) == len(m.reachable(u))

    def test_chain_of_terminal_children(self):
        m = Manager(12)
        f = m.apply("and", [m.var(i) for i in range(12)])
        g = m.apply("or", [m.var(i) for i in range(12)])
        assert m.size(g) == 12
        assert m.size(f) == 12
        h = m.apply("xor", [f, g])
        assert m.size(h) == len(m.reachable(h))

    def test_negation_is_sized_without_a_walk(self):
        for seed in range(8):
            rng = random.Random(seed)
            m = Manager(8, rng.sample(range(8), 8))
            pool = [m.var(i) for i in range(8)]
            for _ in range(30):
                f = random_node(m, rng, pool)
                m.size(f)
                g = m.inv(f)
                walked = m.size_walked
                assert m.size(g) == len(m.reachable(g))
                assert m.size_walked == walked

    def test_the_last_walked_root_itself_is_walked_from_nothing(self):
        # the kept set is reused only when the walked node is a child
        m = Manager(3)
        u = m.apply("xor", [m.var(1), m.var(2)])    # two internal children
        f = m.apply("and", [m.var(0), u])
        g = m.apply("or", [m.var(0), u])
        assert (m.size(f), m.size_walked) == (4, 3)
        assert (m.size(g), m.size_walked) == (4, 6)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(st.data())
    def test_walk_from_the_kept_set_matches_a_fresh_walk(self, data):
        draw = data.draw
        n = draw(st.integers(2, 7))
        m = Manager(n, draw(st.permutations(range(n))))
        pool = [m.var(i) for i in range(n)]
        for _ in range(draw(st.integers(1, 40))):
            op = draw(st.sampled_from(("and", "or", "xor", "nand", "nor")))
            pool.append(m.apply(op, (draw(st.sampled_from(pool)),
                                     draw(st.sampled_from(pool)))))
        handles = list(range(2, m.created_count + 2))
        asked = []
        for _ in range(draw(st.integers(1, 30))):
            u = draw(st.sampled_from(handles))
            how = draw(st.sampled_from(("node", "child first", "again")))
            if how == "child first":          # a parent right after its child
                asked.append(draw(st.sampled_from((m.high(u), m.low(u)))))
            elif how == "again" and asked:
                u = asked[-1]
            asked.append(u)
        for u in asked:
            walked = m.size_walked
            assert m.size(u) == len(m.reachable(u))
            assert m.size_walked >= walked
            if m._walked > 1:                 # the kept set is exact
                assert m._reach == set(m.reachable(m._walked))

    def test_depends_on_matches_support(self):
        rng = random.Random(21)
        m = Manager(8, rng.sample(range(8), 8))
        pool = [m.var(i) for i in range(8)]
        for _ in range(60):
            random_node(m, rng, pool)
        for f in pool + [ZERO, ONE]:
            sup = m.support(f)
            for i in range(8):
                assert m.depends_on(f, i) == (i in sup)


class TestHold:
    def test_live_counts_the_nodes_reachable_from_the_held_roots(self):
        for seed in range(8):
            rng = random.Random(seed)
            m = Manager(8, rng.sample(range(8), 8))
            pool = [m.var(i) for i in range(8)] + [ZERO, ONE]
            held = []
            for _ in range(80):
                if held and rng.random() < 0.4:
                    m.hold(held.pop(rng.randrange(len(held))), -1)
                else:
                    f = random_node(m, rng, pool)
                    m.hold(f, 1)
                    held.append(f)
                assert m.live == len(m.reachable(held))
            for f in held:
                m.hold(f, -1)
            assert m.live == 0

    def test_a_slot_on_a_terminal_is_a_no_op(self):
        m = Manager(2)
        m.hold(ZERO, -1)
        m.hold(ONE, 1)
        m.hold(ONE, -1)
        m.hold(ONE, -1)
        assert (m.live, m._refs[:2]) == (0, [1, 1])
        f = m.apply("and", [m.var(0), m.var(1)])
        m.hold(f, 1)
        assert m.live == 2
        m.hold(f, -1)
        assert m.live == 0

    def test_removing_a_slot_never_added_is_rejected(self):
        m = Manager(2)
        x = m.var(0)
        with pytest.raises(ValueError, match="no slot"):
            m.hold(x, -1)
        m.hold(x, 1)                         # the refused removal left no trace
        assert m.live == 1
        m.hold(x, -1)
        assert m.live == 0
        with pytest.raises(ValueError, match="no slot"):
            m.hold(x, -1)
        assert m.live == 0

    @pytest.mark.parametrize("d", [0, 2, -2])
    def test_a_step_other_than_one_is_rejected(self, d):
        m = Manager(2)
        f = m.apply("and", [m.var(0), m.var(1)])
        with pytest.raises(ValueError):
            m.hold(f, d)
        with pytest.raises(ValueError):
            m.hold(f + 1, 1)
        assert m.live == 0


class TestTableKeys:
    """One key formula at every limit (``bdd`` module docstring)."""

    def test_a_wider_key_changes_no_handle_and_no_counter(self):
        # at 2**26 handles take 27-bit fields, so keys whose top field
        # reaches 64 take three digits; the test_counters random DAG seeds
        # and criterion 9's trees must not see it
        assert (bdd.DEFAULT_NODE_LIMIT + 1).bit_length() == 20
        circuits = [random_dag_circuit(10, 40, seed=s) for s in (18, 52, 150)]
        circuits += [random_tree_circuit(n, seed=s)
                     for n in (16, 64, 256) for s in range(25)]

        def runs(node_limit):
            for c in circuits:
                res = simulate(c, node_limit=node_limit)
                m = res.manager
                yield (m.nodes(range(2, m.created_count + 2)),
                       res.signal_bdds, res.stats.rows, m.created_count,
                       m.ite_calls, m.size_walked, m.unique_table_size(),
                       max(max(m._cache), max(m._unique)))

        default = list(runs(bdd.DEFAULT_NODE_LIMIT))
        assert all(r[-1] < 1 << 60 for r in default)     # two digits
        wide = list(runs(1 << 26))
        assert any(r[-1] >= 1 << 60 for r in wide)       # three digits
        assert [r[:-1] for r in wide] == [r[:-1] for r in default]
