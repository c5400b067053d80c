"""The engine's ite against a textbook reference kernel.

``ReferenceManager`` replaces ``Manager._ite`` with the plain ite
recursion (Bryant, IEEE Trans. Computers C-35, 1986, with the terminal
cases of Brace, Rudell and Bryant, DAC 1990): no normalisation at entry,
no negation entries, no kept set, and a computed table of its own keyed
by the triple.  ``apply``'s folds and ``_make`` stay the engine's, so
both managers make nodes through the same code.  The engine claims that
its normalisation and its stack kernel change neither handles nor
``created_count``; these tests check that claim against the reference,
and that the engine expands no more triples than the reference does.
"""

import importlib

import pytest

from bddcheck import Manager, ONE, ZERO, build_miter, simulate
from bddcheck import generators
from bddcheck.generators import (array_multiplier, demorgan_rewrite,
                                 random_dag_circuit, random_tree_circuit)

# the package binds the name simulate to the function, not the module
simulate_module = importlib.import_module("bddcheck.simulate")


class ReferenceManager(Manager):
    """A ``Manager`` whose ``ite`` is the textbook recursion.

    Its depth is at most the variable count plus one, since every
    cofactor tests below the level it was taken at.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.memo = {}
        self.expansions = 0                      # triples not in memo

    def _ite(self, f, g, h):
        if f == ONE or g == h:
            return g
        if f == ZERO:
            return h
        if g == ONE and h == ZERO:
            return f
        r = self.memo.get((f, g, h))
        if r is None:
            self.expansions += 1
            level, high, low = self._level, self._high, self._low
            top = min(level[f], level[g], level[h])
            f1, f0 = (high[f], low[f]) if level[f] == top else (f, f)
            g1, g0 = (high[g], low[g]) if level[g] == top else (g, g)
            h1, h0 = (high[h], low[h]) if level[h] == top else (h, h)
            r = self._make(top, self._ite(f1, g1, h1),
                           self._ite(f0, g0, h0))
            self.memo[f, g, h] = r
        return r


def engine_and_reference_work(c, monkeypatch):
    """``(engine ite_calls, reference expansions)`` on ``c``, after
    checking that both give the same signal handles and node count."""
    engine = simulate(c)
    with monkeypatch.context() as m:
        m.setattr(simulate_module, "Manager", ReferenceManager)
        ref = simulate(c)
    assert type(ref.manager) is ReferenceManager
    assert engine.signal_bdds == ref.signal_bdds
    assert engine.manager.created_count == ref.manager.created_count
    return engine.manager.ite_calls, ref.manager.expansions


def test_reference_kernel_own_answers():
    # x0 AND x1 through the reference alone: one expansion per level
    m = ReferenceManager(2)
    x0, x1 = m.var(0), m.var(1)
    r = m.ite(x0, x1, ZERO)
    assert (m.level(r), m.high(r), m.low(r)) == (0, x1, ZERO)
    assert m.expansions == 1 and m.ite_calls == 0
    assert m.ite(x0, x1, ZERO) == r and m.expansions == 1


def test_random_dags_match_the_reference(monkeypatch):
    """Normalisation saves entries in total, not on every input: on
    seed 82 the AND operands ordered by handle miss table entries that
    the reference made in the other operand order."""
    work = {seed: engine_and_reference_work(
                random_dag_circuit(10, 40, seed=seed), monkeypatch)
            for seed in range(200)}
    assert {s: w for s, w in work.items() if w[0] > w[1]} == {82: (479, 475)}
    assert tuple(map(sum, zip(*work.values()))) == (38_373, 39_768)


@pytest.mark.parametrize("with_xor", [False, True])
def test_criterion_9_trees_match_the_reference(with_xor, monkeypatch):
    if with_xor:                                 # as criterion 14 does
        monkeypatch.setattr(generators, "TREE_KINDS",
                            generators.TREE_KINDS + ("xor",))
    for n in (16, 64, 256):
        for seed in range(25):
            engine, ref = engine_and_reference_work(
                random_tree_circuit(n, seed=seed), monkeypatch)
            assert engine <= ref, (n, seed)


def test_multiplier_miter_matches_the_reference(monkeypatch):
    m = array_multiplier(6)
    engine, ref = engine_and_reference_work(
        build_miter(m, demorgan_rewrite(m, seed=1)), monkeypatch)
    assert engine <= ref
