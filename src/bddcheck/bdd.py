"""Reduced ordered binary decision diagrams without complement edges.

A :class:`Manager` owns one BDD universe: the node arena, the unique
table that enforces canonicity, and the computed table that memoizes
``ite`` calls.  Node handles are plain ints; ``0`` and ``1`` are the
terminal nodes and every internal node is a handle >= 2.  Handles are
only meaningful against the manager that issued them.

Synthesis goes through the ternary ``ite`` operator,
``ite(f, g, h) = (f AND g) OR (NOT f AND h)``.  Negation is
``ite(f, 0, 1)``; there are no complement edges.  The manager never
frees nodes and never reorders, so ``created_count`` and ``ite_calls``
are faithful monotone instruments for size and work measurements.
"""

from __future__ import annotations

import sys
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError

ZERO = 0
ONE = 1

DEFAULT_NODE_LIMIT = 1 << 26

APPLY_OPS = frozenset(("and", "or", "nand", "nor", "xor", "inv", "buf"))


class Manager:
    """One BDD universe over a fixed number of ordered variables.

    ``order`` maps external variable index to level: ``order[i]`` is the
    level at which variable ``i`` tests, level 0 being the topmost.  The
    default is the identity.  All operations on one manager are
    sequential (single owner); distinct managers are fully independent.

    Counters:

    - ``created_count``: internal nodes ever created (monotone).
    - ``ite_calls``: ``ite`` entries that were answered neither by a
      terminal case nor by the computed table, i.e. entries that
      actually recursed.
    """

    def __init__(self, var_count: int, order: Sequence[int] | None = None,
                 node_limit: int = DEFAULT_NODE_LIMIT):
        if var_count < 0:
            raise ValueError("var_count must be non-negative")
        if order is None:
            order = range(var_count)
        order = list(order)
        if sorted(order) != list(range(var_count)):
            raise ValueError(
                f"order {order!r} is not a permutation of 0..{var_count - 1}")
        self.var_count = var_count
        self.node_limit = node_limit
        self._level_of = order                       # variable index -> level
        self._var_at = [0] * var_count               # level -> variable index
        for i, lvl in enumerate(order):
            self._var_at[lvl] = i
        # terminals sit at a sentinel level below every variable
        t = var_count
        self._level = [t, t]
        self._high = [-1, -1]
        self._low = [-1, -1]
        self._unique = {}                            # (level, high, low) -> ref
        self._cache = {}                             # (f, g, h) -> ref
        self.created_count = 0
        self.ite_calls = 0
        # ite/cofactor recurse one frame per level
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 3 * var_count + 2048))

    # -- node accessors -------------------------------------------------

    def _check_ref(self, f):
        if not (isinstance(f, int) and 0 <= f < len(self._level)):
            raise ValueError(f"invalid node reference {f!r}")

    def is_terminal(self, f) -> bool:
        self._check_ref(f)
        return f <= 1

    def level(self, f) -> int:
        """Level of the node; terminals report ``var_count``."""
        self._check_ref(f)
        return self._level[f]

    def var_index(self, f) -> int:
        """External variable index tested at an internal node."""
        self._check_ref(f)
        if f <= 1:
            raise ValueError("terminals test no variable")
        return self._var_at[self._level[f]]

    def high(self, f) -> int:
        self._check_ref(f)
        if f <= 1:
            raise ValueError("terminals have no successors")
        return self._high[f]

    def low(self, f) -> int:
        self._check_ref(f)
        if f <= 1:
            raise ValueError("terminals have no successors")
        return self._low[f]

    def level_of_var(self, index: int) -> int:
        if not 0 <= index < self.var_count:
            raise ValueError(f"variable index {index} out of range")
        return self._level_of[index]

    def var_order(self) -> list[int]:
        """Variable indices from the top level to the bottom."""
        return list(self._var_at)

    # -- construction ---------------------------------------------------

    def _make(self, level, high, low):
        if high == low:
            return high
        key = (level, high, low)
        r = self._unique.get(key)
        if r is None:
            if self.created_count >= self.node_limit:
                raise CapacityError(
                    f"node limit of {self.node_limit} reached", self.node_limit)
            r = len(self._level)
            self._level.append(level)
            self._high.append(high)
            self._low.append(low)
            self._unique[key] = r
            self.created_count += 1
        return r

    def var(self, index: int) -> int:
        """Canonical node for the projection function of variable ``index``."""
        if not 0 <= index < self.var_count:
            raise ValueError(f"variable index {index} out of range")
        return self._make(self._level_of[index], ONE, ZERO)

    def make(self, index: int, high: int, low: int) -> int:
        """Find-or-add a node testing ``index`` with the given successors.

        Both successors must test strictly lower in the order.  Applies
        the reduction rule, so the result may be ``high`` itself.
        """
        self._check_ref(high)
        self._check_ref(low)
        level = self.level_of_var(index)
        if self._level[high] <= level or self._level[low] <= level:
            raise ValueError("successors must test below the node's variable")
        return self._make(level, high, low)

    # -- ite and derived operators ---------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """Canonical node for ``(f AND g) OR (NOT f AND h)``."""
        self._check_ref(f)
        self._check_ref(g)
        self._check_ref(h)
        return self._ite(f, g, h)

    def _ite(self, f, g, h):
        # the arena lists grow in place; binding them once is safe
        cache = self._cache
        cache_get = cache.get
        level = self._level
        high = self._high
        low = self._low
        make = self._make

        def rec(f, g, h):
            # terminal cases, checked before the computed table
            if f == 1 or g == h:
                return g
            if f == 0:
                return h
            if g == 1 and h == 0:
                return f
            key = (f, g, h)
            r = cache_get(key)
            if r is not None:
                return r
            self.ite_calls += 1
            lvl = level[f]
            if level[g] < lvl:
                lvl = level[g]
            if level[h] < lvl:
                lvl = level[h]
            if level[f] == lvl:
                f1, f0 = high[f], low[f]
            else:
                f1 = f0 = f
            if level[g] == lvl:
                g1, g0 = high[g], low[g]
            else:
                g1 = g0 = g
            if level[h] == lvl:
                h1, h0 = high[h], low[h]
            else:
                h1 = h0 = h
            t = rec(f1, g1, h1)
            e = rec(f0, g0, h0)
            r = t if t == e else make(lvl, t, e)
            cache[key] = r
            return r

        return rec(f, g, h)

    def inv(self, f: int) -> int:
        self._check_ref(f)
        return self._ite(f, ZERO, ONE)

    def apply(self, op: str, operands: Sequence[int]) -> int:
        """Gate synthesis through ite; multi-input ops fold left to right."""
        op = op.lower()
        if op not in APPLY_OPS:
            raise ValueError(f"unknown operator {op!r}")
        refs = list(operands)
        for f in refs:
            self._check_ref(f)
        if op in ("inv", "buf"):
            if len(refs) != 1:
                raise ValueError(f"{op} takes exactly one operand")
            a = refs[0]
            return self._ite(a, ZERO, ONE) if op == "inv" else self._ite(a, ONE, ZERO)
        if len(refs) < 2:
            raise ValueError(f"{op} takes at least two operands")
        if op == "and":
            acc = refs[0]
            for b in refs[1:]:
                acc = self._ite(acc, b, ZERO)
            return acc
        if op == "or":
            acc = refs[0]
            for b in refs[1:]:
                acc = self._ite(acc, ONE, b)
            return acc
        if op == "xor":
            acc = refs[0]
            for b in refs[1:]:
                acc = self._xor2(acc, b)
            return acc
        # k-input nand/nor: and/or fold with the inversion absorbed
        # into the final 2-input gate
        acc = refs[0]
        if op == "nand":
            for b in refs[1:-1]:
                acc = self._ite(acc, b, ZERO)
            return self._nand2(acc, refs[-1])
        for b in refs[1:-1]:
            acc = self._ite(acc, ONE, b)
        return self._nor2(acc, refs[-1])

    def _nand2(self, a, b):
        # ite(0, *, 1) = 1: resolve the controlling value before
        # materializing the negated operand
        if a == ZERO:
            return ONE
        return self._ite(a, self._ite(b, ZERO, ONE), ONE)

    def _nor2(self, a, b):
        if a == ONE:
            return ZERO
        return self._ite(a, ZERO, self._ite(b, ZERO, ONE))

    def _xor2(self, a, b):
        if a == ZERO:
            return b
        if a == ONE:
            return self._ite(b, ZERO, ONE)
        return self._ite(a, self._ite(b, ZERO, ONE), b)

    # -- analysis ---------------------------------------------------------

    def cofactor(self, f: int, index: int, value: int) -> int:
        """Restriction of ``f`` with variable ``index`` fixed to ``value``."""
        self._check_ref(f)
        if not 0 <= index < self.var_count:
            raise ValueError(f"variable index {index} out of range")
        if value not in (0, 1):
            raise ValueError("value must be 0 or 1")
        target = self._level_of[index]
        memo = {}

        def walk(u):
            if self._level[u] > target:
                return u
            r = memo.get(u)
            if r is None:
                if self._level[u] == target:
                    r = self._high[u] if value else self._low[u]
                else:
                    r = self._make(self._level[u],
                                   walk(self._high[u]), walk(self._low[u]))
                memo[u] = r
            return r

        return walk(f)

    def eval(self, f: int, assignment: Mapping[int, int] | Sequence[int]) -> int:
        """Follow high/low edges under ``assignment`` to a terminal.

        ``assignment`` maps variable index to 0/1 (a sequence indexed by
        variable also works).  A variable needed along the path but
        missing from the assignment is an error.
        """
        self._check_ref(f)
        node = f
        while node > 1:
            i = self._var_at[self._level[node]]
            try:
                bit = assignment[i]
            except (KeyError, IndexError):
                raise ValueError(f"assignment is missing variable {i}") from None
            node = self._high[node] if bit else self._low[node]
        return node

    def _nodes(self, stack: list[int]) -> set[int]:
        """Internal nodes reachable from the handles on ``stack``, which
        the walk consumes."""
        high = self._high
        low = self._low
        seen = set()
        add = seen.add
        pop = stack.pop
        push = stack.append
        while stack:
            u = pop()
            if u > 1 and u not in seen:
                add(u)
                push(high[u])
                push(low[u])
        return seen

    def reachable(self, roots: int | Iterable[int]) -> list[int]:
        """Internal nodes reachable from the roots, ascending by handle."""
        stack = [roots] if isinstance(roots, int) else list(roots)
        for r in stack:
            self._check_ref(r)
        return sorted(self._nodes(stack))

    def size(self, f: int) -> int:
        """Number of internal nodes reachable from ``f`` (terminals excluded)."""
        self._check_ref(f)
        return len(self._nodes([f]))

    def support(self, f: int) -> set[int]:
        """Variable indices tested by nodes reachable from ``f``."""
        self._check_ref(f)
        var_at = self._var_at
        level = self._level
        return {var_at[level[u]] for u in self._nodes([f])}

    def dump(self, roots: int | Iterable[int]) -> str:
        """Reachable internal nodes as ``id var high low`` text lines.

        ``var`` is the node's level.  Terminals are implicit.
        """
        lines = [f"{u} {self._level[u]} {self._high[u]} {self._low[u]}"
                 for u in self.reachable(roots)]
        return "\n".join(lines) + ("\n" if lines else "")

    # -- instrumentation ---------------------------------------------------

    def clear_computed_cache(self) -> None:
        """Drop all memoized ite results (measurement runs start fresh)."""
        self._cache.clear()

    def unique_table_size(self) -> int:
        return len(self._unique)

    def __len__(self):
        return self.created_count

    def __repr__(self):
        return (f"<Manager vars={self.var_count} nodes={self.created_count} "
                f"ite_calls={self.ite_calls}>")
