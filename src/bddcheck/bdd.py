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
(the triples the kernel expanded) are faithful monotone instruments for
size and work measurements.  The kernel keeps its own stack rather than
recursing, so no depth of the order touches the recursion limit.

Each ``ite`` call normalises its triple once, at entry (Brace, Rudell
and Bryant, DAC 1990, in the forms that hold without complement
edges): ``ite(f,f,h)`` becomes ``ite(f,1,h)``, ``ite(f,g,f)`` becomes
``ite(f,g,0)``, the operands of an AND ``ite(f,g,0)`` and of an OR
``ite(f,1,h)`` are ordered by handle, and when the negation ``~f`` is
known, ``ite(f,0,h)`` becomes ``ite(~f,h,0)``, ``ite(f,g,1)`` becomes
``ite(~f,1,g)``, ``f AND ~f`` is 0 and ``f OR ~f`` is 1.  Negations
live in the computed table as its ``(f, 0, 1)`` entries; an inversion
called from outside also stores the reverse pair, so
``clear_computed_cache`` forgets them with everything else.  The
rewritten triple has the same canonical result, so normalisation
changes neither handles nor ``created_count``; it only saves ``ite``
entries.

Node sizes are memoised by handle, since a node never changes once
made.  For the same reason the node set of one walk stays valid: the
manager keeps the root and the internal nodes of its last size walk,
and a walk from a node that has that root as a child starts from the
kept set, so it visits only the nodes the child does not reach.  With
GC or reordering the kept set could name freed or rebuilt nodes; here
it cannot.

Every key of the unique table, ``(level, high, low)``, and of the
computed table, ``(f, g, h)``, is one int, ``c << 2w | b << w | a``,
with ``w`` the bit length of the largest handle, ``node_limit + 1``.
``a`` and ``b`` are handles; ``c``, the top field, is the level in the
unique table, which may exceed ``w`` bits.  At the default limit
``w = 20``, so every computed-table key, and every unique-table key
whose level is below ``2 ** 20``, takes at most 60 bits, which CPython
stores in two 30-bit digits, a 32-byte block where a key of three
digits takes 48.  An int hashes to itself, so the dict index is the
key's low bits: the field with the most distinct values goes in ``a``.

``hold`` counts the internal nodes reachable from a set of root slots,
a simulation's live count, by reference counts that free no node.
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping, Sequence

from .circuit import FOLD_STEP, GATE_KINDS
from .errors import CapacityError

ZERO = 0
ONE = 1

# the largest limit whose handles, up to node_limit + 1, fit in 20 bits,
# so that every table key takes two digits (module docstring)
DEFAULT_NODE_LIMIT = (1 << 20) - 2


class Manager:
    """One BDD universe over a fixed number of ordered variables.

    ``order`` lists the variable indices from the top level down:
    ``order[0]`` tests at level 0, the topmost, and ``var_order()``
    returns the same list.  The default is the identity.  All
    operations on one manager are sequential (single owner); distinct
    managers are fully independent.

    Counters:

    - ``created_count``: internal nodes ever created (monotone).
    - ``ite_calls``: triples the kernel expanded, i.e. ``ite`` entries
      and branches answered neither by a terminal case, nor by the
      normalisation at entry, nor by the computed table.
    - ``size_walked``: nodes that ``size`` walks added to their node
      sets, counted once per walk (see ``size``).
    - ``live``: internal nodes reachable from the root slots that
      ``hold`` has added and not removed; the one counter that falls.

    ``ite`` normalises standard triples at entry, with the negations
    that the computed table holds; ``size`` remembers the size of every
    handle it has measured.  See the module docstring.
    """

    def __init__(self, var_count: int, order: Sequence[int] | None = None,
                 node_limit: int = DEFAULT_NODE_LIMIT):
        if var_count < 0:
            raise ValueError("var_count must be non-negative")
        if order is None:
            order = range(var_count)
        # ints: a bool reads as 0 or 1 in every report, a float fails here
        order = [operator.index(i) for i in order]
        if sorted(order) != list(range(var_count)):
            raise ValueError(f"order is not a permutation of 0..{var_count - 1}")
        self.var_count = var_count
        # an int: the table keys are packed with its bit length
        self.node_limit = operator.index(node_limit)
        if self.node_limit < 0:
            raise ValueError("node_limit must be non-negative")
        self._var_at = order                         # level -> variable index
        self._level_of = [0] * var_count             # variable index -> level
        for lvl, i in enumerate(order):
            self._level_of[i] = lvl
        # terminals sit at a sentinel level below every variable
        t = var_count
        self._level = [t, t]
        self._high = [-1, -1]
        self._low = [-1, -1]
        # handles stay below node_limit + 2, so each table key is one int:
        # smaller than a tuple, and the cycle collector ignores it
        self._w = (self.node_limit + 1).bit_length()
        self._unique = {}                   # level << 2w | low << w | high -> ref
        self._cache = {}                             # h << 2w | g << w | f -> ref
        self._sizes = {}                             # ref -> size(ref)
        self._walked = ZERO                          # root of the last size walk
        self._reach = set()                          # its internal nodes
        self._refs = [1, 1]                          # ref -> slots + live parents
        self._rec, self._count = self._kernel()
        self.size_walked = 0
        self.live = 0

    @property
    def created_count(self) -> int:
        """Internal nodes ever created: every arena slot but the terminals."""
        return len(self._level) - 2

    @property
    def ite_calls(self) -> int:
        """Triples the ``ite`` kernel expanded."""
        return self._count()

    # -- node accessors -------------------------------------------------

    def _check_ref(self, f):
        if not (isinstance(f, int) and 0 <= f < len(self._level)):
            raise ValueError(f"invalid node reference {f!r}")

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
        index = operator.index(index)
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
        w = self._w
        key = level << 2 * w | low << w | high
        r = self._unique.get(key)
        if r is None:
            r = len(self._level)
            if r >= self.node_limit + 2:
                raise CapacityError(
                    f"node limit of {self.node_limit} reached", self.node_limit)
            self._level.append(level)
            self._high.append(high)
            self._low.append(low)
            self._unique[key] = r
        return r

    def var(self, index: int) -> int:
        """Canonical node for the projection function of variable ``index``."""
        return self._make(self.level_of_var(index), ONE, ZERO)

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
        # terminal cases
        if f == 1 or g == h:
            return g
        if f == 0:
            return h
        # standard triples, normalised once here rather than at every
        # step of the kernel
        if g == f:
            g = ONE
        elif h == f:
            h = ZERO
        if g == h:
            return g
        if g == ONE and h == ZERO:
            return f
        cache = self._cache
        # the entry (x, 0, 1), whose key is neg | x, holds ~x
        neg = ONE << 2 * self._w
        if g == ZERO:
            if h == ONE:
                r = self._rec(f, ZERO, ONE)
                cache[neg | r] = f               # the negation of r is f
                return r
            nf = cache.get(neg | f)              # ite(f,0,h) = ite(~f,h,0)
            if nf is not None:
                f, g, h = nf, h, ZERO
        elif h == ONE:
            nf = cache.get(neg | f)              # ite(f,g,1) = ite(~f,1,g)
            if nf is not None:
                f, g, h = nf, ONE, g
        if h == ZERO:                            # f AND g
            if cache.get(neg | f) == g:
                return ZERO
            if g < f:
                f, g = g, f
        elif g == ONE:                           # f OR h
            if cache.get(neg | f) == h:
                return ONE
            if h < f:
                f, h = h, f
        return self._rec(f, g, h)

    def _kernel(self):
        """The ite kernel over this manager's tables, built once.

        Returns ``rec``, which takes a triple that is no terminal case,
        and a function that reads how many triples it expanded.  Frames
        are ``(key, lvl, t, f0, g0, h0)``, ``t`` -1 while the then branch
        is pending, on a stack that belongs to one call: an aborted call
        leaves none behind.  As in a recursion, the then branch is
        finished before the else branch, and a branch gets a frame only
        when it is neither terminal nor in the computed table, so handles
        and counters match.  Keys are built inline (module docstring).
        """
        # the arena lists grow in place; binding them once is safe
        cache = self._cache
        cache_get = cache.get
        level = self._level
        high = self._high
        low = self._low
        unique = self._unique
        unique_get = unique.get
        w = self._w
        w2 = 2 * w
        limit = self.node_limit
        end = limit + 2                              # handles stay below it
        full_msg = f"node limit of {limit} reached"
        calls = 0

        def rec(f, g, h):
            nonlocal calls
            key = h << w2 | g << w | f
            r = cache_get(key)
            if r is not None:
                return r
            stack = []
            while True:
                # expand (f, g, h), which the table does not hold
                calls += 1
                lvl = lf = level[f]
                lg = level[g]
                lh = level[h]
                if lg < lvl:
                    lvl = lg
                if lh < lvl:
                    lvl = lh
                if lf == lvl:
                    f1, f0 = high[f], low[f]
                else:
                    f1 = f0 = f
                if lg == lvl:
                    g1, g0 = high[g], low[g]
                else:
                    g1 = g0 = g
                if lh == lvl:
                    h1, h0 = high[h], low[h]
                else:
                    h1 = h0 = h
                if f1 == 1 or g1 == h1:
                    t = g1
                elif f1 == 0:
                    t = h1
                elif g1 == 1 and h1 == 0:
                    t = f1
                else:
                    k = h1 << w2 | g1 << w | f1
                    t = cache_get(k)
                    if t is None:
                        stack.append((key, lvl, -1, f0, g0, h0))
                        f, g, h = f1, g1, h1
                        key = k  # four targets would build a tuple
                        continue
                while True:
                    # the else branch of the frame in (key, lvl, t)
                    if f0 == 1 or g0 == h0:
                        e = g0
                    elif f0 == 0:
                        e = h0
                    elif g0 == 1 and h0 == 0:
                        e = f0
                    else:
                        k = h0 << w2 | g0 << w | f0
                        e = cache_get(k)
                        if e is None:
                            stack.append((key, lvl, t, f0, g0, h0))
                            f, g, h = f0, g0, h0
                            key = k
                            break
                    while True:
                        # the frame's node, handed to the frame below
                        if t == e:
                            r = t
                        else:
                            # _make inlined: the kernel makes most nodes
                            ukey = lvl << w2 | e << w | t
                            r = unique_get(ukey)
                            if r is None:
                                r = len(level)
                                if r >= end:
                                    raise CapacityError(full_msg, limit)
                                level.append(lvl)
                                high.append(t)
                                low.append(e)
                                unique[ukey] = r
                        cache[key] = r
                        if not stack:
                            return r
                        key, lvl, t, f0, g0, h0 = stack.pop()
                        if t < 0:
                            t = r
                            break
                        e = r

        def count():
            return calls

        return rec, count

    def inv(self, f: int) -> int:
        self._check_ref(f)
        return self._ite(f, ZERO, ONE)

    def apply(self, op: str, operands: Sequence[int]) -> int:
        """Synthesis of one gate of any kind in ``circuit.GATE_KINDS``.

        ``mux`` operands are (select, else, then), as in a netlist.  A
        multi-input kind folds left to right; every step but the last
        takes its kind from ``circuit.FOLD_STEP``, so a k-input nand is
        an and fold closed by one nand.
        """
        op = op.lower()
        if op not in GATE_KINDS:
            raise ValueError(f"unknown operator {op!r}")
        refs = list(operands)
        for f in refs:
            self._check_ref(f)
        if op == "mux":
            if len(refs) != 3:
                raise ValueError("mux takes exactly three operands")
            s, e, t = refs
            return self._ite(s, t, e)
        if op in ("inv", "buf"):
            if len(refs) != 1:
                raise ValueError(f"{op} takes exactly one operand")
            return self._ite(refs[0], ZERO, ONE) if op == "inv" else refs[0]
        if len(refs) < 2:
            raise ValueError(f"{op} takes at least two operands")
        step = FOLD_STEP.get(op, op)
        acc = refs[0]
        for i, b in enumerate(refs[1:], 2):
            kind = op if i == len(refs) else step
            if kind == "and":
                acc = self._ite(acc, b, ZERO)
            elif kind == "or":
                acc = self._ite(acc, ONE, b)
            # a controlling accumulator decides before ~b is made
            elif kind == "nand":
                acc = ONE if acc == ZERO else self._ite(
                    acc, self._ite(b, ZERO, ONE), ONE)
            elif kind == "nor":
                acc = ZERO if acc == ONE else self._ite(
                    acc, ZERO, self._ite(b, ZERO, ONE))
            else:                                # xor
                acc = b if acc == ZERO else self._ite(
                    acc, self._ite(b, ZERO, ONE), b)
        return acc

    # -- analysis ---------------------------------------------------------

    def cofactor(self, f: int, index: int, value: int) -> int:
        """Restriction of ``f`` with variable ``index`` fixed to ``value``."""
        self._check_ref(f)
        target = self.level_of_var(index)
        if value not in (0, 1):
            raise ValueError("value must be 0 or 1")
        level, high, low = self._level, self._high, self._low
        # a node below the variable's level (a terminal too) maps to itself
        r = {}
        for u in sorted(self._above(f, target)):     # children first
            if level[u] == target:
                r[u] = high[u] if value else low[u]
            else:
                h, lo = high[u], low[u]
                r[u] = self._make(level[u], r.get(h, h), r.get(lo, lo))
        return r.get(f, f)

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

    def _nodes(self, roots: Iterable[int],
               seen: set[int] | None = None) -> set[int]:
        """Internal nodes reachable from ``roots``.

        ``seen``, if given, is a set of internal nodes closed under
        successors.  The walk never enters it, adds the nodes it finds
        to it in place and returns it.
        """
        high = self._high
        low = self._low
        if seen is None:
            seen = set()
        seen.add(ZERO)
        seen.add(ONE)
        stack = [u for u in set(roots) if u not in seen]
        seen.update(stack)
        add = seen.add
        push = stack.append
        # a node is marked when it is pushed, so none is pushed twice
        while stack:
            u = stack.pop()
            v = high[u]
            if v not in seen:
                add(v)
                push(v)
            v = low[u]
            if v not in seen:
                add(v)
                push(v)
        seen.discard(ZERO)
        seen.discard(ONE)
        return seen

    def reachable(self, roots: int | Iterable[int]) -> list[int]:
        """Internal nodes reachable from the roots, ascending by handle."""
        roots = [roots] if isinstance(roots, int) else list(roots)
        for r in roots:
            self._check_ref(r)
        return sorted(self._nodes(roots))

    def nodes(self, roots: int | Iterable[int]) -> list[tuple[int, int, int, int]]:
        """``(u, var_index(u), high(u), low(u))`` for each node of
        ``reachable(roots)``, in the same order; only the roots are checked."""
        var_at, level, high, low = self._var_at, self._level, self._high, self._low
        return [(u, var_at[level[u]], high[u], low[u])
                for u in self.reachable(roots)]

    def size(self, f: int) -> int:
        """Number of internal nodes reachable from ``f`` (terminals excluded).

        Memoised by handle: a node never changes once made.  Without
        complement edges negation maps the node set one to one, so when
        the computed table names ``~f`` (its ``(f, 0, 1)`` entry) and
        ``size(~f)`` is memoised, that is the size of ``f``, found
        without a walk.  A node with a terminal child has one node more
        than its other child, so a run of such nodes is counted without
        a walk; only a node below the run with two internal children is
        walked.

        The manager keeps the root of its last walk and that root's
        internal nodes.  When a walked node has that root as a child,
        the walk starts from the kept set and adds only the nodes the
        child does not reach; otherwise it starts from nothing and its
        result is kept instead.  A node's reachable set never changes,
        since nodes are neither freed nor reordered, so the kept set
        stays exact, and it is closed under successors, so the walk
        never enters it.  On a chain whose every signal has the
        previous one as a child, the walks add up to the nodes made
        rather than to the sum of the sizes.  ``size_walked`` counts
        the nodes the walks added.
        """
        self._check_ref(f)
        sizes = self._sizes
        n = sizes.get(f)
        if n is None:                            # size(~f) == size(f)
            n = sizes.get(self._cache.get(ONE << 2 * self._w | f))
        if n is None:
            high = self._high
            low = self._low
            n = 0
            u = f
            while u > 1:
                m = sizes.get(u)
                if m is not None:
                    n += m
                    break
                hu = high[u]
                lu = low[u]
                if hu > 1 and lu > 1:
                    if self._walked not in (hu, lu):
                        self._reach = set()
                    before = len(self._reach)
                    self._nodes((u,), self._reach)
                    self._walked = u
                    m = len(self._reach)
                    self.size_walked += m - before
                    n += m
                    break
                n += 1
                u = lu if hu <= 1 else hu
            sizes[f] = n
        return n

    def hold(self, f: int, d: int) -> None:
        """Add a root slot on ``f`` (``d = 1``) or remove one that an
        earlier add made (``d = -1``), and update ``live``.

        ``_refs[v]``, which grows with the arena, counts the root slots
        on ``v`` plus its live parents.  The terminals start at 1, so
        they are never counted or walked, and a slot on a terminal is a
        no-op.  Only a node whose count reaches 1 on an add or 0 on a
        remove changes state: it adds ``d`` to ``live`` and passes the
        step on to its children.

        Removing a slot from a node whose count is 0 is a ``ValueError``,
        raised before any count changes.  A removal from a node that
        only live parents hold cannot be detected: the count does not
        tell slots from parents.
        """
        self._check_ref(f)
        if d not in (1, -1):
            raise ValueError(f"d must be 1 or -1, not {d!r}")
        if f <= 1:
            return
        refs = self._refs
        high = self._high
        if len(refs) < len(high):
            refs.extend([0] * (len(high) - len(refs)))
        turn = 1 if d > 0 else 0
        c = refs[f] + d
        if c < 0:
            raise ValueError(f"no slot on node {f} to remove")
        refs[f] = c
        if c != turn:
            return
        low = self._low
        live = self.live + d
        stack = [f]
        pop = stack.pop
        push = stack.append
        while stack:
            u = pop()
            v = high[u]
            c = refs[v] + d
            refs[v] = c
            if c == turn:
                live += d
                push(v)
            v = low[u]
            c = refs[v] + d
            refs[v] = c
            if c == turn:
                live += d
                push(v)
        self.live = live

    def depends_on(self, f: int, index: int) -> bool:
        """Whether variable ``index`` is in the support of ``f``."""
        self._check_ref(f)
        target = self.level_of_var(index)
        level = self._level
        if level[f] > target:                    # all of f tests below it
            return False
        return any(level[u] == target for u in self._above(f, target))

    def _above(self, f, target):
        """Nodes reachable from ``f`` at or above level ``target``."""
        level, high, low = self._level, self._high, self._low
        above = set()
        stack = [f]
        while stack:
            u = stack.pop()
            if level[u] <= target and u not in above:
                above.add(u)
                if level[u] < target:
                    stack.append(high[u])
                    stack.append(low[u])
        return above

    def support(self, f: int) -> set[int]:
        """Variable indices tested by nodes reachable from ``f``."""
        return {i for _, i, _, _ in self.nodes(f)}

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

    def __repr__(self):
        return (f"<Manager vars={self.var_count} nodes={self.created_count} "
                f"ite_calls={self.ite_calls}>")
