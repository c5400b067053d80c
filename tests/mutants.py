"""Mutant catalogue: deliberate faults that tier-1 must catch.

    python3 tests/mutants.py [NAME...]

Each entry of :data:`MUTANTS` is one fault, written as an exact text
replacement in one file under ``src/``.  The script copies the
repository to a temporary directory and runs tier-1 there,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors \
        --ignore=tests/test_mutants.py

first on the unmutated copy, which must pass, and then once per entry
(or per entry named on the command line) with only that entry applied.
It prints each mutant's failed-test count, the failing tests when there
are at most three, and the time, and exits 1 if a mutant passes every
test.  Only the standard library and pytest are used.  An equivalent
mutant, one that changes no result and no counter, does not belong in
the list: no test can catch it.

pytest does not collect this file.  ``test_mutants.py`` checks that
every entry's old text occurs exactly once in ``src/``, so a refactor
that rewrites a mutated line must update the entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# test_mutants.py fails under every mutant by design, so it is left out
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str              # relative to the repository root
    old: str               # occurs exactly once in src/
    new: str


BDD = "src/bddcheck/bdd.py"
SIM = "src/bddcheck/simulate.py"
CIRCUIT = "src/bddcheck/circuit.py"
CLI = "src/bddcheck/cli.py"

MUTANTS = [
    # normalisation of the triple at ite entry
    Mutant("ite-or-operands-unordered", BDD,
           "if h < f:", "if False:"),
    Mutant("ite-and-operands-unordered", BDD,
           "if g < f:", "if False:"),
    Mutant("ite-f-f-h-kept", BDD,
           "if g == f:", "if False:"),
    Mutant("ite-f-g-f-kept", BDD,
           "elif h == f:", "elif False:"),
    Mutant("ite-f-0-h-not-negated", BDD,
           "f, g, h = nf, h, ZERO", "pass"),
    Mutant("ite-f-g-1-not-negated", BDD,
           "f, g, h = nf, ONE, g", "pass"),
    Mutant("ite-f-g-1-negated-without-swap", BDD,
           "f, g, h = nf, ONE, g", "f, g, h = nf, g, ONE"),
    Mutant("ite-f-and-not-f-expanded", BDD,
           "if cache.get(neg | f) == g:", "if False:"),
    Mutant("ite-f-or-not-f-expanded", BDD,
           "if cache.get(neg | f) == h:", "if False:"),
    Mutant("ite-no-reverse-negation-entry", BDD,
           "cache[neg | r] = f", "pass"),
    # the kernel
    Mutant("kernel-then-f-1-0-expanded", BDD,
           "elif g1 == 1 and h1 == 0:", "elif False:"),
    Mutant("kernel-else-f-1-0-expanded", BDD,
           "elif g0 == 1 and h0 == 0:", "elif False:"),
    Mutant("kernel-children-swapped", BDD,
           "high.append(t)\n                                low.append(e)",
           "high.append(e)\n                                low.append(t)"),
    # table keys and the node limit
    Mutant("key-width-off-by-one", BDD,
           "(self.node_limit + 1).bit_length()",
           "self.node_limit.bit_length()"),
    Mutant("kernel-limit-off-by-one", BDD,
           "if r >= end:", "if r > end:"),
    Mutant("make-limit-off-by-one", BDD,
           "if r >= self.node_limit + 2:", "if r > self.node_limit + 2:"),
    # gate synthesis
    Mutant("apply-mux-branches-swapped", BDD,
           "return self._ite(s, t, e)", "return self._ite(s, e, t)"),
    Mutant("apply-nand-no-controlling-shortcut", BDD,
           "acc = ONE if acc == ZERO else self._ite(", "acc = self._ite("),
    Mutant("apply-xor-no-zero-shortcut", BDD,
           "acc = b if acc == ZERO else self._ite(", "acc = self._ite("),
    Mutant("fold-nand-step-or", CIRCUIT,
           'FOLD_STEP = {"nand": "and", "nor": "or"}',
           'FOLD_STEP = {"nand": "or", "nor": "or"}'),
    # the size memo and the kept node set
    Mutant("size-no-negation-reuse", BDD,
           "n = sizes.get(self._cache.get(ONE << 2 * self._w | f))",
           "pass"),
    Mutant("size-kept-set-never-reset", BDD,
           "if self._walked not in (hu, lu):\n"
           "                        self._reach = set()",
           "if self._walked not in (hu, lu):\n"
           "                        pass"),
    Mutant("size-kept-set-always-reset", BDD,
           "if self._walked not in (hu, lu):", "if True:"),
    Mutant("size-kept-root-never-updated", BDD,
           "self._walked = u", "pass"),
    Mutant("size-walked-counts-whole-sets", BDD,
           "self.size_walked += m - before", "self.size_walked += m"),
    Mutant("size-kept-set-through-high-only", BDD,
           "if self._walked not in (hu, lu):", "if self._walked != hu:"),
    Mutant("size-kept-set-from-the-node-itself", BDD,
           "if self._walked not in (hu, lu):",
           "if self._walked not in (hu, lu, u):"),
    # other walks
    Mutant("depends-on-off-by-one", BDD,
           "if level[f] > target:", "if level[f] >= target:"),
    Mutant("nodes-children-swapped", BDD,
           "return [(u, var_at[level[u]], high[u], low[u])",
           "return [(u, var_at[level[u]], low[u], high[u])"),
    # the live count
    Mutant("hold-ignores-release", BDD,
           'raise ValueError(f"d must be 1 or -1, not {d!r}")',
           'raise ValueError(f"d must be 1 or -1, not {d!r}")\n'
           "        if d < 0:\n"
           "            return"),
    Mutant("hold-counts-terminal-slots", BDD,
           "        if f <= 1:\n            return\n        refs = self._refs",
           "        refs = self._refs"),
    Mutant("hold-removes-a-slot-never-added", BDD,
           'if c < 0:\n            raise ValueError(f"no slot on node {f} to remove")',
           "if False:\n            pass"),
    Mutant("simulate-releases-the-inputs", SIM,
           "for s in circuit.inputs:\n            uses[s] += 1",
           "for s in ():\n            uses[s] += 1"),
    Mutant("simulate-clears-the-table-before-inv", SIM,
           "            result = mgr.apply(",
           "            if gate.kind == 'inv':\n"
           "                mgr.clear_computed_cache()\n"
           "            result = mgr.apply("),
    # reports
    Mutant("poly-bound-skips-outputs", SIM,
           "if row.topo_index in picked or row.signal in outputs]",
           "if row.topo_index in picked]"),
    Mutant("csv-fields-joined-by-hand", SIM,
           'csv.writer(buf, lineterminator="\\n").writerows([SIGNAL_KEYS, *stats.rows])',
           "buf.writelines(','.join('' if v is None else str(v) for v in r)"
           " + '\\n' for r in [SIGNAL_KEYS, *stats.rows])"),
    Mutant("json-rows-boundary-pad", CLI,
           '.replace("},\\n      {", "\\n    },\\n    {\\n      ")',
           '.replace("},\\n      {", "\\n  },\\n    {\\n      ")'),
    Mutant("json-rows-head-pad", CLI,
           """'\\n  "signals": [\\n    {\\n      '""",
           """'\\n  "signals": [\\n  {\\n      '"""),
    Mutant("json-rows-closing-pad", CLI,
           '"\\n    }\\n  ]"', '"\\n  }\\n  ]"'),
    Mutant("json-rows-given-to-dumps", CLI,
           'json.dumps({**report, "signals": None} if rows else report,',
           "json.dumps(report,"),
    # the MUX round trip
    Mutant("mux-gates-and-names-swapped", CIRCUIT,
           'a0 = fresh_name(f"{out}__a0", taken)\n'
           '    a1 = fresh_name(f"{out}__a1", taken)',
           'a0 = fresh_name(f"{out}__a1", taken)\n'
           '    a1 = fresh_name(f"{out}__a0", taken)'),
    Mutant("roundtrip-iso-children-swapped", "src/bddcheck/bddcircuit.py",
           "iso[u] = sim.make(var, iso[hi], iso[lo])",
           "iso[u] = sim.make(var, iso[lo], iso[hi])"),
    Mutant("expand-keeps-the-source-alive", CLI,
           "    del res\n", ""),
    Mutant("expand-keeps-the-round-trip-rows", CLI,
           "    report.stats = None\n", ""),
]


def run_tier1(tree: Path) -> tuple[int | None, list[str], str, float]:
    """``(returncode, failing test ids, summary line, seconds)`` of one
    tier-1 run in ``tree``; the returncode is ``None`` on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [], f"timed out after {TIMEOUT_S} s", TIMEOUT_S
    lines = proc.stdout.splitlines()
    failing = [line.split()[1] for line in lines
               if line.startswith(("FAILED ", "ERROR "))]
    summary = lines[-1].strip("= ") if lines else proc.stderr.strip()
    return proc.returncode, failing, summary, time.monotonic() - t0


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    t_start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".perfbench_work", "*.egg-info"))
        code, _, summary, secs = run_tier1(tree)
        print(f"unmutated: {summary} ({secs:.1f} s)", flush=True)
        if code != 0:
            print("the unmutated copy fails tier-1; no mutant can be judged")
            return 2
        survivors = []
        for m in chosen:
            path = tree / m.path
            original = path.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                print(f"{m.name}: old text does not occur exactly once")
                survivors.append(m.name)
                continue
            path.write_text(original.replace(m.old, m.new),
                            encoding="utf-8")
            try:
                code, failing, summary, secs = run_tier1(tree)
            finally:
                path.write_text(original, encoding="utf-8")
            if code == 0:
                verdict = "SURVIVES"
                survivors.append(m.name)
            else:
                verdict = summary
                if 0 < len(failing) <= 3:
                    verdict += " [" + ", ".join(failing) + "]"
            print(f"{m.name}: {verdict} ({secs:.1f} s)", flush=True)
    print(f"{len(chosen)} mutants, {len(survivors)} surviving, "
          f"{time.monotonic() - t_start:.0f} s in all")
    if survivors:
        print("surviving: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
