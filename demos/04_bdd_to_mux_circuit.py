"""Turn a BDD into a circuit, one MUX per node, and close the loop.

Each internal node becomes a multiplexer selected by its variable, with
the low child on the else input and the high child on the then input;
terminals become constants.  Simulating that circuit under the original
variable order rebuilds the original BDD node for node, and with the
standard inverter/AND/AND/OR realization every internal signal stays
within one node of the data it routes.
"""

from bddcheck import Manager, expand_to_circuit, roundtrip_verify, serialize
from bddcheck.generators import random_bdd

m = Manager(2)
f = m.apply("or", [m.var(0), m.var(1)])
print("OR-function BDD, size", m.size(f))
print(m.dump(f), end="")

circuit, _ = expand_to_circuit(m, [f], "mux", var_names=["x1", "x2"])
print("\nMUX netlist (2 nodes -> 2 cells):")
print(serialize(circuit), end="")

report = roundtrip_verify(m, [f], "gates", var_names=["x1", "x2"])
print("\nstandard-gates round trip:", "pass" if report.ok else "FAIL")
print("  original size        :", report.original_size)
print("  max internal BDD size:", report.max_internal_size)
print("  nodes created        :", report.created_total)

# a bigger random instance
m2 = Manager(10)
g = random_bdd(m2, seed=11)
report = roundtrip_verify(m2, [g], "gates")
print(f"\nrandom 10-var BDD of size {report.original_size}: "
      f"round trip {'pass' if report.ok else 'FAIL'}, "
      f"max internal size {report.max_internal_size}, "
      f"created {report.created_total} "
      f"(envelope {5 * report.original_size * (report.original_size + 2)})")
