"""BDD-based combinational circuit verification toolkit.

Reduced ordered BDDs without complement edges, symbolic simulation with
node-count instrumentation, miter-based equivalence checking, and
one-to-one expansion of BDDs into multiplexer netlists.
"""

from .bdd import DEFAULT_NODE_LIMIT, Manager, ONE, ZERO
from .bddcircuit import (RoundtripReport, SourceBdds, expand_to_circuit,
                         roundtrip_verify)
from .circuit import (Circuit, Gate, GATE_KINDS, decompose_multi_input,
                      dfs_variable_order, expand_mux, fanout_counts, is_tree,
                      topological_order)
from .equivalence import (ABORTED, EQUIVALENT, NOT_EQUIVALENT, VerifyOutcome,
                          build_miter, check_equivalence,
                          extract_counterexample)
from .errors import (BddCheckError, CapacityError, CircuitError,
                     InterfaceError, ParseError)
from .netlist import load, parse, serialize
from .oracle import (TruthTable, bdd_function_table, circuit_truth_table,
                     evaluate_circuit, tables_equal)
from .simulate import (PolyBoundConfig, PolyBoundReport, SimResult, SimStats,
                       SimulationCapacityError, check_poly_bound, simulate,
                       stats_to_csv, stats_to_json, top_variable_probe)

__version__ = "0.1.0"

__all__ = [
    "ABORTED",
    "BddCheckError",
    "CapacityError",
    "Circuit",
    "CircuitError",
    "DEFAULT_NODE_LIMIT",
    "EQUIVALENT",
    "Gate",
    "GATE_KINDS",
    "InterfaceError",
    "Manager",
    "NOT_EQUIVALENT",
    "ONE",
    "ParseError",
    "PolyBoundConfig",
    "PolyBoundReport",
    "RoundtripReport",
    "SimResult",
    "SimStats",
    "SimulationCapacityError",
    "SourceBdds",
    "TruthTable",
    "VerifyOutcome",
    "ZERO",
    "bdd_function_table",
    "build_miter",
    "check_equivalence",
    "check_poly_bound",
    "circuit_truth_table",
    "decompose_multi_input",
    "dfs_variable_order",
    "evaluate_circuit",
    "expand_mux",
    "expand_to_circuit",
    "extract_counterexample",
    "fanout_counts",
    "is_tree",
    "load",
    "parse",
    "roundtrip_verify",
    "serialize",
    "simulate",
    "stats_to_csv",
    "stats_to_json",
    "tables_equal",
    "top_variable_probe",
    "topological_order",
]
