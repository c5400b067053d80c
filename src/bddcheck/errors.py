"""Exception types shared across the package."""


class BddCheckError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(BddCheckError):
    """Raised when a manager would exceed its configured node limit."""

    def __init__(self, message, node_limit=None):
        super().__init__(message)
        self.node_limit = node_limit


class CircuitError(BddCheckError):
    """Structural problem in a circuit (bad arity, undefined signal, cycle).

    ``signal`` names the signal at fault, if there is one: a duplicated
    name, the gate with a bad kind, arity or input, an undefined output,
    or one signal on a cycle.
    """

    def __init__(self, message, signal=None):
        super().__init__(message)
        self.signal = signal


class ParseError(BddCheckError):
    """Netlist syntax or consistency error, with a 1-based line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


class InterfaceError(BddCheckError):
    """The two sides of an equivalence check have mismatched interfaces."""
