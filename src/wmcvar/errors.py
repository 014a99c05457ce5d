"""Exception types shared across the package.

Each class carries the process exit code the command line tool maps it to.
"""


class WmcvarError(Exception):
    exit_code = 1


class FormatError(WmcvarError):
    """Malformed input text or JSON."""

    exit_code = 2

    def __init__(self, msg, line=None):
        if line is not None:
            msg = "line %d: %s" % (line, msg)
        super().__init__(msg)
        self.line = line


class ValidationError(WmcvarError):
    """Structural property of a circuit or model does not hold."""

    exit_code = 3


class CompileBudgetError(ValidationError):
    """Compilation exceeded the configured node budget."""


class CorrelationScopeError(ValidationError):
    """A lift of an anchored moment to an ancestor vnode spans a
    correlated weight group, so the W_true factors it multiplies in are
    not independent and the lift, composed per vtree edge, is void.
    Valid encodings never trigger this."""


class WeightError(WmcvarError):
    """Weight table does not match the circuit's variables."""

    exit_code = 4


class VtreeMismatchError(WmcvarError):
    """Circuit or query refers to a vtree node inconsistently."""

    exit_code = 5


class EvidenceError(WmcvarError):
    """Evidence refers to unknown network variables or values."""

    exit_code = 6
