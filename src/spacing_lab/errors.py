"""Exception taxonomy shared by every module.

The CLI maps these onto exit codes: usage problems (ArgumentError,
UnsupportedError) exit 2, data and numeric failures exit 3.
"""


class SpacingLabError(Exception):
    """Base class for all package errors."""


class ArgumentError(SpacingLabError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class UnsupportedError(SpacingLabError, ValueError):
    """A parameter value outside the implemented set (e.g. a Bessel order
    with no closed trigonometric form)."""


class NumericError(SpacingLabError, ArithmeticError):
    """A computation produced non-finite or out-of-tolerance values.

    Carries optional context so the failing point can be reported.
    """

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context or {}


class FormatError(SpacingLabError, ValueError):
    """Malformed external data; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ConsistencyError(NumericError):
    """Two routes that must agree (or a monitored ODE defect) drifted apart."""


class StiffnessError(NumericError):
    """Adaptive step size underflowed during ODE integration."""


class DerivationError(NumericError):
    """A boundary series could not be derived: the matched coefficients
    leave a residual (leading data inconsistent with the equation), a
    series square root has no positive leading term at an even exponent,
    or the series tail is too large at the switch point."""
