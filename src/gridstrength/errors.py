"""Exception types shared across the package."""


class GridStrengthError(Exception):
    """Base class for all errors raised by this package."""


class CaseFormatError(GridStrengthError):
    """Case file failed to parse or violated a schema invariant.

    The message names the offending field or invariant so the CLI can
    surface it verbatim (exit code 2).
    """


class ConverterInfeasible(GridStrengthError):
    """Converter steady state has no solution at the requested (U, P_order).

    Raised when the current quadratic has no real root (voltage too low to
    deliver the ordered power) or when the overlap angle leaves its domain.
    Power-flow callers treat this as a failed trial step, the same way they
    treat a non-converging Newton iteration.  The continuation raises it
    when not even its light start has an in-band solution, which the
    threshold searches read as a grid too weak for the converters.
    """

    def __init__(self, reason: str, bus: str | None = None):
        self.reason = reason
        self.bus = bus
        msg = reason if bus is None else f"{reason} (bus {bus})"
        super().__init__(msg)


class EigenSolveError(GridStrengthError):
    """Dense eigensolver failed; never silently approximated."""


class BracketError(GridStrengthError):
    """A scalar search could not bracket a sign change in its allowed range."""
