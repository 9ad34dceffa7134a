"""Exception hierarchy shared by every module.

Each class corresponds to one named error condition of the public
operations; the CLI maps them onto exit codes.
"""

from __future__ import annotations


class QuinticPeriodsError(Exception):
    """Base class for all package errors."""


class NonConvergenceError(QuinticPeriodsError):
    """Iterative root solver failed after the iteration cap."""


class PoleMismatchError(QuinticPeriodsError):
    """Declared pole order disagrees with the denominator's local multiplicity."""


class BaseLocusCollisionError(QuinticPeriodsError):
    """A residue site is a pole fed by the wrong denominator factor.

    Raised when a zero of the residue coordinate x_{j0} is also a zero of
    x_{j1} and the integrand genuinely has a pole there, so the local
    multiplicity cannot be attributed to one chart.
    """

    @classmethod
    def at_zero(cls, loc: complex) -> BaseLocusCollisionError:
        """The error for a pole at ``loc``, a zero of both coordinates."""
        return cls(
            f"zero of the residue coordinate at {loc:.6g} is also a zero of the "
            "companion coordinate and the integrand has a pole there"
        )


class ParseError(QuinticPeriodsError):
    """Expression source could not be parsed; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class BranchError(QuinticPeriodsError):
    """root5 continuation failed (radicand hit zero or path unresolvable)."""


class EvaluationError(QuinticPeriodsError):
    """Expression evaluated outside its supported domain (e.g. division by a
    t-dependent quantity, root5 of a non-constant polynomial)."""


class DegreeError(QuinticPeriodsError):
    """Polynomial degree violates a required degree relation."""


class DimensionMismatchError(QuinticPeriodsError):
    """Curve data and hypersurface dimensions are incompatible."""


class UnsupportedShapeError(QuinticPeriodsError):
    """The period recipe is wired only for five coordinates (m=3, q=1)."""


class DegenerateMapError(QuinticPeriodsError):
    """Moebius map with vanishing determinant."""


class IndexSelectionError(QuinticPeriodsError):
    """Duplicate or out-of-range indices in a contraction tuple."""


class ReferenceZeroError(QuinticPeriodsError):
    """Closed-form reference vanishes at a comparison sample."""


class ConfigError(QuinticPeriodsError):
    """Invalid run configuration; carries the offending field path."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{message}" + (f" (field: {field})" if field else ""))
        self.field = field


class GoldenFixtureError(QuinticPeriodsError):
    """Golden regression fixture missing, unreadable, or malformed."""
