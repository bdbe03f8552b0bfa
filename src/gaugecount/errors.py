"""Exception types shared across the package."""

from __future__ import annotations


class GaugeCountError(Exception):
    """Base class for all errors raised by this package."""


class NotAGroup(GaugeCountError):
    """A multiplication table fails the group axioms."""


class ClosureOverflow(GaugeCountError):
    """Generator closure exceeded the requested maximum order."""


class UnknownFamily(GaugeCountError):
    """Unrecognized built-in group family name."""


class BadParams(GaugeCountError):
    """Invalid parameters for a constructor."""


class NotASubgroup(GaugeCountError):
    """An element subset is not a subgroup."""


class GroupMismatch(GaugeCountError):
    """Objects built over different groups were combined."""


class ClassInconsistency(GaugeCountError):
    """A value claimed to be a class function differs within a class."""


class SnapFailure(GaugeCountError):
    """Eigenvalue multiplicities read off a rep's numeric traces are not close
    enough to non-negative integers that sum to the dimension."""


class NotAHomomorphism(GaugeCountError):
    """An element map is not multiplicative."""


class NotAnAutomorphism(GaugeCountError):
    """An endomorphism is not bijective where a bijection is required."""


class InvalidGammaSet(GaugeCountError):
    """A generating link set is not closed under inversion and conjugation."""


class BudgetExceeded(GaugeCountError):
    """An enumeration would exceed its operation budget."""


class ParseError(GaugeCountError):
    """A text artifact could not be parsed.

    Carries the 1-based line number where parsing failed, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BadDims(GaugeCountError):
    """Invalid lattice dimensions."""


class NonIntegralResult(GaugeCountError):
    """A count that must be a non-negative integer came out otherwise."""


class OddSitesForStaggered(GaugeCountError):
    """Staggered vacuum requires an even number of sites."""


class NotTransitive(GaugeCountError):
    """A group action expected to be transitive is not."""


class NotFree(GaugeCountError):
    """A group action expected to be free is not."""


class DimTooLarge(GaugeCountError):
    """A representation dimension exceeds a hard implementation cap."""
