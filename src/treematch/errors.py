"""Exception types shared across the package.

Input-validation failures raise specific ``TreematchError`` subclasses so
callers (and the CLI) can distinguish a malformed instance from a solver
saying "no".  The one outcome-style exception is :class:`Infeasible`,
raised by solvers whose answer is a definite negative.
:class:`InternalError` is the one exception that is not a
``TreematchError``: it means a self-check failed.
"""

from __future__ import annotations


class TreematchError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(TreematchError):
    """A graph / rotation / CNF-layout file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotBipartiteError(TreematchError):
    """The graph contains an odd cycle; the witness cycle is attached."""

    def __init__(self, odd_cycle: tuple[int, ...]):
        self.odd_cycle = odd_cycle
        super().__init__(f"graph is not bipartite, odd cycle {list(odd_cycle)}")


class NotATreeError(TreematchError):
    """An edge set expected to be a spanning tree is not one."""


class DisconnectedError(TreematchError):
    """The operation requires a connected graph."""


class OddVertexCountError(TreematchError):
    """Perfect matchings need an even number of vertices."""


class OddDeficiencyError(TreematchError):
    """A deficiency profile with odd total deficiency has no optimum."""


class HostMismatchError(TreematchError):
    """The given graph does not fit inside the declared host."""


class WeightOrderError(TreematchError):
    """Two-valued weights must satisfy light < heavy."""


class UnbalancedError(TreematchError):
    """The bipartition sides differ in size."""


class GroundSetMismatchError(TreematchError):
    """Two matroids were combined over different ground sets."""


class NotCubicError(TreematchError):
    """Every vertex must have degree exactly three."""


class BadRotationError(TreematchError):
    """A rotation system does not list each vertex's incident edges once."""


class BadLayoutError(TreematchError):
    """A CNF layout's side/occurrence annotations are inconsistent."""


class NotHamiltonianError(TreematchError):
    """The given vertex order is not a Hamiltonian cycle of the graph."""


class NotSatisfyingError(TreematchError):
    """The given assignment does not satisfy the formula."""


class MalformedTreeError(TreematchError):
    """A tree handed to a certificate extractor has an unexpected shape."""


class NotStronglyBalancedError(TreematchError):
    """The tree handed to an extractor is not strongly balanced."""


class TruncatedError(TreematchError):
    """An oracle hit its cap: more than ``cap`` spanning trees contain a
    perfect matching, or the pruned search passed its node cap."""


class TooLargeError(TreematchError):
    """The instance exceeds the size limit of a brute-force oracle."""


class Infeasible(TreematchError):
    """Definite negative outcome of a solver (not an input error)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class InternalError(AssertionError):
    """A self-check failed: a bug, not bad input.  Every check the
    package makes of its own results raises it, from a solver's internal
    invariants to the certificate checks of ``verify``.

    It is an ``AssertionError`` and no ``TreematchError``, so the CLI lets
    it escape as a traceback instead of reporting an input error.
    """
