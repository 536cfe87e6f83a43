"""Exception types shared across the package.

Everything raised on purpose derives from ConepolError.  Errors deriving
from InternalCheckError signal that a property which is guaranteed by
construction failed, i.e. a bug rather than bad input.
"""


class ConepolError(Exception):
    pass


class InternalCheckError(ConepolError):
    pass


# --- ground sets and matroids -------------------------------------------

class InvalidParams(ConepolError):
    pass


class MalformedInput(ConepolError):
    """A JSON input whose shape does not match its documented format."""


class EmptyBases(ConepolError):
    pass


class UnequalBasisSizes(ConepolError):
    pass


class ExchangeAxiomViolation(ConepolError):
    pass


class HasLoops(ConepolError):
    pass


class LoopElement(ConepolError):
    pass


class DivisibilityFailure(InternalCheckError):
    pass


class InternalAxiomFailure(InternalCheckError):
    pass


# --- posets ---------------------------------------------------------------

class NotGraded(ConepolError):
    pass


class NotAnInterval(ConepolError):
    pass


# --- interval coordinates and cones ---------------------------------------

class ElementOutsideInterval(ConepolError):
    pass


# --- polynomials -----------------------------------------------------------

class UnknownVariable(ConepolError):
    pass


class MissingCoordinate(ConepolError):
    pass


class WrongDegree(ConepolError):
    pass


class DimensionMismatch(ConepolError):
    pass


class Inhomogeneous(ConepolError):
    pass


class MismatchWithDirectComputation(InternalCheckError):
    pass


# --- symmetric matrices and certification ----------------------------------

class NotSymmetric(ConepolError):
    pass


class DirectionNotInCone(ConepolError):
    pass


# --- graded ring quotients ---------------------------------------------------

class TopDegreeNotOneDimensional(InternalCheckError):
    pass


class FlagInconsistency(InternalCheckError):
    pass


class SizeLimitExceeded(ConepolError):
    pass
