"""Exception types shared across the package."""

from __future__ import annotations


class BurneqError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------- groups

class EmptyGeneratorList(BurneqError):
    """A group was requested from an empty generator list."""


class OrderCapExceeded(BurneqError):
    """Closure under the generators exceeded the configured order cap."""


class NotASubgroup(BurneqError):
    """An element set is not closed under the group law."""


class GroupMismatch(BurneqError):
    """Two values built over different groups were combined."""


# ---------------------------------------------------------------- Burnside ring

class NonIntegralSolution(BurneqError):
    """The triangular solve for ring coefficients produced a non-integer.

    Mathematically impossible for a valid table of marks; signals a bug.
    """


class InvalidAction(BurneqError):
    """An action table violates the group-action axioms."""


# ---------------------------------------------------------------- representations

class NotOrthogonal(BurneqError):
    """A generator matrix does not satisfy M^T M = I exactly."""


class NotAHomomorphism(BurneqError):
    """Generator matrices violate a relation of the group."""


class DimensionMismatch(BurneqError):
    """Matrix or vector sizes are inconsistent."""


# ---------------------------------------------------------------- degree

class SingularJacobian(BurneqError):
    """The local map has a singular linearization at its base point."""


class OverlappingPieces(BurneqError):
    """Two standard pieces have non-disjoint orbits or tubes."""


class InvalidPiece(BurneqError):
    """A standard piece violates one of its construction invariants."""


# ---------------------------------------------------------------- realization

class EmptyOrbitTypeStratum(BurneqError):
    """No point of the representation has exactly the requested isotropy."""


class InfeasibleCoefficient(BurneqError):
    """A target element cannot be realized by any polystandard map."""

    def __init__(self, message: str, *, kind: str, class_index: int | None = None):
        super().__init__(message)
        self.kind = kind
        self.class_index = class_index


class ZeroDimNegative(BurneqError):
    """A sign block of dimension zero can only have determinant +1."""


# ---------------------------------------------------------------- expressions

class ExprError(BurneqError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression source; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(ExprError):
    """A variable name outside x1..xn for the declared dimension."""


class BadExponent(ExprError):
    """Exponents must be literal non-negative integers."""


class DivisionByZero(ExprError):
    """Evaluation divided by zero."""


# ---------------------------------------------------------------- descriptor files

class DescriptorError(BurneqError):
    """A descriptor file, element string or setting could not be parsed."""
