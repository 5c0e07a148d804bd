"""Exception types shared across the package."""


class NcpolyError(Exception):
    """Base class for all library errors."""


class DimensionError(NcpolyError):
    """Matrix or vector dimensions do not match the operation."""


class EmptyPolytopeError(NcpolyError):
    """An inequality system has no solution."""


class UnboundedPolytopeError(NcpolyError):
    """An inequality system describes an unbounded polyhedron."""


class SpanError(NcpolyError):
    """A point set does not affinely span the ambient space."""


class SkeletonViolationError(NcpolyError):
    """A projection collapsed two vertices that must stay distinct."""


class ConstructionError(NcpolyError):
    """A derived cell complex failed its structural validity checks."""


class FormulaError(NcpolyError):
    """Closed-form expressions that must agree evaluated differently."""


class TheoremViolationError(NcpolyError):
    """An exhaustive verification found a counter-example where none may exist."""
