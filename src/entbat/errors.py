"""Exception types shared across the package.

Each class carries a short machine-readable ``kind`` used by the CLI when
printing ``error: <kind>: <detail>`` lines.
"""
from __future__ import annotations


class EntbatError(Exception):
    """Base class for all package-specific failures."""

    kind = "error"


class ShapeError(EntbatError):
    """Operands have incompatible or malformed dimensions."""

    kind = "shape"


class DomainError(EntbatError):
    """A scalar argument lies outside the domain of the operation."""

    kind = "domain"


class CapacityError(EntbatError):
    """The requested object exceeds the configured dimension budget."""

    kind = "capacity"


class ValidationError(EntbatError):
    """A state violates one of its defining invariants."""

    kind = "validation"


class ParseError(EntbatError):
    """A state or scenario file, or a command-line value, could not be decoded."""

    kind = "parse"


class ApplicabilityError(EntbatError):
    """The operation is defined, but not for this kind of input."""

    kind = "applicability"


class InfeasibleError(EntbatError):
    """A protocol was requested for a conversion the battery cannot license."""

    kind = "infeasible"


class UnboundedRateError(EntbatError):
    """Conversion rate is unbounded because the target carries no resource."""

    kind = "unbounded-rate"


class SearchExhaustedError(EntbatError):
    """A randomized search used up its sample budget without success."""

    kind = "search-exhausted"
