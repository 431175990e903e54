"""Exception types and the validation-violation record shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class HsmfError(Exception):
    """Base class for all package errors."""


@dataclass(frozen=True)
class Violation:
    """One failed invariant found while checking a measure spec."""

    code: str      # one of: NonProbabilityVector, RatioOutOfRange, GapPolicyMismatch, BadSchedule
    where: str     # location inside the spec, e.g. "families[1].probs"
    message: str


class SpecValidationError(HsmfError):
    """Raised by validate_spec; carries the full list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(f"{v.code} at {v.where}: {v.message}" for v in self.violations)
        super().__init__(f"invalid measure spec: {detail}")


class ScaleTooSmall(HsmfError):
    """A radius is below the deepest generation that can be enumerated or matched."""


class TooDeep(HsmfError):
    """A requested depth exceeds the cap for exhaustive work."""


class InsufficientScales(HsmfError):
    """A moment table has too few scales or too narrow a span for exponent fits."""


class NoBracket(HsmfError):
    """The root bracket for the normalization exponent could not be established."""


class NoConvergence(HsmfError):
    """The Newton iteration for the normalization exponent hit its iteration cap."""


class DegenerateGrid(HsmfError):
    """A q grid lacks points of both signs away from zero."""


class ParameterOutOfRange(HsmfError):
    """A closed-form reference curve was queried outside its parameter domain."""
