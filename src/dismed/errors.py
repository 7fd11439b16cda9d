"""Exception taxonomy shared across the engine.

Faults are reserved for broken inputs and unusable configurations. Anything the
model treats as data (an undecidable comparison, a violated inequality, an
infeasible optimization box) is reported through return values, never raised.
"""

from __future__ import annotations


class DismedError(Exception):
    """Base class for all engine errors."""


class ParseError(DismedError):
    """Scenario / config / bounds file is not parseable or is missing fields."""


class UnknownField(ParseError):
    """A key in an input file is not part of the closed schema."""


class ValidationError(DismedError):
    """A loaded scenario violates model invariants.

    Carries the individual violations so callers can name them.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        codes = ", ".join(v.code for v in self.violations)
        super().__init__(f"scenario validation failed: {codes}")


class PathCoverageError(DismedError):
    """A sampled time path does not cover the requested horizon."""


class MissingCapitalResponse(DismedError):
    """Neither SC_br nor RC_br is linked to any broker decision field."""


class RejectionLimit(DismedError):
    """Rejection sampling exceeded its redraw budget."""


class IndeterminateAtBase(DismedError):
    """Sensitivity analysis requires a determinate, non-vacuous base verdict."""
