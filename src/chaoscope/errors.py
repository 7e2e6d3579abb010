"""Shared exception types."""

from __future__ import annotations


class ChaoscopeError(Exception):
    """Base class for all package errors."""


class StructuralError(ChaoscopeError):
    """Malformed input data: bad vertex ids, mismatched map lengths, bad addresses."""


class BudgetExceeded(ChaoscopeError):
    """An operation would exceed its size budget.

    Carries the budget that was in force and the size the operation would
    actually need, so callers can decide whether to retry with a larger one.
    """

    def __init__(self, what: str, required: int, budget: int):
        self.what = what
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what}: requires {required}, budget is {budget} "
            f"(rerun with a budget of at least {required})"
        )


class SpineExhausted(ChaoscopeError):
    """A point handle was driven past the range its spine address determines.

    ``first_invalid_offset`` is the smallest (for forward motion) or largest
    (backward) offset that is no longer determined by the spine; callers may
    extend the spine one level with ``lift_choices`` and re-seed.
    """

    def __init__(self, message: str, first_invalid_offset: int):
        self.first_invalid_offset = first_invalid_offset
        super().__init__(message)
