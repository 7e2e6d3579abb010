"""Shared exception types, and the integer renderings of messages and records."""

from __future__ import annotations

import decimal
import sys


def int_text(n: int) -> str:
    """``repr(n)``, or ``a 199,021-bit integer`` past Python's int-digit limit.

    A negative one is ``a negative 199,021-bit integer``.
    """
    if type(n) is int and not getattr(sys, "get_int_max_str_digits", int)():
        # no limit (int() is 0 where Python has none): repr would be quadratic
        return "-" * (n < 0) + decimal_text(abs(n))
    try:
        return repr(n)
    except ValueError:
        return f"a {'negative ' * (n < 0)}{n.bit_length():,}-bit integer"


def decimal_text(n: int) -> str:
    """``str(n)`` for ``n >= 0``, past the int-digit limit and in
    subquadratic time: split by bits, joined in :mod:`decimal` at full
    precision, where products of huge numbers are fast."""
    # 2**2048 has 617 digits, below 640, the least int-digit limit Python
    # accepts, so str() never refuses a base case
    if n.bit_length() <= 2048:
        return str(n)
    with decimal.localcontext() as context:
        context.prec, context.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        powers: dict[int, decimal.Decimal] = {}  # 2**w: each width recurs

        def join(n: int, w: int) -> decimal.Decimal:  # n below 2**w
            if w <= 2048:
                return decimal.Decimal(n)
            half = w >> 1
            if half not in powers:
                powers[half] = decimal.Decimal(2) ** half
            high = n >> half
            return join(n - (high << half), half) + join(high, w - half) * powers[half]
        return str(join(n, n.bit_length()))


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
            f"{what}: requires {int_text(required)}, budget is {int_text(budget)} "
            f"(rerun with a budget of at least {int_text(required)})"
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
