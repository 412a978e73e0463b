"""Shared exception types and the memory budget of the oracles."""

__all__ = ["PrecisionError", "BudgetError", "BUDGET_BYTES", "check_budget"]

# Bytes the exact d <= 2 kernel, the Fourier oracle, the Walsh series, a
# generated point set or the numerators of a points file may hold at once;
# a request whose bound exceeds it is refused with BudgetError before it
# allocates.
BUDGET_BYTES = 1 << 30


class PrecisionError(ValueError):
    """Raised when a requested digit precision exceeds what the tool supports."""


class BudgetError(RuntimeError):
    """Raised when an evaluation would exceed its memory or size budget."""


def check_budget(need: int, what: str) -> None:
    """Refuse a request whose bound of ``need`` bytes exceeds the budget;
    ``what`` names the request and its need."""
    if need > BUDGET_BYTES:
        raise BudgetError(f"{what}, over its budget of {BUDGET_BYTES}")
