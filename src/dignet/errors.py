"""Shared exception types and the memory budget of the oracles."""

__all__ = ["PrecisionError", "BudgetError", "BUDGET_BYTES"]

# Bytes the Fourier oracle or the Walsh series may hold at once; a request
# whose bound exceeds it is refused with BudgetError before it allocates.
BUDGET_BYTES = 1 << 30


class PrecisionError(ValueError):
    """Raised when a requested digit precision exceeds what the tool supports."""


class BudgetError(RuntimeError):
    """Raised when an evaluation would exceed its memory or size budget."""
