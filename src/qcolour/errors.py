"""Exception types shared across the package."""

from __future__ import annotations


class QcolourError(Exception):
    """Base class for all package errors."""


class DomainError(QcolourError, ValueError):
    """Input outside an operation's domain (zero, negative, wrong shape...)."""


class UnsupportedPrimeError(DomainError):
    """A denominator involves a prime beyond the first ``core.PRIME_CAP`` primes."""


class TableExhaustedError(DomainError):
    """A prime index beyond ``core.PRIME_CAP`` was asked for."""


class BudgetExhaustedError(QcolourError):
    """A bounded search ran out of node budget.

    ``best_depth`` records how far the search got before giving up.
    """

    def __init__(self, message: str, best_depth: int = 0):
        super().__init__(message)
        self.best_depth = best_depth


class InternalInvariantError(QcolourError, RuntimeError):
    """An internally-impossible state was reached; indicates a bug."""
