"""Semantic exception hierarchy shared by all modules, and the one rule
for integer inputs.

Each class maps to a CLI exit code so command-line failures are
machine-distinguishable.
"""

from numbers import Integral


class RicBoundsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class DomainError(RicBoundsError, ValueError):
    """An input violates a documented precondition (exit code 2)."""

    exit_code = 2


class SolverError(RicBoundsError, RuntimeError):
    """A root search or optimization failed to converge (exit code 3)."""

    exit_code = 3


class GuardError(RicBoundsError, RuntimeError):
    """A combinatorial guard refused the computation (exit code 4)."""

    exit_code = 4


class IOFailure(RicBoundsError, OSError):
    """Output could not be written (exit code 5)."""

    exit_code = 5


def check_count(name: str, value, least: int = 0) -> None:
    """Raise DomainError unless value is an integer (Python or numpy, not
    bool) of at least `least`: the rule for every size, count and seed."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
