"""Exception hierarchy shared across the package.

Everything derives from LogPeriodicError so callers can catch broadly;
the CLI maps the subclasses onto distinct exit codes.
"""

import operator


class LogPeriodicError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LogPeriodicError, ValueError):
    """Invalid input data or configuration (bad CSV, malformed window, ...)."""


class DomainError(LogPeriodicError, ValueError):
    """Evaluation outside the mathematical domain (e.g. t >= tc)."""


class DegenerateBasisError(LogPeriodicError):
    """The 4x4 normal system of the linear subproblem is numerically singular."""


class FitFailedError(LogPeriodicError):
    """No admissible candidate was found during the nonlinear search.

    `evaluations` is the search's count of cost evaluations, None where no search ran.
    """

    def __init__(self, message: str, evaluations: int | None = None):
        super().__init__(message)
        self.evaluations = evaluations


class InsufficientHistoryError(ValidationError):
    """An endpoint does not have enough prior observations for the window scheme."""


def integer(name: str, value, least: int | None = None) -> int:
    """`value` of the integer setting `name` as an int; ValidationError for a non-integer.

    Takes what operator.index takes (int, bool, numpy integers), so 2.5 or
    '2' is an error rather than a silently truncated or unusable value. Given
    `least`, a smaller value is one too: `<name> must be >= <least>, got <value>`.
    """
    try:
        index = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and index < least:
        raise ValidationError(f"{name} must be >= {least}, got {index}")
    return index
