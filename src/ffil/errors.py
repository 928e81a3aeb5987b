"""Shared exception types.

Three failure categories are kept apart so callers (and the CLI exit codes)
can distinguish bad inputs from blown search budgets from randomized
constructions that ran out of retries.
"""


class DomainError(ValueError):
    """Input violates an operation's precondition or mathematical domain."""


class ResourceLimitError(RuntimeError):
    """An enumeration or search cap was exceeded.

    Raised instead of returning an approximate answer; the caller must shrink
    the instance or raise the module constant (README, "Exit codes").
    """


class ConstructionFailure(RuntimeError):
    """A randomized construction exhausted its retry cap.

    Carries the best attempt seen so far in ``best`` (a report object), so the
    caller can inspect how close the construction came.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
