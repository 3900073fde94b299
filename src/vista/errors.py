"""The one error type for bad input, whether malformed or invalid."""

from __future__ import annotations


class ValidationError(ValueError):
    """Raised when input data violates a documented invariant.

    Carries the full list of problems found, not just the first one, so
    callers can report every violation in a file at once.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
