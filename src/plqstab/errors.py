"""The exception raised when an internal consistency check fails."""

from __future__ import annotations

__all__ = ["InternalConsistencyError"]


class InternalConsistencyError(AssertionError):
    """A theorem-level equivalence failed on exact data; always a bug.

    Raised explicitly, never by ``assert``, so the check survives
    ``python -O``; the CLI maps it to exit code 2.
    """
