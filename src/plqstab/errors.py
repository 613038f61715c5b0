"""The exceptions of an analysis that are not input-file errors."""

from __future__ import annotations

__all__ = ["InternalConsistencyError", "OversizeError"]


class InternalConsistencyError(AssertionError):
    """A theorem-level equivalence failed on exact data; always a bug.

    Raised explicitly, never by ``assert``, so the check survives
    ``python -O``; the CLI maps it to exit code 2.
    """


class OversizeError(ValueError):
    """A value of the report too large to write as text; the CLI maps it
    to exit code 1, an input error."""
