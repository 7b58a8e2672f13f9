"""Exception types shared across the package."""


class StructuralError(Exception):
    """An internal consistency guarantee failed (e.g. an exact division that the
    underlying congruence promises must succeed, or a value escaping F_{p^2}).

    This always signals a bug or a transcription slip, never bad user input.
    """


class UsageError(Exception):
    """Bad configuration or command-line input."""
