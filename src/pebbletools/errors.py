"""Exception types shared across the toolkit, the one rule for a number
in input text (`parse_natural`), the one rule by which error messages
quote input text (`_quote`), and the one refusal of an input over a size
cap (`_check_cap`)."""

from __future__ import annotations

__all__ = [
    "BudgetError",
    "IllegalMoveError",
    "NotApplicableError",
    "PebblingError",
    "ReplayError",
    "SizeLimitError",
]

# The most characters of input text that an error message quotes.
_QUOTE = 80


def parse_natural(text: str) -> int:
    """The one rule for a number in input text, typed or in a `file:`: a
    run of ASCII digits 0-9.

    Signs, underscores, spaces and non-ASCII digits are refused, and so is
    a run longer than `int()` converts; each raises ValueError.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError("expected an integer")
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ValueError(f"integer of {len(text)} digits is too long") from None


def _quote(text: str, pos: int = 0, whole: str = "") -> str:
    """Input text (typed, a line of a file, or a file's path) as an error
    message quotes it: `whole` and the text up to _QUOTE characters,
    otherwise "near" and the _QUOTE characters around position `pos`."""
    if len(text) <= _QUOTE:
        return f"{whole}{text!r}"
    lo = max(0, min(pos - _QUOTE // 2, len(text) - _QUOTE))
    return f"near {text[lo:lo + _QUOTE]!r}"


def _check_cap(count: int, cap: int | None, unit: str = "vertices") -> None:
    """The one refusal of an input over a size cap, made before any work:
    SizeLimitError when `cap` is not None and `count` exceeds it."""
    if cap is not None and count > cap:
        raise SizeLimitError(f"{count} {unit} exceeds cap {cap}")


class PebblingError(Exception):
    """Base class for all toolkit-specific errors."""


class SizeLimitError(PebblingError):
    """An input exceeds a configured size cap (vertices or pebbles); raised
    only by `_check_cap`, before any work is done."""


class IllegalMoveError(PebblingError):
    """A pebbling move violates the rules (too few pebbles, non-adjacent pair)."""


class ReplayError(PebblingError):
    """A move sequence failed during replay.

    Attributes:
        step: zero-based index of the offending move.
    """

    def __init__(self, step: int, message: str):
        super().__init__(f"move {step}: {message}")
        self.step = step


class NotApplicableError(PebblingError):
    """A surgery does not fit the distribution: its pattern is absent, a
    pebble count breaks its precondition, or the result would leave too
    few vertices for its family (a path needs 1, a cycle 3)."""


class BudgetError(PebblingError):
    """A search stopped by its budget or its value cap before finishing.

    Attributes:
        lower_bound: best proven lower bound on the quantity being computed.
        upper_bound: best proven upper bound, or None if none is known.
        examined: how many candidates were examined before giving up.
    """

    def __init__(self, message: str, *, lower_bound: int | None = None,
                 upper_bound: int | None = None, examined: int = 0):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.examined = examined
