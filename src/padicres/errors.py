"""Exception types shared across the package."""


class PadicResError(Exception):
    """Base class for all library errors."""


class PolyParseError(PadicResError):
    """Raised on malformed polynomial input.

    `position` is the 0-based offset into the source string where the
    problem was detected.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BudgetExceededError(PadicResError):
    """A degree/level budget guard refused a computation."""


class VanishingResultantError(PadicResError):
    """A resultant that must be nonzero for the operation vanished."""


class WindowTooShortError(PadicResError):
    """Not enough levels for an exact Iwasawa-law fit."""


class PrecisionExhaustedError(PadicResError):
    """A value is indistinguishable from 0 at the working precision."""


class DegenerateValueError(PadicResError):
    """A formula degenerates for this input (e.g. log of a torsion unit)."""


class OracleMismatchError(PadicResError):
    """Two independent computations of the same quantity disagree.

    Always indicates a bug; surfaced as its own type so callers (and the
    CLI) can treat it as fatal.
    """


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, so deliberately neither a
    PadicResError nor a ValueError, which the CLI reports as user errors."""


class ExactDivisionError(InvariantError):
    """An exact division turned out not to be exact.

    Raised by the fraction-free elimination internals; reaching this is a
    bug, not a user error, so the CLI exits 1.
    """
