"""Exception types shared across the package.

Every error the package raises is a Kopt12Error, so the CLI catches that
one root and exits 2.  Each class also keeps a built-in base (ValueError,
or RuntimeError for ConstructionError) for callers that catch those.
Validation failures are deliberately split into distinct classes so callers
(and tests) can tell a malformed tour apart from a malformed argument or a
malformed input file.
"""


class Kopt12Error(Exception):
    """Root of every error the package raises."""


class InvalidArgumentError(Kopt12Error, ValueError):
    """An argument is outside the domain of the operation."""


class TourValidationError(Kopt12Error, ValueError):
    """Base class for tour validation failures."""


class WrongLengthError(TourValidationError):
    """The tour order does not have exactly n entries."""


class DuplicateVertexError(TourValidationError):
    """A vertex appears more than once in the tour order."""


class MissingVertexError(TourValidationError):
    """The tour order is not a permutation of 0..n-1."""


class InvalidMoveError(Kopt12Error, ValueError):
    """A move does not apply to the given tour."""


class SizeExceededError(Kopt12Error, ValueError):
    """The instance is larger than the solver's hard limit."""


class ParseError(Kopt12Error, ValueError):
    """An instance or tour file is malformed."""


class ConstructionError(Kopt12Error, RuntimeError):
    """An instance generator failed its own cost self-check."""
