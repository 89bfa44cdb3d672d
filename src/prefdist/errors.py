"""Exception hierarchy shared across the package."""


class PrefdistError(Exception):
    """Base class for every error this package raises deliberately."""


class EmptyExpressionError(PrefdistError):
    """Preference expression contains no groups at all."""


class PreferenceSyntaxError(PrefdistError):
    """Preference expression violates the grammar."""


class UnknownObjectError(PrefdistError):
    """Referenced object label is not part of the universe."""


class DuplicateObjectError(PrefdistError):
    """An object is mentioned more than once."""


class IndexOutOfRangeError(PrefdistError):
    """Object index outside [0, universe size)."""


class NotTotalError(PrefdistError):
    """Operation requires a total ordering but got a partial one."""


class DimensionMismatchError(PrefdistError):
    """Operands are defined over universes of different sizes."""


class DegenerateUniverseError(PrefdistError):
    """Fewer than two objects: the maximal distance is zero."""


class CapExceededError(PrefdistError):
    """Requested enumeration exceeds the configured cap."""


class UnnormalizedMassError(PrefdistError):
    """Mass vector is not a normalized basic belief assignment."""


class EmptySubsetError(PrefdistError):
    """Belief or plausibility queried on the empty subset."""


class BbaFormatError(PrefdistError):
    """BBA-matrix JSON document violates the expected schema."""
