"""Exception hierarchy shared by all modules, the integer readers every
parser of an input file goes through, and the base of the library's immutable
classes.

Input-side problems (bad files, invalid data, out-of-range requests) derive
from InputError and map to CLI exit code 1.  Violations of internal
invariants derive from InternalError and map to exit code 2.  A negative
verdict ("not Calabi-Yau") is never an error.
"""


class CyHopfError(Exception):
    pass


class InputError(CyHopfError):
    """Invalid user-supplied data or request."""


class InternalError(CyHopfError):
    """An invariant the implementation relies on was violated."""


class GroupMismatch(InputError):
    """Operands belong to different abelian groups."""


class GroupTooLarge(InputError):
    """Enumeration of the group would exceed the configured bound."""


class NotFiniteType(InputError):
    """The Cartan matrix has more positive roots than its rank allows, or infinitely many."""


class NotReduced(InputError):
    """A word's derived root sequence repeats or leaves the positive cone."""


class IndexOutOfRange(InputError):
    """Generator or simple-root index outside 1..t."""


class NegativeRoot(InputError):
    """A root with a negative coefficient where a positive one is required."""


class WrongCartanType(InputError):
    """Operation only defined for Cartan matrices of type A1 x ... x A1."""


class InvalidDatum(InputError):
    """Cartan datum violates q_ii != 1, compatibility, or shape constraints."""


class InvalidPresentation(InputError):
    """Rewriting system violates orientation, homogeneity, or equivariance, or a
    scalar lies outside the presentation's field."""


class DegreeBoundExceeded(InputError):
    """Requested computation leaves the configured degree bound."""


class Frozen:
    """Base of an immutable class: its __init__ sets each field once with
    set_field, and assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


set_field = object.__setattr__  # bypasses Frozen.__setattr__


def read_int(name: str, raw) -> int:
    """An integer read from an input file: an int, or a decimal string of one
    (an optional sign, then ASCII digits only).  Booleans, floats and anything
    else raise InputError instead of truncating."""
    if isinstance(raw, (bool, float)) or isinstance(raw, str) and not _is_decimal(raw):
        raise InputError(f"{name} must be an integer, got {raw!r}")
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be an integer, got {raw!r}") from exc


def _is_decimal(text: str) -> bool:
    """int() also takes spaces, underscores and non-ASCII digits; a file may not."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def read_ints(name: str, raw) -> tuple[int, ...]:
    """A JSON list of integers, each read by read_int."""
    if not isinstance(raw, list):
        raise InputError(f"{name} must be a list of integers, got {raw!r}")
    return tuple(read_int(f"{name} entry", x) for x in raw)
