"""Exception hierarchy shared by all modules, the integer and digit-string
readers every parser of an input file goes through, the two bases of the
library's classes, Frozen, whose fields are set once, and Record, which
compares and hashes by the fields it names, and InternTable, which keeps the
one object of each value of an interned class.

Input-side problems (bad files, invalid data, out-of-range requests) derive
from InputError and map to CLI exit code 1.  Violations of internal
invariants derive from InternalError and map to exit code 2.  A negative
verdict ("not Calabi-Yau") is never an error.
"""

from operator import attrgetter


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


class Frozen:
    """Base of an immutable class: its __init__ sets each field once with
    set_field, and assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


set_field = object.__setattr__  # bypasses Frozen.__setattr__


class Record:
    """Base of a value class, which names its compared fields in _compared: it
    is equal to an object of its own class whose compared fields are equal,
    and hashed by those fields.  A class whose fields are unhashable, or
    mutable, sets __hash__ = None."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # the field's value, or the tuple of the values; not a descriptor, so never bound
        cls._key = attrgetter(*cls._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


class InternTable(dict):
    """The one object of each key, kept for the life of the process: the
    table behind AbelianGroup, CartanMatrix, group.element and Character.

    read(arg) turns a constructor's argument into its key (a factor tuple,
    int rows, exponents reduced mod n_i), raising to refuse it, and make(key)
    builds the object of a new key, which may refuse it too.  intern(arg)

    1. looks the argument up as given: a key already built (a tuple, not a
       list; reduced exponents, not unreduced ones) is one dictionary lookup
       and is neither read nor validated, and an unhashable argument, such
       as a list, misses;
    2. on a miss, reads the argument into its key;
    3. looks the key up again;
    4. for a new key only, makes the object and stores it with setdefault,
       atomic, so that threads that race still get one object.

    So neither the first lookup nor a refused argument writes the table, and
    a key is always read: a raw argument is never stored.  Equal values are
    then the same object, so an interned class compares and hashes by
    identity, and its __reduce__ calls its constructor, and so the table,
    again: a copy or an unpickled object is the interned one.
    """

    __slots__ = ("read", "make")

    def __init__(self, read, make) -> None:
        self.read, self.make = read, make

    def intern(self, arg):
        """The one object of arg, by the four steps above."""
        try:
            return self[arg]
        except (KeyError, TypeError):  # new, or unhashable such as a list: read below
            pass
        key = self.read(arg)
        got = self.get(key)
        if got is None:
            got = self.setdefault(key, self.make(key))
        return got


def read_int(name: str, raw) -> int:
    """An integer read from an input file: an int, or a decimal string of one
    (an optional sign, then ASCII digits only).  Booleans, floats and anything
    else raise InputError instead of truncating."""
    if isinstance(raw, (bool, float)) or isinstance(raw, str) and not is_decimal(raw):
        raise InputError(f"{name} must be an integer, got {raw!r}")
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be an integer, got {raw!r}") from exc


def is_decimal(text: str, signed: bool = True) -> bool:
    """ASCII digits, after an optional sign if signed.  int() and Fraction()
    also take spaces, underscores and non-ASCII digits; a file may not."""
    if signed and text[:1] in ("+", "-"):
        text = text[1:]
    return text.isascii() and text.isdigit()


def read_ints(name: str, raw) -> tuple[int, ...]:
    """A JSON list of integers, each read by read_int."""
    if not isinstance(raw, list):
        raise InputError(f"{name} must be a list of integers, got {raw!r}")
    return tuple(read_int(f"{name} entry", x) for x in raw)
