"""Finite abelian groups in invariant-factor form, their elements and characters.

A group is a direct product Z_{n_1} x ... x Z_{n_r}.  Elements and characters
are both stored as exponent vectors reduced mod n_i, which makes equality
canonical and products O(r).  Character values live in the cyclotomic field
of order m = lcm(n_i), the exponent of the group, so all scalars of one
session share a single field.

Groups, elements and characters are interned, each in an errors.InternTable,
which describes the rule: AbelianGroup(factors) returns the one group of its
factor tuple, kept for the life of the process like the cyclotomic power
tables, and group.element(exps) and Character(group, exps) the one element
and the one character of their exponents reduced mod n_i.  So all three
compare and hash by identity, and each group's element, character and product
tables are filled once per process and shared by every datum and algebra over
it; they hold only what some call computed.  Elements and characters share one
body, _ExponentVector: the product, kept in one table per group for both
kinds, the inverse, kept on the object on first use, pickling, JSON and
rendering.  An element times a character, or a character times an element,
is a TypeError, and so is a character evaluated at anything but a group
element.  The order, exponent and scale vector are computed once per group.
from_json takes only lists of integers (errors.read_ints): a float or boolean
exponent is an input error.
"""

from __future__ import annotations

from itertools import product
from math import lcm, prod
from operator import add, mod, mul

from .cyclotomic import CycloNumber, root_of_unity
from .errors import (Frozen, GroupMismatch, GroupTooLarge, InputError, InternTable, read_ints,
                     set_field)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

ENUMERATION_BOUND = 10**6


def _read_factors(invariant_factors) -> tuple[int, ...]:
    factors = tuple(invariant_factors)  # read once: an iterator is not read twice
    if any(n < 1 for n in factors):
        raise InputError(f"invariant factors must be >= 1: {factors}")
    return tuple(int(n) for n in factors)


def _new_group(factors: tuple[int, ...]) -> AbelianGroup:
    group = object.__new__(AbelianGroup)
    m = lcm(*factors)
    set_field(group, "invariant_factors", factors)
    set_field(group, "order", prod(factors))
    set_field(group, "exponent", m)
    set_field(group, "scale", tuple(m // n for n in factors))  # zeta_n_i = zeta_m^scale_i
    set_field(group, "_interned", GroupElement._new_table(group))  # exponents -> GroupElement
    set_field(group, "_mul_cache", {})  # (x, y) -> x * y, for elements and characters
    set_field(group, "_characters", Character._new_table(group))  # exponents -> Character
    return group


_GROUPS = InternTable(_read_factors, _new_group)  # factors -> the one group


class AbelianGroup(Frozen):
    """One object per invariant-factor tuple, so compared and hashed by identity."""

    def __new__(cls, invariant_factors: tuple[int, ...]) -> AbelianGroup:
        return _GROUPS.intern(invariant_factors)

    def __reduce__(self):  # a copy or an unpickled group is the interned one
        return AbelianGroup, (self.invariant_factors,)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def identity(self) -> GroupElement:
        return self.element((0,) * self.rank)

    def element(self, exponents) -> GroupElement:
        """Interned element constructor; exponents are reduced mod n_i."""
        return self._interned.intern(exponents)

    def generator(self, i: int) -> GroupElement:
        exps = [0] * self.rank
        exps[i] = 1
        return self.element(exps)

    def character(self, exponents) -> Character:
        return self._characters.intern(tuple(exponents))

    def trivial_character(self) -> Character:
        return self._characters.intern((0,) * self.rank)

    def elements(self) -> Iterator[GroupElement]:
        """All elements exactly once, lexicographic in the exponent vectors.
        Each is interned, so the group keeps all of them for the process."""
        if self.order > ENUMERATION_BOUND:
            raise GroupTooLarge(f"group order {self.order} exceeds bound {ENUMERATION_BOUND}")
        for exps in product(*map(range, self.invariant_factors)):
            yield self.element(exps)

    def to_json(self) -> dict:
        return {"invariant_factors": list(self.invariant_factors)}

    @staticmethod
    def from_json(obj: dict) -> AbelianGroup:
        try:
            factors = obj["invariant_factors"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed group: {obj!r}") from exc
        return AbelianGroup(read_ints("invariant_factors", factors))

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "Z1"
        return "x".join(f"Z{n}" for n in self.invariant_factors)


def _check_same_group(a, b) -> None:
    if a.group is not b.group:
        raise GroupMismatch(f"operands live in {a.group} and {b.group}")


class _ExponentVector:
    """The body GroupElement and Character share: an exponent vector exp over
    group, reduced mod n_i, and interned in the group's table of its class,
    so compared and hashed by identity.  Each class names that table (_table),
    itself in an error message (_kind), and its symbol and unit for str.  Not
    Frozen itself: each class derives from Frozen next to it."""

    def __new__(cls, group: AbelianGroup, exp: tuple[int, ...]):
        return getattr(group, cls._table).intern(exp)

    @classmethod
    def _new_table(cls, group: AbelianGroup) -> InternTable:
        """The group's table of cls, whose keys are exponents reduced mod n_i."""
        def read(exponents) -> tuple[int, ...]:
            if len(exponents) != group.rank:
                raise InputError(f"{cls._kind} needs {group.rank} exponents, got {len(exponents)}")
            return tuple(map(mod, map(int, exponents), group.invariant_factors))

        def make(key: tuple[int, ...]):
            obj = object.__new__(cls)
            set_field(obj, "group", group)
            set_field(obj, "exp", key)
            return obj
        return InternTable(read, make)

    def __reduce__(self):  # a copy or an unpickled one is the interned one
        return self.__class__, (self.group, self.exp)

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        group = self.group
        if other.group is not group:
            _check_same_group(self, other)  # raises GroupMismatch
        cache = group._mul_cache
        key = (self, other)
        got = cache.get(key)
        if got is None:
            got = self.__class__(group, tuple(map(add, self.exp, other.exp)))
            cache[key] = got
        return got

    def inverse(self):
        if "_inverse" not in self.__dict__:  # reduced once, then kept on the object
            set_field(self, "_inverse", self.__class__(self.group, tuple(-e for e in self.exp)))
        return self._inverse

    def __str__(self) -> str:
        """Multiplicative notation, y1^a1*y2^a2... for the symbol y, or the unit
        if all a_i = 0."""
        parts = [f"{self._symbol}{i + 1}" + (f"^{a}" if a != 1 else "")
                 for i, a in enumerate(self.exp) if a]
        return "*".join(parts) or self._unit

    def to_json(self) -> dict:
        return {"exp": list(self.exp)}


class GroupElement(_ExponentVector, Frozen):
    """Built by group.element(exp) or GroupElement(group, exp); never equal
    to a Character."""

    _table, _kind, _symbol, _unit = "_interned", "element", "y", "e"
    __mul__ = _ExponentVector.__mul__  # an own attribute, which perfbench/tracing.py wraps

    def is_identity(self) -> bool:
        return not any(self.exp)


class Character(_ExponentVector, Frozen):
    """Homomorphism to roots of unity, chi(gamma_i) = zeta_{n_i}^{a_i}; never
    equal to a GroupElement."""

    _table, _kind, _symbol, _unit = "_characters", "character", "chi", "1"

    def value_exponent(self, g: GroupElement) -> int:
        """k with chi(g) = zeta_m^k, m the group exponent."""
        if g.__class__ is not GroupElement:  # a character has exponents too, but is no argument
            raise TypeError(f"a character is evaluated at a group element, not {type(g).__name__}")
        _check_same_group(self, g)
        return sum(map(mul, map(mul, self.exp, g.exp), self.group.scale)) % self.group.exponent

    def __call__(self, g: GroupElement) -> CycloNumber:
        return root_of_unity(self.value_exponent(g), self.group.exponent)

    def is_trivial(self) -> bool:
        return not any(self.exp)


def _exp_from_json(kind: str, obj) -> tuple[int, ...]:
    try:
        exp = obj["exp"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed {kind}: {obj!r}") from exc
    return read_ints(f"{kind} exp", exp)


def element_from_json(group: AbelianGroup, obj: dict) -> GroupElement:
    return group.element(_exp_from_json("group element", obj))


def character_from_json(group: AbelianGroup, obj: dict) -> Character:
    return Character(group, _exp_from_json("character", obj))

