"""Finite abelian groups in invariant-factor form, their elements and characters.

A group is a direct product Z_{n_1} x ... x Z_{n_r}.  Elements and characters
are both stored as exponent vectors reduced mod n_i, which makes equality
canonical and products O(r).  Character values live in the cyclotomic field
of order m = lcm(n_i), the exponent of the group, so all scalars of one
session share a single field.

Groups, elements and characters are interned.  AbelianGroup(factors) returns
the one group of its factor tuple, kept for the life of the process like the
cyclotomic power tables, and group.element(exps) and Character(group, exps)
the one element and the one character of their reduced exponents, so a
group's tables hold at most |Gamma| of each.  So equal values are the same
object: all three compare and hash by identity, and each group's element,
product and character tables are filled once per process and shared by every
datum and algebra over it.  They hold only what some call computed.  An
element times a character, or a character times an element, is a TypeError,
and so is a character evaluated at anything but a group element.

Each constructor looks its argument up as given before it reads it: a tuple
that is already a key, a factor tuple built before or exponents already
reduced, is one dictionary lookup and returns the interned object without
validation.  Anything else (a list, an iterator, unreduced or negative
exponents, an unhashable argument) misses, and is then read, checked and
reduced and looked up again.  Only a valid new key adds an entry, so neither
the first lookup nor a refused argument writes a table.  The order, exponent
and scale vector are computed once per group and each inverse on first use.
from_json takes only lists of integers (errors.read_ints): a float or boolean
exponent is an input error.
"""

from __future__ import annotations

from itertools import product
from math import lcm, prod
from operator import mod, mul

from .cyclotomic import CycloNumber, root_of_unity
from .errors import Frozen, GroupMismatch, GroupTooLarge, InputError, read_ints, set_field

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

ENUMERATION_BOUND = 10**6


_GROUPS: dict[tuple[int, ...], AbelianGroup] = {}  # factors -> the one group


class AbelianGroup(Frozen):
    """One object per invariant-factor tuple, so compared and hashed by identity."""

    def __new__(cls, invariant_factors: tuple[int, ...]) -> AbelianGroup:
        try:  # a factor tuple already built is one lookup, before any reading
            return _GROUPS[invariant_factors]
        except (KeyError, TypeError):  # new, or unhashable such as a list: read below
            pass
        factors = tuple(invariant_factors)  # read once: an iterator is not read twice
        if any(n < 1 for n in factors):
            raise InputError(f"invariant factors must be >= 1: {factors}")
        factors = tuple(int(n) for n in factors)
        group = _GROUPS.get(factors)
        if group is None:
            group = object.__new__(cls)
            m = lcm(*factors)
            set_field(group, "invariant_factors", factors)
            set_field(group, "order", prod(factors))
            set_field(group, "exponent", m)
            set_field(group, "scale", tuple(m // n for n in factors))  # zeta_n_i = zeta_m^scale_i
            set_field(group, "_interned", {})  # exponent tuple -> GroupElement
            set_field(group, "_mul_cache", {})  # (GroupElement, GroupElement) -> product
            set_field(group, "_characters", {})  # exponent tuple -> Character
            group = _GROUPS.setdefault(factors, group)  # atomic: one group even if threads race
        return group

    def __reduce__(self):  # a copy or an unpickled group is the interned one
        return AbelianGroup, (self.invariant_factors,)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def identity(self) -> GroupElement:
        return self.element((0,) * self.rank)

    def element(self, exponents) -> GroupElement:
        """Interned element constructor; exponents are reduced mod n_i."""
        return self._intern(GroupElement, self._interned, "element", exponents)

    def _intern(self, cls, table: dict, kind: str, exponents):
        """The one object of cls, GroupElement or Character, in table for the
        exponents reduced mod n_i.  Exponents that are a key of table already
        are one lookup, before they are read; a miss is read, checked and
        reduced, and makes the object the first time its key is seen."""
        try:
            got = table.get(exponents)
        except TypeError:  # unhashable, such as a list: read below
            got = None
        if got is None:
            if len(exponents) != self.rank:
                raise InputError(f"{kind} needs {self.rank} exponents, got {len(exponents)}")
            key = tuple(map(mod, map(int, exponents), self.invariant_factors))
            got = table.get(key)
            if got is None:
                got = object.__new__(cls)
                set_field(got, "group", self)
                set_field(got, "exp", key)
                got = table.setdefault(key, got)  # atomic: one object even if threads race
        return got

    def generator(self, i: int) -> GroupElement:
        exps = [0] * self.rank
        exps[i] = 1
        return self.element(exps)

    def character(self, exponents) -> Character:
        return Character(self, tuple(exponents))

    def trivial_character(self) -> Character:
        return Character(self, (0,) * self.rank)

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


class GroupElement(Frozen):
    """Built only by AbelianGroup.element, which reduces exp mod the factors
    and interns the result: compared and hashed by identity, and never equal
    to a Character."""

    def __reduce__(self):  # a copy or an unpickled element is the interned one
        return self.group.element, (self.exp,)

    def __mul__(self, other: GroupElement) -> GroupElement:
        if other.__class__ is not GroupElement:
            return NotImplemented
        group = self.group
        if other.group is not group:
            _check_same_group(self, other)  # raises GroupMismatch
        cache = group._mul_cache
        key = (self, other)
        got = cache.get(key)
        if got is None:
            got = group.element(tuple(a + b for a, b in zip(self.exp, other.exp)))
            cache[key] = got
        return got

    def inverse(self) -> GroupElement:
        if "_inverse" not in self.__dict__:  # reduced once, then kept on the element
            set_field(self, "_inverse", self.group.element(tuple(-e for e in self.exp)))
        return self._inverse

    def is_identity(self) -> bool:
        return not any(self.exp)

    def __str__(self) -> str:
        return _render_exponents(self.exp, "y", "e")

    def to_json(self) -> dict:
        return {"exp": list(self.exp)}


class Character(Frozen):
    """Homomorphism to roots of unity, chi(gamma_i) = zeta_{n_i}^{a_i}.  One
    object per group and exponents reduced mod n_i, so compared and hashed by
    identity, and never equal to a GroupElement."""

    def __new__(cls, group: AbelianGroup, exp: tuple[int, ...]) -> Character:
        return group._intern(cls, group._characters, "character", exp)

    def __reduce__(self):  # a copy or an unpickled character is the interned one
        return Character, (self.group, self.exp)

    def value_exponent(self, g: GroupElement) -> int:
        """k with chi(g) = zeta_m^k, m the group exponent."""
        if g.__class__ is not GroupElement:  # a character has exponents too, but is no argument
            raise TypeError(f"a character is evaluated at a group element, not {type(g).__name__}")
        _check_same_group(self, g)
        return sum(map(mul, map(mul, self.exp, g.exp), self.group.scale)) % self.group.exponent

    def __call__(self, g: GroupElement) -> CycloNumber:
        return root_of_unity(self.value_exponent(g), self.group.exponent)

    def __mul__(self, other: Character) -> Character:
        if other.__class__ is not Character:
            return NotImplemented
        _check_same_group(self, other)
        return Character(self.group, tuple(a + b for a, b in zip(self.exp, other.exp)))

    def inverse(self) -> Character:
        return Character(self.group, tuple(-a for a in self.exp))

    def is_trivial(self) -> bool:
        return not any(self.exp)

    def __str__(self) -> str:
        return _render_exponents(self.exp, "chi", "1")

    def to_json(self) -> dict:
        return {"exp": list(self.exp)}


def _render_exponents(exp: tuple[int, ...], symbol: str, unit: str) -> str:
    """Multiplicative notation, symbol1^a1*symbol2^a2..., or unit if all a_i = 0."""
    parts = [f"{symbol}{i + 1}" + (f"^{a}" if a != 1 else "") for i, a in enumerate(exp) if a]
    return "*".join(parts) or unit


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

