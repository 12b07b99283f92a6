"""Finite abelian groups in invariant-factor form, their elements and characters.

A group is a direct product Z_{n_1} x ... x Z_{n_r}.  Elements and characters
are both stored as exponent vectors reduced mod n_i, which makes equality
canonical and products O(r).  Character values live in the cyclotomic field
of order m = lcm(n_i), the exponent of the group, so all scalars of one
session share a single field.

Groups and elements are interned.  AbelianGroup(factors) returns the one group
of its factor tuple, kept for the life of the process like the cyclotomic
power tables, and group.element(exps) the one element of its reduced
exponents.  So equal groups and equal elements are the same object: both
compare and hash by identity, and each group's element and product tables are
filled once per process and shared by every datum and algebra over it.  They
hold only what some call computed.  Characters are values (errors.Record).
The order, exponent and scale vector are computed once per group, each
inverse on first use, and identity() reads the interned element.  from_json
takes only lists of integers (errors.read_ints): a float or boolean exponent
is an input error.
"""

from __future__ import annotations

from itertools import product
from math import lcm, prod

from .cyclotomic import CycloNumber, root_of_unity
from .errors import (Frozen, GroupMismatch, GroupTooLarge, InputError, Record, read_ints,
                     set_field)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

ENUMERATION_BOUND = 10**6


_GROUPS: dict[tuple[int, ...], AbelianGroup] = {}  # factors -> the one group


class AbelianGroup(Frozen):
    """One object per invariant-factor tuple, so compared and hashed by identity."""

    def __new__(cls, invariant_factors: tuple[int, ...]) -> AbelianGroup:
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
            group = _GROUPS.setdefault(factors, group)  # atomic: one group even if threads race
        return group

    def __reduce__(self):  # a copy or an unpickled group is the interned one
        return AbelianGroup, (self.invariant_factors,)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def identity(self) -> GroupElement:
        return self._interned.get((0,) * self.rank) or self.element((0,) * self.rank)

    def element(self, exponents) -> GroupElement:
        """Interned element constructor; exponents are reduced mod n_i."""
        if len(exponents) != self.rank:
            raise InputError(f"element needs {self.rank} exponents, got {len(exponents)}")
        key = tuple(int(e) % n for e, n in zip(exponents, self.invariant_factors))
        got = self._interned.get(key)
        if got is None:
            got = self._interned.setdefault(key, GroupElement(self, key))
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

    def __init__(self, group: AbelianGroup, exp: tuple[int, ...]) -> None:
        set_field(self, "group", group)
        set_field(self, "exp", exp)

    def __reduce__(self):  # a copy or an unpickled element is the interned one
        return self.group.element, (self.exp,)

    def __mul__(self, other: GroupElement) -> GroupElement:
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

    def __pow__(self, n: int) -> GroupElement:
        return self.group.element(tuple(e * n for e in self.exp))

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


class Character(Frozen, Record):
    """Homomorphism to roots of unity, chi(gamma_i) = zeta_{n_i}^{a_i}.
    Equal and hashed by group and exponents; never equal to a GroupElement."""

    _compared = ("group", "exp")

    def __init__(self, group: AbelianGroup, exp: tuple[int, ...]) -> None:
        ns = group.invariant_factors
        if len(exp) != len(ns):
            raise InputError(f"character needs {len(ns)} exponents, got {len(exp)}")
        set_field(self, "group", group)
        set_field(self, "exp", tuple(int(a) % n for a, n in zip(exp, ns)))

    def value_exponent(self, g: GroupElement) -> int:
        """k with chi(g) = zeta_m^k, m the group exponent."""
        _check_same_group(self, g)
        total = 0
        for a, e, s in zip(self.exp, g.exp, self.group.scale):
            total += a * e * s
        return total % self.group.exponent

    def __call__(self, g: GroupElement) -> CycloNumber:
        return root_of_unity(self.value_exponent(g), self.group.exponent)

    def __mul__(self, other: Character) -> Character:
        _check_same_group(self, other)
        return Character(self.group, tuple(a + b for a, b in zip(self.exp, other.exp)))

    def __pow__(self, n: int) -> Character:
        return Character(self.group, tuple(a * n for a in self.exp))

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

