"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are residues modulo the m-th cyclotomic polynomial Phi_m, stored as
phi(m) integer numerators `num` over one denominator `den` >= 1 (ANTIC's
nf_elem), canonical with gcd(den, *num) == 1: equality compares num and den,
zero-testing is `not any(num)`.  Floats are refused.  Every scalar in this
package (character values, braiding and rule coefficients) is a CycloNumber.

Mixed-order arithmetic lifts both operands to the lcm of their orders; the
coercion is explicit in the code, never silent precision loss.  Each order m
keeps one list of the canonical signed roots of unity +-zeta_m^k, each built
on first use, so a product, power, negation or inverse of signed roots is an
index into that list; other inverses come from extended Euclid against Phi_m
over the integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .errors import InputError, read_int

# Most integers a power table may hold (rows times phi(m)).  Orders up to 200
# need at most 78210; the smallest order over the budget is 1451.
POWER_TABLE_BUDGET = 2**22


def euler_phi(m: int) -> int:
    if m < 1:
        raise InputError(f"order must be positive, got {m}")
    if m > POWER_TABLE_BUDGET:  # its power table would hold at least m entries
        raise InputError(f"cyclotomic order {m} exceeds {POWER_TABLE_BUDGET}")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials; den must be monic and divide num."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending degree, monic."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num = _exact_quotient(num, list(cyclotomic_coeffs(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Reduced representations of zeta_m^k mod Phi_m for 0 <= k < max(m, 2*phi(m)-1)."""
    phi = euler_phi(m)
    size = max(m, 2 * phi - 1)
    if size * phi > POWER_TABLE_BUDGET:
        raise InputError(
            f"cyclotomic order {m} needs a power table of {size * phi} entries, "
            f"over the budget of {POWER_TABLE_BUDGET}"
        )
    poly = cyclotomic_coeffs(m)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})
    top = tuple(-c for c in poly[:phi])
    table = []
    cur = [0] * phi
    cur[0] = 1
    table.append(tuple(cur))
    for _ in range(1, size):
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            nxt = [a + lead * b for a, b in zip(nxt, top)]
        table.append(tuple(nxt))
        cur = nxt
    return tuple(table)


# order m -> (map from the reduced vector of +-zeta_m^k to (sign, k), positives
# winning collisions; the canonical zeta_m^k at k and -zeta_m^k at m + k, each
# None until first use).  A number whose sign is known has its order's entry.
_SIGNED_ROOTS: dict[int, tuple[dict, list]] = {}


def _make_signed_roots(m: int) -> tuple[dict, list]:
    """Order m's entry of _SIGNED_ROOTS, which callers look up first."""
    table = _power_table(m)[:m]  # refuses an order over the budget first
    index = {}
    for k, rep in enumerate(table):
        index[tuple(-c for c in rep)] = (-1, k)
    for k, rep in enumerate(table):
        index[rep] = (1, k)
    entry = _SIGNED_ROOTS[m] = (index, [None] * (2 * m))
    return entry


def _signed_root(sign: int, k: int, m: int) -> CycloNumber:
    """The canonical sign * zeta_m^k, 0 <= k < m."""
    index, roots = _SIGNED_ROOTS.get(m) or _make_signed_roots(m)
    i = k if sign == 1 else m + k
    got = roots[i]
    if got is None:
        rep = _power_table(m)[k]
        got = CycloNumber._raw(m, rep if sign == 1 else tuple(-c for c in rep))
        got._signed = index[got.num]
        roots[i] = got
    return got


def _rational(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not an exact scalar")
    return Fraction(value)


class CycloNumber:
    """An element of Q(zeta_m), reduced mod Phi_m, as num / den."""

    __slots__ = ("order", "num", "den", "_signed")
    __hash__ = None  # cross-order equality makes a consistent hash impractical

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        cs = [_rational(c) for c in coeffs]
        if len(cs) != phi:
            raise InputError(f"need {phi} coefficients for order {order}, got {len(cs)}")
        # canonical: each prime of den leaves some numerator coprime to it
        den = lcm(*(c.denominator for c in cs))
        self.order = order
        self.num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den
        self._signed = False  # False = unknown; None = not +-zeta^k; else (sign, k)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- constructors --

    @staticmethod
    def from_rational(value, order: int = 1) -> CycloNumber:
        return CycloNumber(order, [value] + [0] * (euler_phi(order) - 1))

    @classmethod
    def _raw(cls, order: int, num, den: int = 1) -> CycloNumber:
        """Internal constructor: integer numerators over den >= 1, gcd divided out."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        self = object.__new__(cls)
        self.order = order
        self.num = tuple(num)
        self.den = den
        self._signed = False
        return self

    # -- root-of-unity fast path --

    def signed_root_power(self) -> tuple[int, int] | None:
        """(sign, k) with self == sign * zeta_order^k, or None."""
        if self._signed is False:
            m = self.order
            self._signed = ((_SIGNED_ROOTS.get(m) or _make_signed_roots(m))[0].get(self.num)
                            if self.den == 1 else None)
        return self._signed

    # -- coercion --

    def lift(self, order: int) -> CycloNumber:
        if order == self.order:
            return self
        if order % self.order != 0:
            raise InputError(f"cannot lift from order {self.order} to {order}")
        step = order // self.order
        terms = ((k * step, c) for k, c in enumerate(self.num))
        acc = _fold([0] * euler_phi(order), terms, _power_table(order))
        return CycloNumber._raw(order, acc, self.den)

    def _pair(self, other: CycloNumber) -> tuple[CycloNumber, CycloNumber]:
        if self.order == other.order:
            return self, other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.lift(m), other.lift(m)

    def _wrap(self, other) -> CycloNumber:
        if isinstance(other, CycloNumber):
            return other
        return CycloNumber.from_rational(other)

    # -- ring operations --

    def __add__(self, other) -> CycloNumber:
        if isinstance(other, CycloNumber) and other.order == self.order:
            a, b = self, other
        else:
            a, b = self._pair(self._wrap(other))
        da, db = a.den, b.den
        if da == db:
            return CycloNumber._raw(a.order, tuple(map(add, a.num, b.num)), da)
        num = [x * db + y * da for x, y in zip(a.num, b.num)]
        return CycloNumber._raw(a.order, num, da * db)

    __radd__ = __add__

    def __neg__(self) -> CycloNumber:
        signed = self.signed_root_power()
        if signed is not None:
            return _signed_root(-signed[0], signed[1], self.order)
        return CycloNumber._raw(self.order, tuple(-x for x in self.num), self.den)

    def __sub__(self, other) -> CycloNumber:
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> CycloNumber:
        return self._wrap(other) - self

    def __mul__(self, other) -> CycloNumber:
        if not isinstance(other, CycloNumber):
            c = _rational(other)
            return CycloNumber._raw(self.order, [x * c.numerator for x in self.num],
                                self.den * c.denominator)
        if other.order == self.order:
            a, b = self, other
        else:
            a, b = self._pair(other)
        sa = a._signed
        if sa is False:
            sa = a.signed_root_power()
        if sa is not None:
            sb = b._signed
            if sb is False:
                sb = b.signed_root_power()
            if sb is not None:
                m = a.order
                k = (sa[1] + sb[1]) % m
                got = _SIGNED_ROOTS[m][1][k if sa[0] == sb[0] else m + k]
                return got if got is not None else _signed_root(sa[0] * sb[0], k, m)
        phi = len(a.num)
        conv = [0] * (2 * phi - 1)
        nonzero_b = [(j, y) for j, y in enumerate(b.num) if y]
        for i, x in enumerate(a.num):
            if x:
                for j, y in nonzero_b:
                    conv[i + j] += x * y
        out = _fold(conv[:phi], enumerate(conv[phi:], phi), _power_table(a.order))
        return CycloNumber._raw(a.order, out, a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> CycloNumber:
        signed = self.signed_root_power()
        if signed is not None:
            s, k = signed
            return _signed_root(s if n % 2 else 1, (k * n) % self.order, self.order)
        if n < 0:
            return self.inverse() ** (-n)
        result = CycloNumber.from_rational(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> CycloNumber:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        signed = self.signed_root_power()
        if signed is not None:
            s, k = signed
            return _signed_root(s, -k % self.order, self.order)
        # extended Euclid on (Phi_m, num) over Z; each row keeps s * num == r
        # (mod Phi_m), and Phi_m is irreducible, so the last r is a constant c
        r0, s0 = list(cyclotomic_coeffs(self.order)), [0]
        r1, s1 = list(self.num), [1]
        while not r1[-1]:
            r1.pop()
        while len(r1) > 1:
            lead, n = r1[-1], len(r1)
            while len(r0) >= n:  # pseudo-division: row0 = a*row0 - b*x^shift*row1
                shift = len(r0) - n
                g = gcd(lead, r0[-1])
                a, b = lead // g, r0[-1] // g
                r0 = [a * x for x in r0]
                s0 = [a * x for x in s0] + [0] * (shift + len(s1) - len(s0))
                for j, y in enumerate(r1):
                    r0[shift + j] -= b * y
                for j, y in enumerate(s1):
                    s0[shift + j] -= b * y
                while not r0[-1]:
                    r0.pop()
            g = gcd(*r0, *s0)
            r0, s0, r1, s1 = r1, s1, [x // g for x in r0], [x // g for x in s0]
        c = r1[0]
        # deg s1 < phi(m), so padding is the only reduction needed
        inv = [self.den * x for x in s1] + [0] * (len(self.num) - len(s1))
        if c < 0:
            c, inv = -c, [-x for x in inv]
        return CycloNumber._raw(self.order, inv, c)

    # -- predicates --

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, float)):
            other = CycloNumber.from_rational(other)  # _rational refuses a float
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering --

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        sym = f"z{self.order}"
        cs = self.num if self.den == 1 else self.coeffs
        parts = []
        for k in range(len(cs) - 1, -1, -1):
            c = cs[k]
            if not c:
                continue
            if k == 0:
                term = str(c)
            else:
                mono = sym if k == 1 else f"{sym}^{k}"
                if c == 1:
                    term = mono
                elif c == -1:
                    term = f"-{mono}"
                else:
                    term = f"{c}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"CycloNumber({self.order}, {self})"

    # -- serialization --

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @staticmethod
    def from_json(obj: dict) -> CycloNumber:
        try:
            order = read_int("cyclotomic order", obj["order"])
            coeffs = [Fraction(read_int("numerator", n), read_int("denominator", d))
                      for n, d in obj["coeffs"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed cyclotomic number: {obj!r}") from exc
        return CycloNumber(order, coeffs)


def _fold(acc: list, terms, table) -> list:
    """Add c * zeta^k to acc for each (k, c) in terms, reduced by the table."""
    for k, c in terms:
        if c:
            for i, r in enumerate(table[k]):
                if r:
                    acc[i] += c * r
    return acc


def root_of_unity(k: int, m: int) -> CycloNumber:
    """zeta_m^k in reduced form; depends only on k mod m."""
    if m < 1:
        raise InputError(f"order must be positive, got {m}")
    return _signed_root(1, k % m, m)


def one(m: int = 1) -> CycloNumber:
    return root_of_unity(0, m)


def zero(m: int = 1) -> CycloNumber:
    return CycloNumber._raw(m, (0,) * euler_phi(m))
