"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are residues modulo the m-th cyclotomic polynomial Phi_m, stored as
coefficient vectors of length phi(m) over exact rationals.  The residue
representation is canonical, so equality is coefficient-wise and zero-testing
is exact.  Every scalar in this package (character values, braiding
coefficients, rewrite-rule coefficients) is a CycloNumber.

Mixed-order arithmetic lifts both operands to the lcm of their orders; the
coercion is explicit in the code, never silent precision loss.  Products and
inverses of signed roots of unity +-zeta_m^k are table lookups; other inverses
come from extended Euclid against Phi_m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InputError, read_int

_ZERO = Fraction(0)
_ONE = Fraction(1)
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


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
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
            num = _poly_divmod_int(num, list(cyclotomic_coeffs(d)))
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


@lru_cache(maxsize=None)
def _signed_power_index(m: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """Map reduced vectors of +-zeta_m^k to (sign, k); positives win collisions."""
    out: dict[tuple[int, ...], tuple[int, int]] = {}
    table = _power_table(m)[:m]
    for k, rep in enumerate(table):
        out[tuple(-c for c in rep)] = (-1, k)
    for k, rep in enumerate(table):
        out[rep] = (1, k)
    return out


class CycloNumber:
    """An element of Q(zeta_m), reduced mod Phi_m."""

    __slots__ = ("order", "coeffs", "_signed")
    __hash__ = None  # cross-order equality makes a consistent hash impractical

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        cs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(cs) != phi:
            raise InputError(f"need {phi} coefficients for order {order}, got {len(cs)}")
        self.order = order
        self.coeffs = cs
        self._signed = False  # False = unknown; None = not +-zeta^k; else (sign, k)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rational(value, order: int = 1) -> CycloNumber:
        phi = euler_phi(order)
        coeffs = [Fraction(value)] + [_ZERO] * (phi - 1)
        return CycloNumber(order, coeffs)

    @classmethod
    def _raw(cls, order: int, coeffs: tuple) -> CycloNumber:
        """Internal constructor for already-reduced Fraction tuples."""
        self = object.__new__(cls)
        self.order = order
        self.coeffs = coeffs
        self._signed = False
        return self

    # -- root-of-unity fast path ------------------------------------------

    def signed_root_power(self) -> tuple[int, int] | None:
        """(sign, k) with self == sign * zeta_order^k, or None."""
        if self._signed is False:
            self._signed = _signed_power_index(self.order).get(self.coeffs)
        return self._signed

    # -- coercion ----------------------------------------------------------

    def lift(self, order: int) -> CycloNumber:
        if order == self.order:
            return self
        if order % self.order != 0:
            raise InputError(f"cannot lift from order {self.order} to {order}")
        step = order // self.order
        table = _power_table(order)
        phi = euler_phi(order)
        acc = [_ZERO] * phi
        for k, c in enumerate(self.coeffs):
            if c:
                rep = table[k * step]
                for i, r in enumerate(rep):
                    if r:
                        acc[i] += c * r
        return CycloNumber(order, acc)

    def _pair(self, other: CycloNumber) -> tuple[CycloNumber, CycloNumber]:
        if self.order == other.order:
            return self, other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.lift(m), other.lift(m)

    def _wrap(self, other) -> CycloNumber:
        if isinstance(other, CycloNumber):
            return other
        return CycloNumber.from_rational(other)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> CycloNumber:
        if isinstance(other, CycloNumber) and other.order == self.order:
            a, b = self, other
        else:
            a, b = self._pair(self._wrap(other))
        return CycloNumber._raw(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CycloNumber:
        signed = self.signed_root_power()
        if signed is not None:
            return _cached_signed_root(-signed[0], signed[1], self.order)
        return CycloNumber._raw(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other) -> CycloNumber:
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> CycloNumber:
        return self._wrap(other) - self

    def __mul__(self, other) -> CycloNumber:
        if not isinstance(other, CycloNumber):
            c = Fraction(other)
            return CycloNumber._raw(self.order, tuple(x * c for x in self.coeffs))
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
                return _cached_signed_root(sa[0] * sb[0], (sa[1] + sb[1]) % a.order, a.order)
        phi = len(a.coeffs)
        conv = [_ZERO] * (2 * phi - 1)
        nonzero_b = [(j, y) for j, y in enumerate(b.coeffs) if y]
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in nonzero_b:
                    conv[i + j] += x * y
        table = _power_table(a.order)
        out = list(conv[:phi])
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                rep = table[k]
                for i, r in enumerate(rep):
                    if r:
                        out[i] += c * r
        return CycloNumber._raw(a.order, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> CycloNumber:
        signed = self.signed_root_power()
        if signed is not None:
            s, k = signed
            return _cached_signed_root(s if n % 2 else 1, (k * n) % self.order, self.order)
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
            return _cached_signed_root(s, -k % self.order, self.order)
        # extended Euclid on (self, Phi_m) over Q; Phi_m irreducible so gcd = 1
        phi_poly = [Fraction(c) for c in cyclotomic_coeffs(self.order)]
        r0, r1 = list(self.coeffs), phi_poly
        s0, s1 = [_ONE], [_ZERO]
        while any(r1):
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is a nonzero constant multiple of gcd = 1
        lead = next(c for c in reversed(r0) if c)
        # deg s0 < phi(m), so padding is the only reduction needed
        inv = [c / lead for c in s0]
        return CycloNumber(self.order, inv + [_ZERO] * (len(self.coeffs) - len(inv)))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        sym = f"z{self.order}"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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

    # -- serialization -----------------------------------------------------------

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


# -- polynomial helpers over Fraction (used by inverse) --------------------


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_ZERO] * (n - len(a))
    b = b + [_ZERO] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod_frac(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    b = _poly_trim(list(b))
    q = [_ZERO] * max(1, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - 1, len(b) - 2, -1):
        if not a[i]:
            continue
        c = a[i] / lead
        q[i - len(b) + 1] = c
        for j, bj in enumerate(b):
            a[i - len(b) + 1 + j] -= c * bj
    return _poly_trim(q), _poly_trim(a)


@lru_cache(maxsize=None)
def _cached_signed_root(sign: int, k: int, m: int) -> CycloNumber:
    rep = _power_table(m)[k]
    num = CycloNumber(m, rep if sign == 1 else tuple(-c for c in rep))
    num._signed = _signed_power_index(m)[num.coeffs]
    return num


def root_of_unity(k: int, m: int) -> CycloNumber:
    """zeta_m^k in reduced form; depends only on k mod m."""
    if m < 1:
        raise InputError(f"order must be positive, got {m}")
    return _cached_signed_root(1, k % m, m)


def one(m: int = 1) -> CycloNumber:
    return root_of_unity(0, m)


def zero(m: int = 1) -> CycloNumber:
    return CycloNumber(m, [_ZERO] * euler_phi(m))
