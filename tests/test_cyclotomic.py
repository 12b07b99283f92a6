import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from cyhopf import cyclotomic
from cyhopf.cyclotomic import (
    CycloNumber,
    cyclotomic_coeffs,
    euler_phi,
    one,
    root_of_unity,
    zero,
)
from cyhopf.errors import InputError

ORDERS = st.integers(min_value=1, max_value=12)


def sympy_poly(num: CycloNumber, z):
    return sympy.Poly(list(reversed([sympy.Rational(c) for c in num.coeffs])), z, domain="QQ")


def sympy_reduce(poly, m: int, z):
    phi = sympy.Poly(sympy.cyclotomic_poly(m, z), z, domain="QQ")
    return poly.rem(phi)


@st.composite
def cyclo_numbers(draw, max_order=12):
    m = draw(st.integers(min_value=1, max_value=max_order))
    phi = euler_phi(m)
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            min_size=phi,
            max_size=phi,
        )
    )
    return CycloNumber(m, coeffs)


def test_phi_values():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials_match_sympy():
    z = sympy.Symbol("z")
    for m in range(1, 31):
        ours = sympy.Poly(list(reversed(cyclotomic_coeffs(m))), z)
        assert ours == sympy.Poly(sympy.cyclotomic_poly(m, z), z)


def test_root_identity_cases():
    assert root_of_unity(0, 4).is_one()
    assert root_of_unity(2, 4) == CycloNumber.from_rational(-1, 4)


def test_primitive_cube_root_reduction():
    # zeta_3 satisfies zeta^2 + zeta + 1 = 0 in reduced form
    z3 = root_of_unity(1, 3)
    assert (z3 * z3 + z3 + one(3)).is_zero()
    assert (root_of_unity(2, 3) + z3 + one(3)).is_zero()


def test_root_power_wraps_modulo_order():
    for m in (1, 2, 3, 4, 6, 8, 12):
        for k in range(-2 * m, 2 * m + 1):
            assert root_of_unity(k, m) == root_of_unity(k % m, m)


def test_exponent_to_multiplication_homomorphism_exhaustive():
    for m in range(1, 25):
        for a in range(m):
            for b in range(m):
                assert root_of_unity(a, m) * root_of_unity(b, m) == root_of_unity(a + b, m)


def _generic(x: CycloNumber) -> CycloNumber:
    """x, marked as no signed root, so that its products take the
    convolution-and-fold path."""
    y = CycloNumber._raw(x.order, x.num, x.den)
    y._signed = None
    return y


def test_signed_root_products_are_the_convolution_products(monkeypatch):
    """Every product +-zeta_m^j * +-zeta_m^k, m <= 36, of operands built from
    coefficients and from JSON while the order has no root list yet, is the
    product the generic path computes, and each is one kept object."""
    monkeypatch.setattr(cyclotomic, "_SIGNED_ROOTS", {})
    for m in range(1, 37):
        ops = []
        for k in range(m):
            rep = cyclotomic._power_table(m)[k]
            ops.append(CycloNumber(m, rep))
            ops.append(CycloNumber.from_json({"order": m, "coeffs": [[str(-c), "1"] for c in rep]}))
        assert m not in cyclotomic._SIGNED_ROOTS
        generic = [_generic(x) for x in ops]
        for x, gx in zip(ops, generic):
            for y, gy in zip(ops, generic):
                got = x * y
                assert got == gx * gy and got.signed_root_power() is not None
                assert x * y is got
        assert m in cyclotomic._SIGNED_ROOTS


def test_an_order_over_the_power_table_budget_gets_no_root_list():
    with pytest.raises(InputError):
        root_of_unity(1, 10001)
    assert 10001 not in cyclotomic._SIGNED_ROOTS


def test_inverse_pairs():
    assert one(5).inverse().is_one()
    minus_one = CycloNumber.from_rational(-1, 4)
    assert minus_one.inverse() == minus_one
    for n in (3, 4, 5, 8):
        z = root_of_unity(1, n)
        assert z.inverse() == root_of_unity(n - 1, n)
        assert (z * z.inverse()).is_one()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        zero(4).inverse()


def test_power_of_root_is_one_at_order():
    for m in range(1, 16):
        for k in range(m):
            assert (root_of_unity(k, m) ** m).is_one()


def test_mixed_order_coercion_lcm():
    a = root_of_unity(1, 4)  # i
    b = root_of_unity(1, 3)
    c = a * b
    assert c.order == 12
    assert c == root_of_unity(3, 12) * root_of_unity(4, 12)
    assert root_of_unity(1, 2) == CycloNumber.from_rational(-1, 6)


def test_lift_requires_divisibility():
    with pytest.raises(InputError):
        root_of_unity(1, 4).lift(6)


@given(cyclo_numbers(), cyclo_numbers())
def test_mul_matches_sympy_polynomial_arithmetic(a, b):
    m = a.order * b.order // __import__("math").gcd(a.order, b.order)
    z = sympy.Symbol("z")
    ours = a * b
    theirs = sympy_reduce(sympy_poly(a.lift(m), z) * sympy_poly(b.lift(m), z), m, z)
    assert sympy_poly(ours.lift(m), z) == theirs


@given(cyclo_numbers(), cyclo_numbers(), cyclo_numbers())
def test_field_axioms(a, b, c):
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(cyclo_numbers())
def test_additive_inverse_and_units(a):
    assert (a - a).is_zero()
    assert a * one(a.order) == a
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@given(cyclo_numbers(max_order=8), st.integers(min_value=0, max_value=6))
def test_pow_repeated_multiplication(a, n):
    expected = one(a.order)
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


def test_negated_roots_stay_exact():
    # -zeta_3^2 is not itself a power of zeta_3; arithmetic must stay exact
    z = root_of_unity(1, 3)
    w = -(z * z)
    assert w * w == z * z * z * z
    assert w**3 == CycloNumber.from_rational(-1, 3)
    assert w == one(3) + z  # -zeta^2 = 1 + zeta mod Phi_3


def assert_canonical(x: CycloNumber) -> None:
    assert isinstance(x.num, tuple) and len(x.num) == euler_phi(x.order)
    assert x.den >= 1 and gcd(x.den, *x.num) == 1


@given(cyclo_numbers(), cyclo_numbers(), st.integers(min_value=0, max_value=4))
def test_results_are_canonical_and_match_sympy(a, b, n):
    m = lcm(a.order, b.order)
    z = sympy.Symbol("z")
    pa, pb = sympy_poly(a.lift(m), z), sympy_poly(b.lift(m), z)
    cases = [(a, pa), (b, pb), (a.lift(m), pa), (a + b, pa + pb), (b + a, pa + pb),
             (a - b, pa - pb), (-a, -pa), (a * b, pa * pb), (b * a, pa * pb), (a**n, pa**n)]
    if not b.is_zero():
        phi = sympy.Poly(sympy.cyclotomic_poly(m, z), z, domain="QQ")
        cases.append((b.inverse(), sympy.invert(pb, phi)))
    for x, expected in cases:
        assert_canonical(x)
        assert sympy_poly(x.lift(m), z) == sympy_reduce(expected, m, z)
    for (x, _), (y, _) in product(cases, repeat=2):
        xl, yl = x.lift(m), y.lift(m)
        assert (x == y) == ((xl.num, xl.den) == (yl.num, yl.den))


INVERSE_ORDERS = (5, 7, 9, 15, 16, 21, 35, 39, 45, 56, 72, 84, 90)


@pytest.mark.parametrize("m", INVERSE_ORDERS)
def test_inverse_matches_sympy_in_larger_fields(m):
    assert 4 <= euler_phi(m) <= 24
    rng = random.Random(m)
    z = sympy.Symbol("z")
    phi = sympy.Poly(sympy.cyclotomic_poly(m, z), z, domain="QQ")
    for _ in range(3):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(euler_phi(m))]
        coeffs[-1] = Fraction(rng.choice((-7, 5)), rng.choice((2, 3, 10)))
        a = CycloNumber(m, coeffs)
        assert a.den > 1
        inv = a.inverse()
        assert_canonical(inv)
        assert sympy_poly(inv, z) == sympy.invert(sympy_poly(a, z), phi)
        assert a * inv == 1 and (a * inv).is_one()


@pytest.mark.parametrize("build", [
    lambda: CycloNumber(3, [0.5, 0]),
    lambda: CycloNumber.from_rational(0.1),
    lambda: one(3) + 0.5,
    lambda: 0.5 - one(3),
    lambda: one(3) * 0.5,
    lambda: 0.5 * one(3),
    lambda: one(1) == 1.0,
    lambda: one(1) != 1.0,
    lambda: 0.5 == one(3),
], ids=["constructor", "from_rational", "wrap", "rsub-wrap", "mul-scalar", "rmul-scalar",
        "eq", "ne", "req"])
def test_floats_are_refused(build):
    with pytest.raises(TypeError):
        build()


def test_json_is_pinned_and_reduced():
    coeffs = [Fraction(1, 2), Fraction(2, 3), Fraction(0), Fraction(-5, 6)]
    a = CycloNumber(5, coeffs)
    assert a.to_json() == {"order": 5, "coeffs": [["1", "2"], ["2", "3"], ["0", "1"], ["-5", "6"]]}
    unreduced = [["2", "4"], ["4", "6"], ["0", "3"], ["-10", "12"]]
    b = CycloNumber.from_json({"order": 5, "coeffs": unreduced})
    assert b.to_json() == a.to_json() and b == a
    assert (b.num, b.den) == ((3, 4, 0, -5), 6)
    assert b.coeffs == tuple(coeffs)


def test_json_round_trip():
    a = CycloNumber(8, [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 5)])
    assert CycloNumber.from_json(a.to_json()) == a
    blob = a.to_json()
    assert blob["coeffs"][0] == ["1", "2"]
    with pytest.raises(InputError):
        CycloNumber.from_json({"order": 8})


def test_rendering():
    assert str(zero(4)) == "0"
    assert str(one(1)) == "1"
    assert str(root_of_unity(3, 8) - root_of_unity(1, 8)) == "z8^3 - z8"
