import copy
import pickle
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyhopf import groups
from cyhopf.cyclotomic import root_of_unity
from cyhopf.errors import GroupMismatch, GroupTooLarge, InputError
from cyhopf.groups import (AbelianGroup, Character, GroupElement, character_from_json,
                           element_from_json)
from conftest import Unread, characters, error_line

invariant_factors = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=3)


@st.composite
def group_with_data(draw):
    group = AbelianGroup(tuple(draw(invariant_factors)))
    exps = st.tuples(*[st.integers(min_value=0, max_value=n - 1) for n in group.invariant_factors])
    g = group.element(draw(exps))
    h = group.element(draw(exps))
    chi = group.character(draw(exps))
    psi = group.character(draw(exps))
    return group, g, h, chi, psi


def test_order_and_exponent():
    group = AbelianGroup((2, 2))
    assert group.order == 4 and group.exponent == 2
    assert AbelianGroup((3, 2)).exponent == 6
    assert AbelianGroup(()).order == 1 and AbelianGroup(()).exponent == 1


def test_invalid_factor_rejected():
    with pytest.raises(InputError):
        AbelianGroup((0, 2))
    with pytest.raises(InputError):
        AbelianGroup(iter([2, 0]))


def test_factors_from_an_iterator_are_read_once():
    assert AbelianGroup(n for n in (2, 3)) is AbelianGroup((2, 3))


def test_z2z2_character_table_values():
    # chi_1 = (-1, 1) and chi_2 = (-1, -1) on (y1, y2)
    group = AbelianGroup((2, 2))
    y1, y2 = group.generator(0), group.generator(1)
    chi1, chi2 = group.character((1, 0)), group.character((1, 1))
    minus_one = root_of_unity(1, 2)
    assert chi1(y1) == minus_one
    assert chi1(y2).is_one()
    assert chi2(y1) == minus_one
    assert chi2(y2) == minus_one
    # multiplicativity against the table: chi1(y1*y2) = chi1(y1) chi1(y2)
    assert chi1(y1 * y2) == minus_one


def test_trivial_character_everywhere_one():
    group = AbelianGroup((3, 4))
    eps = group.trivial_character()
    assert eps.is_trivial()
    assert all(eps(g).is_one() for g in group.elements())


def test_triviality_detection():
    group = AbelianGroup((2, 2))
    assert not group.character((1, 0)).is_trivial()
    # chi1 * chi2 in the Zn x Zn data is trivial: values q and q^{-1} cancel
    n = 5
    gn = AbelianGroup((n, n))
    chi1, chi2 = gn.character((1, 1)), gn.character((n - 1, n - 1))
    assert (chi1 * chi2).is_trivial()


def test_char_ops_against_identity():
    group = AbelianGroup((2, 2))
    chi = group.character((1, 1))
    assert chi * group.trivial_character() == chi
    assert (chi * chi.inverse()).is_trivial()
    squares = [group.character(tuple(2 * a for a in exp)) for exp in ((1, 0), (1, 1))]
    assert (squares[0] * squares[1]).is_trivial()


def test_a_factor_tuple_has_one_group():
    assert AbelianGroup((2, 3)) is AbelianGroup([2, 3])
    assert AbelianGroup((2, 3)) is not AbelianGroup((3, 2))
    assert AbelianGroup((2, 3)) is groups._GROUPS[(2, 3)]


def test_equal_exponents_give_one_element():
    assert AbelianGroup((4, 6)).element((1, 2)) is AbelianGroup((4, 6)).element((5, 8))
    g = AbelianGroup((4, 6)).element((1, 2))
    assert g * g is g * AbelianGroup((4, 6)).element((-3, 2)) is AbelianGroup((4, 6)).element((2, 4))


def test_copies_and_pickles_are_the_interned_objects():
    group = AbelianGroup((4, 6))
    g = group.element((1, 2))
    chi = group.character((1, 2))
    for obj in (group, g, chi):
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
        assert pickle.loads(pickle.dumps(obj)) is obj


def test_equal_exponents_give_one_character():
    group = AbelianGroup((2, 3))
    chi = group.character((1, 1))
    assert Character(group, (5, 7)) is chi is character_from_json(group, {"exp": [3, -2]})
    assert chi * chi.inverse() is group.trivial_character() is Character(group, (2, 3))
    assert group.character(tuple(7 * a for a in chi.exp)) is chi
    assert chi * chi is group.character((0, 2))
    for exps in product(range(-7, 8), repeat=2):  # the table holds at most |Gamma| characters
        group.character(exps)
    assert len(group._characters) == group.order
    with pytest.raises(InputError):
        Character(group, (1,))


def test_an_element_times_a_character_is_a_type_error():
    group = AbelianGroup((2, 3))
    g, chi = group.element((1, 1)), group.character((1, 2))
    assert g.__mul__(chi) is NotImplemented and chi.__mul__(g) is NotImplemented
    with pytest.raises(TypeError):
        g * chi
    with pytest.raises(TypeError):
        chi * g


def test_a_character_is_evaluated_only_at_group_elements():
    group = AbelianGroup((2, 3))
    chi, psi = group.character((1, 2)), group.character((1, 1))
    assert chi.value_exponent(group.element((1, 1))) == 1  # zeta_6 at the element (1, 1)
    for evaluate in (chi, chi.value_exponent):
        for argument in (psi, (1, 1), None):
            with pytest.raises(TypeError):
                evaluate(argument)


G46 = AbelianGroup((4, 6))
BUILDS = {"group": AbelianGroup, "element": G46.element,
          "character": lambda exps: Character(G46, exps)}
LOOKUP_CASES = [  # (kind, case, argument, the key it is read to, or the error line)
    ("group", "tuple", (2, 3), (2, 3)),
    ("group", "list", [2, 3], (2, 3)),
    ("group", "iterator", [2, 3], (2, 3)),
    ("group", "negative", (-2, 3), "InputError: invariant factors must be >= 1: (-2, 3)"),
    ("group", "bool", (True, 3), (1, 3)),
    ("group", "float", (2.0, 3), (2, 3)),
    ("group", "fraction", (2.5, 3), (2, 3)),
    ("group", "list-entry", ([2], 3), error_line(lambda: [2] < 1)),
] + [(kind, case, arg, want) for kind in ("element", "character") for case, arg, want in (
    ("tuple", (1, 2), (1, 2)),
    ("list", [1, 2], (1, 2)),
    ("iterator", [1, 2], error_line(len, iter([1, 2]))),
    ("unreduced", (5, 8), (1, 2)),
    ("negative", (-3, -4), (1, 2)),
    ("bool", (True, False), (1, 0)),
    ("float", (1.0, 2.0), (1, 2)),
    ("fraction", (1.5, 2), (1, 2)),
    ("short", (1,), f"InputError: {kind} needs 2 exponents, got 1"),
    ("long", (1, 2, 3), f"InputError: {kind} needs 2 exponents, got 3"),
    ("list-entry", ([1], 2), error_line(int, [1])),
)]


@pytest.mark.parametrize("kind, case, arg, want", LOOKUP_CASES,
                         ids=[f"{kind}-{case}" for kind, case, _, _ in LOOKUP_CASES])
def test_a_lookup_before_reading_gives_what_reading_gives(kind, case, arg, want):
    """Each constructor looks its argument up before it reads it: the object
    or error line is the one that reading first gives, and neither the lookup
    nor a refusal adds a table entry."""
    build = BUILDS[kind]
    expected = None if isinstance(want, str) else build(want)
    if case == "iterator":
        arg = iter(arg)
    tables = (groups._GROUPS, G46._interned, G46._characters)
    before = [dict(table) for table in tables]
    if expected is None:
        assert error_line(build, arg) == want
    else:
        assert build(arg) is expected
    assert [dict(table) for table in tables] == before


def test_a_key_already_built_is_not_read():
    group = AbelianGroup((4, 6))
    g, chi = group.element((1, 2)), group.character((1, 2))
    assert AbelianGroup(Unread((4, 6))) is group
    assert group.element(Unread((1, 2))) is g and Character(group, Unread((1, 2))) is chi
    with pytest.raises(AssertionError):  # unreduced: a miss, so it is read
        group.element(Unread((5, 2)))


@pytest.mark.parametrize("factors", [(0,), (-2, 3), (2, 0, 3)])
def test_a_refused_factor_tuple_leaves_no_group(factors):
    before = dict(groups._GROUPS)
    with pytest.raises(InputError):
        AbelianGroup(factors)
    assert groups._GROUPS == before and factors not in groups._GROUPS


def test_mismatched_groups_raise():
    a = AbelianGroup((2,))
    b = AbelianGroup((3,))
    with pytest.raises(GroupMismatch):
        a.character((1,))(b.element((1,)))
    with pytest.raises(GroupMismatch):
        a.element((1,)) * b.element((1,))
    with pytest.raises(GroupMismatch):
        a.character((1,)) * b.character((1,))
    # equal exponent vectors over groups of different factors are not one element
    c = AbelianGroup((2, 3))
    with pytest.raises(GroupMismatch):
        c.element((1, 1)) * AbelianGroup((3, 2)).element((1, 1))
    with pytest.raises(GroupMismatch):
        c.character((1, 1))(AbelianGroup((3, 2)).element((1, 1)))


def test_elements_enumeration():
    assert len(list(AbelianGroup((2, 2)).elements())) == 4
    assert len(list(AbelianGroup((1,)).elements())) == 1
    seq = [g.exp for g in AbelianGroup((3, 2)).elements()]
    assert seq == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    # the first witness of inner_witness_search is the first in this order
    seq = [g.exp for g in AbelianGroup((2, 3, 2)).elements()]
    assert seq == list(product(range(2), range(3), range(2)))
    with pytest.raises(GroupTooLarge):
        list(AbelianGroup((100, 100, 200)).elements())


def test_character_group_has_group_order():
    for factors in ((2, 2), (3,), (4, 2), (2, 3)):
        group = AbelianGroup(factors)
        chars = {c.exp for c in characters(group)}
        assert len(chars) == group.order


def test_bicharacter_pairing_exhaustive_small():
    # fully exhaustive in both slots for |Gamma| <= 8
    for factors in ((2, 2), (6,), (4, 2), (2, 2, 2)):
        group = AbelianGroup(factors)
        elements = list(group.elements())
        chars = characters(group)
        for chi in chars:
            for g in elements:
                for h in elements:
                    assert chi(g * h) == chi(g) * chi(h)
            for psi in chars:
                for g in elements:
                    assert (chi * psi)(g) == chi(g) * psi(g)
    # spot checks at the |Gamma| <= 64 scale
    group = AbelianGroup((8, 4))
    assert group.order <= 64
    elements = list(group.elements())
    chars = characters(group)
    for chi in chars[:6] + chars[-2:]:
        for g in elements:
            for h in elements:
                assert chi(g * h) == chi(g) * chi(h)


@given(group_with_data())
def test_char_inverse_is_value_at_inverse(data):
    _group, g, _h, chi, _psi = data
    assert chi.inverse()(g) == chi(g.inverse())
    assert chi.inverse()(g) == chi(g).inverse()


@given(group_with_data())
def test_identity_and_inverse_are_the_interned_elements(data):
    """identity() and inverse() hand back the interned elements that
    element() builds, and inverting twice returns the element itself."""
    group, g, _h, _chi, _psi = data
    assert g.inverse() is group.element(tuple(-e for e in g.exp))
    assert g.inverse().inverse() is g
    assert g * g.inverse() is group.identity() is group.element((0,) * group.rank)
    assert group.identity().inverse() is group.identity()


@given(group_with_data())
def test_eval_multiplicative_both_slots(data):
    _group, g, h, chi, psi = data
    assert chi(g * h) == chi(g) * chi(h)
    assert (chi * psi)(g) == chi(g) * psi(g)


@given(group_with_data(), st.integers(min_value=-6, max_value=6))
def test_element_power_matches_repeated_product(data, n):
    group, g, _h, _chi, _psi = data
    expected = group.identity()
    step = g if n >= 0 else g.inverse()
    for _ in range(abs(n)):
        expected = expected * step
    assert group.element(tuple(n * e for e in g.exp)) is expected


def parse_element(group: AbelianGroup, text: str) -> GroupElement:
    """Parse multiplicative notation like "y1^2*y3" ("e" is the identity)."""
    text = text.strip()
    if text in ("e", "1", ""):
        return group.identity()
    exps = [0] * group.rank
    for token in text.split("*"):
        token = token.strip()
        name, _, power = token.partition("^")
        if not name.startswith("y"):
            raise InputError(f"bad group element token {token!r}")
        try:
            idx = int(name[1:]) - 1
            k = int(power) if power else 1
        except ValueError as exc:
            raise InputError(f"bad group element token {token!r}") from exc
        if not 0 <= idx < group.rank:
            raise InputError(f"generator y{idx + 1} outside rank-{group.rank} group")
        exps[idx] += k
    return group.element(exps)


def test_element_string_round_trip():
    group = AbelianGroup((4, 3, 2))
    g = group.element((2, 0, 1))
    assert str(g) == "y1^2*y3"
    assert parse_element(group, str(g)) is g
    assert parse_element(group, "y1^6*y2^3*y3") is g
    assert element_from_json(group, {"exp": [6, 3, -1]}) is g
    assert parse_element(group, "e") == group.identity()
    assert str(group.identity()) == "e"
    with pytest.raises(InputError):
        parse_element(group, "z1^2")


def test_json_round_trip():
    group = AbelianGroup((2, 4))
    assert AbelianGroup.from_json(group.to_json()) == group
    g = group.element((1, 3))
    assert g.to_json() == {"exp": [1, 3]}
    chi = group.character((0, 2))
    assert chi.to_json() == {"exp": [0, 2]}
