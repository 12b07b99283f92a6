"""The library's record classes: constructors, read-only fields, value
equality and hashing, and the checks their constructors make."""

from fractions import Fraction

import pytest

from cyhopf import (
    AbelianGroup,
    CartanDatum,
    CartanMatrix,
    CyReport,
    GroupActionData,
    LieAlgebraData,
    LinkingParameter,
    Root,
    check_cy,
    one,
)
from cyhopf.datum import CriterionResult
from cyhopf.errors import InternalError, InvalidDatum
from cyhopf.rewriting import ConfluenceReport, OverlapResult
from cyhopf.smash import CheckEntry, CheckReport
from conftest import a1a1_znzn_datum, a2_z2z2_datum


def _frozen_objects():
    """One object of each immutable class, with the name of one of its fields."""
    datum = a1a1_znzn_datum(3)
    report = check_cy(datum)
    group = datum.group
    return [
        (datum.cartan, "entries"),
        (Root((1, 0)), "coeffs"),
        (datum.linking[0], "value"),
        (datum, "group"),
        (report.criteria[0], "satisfied"),
        (report, "cy_R"),
        (group, "invariant_factors"),
        (group.element((1, 2)), "exp"),
        (group.character((1, 2)), "exp"),
        (LieAlgebraData(1, (((Fraction(0),),),)), "brackets"),
        (GroupActionData(AbelianGroup(()), ()), "matrices"),
    ]


FROZEN = _frozen_objects()


@pytest.mark.parametrize("obj, field", FROZEN, ids=[type(obj).__name__ for obj, _ in FROZEN])
def test_fields_are_read_only(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unknown = 1
    assert getattr(obj, field) is before


def test_equal_values_are_equal_and_hash_equal():
    pairs = [
        (CartanMatrix(((2, -1), (-1, 2))), CartanMatrix([[2, -1], [-1, 2]])),
        (Root((1, 1)), Root((1, 1))),
        (AbelianGroup((2, 3)), AbelianGroup([2, 3])),
        (CriterionResult("c", True, "d"), CriterionResult("c", True, "d")),
    ]
    for a, b in pairs:
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert Root((1, 0)) != Root((0, 1))
    assert CartanMatrix(((2,),)) != CartanMatrix(((2, 0), (0, 2)))
    assert AbelianGroup((2,)) != AbelianGroup((3,))


def test_elements_and_characters_compare_by_group_and_exponents():
    g, h = AbelianGroup((4, 6)), AbelianGroup((4, 6))
    assert g.element((1, 2)) == h.element((5, 8))
    assert hash(g.element((1, 2))) == hash(h.element((1, 2)))
    assert g.character((1, 2)) == h.character((5, 8))
    assert hash(g.character((1, 2))) == hash(h.character((1, 2)))
    assert g.element((1, 2)) != AbelianGroup((4, 7)).element((1, 2))


def test_an_element_never_equals_a_character():
    group = AbelianGroup((2, 2))
    assert group.element((1, 0)) != group.character((1, 0))
    assert group.character((1, 0)) != group.element((1, 0))
    assert group.identity() != group.trivial_character()


def test_reports_compare_by_value():
    assert check_cy(a2_z2z2_datum()) == check_cy(a2_z2z2_datum())
    assert check_cy(a2_z2z2_datum()) != check_cy(a1a1_znzn_datum(3))
    with pytest.raises(TypeError):  # its scalars are CycloNumbers, which have no hash
        hash(check_cy(a2_z2z2_datum()))
    assert CheckEntry("c", "fail", "x") == CheckEntry("c", "fail", "x") != CheckEntry("c", "pass")
    assert CheckReport([CheckEntry("c", "pass")]) == CheckReport([CheckEntry("c", "pass")], ())
    assert OverlapResult((0, 1), "a", "b") == OverlapResult((0, 1), "a", "b")
    assert ConfluenceReport(1, 0, []) != ConfluenceReport(1, 1, [])
    for obj in (CheckEntry("c", "pass"), CheckReport([]), OverlapResult((), "a", "b"),
                ConfluenceReport(0, 0, [])):
        with pytest.raises(TypeError):
            hash(obj)


def test_a_smash_verdict_with_a_nontrivial_integral_character_is_internal():
    xi = AbelianGroup((2,)).character((1,))
    with pytest.raises(InternalError, match="nontrivial integral character"):
        CyReport(False, True, 1, xi, None, (one(2),), None, ())
    assert not CyReport(False, False, 1, xi, None, (one(2),), None, ()).cy_smash


def test_keyword_construction_as_the_parsers_use_it():
    datum = a1a1_znzn_datum(3)
    kept = check_cy(datum)
    built = CartanDatum(group=datum.group, g=datum.g, chi=datum.chi, cartan=datum.cartan,
                        linking=datum.linking)
    assert built.braiding_exponents == datum.braiding_exponents
    assert CartanDatum(datum.group, datum.g, datum.chi, datum.cartan).linking == ()
    report = CyReport(cy_R=kept.cy_R, cy_smash=kept.cy_smash, cy_dimension=kept.cy_dimension,
                      integral_character=kept.integral_character, hdet=kept.hdet,
                      nakayama_diag=kept.nakayama_diag, inner_witness=kept.inner_witness,
                      criteria=kept.criteria, notes=kept.notes)
    assert report == kept
    positional = CyReport(kept.cy_R, kept.cy_smash, kept.cy_dimension, kept.integral_character,
                          kept.hdet, kept.nakayama_diag, kept.inner_witness, kept.criteria)
    assert positional.notes == ()
    algebra = LieAlgebraData(dimension=2, brackets=(((0, 0), (1, 0)), ((-1, 0), (0, 0))))
    assert algebra.brackets[0][1] == (Fraction(1), Fraction(0))
    confluence = ConfluenceReport(checked=3, skipped_over_bound=1, divergent=[])
    assert (confluence.ok, confluence.checked, confluence.skipped_over_bound) == (True, 3, 1)
    assert CheckEntry("c", "pass").counterexample is None
    assert LinkingParameter(i=0, j=1, value=one(1)).j == 1


def test_a_datum_is_validated_once_through_its_post_init(monkeypatch):
    """perfbench/tracing.py times CartanDatum.__post_init__ as datum.validate."""
    calls = []
    original = CartanDatum.__dict__["__post_init__"]
    monkeypatch.setattr(CartanDatum, "__post_init__",
                        lambda self: calls.append(self) or original(self))
    datum = a2_z2z2_datum()
    assert calls == [datum]
    with pytest.raises(InvalidDatum):
        CartanDatum(datum.group, datum.g[:1], datum.chi, datum.cartan)
