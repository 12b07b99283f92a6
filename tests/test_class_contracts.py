"""The library's record classes: constructors, read-only fields, value
equality and hashing, and the checks their constructors make."""

import importlib
import pkgutil
from collections import Counter
from fractions import Fraction
from itertools import count

import pytest

import cyhopf
from cyhopf import (
    AbelianGroup,
    CartanDatum,
    CartanMatrix,
    CyReport,
    GroupActionData,
    GroupElement,
    LieAlgebraData,
    LinkingParameter,
    Root,
    check_cy,
    groups,
    one,
)
from cyhopf.datum import CriterionResult
from cyhopf.errors import Frozen, InternalError, InvalidDatum, Record
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


def _library_classes() -> list[type]:
    """Every class defined in a cyhopf module."""
    classes = []
    for info in pkgutil.iter_modules(cyhopf.__path__):
        module = importlib.import_module(f"cyhopf.{info.name}")
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and obj.__module__ == module.__name__]
    return classes


def _unbuilt_factors() -> tuple[int, ...]:
    """Factors whose group no earlier test built: groups are interned, so
    building an old one again sets no field."""
    return next((n,) for n in count(2) if (n,) not in groups._GROUPS)


def test_each_field_of_a_frozen_object_is_set_once(monkeypatch):
    """Frozen's contract: __init__ sets each field once.  Every module's
    set_field is counted while one object of each Frozen class is built,
    among them a group no earlier test built and one of its elements, each
    built twice."""
    counts = Counter()
    built = []  # keeps every counted object alive, so that no id is reused

    def counting_set_field(obj, name, value):
        built.append(obj)
        counts[id(obj), type(obj).__name__, name] += 1
        object.__setattr__(obj, name, value)

    for info in pkgutil.iter_modules(cyhopf.__path__):
        module = importlib.import_module(f"cyhopf.{info.name}")
        if "set_field" in vars(module):
            monkeypatch.setattr(module, "set_field", counting_set_field)
    objects = [obj for obj, _ in _frozen_objects()]
    objects.append(GroupActionData(AbelianGroup((2,)), (((-1,),),)))
    factors = _unbuilt_factors()
    fresh = AbelianGroup(factors)
    objects += [fresh, fresh.element((1,)), AbelianGroup(factors).element((1,)).inverse()]
    assert objects[-2] is fresh.element((1,)) and objects[-1].inverse() is objects[-2]
    assert {name for obj_id, _, name in counts if obj_id == id(fresh)} >= {
        "invariant_factors", "order", "exponent", "scale"}
    assert {type(obj) for obj in objects} == {
        cls for cls in _library_classes() if issubclass(cls, Frozen) and cls is not Frozen}
    assert {name for _, name, _ in counts} == {type(obj).__name__ for obj in objects}
    assert [key for key, n in counts.items() if n != 1] == []


def _report_fields(report: CyReport) -> dict:
    return {name: getattr(report, name) for name in CyReport._compared}


KEPT = check_cy(a1a1_znzn_datum(3))  # cy_smash holds, so any changed xi stays trivial
G46 = (4, 6)
# Interned classes: one object per value, compared and hashed by identity.
# Each maps to the fields that make its value, in place of _compared.
INTERNED = {AbelianGroup: ("invariant_factors",), GroupElement: ("group", "exp")}
# (instance, an equal instance built again, which is another object unless its
# class is interned, one instance per compared field, in _compared order, that
# differs from the first in that field alone)
RECORDS = [
    (CartanMatrix(((2, -1), (-1, 2))), CartanMatrix([[2, -1], [-1, 2]]),
     [CartanMatrix(((2, -2), (-1, 2)))]),
    (Root((1, 0)), Root((1, 0)), [Root((0, 1))]),
    (AbelianGroup((2, 3)), AbelianGroup([2, 3]), [AbelianGroup((2, 4))]),
    (AbelianGroup(G46).element((1, 2)), AbelianGroup(G46).element((5, 8)),
     [AbelianGroup((4, 7)).element((1, 2)), AbelianGroup(G46).element((1, 3))]),
    (AbelianGroup(G46).character((1, 2)), AbelianGroup(G46).character((5, 8)),
     [AbelianGroup((4, 7)).character((1, 2)), AbelianGroup(G46).character((1, 3))]),
    (CriterionResult("c", True, "d"), CriterionResult("c", True, "d"),
     [CriterionResult("e", True, "d"), CriterionResult("c", False, "d"),
      CriterionResult("c", True, "e")]),
    (KEPT, CyReport(**_report_fields(KEPT)),
     [CyReport(**dict(_report_fields(KEPT), **{name: value})) for name, value in (
         ("cy_R", not KEPT.cy_R), ("cy_smash", not KEPT.cy_smash),
         ("cy_dimension", KEPT.cy_dimension + 1),
         ("integral_character", AbelianGroup((3,)).trivial_character()), ("hdet", None),
         ("nakayama_diag", KEPT.nakayama_diag[::-1]), ("inner_witness", None),
         ("criteria", KEPT.criteria[:-1]), ("notes", ()))]),
    (OverlapResult((0, 1), "a", "b"), OverlapResult((0, 1), "a", "b"),
     [OverlapResult((1, 0), "a", "b"), OverlapResult((0, 1), "c", "b"),
      OverlapResult((0, 1), "a", "c")]),
    (ConfluenceReport(1, 0, []), ConfluenceReport(1, 0, []),
     [ConfluenceReport(2, 0, []), ConfluenceReport(1, 1, []),
      ConfluenceReport(1, 0, [OverlapResult((), "a", "b")])]),
    (CheckEntry("c", "fail", "x"), CheckEntry("c", "fail", "x"),
     [CheckEntry("d", "fail", "x"), CheckEntry("c", "pass", "x"), CheckEntry("c", "fail")]),
    (CheckReport([CheckEntry("c", "pass")], ("n",)), CheckReport([CheckEntry("c", "pass")], ("n",)),
     [CheckReport([], ("n",)), CheckReport([CheckEntry("c", "pass")])]),
]
UNHASHABLE = {CyReport, OverlapResult, ConfluenceReport, CheckEntry, CheckReport}


def test_only_the_equality_bases_define_eq():
    own = {cls.__name__ for cls in _library_classes() if "__eq__" in vars(cls)}
    assert own == {"Record", "CycloNumber", "_Combination"}


def test_every_record_class_is_covered():
    records = {cls for cls in _library_classes() if issubclass(cls, Record) and cls is not Record}
    assert not records & INTERNED.keys()
    assert {type(a) for a, _, _ in RECORDS} == records | INTERNED.keys()


def test_groups_and_elements_compare_and_hash_by_identity():
    for cls in INTERNED:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    assert "_hash" not in vars(AbelianGroup(G46).element((1, 2)))


@pytest.mark.parametrize("a, b, changed", RECORDS, ids=[type(a).__name__ for a, _, _ in RECORDS])
def test_a_record_equals_by_its_compared_fields(a, b, changed):
    assert (a is b) == (type(a) in INTERNED) and a == b and not a != b
    assert len(changed) == len(INTERNED.get(type(a)) or type(a)._compared)
    for other in changed:
        assert a != other and not a == other
    if type(a) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_a_record_of_another_class_is_not_implemented():
    for a, _, _ in RECORDS:
        for b, _, _ in RECORDS:
            if type(a) is not type(b):
                assert a.__eq__(b) is NotImplemented and a != b


def test_equal_values_are_equal_and_hash_equal():
    pairs = [
        (CartanMatrix(((2, -1), (-1, 2))), CartanMatrix([[2, -1], [-1, 2]])),
        (Root((1, 1)), Root((1, 1))),
        (AbelianGroup((2, 3)), AbelianGroup([2, 3])),
        (CriterionResult("c", True, "d"), CriterionResult("c", True, "d")),
    ]
    for a, b in pairs:
        assert (a is b) == (type(a) in INTERNED)
        assert a == b and not a != b and hash(a) == hash(b)
    assert Root((1, 0)) != Root((0, 1))
    assert CartanMatrix(((2,),)) != CartanMatrix(((2, 0), (0, 2)))
    assert AbelianGroup((2,)) != AbelianGroup((3,))


def test_elements_and_characters_compare_by_group_and_exponents():
    g, h = AbelianGroup((4, 6)), AbelianGroup((4, 6))
    assert g is h and g.element((1, 2)) is h.element((5, 8))
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
