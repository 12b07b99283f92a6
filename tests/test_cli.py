import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyhopf import smash
from cyhopf.cli import main
from cyhopf.errors import InputError, read_int
from conftest import type_a

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_cy_json_matches_golden_byte_for_byte(capsys):
    for golden_name, datum in (
        ("example_a2_z2z2", "datum_a2_z2z2.json"),
        ("example_a1a1_z3z3", "datum_a1a1_z3z3.json"),
    ):
        code, out = run_cli(capsys, "check-cy", str(DATA / datum), "--json")
        assert code == 0
        assert out == (GOLDEN / f"{golden_name}.check-cy.json").read_text()


# The other --json calls on a bundled file that exit 0, as (verb, file stem);
# the golden of each is <stem>.<verb>.json.
JSON_GOLDENS = [
    ("hdet", "datum_a1a1_z3z3"), ("roots", "cartan_a2"), ("roots", "datum_a1a1_z3z3"),
    ("roots", "datum_a2_z2z2"), ("lie-check", "lie_sl2_sign"),
    *itertools.product(("nakayama", "verify-hopf", "verify-s2", "confluence"),
                       ("presentation_a1a1_z3z3", "presentation_a2_z2z2",
                        "presentation_nonconfluent")),
]


@pytest.mark.parametrize("verb, stem", JSON_GOLDENS,
                         ids=[f"{stem}.{verb}" for verb, stem in JSON_GOLDENS])
def test_json_report_matches_golden_byte_for_byte(capsys, verb, stem):
    code, out = run_cli(capsys, verb, str(DATA / f"{stem}.json"), "--json")
    assert code == 0
    assert out == (GOLDEN / f"{stem}.{verb}.json").read_text()


def test_every_golden_reproduces_in_one_process_forward_and_reversed(capsys):
    """Groups, elements and signed roots are kept for the whole process, so
    one process runs every golden call, then all of them again in reverse
    order: no kept table may leak into a report."""
    calls = []
    for golden in sorted(GOLDEN.glob("*.json")):
        stem, verb = golden.stem.rsplit(".", 1)
        calls.append((verb, DATA / f"{stem.replace('example_', 'datum_', 1)}.json", golden))
    assert len(calls) == 19
    for verb, path, golden in calls + calls[::-1]:
        code, out = run_cli(capsys, verb, str(path), "--json")
        assert code == 0 and out == golden.read_text(), golden.name


def test_reports_reparse_under_schema(capsys):
    cases = [
        ("check-cy", "datum_a2_z2z2.json"),
        ("hdet", "datum_a1a1_z3z3.json"),
        ("roots", "cartan_a2.json"),
        ("verify-hopf", "presentation_a1a1_z3z3.json"),
        ("verify-s2", "presentation_a2_z2z2.json"),
        ("confluence", "presentation_nonconfluent.json"),
        ("nakayama", "presentation_a2_z2z2.json"),
        ("lie-check", "lie_sl2_sign.json"),
    ]
    for verb, filename in cases:
        code, out = run_cli(capsys, verb, str(DATA / filename), "--json")
        assert code == 0, (verb, filename)
        blob = json.loads(out)
        assert blob["schema"] == "cy-hopf/1"
        assert blob["command"] == verb
        assert "report" in blob and "tie_break" in blob and "seed" in blob


def test_text_mode_mentions_key_fields(capsys):
    code, out = run_cli(capsys, "check-cy", str(DATA / "datum_a2_z2z2.json"))
    assert code == 0
    assert "cy_smash: true" in out
    assert "cy_dimension: 3" in out
    assert "nakayama_diag: (-1, -1)" in out
    assert "inner_witness: y1" in out


def test_negative_verdict_is_exit_zero(capsys):
    code, out = run_cli(capsys, "hdet", str(DATA / "datum_a1a1_z3z3.json"))
    assert code == 0
    assert "cy_R: false" in out


def test_invalid_input_is_exit_one(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["check-cy", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["roots", str(bad)]) == 1
    wrong_schema = tmp_path / "schema.json"
    wrong_schema.write_text(json.dumps({"schema": "cy-hopf/999", "cartan": [[2]]}))
    assert main(["roots", str(wrong_schema)]) == 1
    deep = tmp_path / "deep.json"  # deeper than the JSON decoder's recursion limit
    deep.write_text('{"cartan": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["roots", str(deep)]) == 1
    # structurally valid JSON, invalid datum (q_11 = 1)
    invalid = tmp_path / "datum.json"
    invalid.write_text(
        json.dumps(
            {
                "group": {"invariant_factors": [2]},
                "g": [{"exp": [1]}],
                "chi": [{"exp": [0]}],
                "cartan": [[2]],
            }
        )
    )
    assert main(["check-cy", str(invalid)]) == 1
    capsys.readouterr()


A1A1_Z2Z2 = {
    "group": {"invariant_factors": [2, 2]},
    "g": [{"exp": [1, 0]}, {"exp": [0, 1]}],
    "chi": [{"exp": [1, 0]}, {"exp": [0, 1]}],
    "cartan": [[2, 0], [0, 2]],
}

PRES_Z2 = {
    "group": {"invariant_factors": [2]},
    "generators": 2,
    "degrees": [{"exp": [1]}, {"exp": [1]}],
    "actions": [{"exp": [1]}, {"exp": [1]}],
    "rules": [],
}


def edited(filename: str, path: tuple, value, **extra) -> dict:
    """A bundled data file with the entry at path replaced by value."""
    obj = dict(json.loads((DATA / filename).read_text()), **extra)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


DATUM_A2, DATUM_A1A1 = "datum_a2_z2z2.json", "datum_a1a1_z3z3.json"
PRES_A2, PRES_A1A1 = "presentation_a2_z2z2.json", "presentation_a1a1_z3z3.json"
# The quantum plane's rule coefficient q12^-1 = zeta_3 replaced by q12^-2 = zeta_3^2:
# the negative control, which no rule check passes, so the sweep decides it.
ZETA3_SQUARED = {"order": 3, "coeffs": [["-1", "1"], ["-1", "1"]]}
# One free generator at bound 87: 3916 pairs of 88 normal words, 2672670 cost units.
ONE_GENERATOR = dict(PRES_Z2, generators=1, degrees=[{"exp": [0]}], actions=[{"exp": [0]}],
                     degree_bound=87)
# One generator over Z_101 with chi(g) = zeta_101 and its rule over the bound: the
# swept Delta(x^k) hold dense q-binomials, phi(101) = 100 rational parts each.
LARGE_FIELD = dict(PRES_Z2, group={"invariant_factors": [101]}, generators=1,
                   degrees=[{"exp": [1]}], actions=[{"exp": [1]}],
                   rules=[{"lhs": "x1^37", "rhs": []}], degree_bound=36)
# Type A32 over (Z3)^32 with q_ij = zeta_3^{a_ij}: a valid datum whose 528 positive
# roots pass the root layer's budget, 500 at rank 32.
A32_DATUM = {"group": {"invariant_factors": [3] * 32},
             "g": [{"exp": [int(i == j) for j in range(32)]} for i in range(32)],
             "chi": [{"exp": [a % 3 for a in row]} for row in type_a(32)], "cartan": type_a(32)}
# Six commuting generators of degree gamma over Z_593, trivial action, bound 3: the
# rule check costs 78144 units, the degree <= 1 pairs alone 169 * 592 = 100048.
COMMUTING_Z593 = dict(
    PRES_Z2, group={"invariant_factors": [593]}, generators=6,
    degrees=[{"exp": [1]}] * 6, actions=[{"exp": [0]}] * 6, degree_bound=3,
    rules=[{"lhs": f"x{j}*x{i}", "rhs": [{"word": f"x{i}*x{j}", "coeff": "1"}]}
           for i in range(1, 7) for j in range(i + 1, 7)])
# x1^11 -> 0 over Z_781 with q = chi(g) of order 11, bound 21: the Delta check
# costs 11 * 12 * 720 = 95040 units and fits the budget; it used to charge the S
# templates too (100100 units), and the sweep refuses the input for pair cost.
NILPOTENT_Z781 = dict(PRES_Z2, group={"invariant_factors": [781]}, generators=1,
                      degrees=[{"exp": [1]}], actions=[{"exp": [71]}],
                      rules=[{"lhs": "x1^11", "rhs": []}], degree_bound=21)


def nilpotent(order: int, lhs: str) -> dict:
    """The rule x1^order -> 0, its left-hand side written as lhs, over Z_order
    with chi(g) = zeta_order: a valid presentation when lhs reads as x1^order."""
    return dict(PRES_Z2, group={"invariant_factors": [order]}, generators=1,
                degrees=[{"exp": [1]}], actions=[{"exp": [1]}],
                rules=[{"lhs": lhs, "rhs": []}], degree_bound=order + 2)


# A Cartan entry of 5000 nines, as raw JSON text: json.load refuses an integer
# literal over the interpreter's int-string digit limit (4300) with a ValueError.
HUGE_CARTAN_ENTRY = json.dumps(edited(DATUM_A2, ("cartan", 0, 1), "N")).replace('"N"', "9" * 5000)


@pytest.mark.parametrize(
    "verb, obj",
    [
        ("check-cy", {"group": {"invariant_factors": [2]}, "g": [{"exp": [1]}],
                      "chi": [{"exp": [1]}], "cartan": [["a"]]}),
        ("verify-hopf", {"group": {"invariant_factors": [2]}, "generators": "x",
                         "degrees": [{"exp": [1]}], "actions": [{"exp": [1]}], "rules": []}),
        ("check-cy", dict(A1A1_Z2Z2, **{"lambda": [
            {"pair": [1, 2], "value": {"order": 1, "coeffs": [["1", "0"]]}}]})),
        ("check-cy", dict(A1A1_Z2Z2, **{"lambda": [{"pair": [1, 2], "value": "1/0"}]})),
        ("verify-hopf", dict(PRES_Z2, degree_bound=2.9)),
        ("verify-hopf", dict(PRES_Z2, degree_bound=True)),
        ("verify-hopf", dict(PRES_Z2, generators=2.0)),
        ("check-cy", {"group": {"invariant_factors": [10001]}, "g": [{"exp": [1]}],
                      "chi": [{"exp": [1]}], "cartan": [[2]]}),
        ("check-cy", edited(DATUM_A2, ("g", 0, "exp"), "ab")),
        ("check-cy", edited(DATUM_A2, ("group", "invariant_factors"), ["x", 2])),
        ("check-cy", edited(DATUM_A2, ("g",), 5)),
        ("check-cy", edited(DATUM_A1A1, ("lambda",), 5)),
        ("check-cy", edited(DATUM_A1A1, ("lambda", 0, "pair"), "ab")),
        ("verify-hopf", edited(PRES_A2, ("rules", 0, "lhs"), 5)),
        ("nakayama", edited(PRES_A2, ("xi", "exp"), "zz", xi={"exp": [0, 0]})),
        ("lie-check", edited("lie_sl2_sign.json", ("dim",), 2000)),
        ("check-cy", edited(DATUM_A2, ("group", "invariant_factors"), [2.9, 2])),
        ("check-cy", edited(DATUM_A2, ("g", 0, "exp"), [1.7, 0])),
        ("check-cy", edited(DATUM_A2, ("g", 0, "exp"), [True, 0])),
        ("check-cy", edited(DATUM_A2, ("cartan", 0, 1), -1.5)),
        ("check-cy", {"group": {"invariant_factors": [1000000000000000003]},
                      "g": [{"exp": [1]}], "chi": [{"exp": [1]}], "cartan": [[2]]}),
        ("verify-hopf", edited(PRES_A2, ("rules", 0, "lhs"), "x1^300000000")),
        ("confluence", edited(PRES_A2, ("rules",), [{"lhs": "x1^5000", "rhs": []}])),
        ("confluence", edited(PRES_A2, ("rules",),
                              [{"lhs": f"x1^{n}", "rhs": []} for n in range(900, 1000)])),
        ("verify-hopf", edited(PRES_A1A1, ("rules", 0, "rhs", 0, "coeff"), ZETA3_SQUARED,
                               degree_bound=13)),
        ("verify-s2", edited(PRES_A1A1, ("degree_bound",), 31)),
        ("lie-check", edited("lie_sl2_sign.json", ("action",), {
            "group": {"invariant_factors": [10000000000]},
            "matrices": [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]})),
        ("lie-check", {"dim": 16, "action": {
            "group": {"invariant_factors": [24504480]},
            "matrices": [[[random.Random(i).randint(-3, 3) for _ in range(16)]
                          for i in range(16)]]}}),
        ("verify-hopf", dict(ONE_GENERATOR, rules=[{"lhs": "x1^88", "rhs": []}])),
        ("verify-hopf", LARGE_FIELD),
        ("check-cy", {"group": {"invariant_factors": [2] * 129}, "g": [{"exp": [1] + [0] * 128}],
                      "chi": [{"exp": [1] * 129}], "cartan": [[2]]}),
        ("roots", {"cartan": type_a(60)}),
        ("check-cy", A32_DATUM),
        ("roots", {"cartan": [[2 * (i == j) for j in range(129)] for i in range(129)]}),
        ("roots", HUGE_CARTAN_ENTRY),
        ("check-cy", HUGE_CARTAN_ENTRY),
        ("verify-hopf", dict(PRES_Z2, degrees={"exp": [1]})),
        ("verify-hopf", dict(PRES_Z2, actions={"exp": [1]})),
        # strings that int() reads but that are not a sign followed by ASCII digits
        ("roots", {"cartan": [[2, " -1 "], [-1, 2]]}),
        ("lie-check", edited("lie_sl2_sign.json", ("dim",), "\u0663")),
        ("verify-s2", edited(PRES_A1A1, ("degree_bound",), "1_0")),
        # lambda_12 != 0 on a pair that is not linkable; both exited 0 before the check
        ("check-cy", edited(DATUM_A1A1, ("chi", 1, "exp"), [2, 1])),
        ("check-cy", {"group": {"invariant_factors": [2]}, "g": [{"exp": [1]}, {"exp": [1]}],
                      "chi": [{"exp": [1]}, {"exp": [1]}], "cartan": [[2, 0], [0, 2]],
                      "lambda": [{"pair": [1, 2], "value": 1}]}),
        # numbers in strings that Fraction() or int() would read
        *[("check-cy", edited(DATUM_A1A1, ("lambda", 0, "value"), value))
          for value in ("\uff11", " 1 ", "1_0/3", "1e3", "0.5")],
        ("verify-hopf", nilpotent(10, "x1^1_0")),
        ("verify-hopf", nilpotent(3, "x1^\u0663")),
        *[("verify-hopf", edited(PRES_A2, ("rules", 0, "lhs"), f"x2*{token}^2"))
          for token in ("x\uff11", "x+1", "x 1")],
    ],
    ids=["cartan-entry-not-int", "generators-not-int", "zero-denominator", "zero-rational",
         "degree-bound-float", "degree-bound-bool", "generators-float",
         "order-over-power-table-budget", "element-exp-string", "invariant-factor-string",
         "g-not-list", "lambda-not-list", "pair-string", "rule-word-not-string",
         "xi-exp-string", "lie-dim-over-cap", "invariant-factor-float", "element-exp-float",
         "element-exp-bool", "cartan-entry-float", "huge-prime-order", "word-over-length-cap",
         "long-rule-word", "rule-letters-over-cap", "pairs-over-budget",
         "normal-words-over-budget", "lie-order-unbounded", "lie-power-over-bit-cap",
         "pair-cost-over-budget", "pair-cost-in-large-field", "witness-rank-over-limit",
         "roots-over-work-budget", "check-cy-roots-over-work-budget", "cartan-rank-over-limit",
         "roots-int-over-digit-limit", "check-cy-int-over-digit-limit", "degrees-not-list",
         "actions-not-list", "cartan-entry-padded", "lie-dim-non-ascii-digit",
         "degree-bound-underscore", "linked-characters-not-inverse",
         "linked-group-likes-inverse", "rational-fullwidth-digit", "rational-padded",
         "rational-underscore", "rational-exponent", "rational-decimal-point",
         "word-power-underscore", "word-power-non-ascii-digit", "word-index-fullwidth-digit",
         "word-index-signed", "word-index-spaced"],
)
def test_malformed_input_is_one_error_line(tmp_path, capsys, verb, obj):
    path = tmp_path / "input.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    assert main([verb, str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("raw", ["1_000", " 7 ", "\u0663", "", "+", "-", "+-5", "\u00b2"])
def test_read_int_takes_only_a_sign_and_ascii_digits(raw):
    """int() also reads underscores, surrounding spaces and non-ASCII digits
    (here Arabic-Indic three and superscript two); an input file may not."""
    with pytest.raises(InputError, match="must be an integer"):
        read_int("n", raw)


def test_read_int_reads_decimal_strings():
    assert [read_int("n", raw) for raw in ("12", "-3", "+4", "007", 5, -2)] == [12, -3, 4, 7, 5, -2]


PRESENTATION_STEMS = ("presentation_a1a1_z3z3", "presentation_a2_z2z2",
                      "presentation_nonconfluent")
DATUM_STEMS = ("datum_a1a1_z3z3", "datum_a2_z2z2")
# Every call on a bundled file that exits 1, as (verb, file stem, stderr line).  Each
# is a file of another kind, refused for a missing top-level key, except hdet on A2.
REFUSALS = [
    *[(verb, stem, line) for verb in ("check-cy", "hdet") for stem, line in (
        ("cartan_a2", "datum file missing key 'group'"),
        ("lie_sl2_sign", "datum file missing key 'group'"),
        *[(stem, "datum file missing key 'cartan'") for stem in PRESENTATION_STEMS])],
    ("hdet", "datum_a2_z2z2",
     "quantum-affine report needs a Cartan matrix of type A1 x ... x A1"),
    *[(verb, stem, line) for verb in ("nakayama", "verify-hopf", "verify-s2", "confluence")
      for stem, line in (
        ("cartan_a2", "presentation file missing key 'group'"),
        ("lie_sl2_sign", "presentation file missing key 'group'"),
        *[(stem, "presentation file missing key 'generators'") for stem in DATUM_STEMS])],
    *[("lie-check", stem, "lie file needs an integer 'dim'")
      for stem in ("cartan_a2", *DATUM_STEMS, *PRESENTATION_STEMS)],
    *[("roots", stem, "cartan file needs a 'cartan' key")
      for stem in ("lie_sl2_sign", *PRESENTATION_STEMS)],
]


def test_every_bundled_call_is_pinned():
    """Each verb on each bundled file either has a golden or a pinned refusal."""
    verbs = ("check-cy", "hdet", "nakayama", "roots", "verify-hopf", "verify-s2",
             "confluence", "lie-check")
    accepted = {(verb, stem) for verb, stem in JSON_GOLDENS} | {
        ("check-cy", stem) for stem in DATUM_STEMS}
    refused = {(verb, stem) for verb, stem, _ in REFUSALS}
    assert len(REFUSALS) == len(refused) == 37 and not accepted & refused
    assert accepted | refused == set(itertools.product(verbs, (p.stem for p in DATA.glob("*.json"))))


@pytest.mark.parametrize("verb, stem, line", REFUSALS,
                         ids=[f"{stem}.{verb}" for verb, stem, _ in REFUSALS])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_refused_bundled_call_prints_its_one_line(capsys, verb, stem, line, flags):
    assert main([verb, str(DATA / f"{stem}.json"), *flags]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"error: {line}\n"


def test_a_missing_key_comes_before_a_malformed_earlier_value(tmp_path, capsys):
    """A file of the wrong kind is refused for its first missing top-level key
    before any value is read: a presentation with a malformed group, given to
    check-cy, is refused for lacking 'cartan', not for its group."""
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(edited(PRES_A2, ("group",), "x")))
    assert main(["check-cy", str(path)]) == 1
    assert capsys.readouterr().err == "error: datum file missing key 'cartan'\n"


@pytest.mark.parametrize("verb, filename, key, value, line", [
    ("check-cy", DATUM_A2, "group", {}, "malformed group: {}"),
    ("check-cy", DATUM_A2, "g", [{}], "malformed group element: {}"),
    ("check-cy", DATUM_A2, "chi", [{}], "malformed character: {}"),
    ("verify-hopf", PRES_A2, "group", {}, "malformed group: {}"),
    ("verify-hopf", PRES_A2, "degrees", [{}], "malformed group element: {}"),
    ("verify-hopf", PRES_A2, "actions", [{}], "malformed character: {}"),
], ids=["datum-group", "g", "chi", "presentation-group", "degrees", "actions"])
def test_a_nested_key_is_named_by_its_reader(tmp_path, capsys, verb, filename, key, value, line):
    """A top-level key that is present but lacks a key inside is refused by
    the reader of that value, with its own one line."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(edited(filename, (key,), value)))
    assert main([verb, str(path)]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"error: {line}\n"


@pytest.mark.parametrize("key", ["degrees", "actions"])
def test_presentation_list_keys_must_be_lists(tmp_path, capsys, key):
    """A presentation's degrees and actions are read as JSON lists, as a
    datum's g and chi are: an object there is named in the error line."""
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(dict(PRES_Z2, **{key: {"exp": [1]}})))
    assert main(["verify-hopf", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be a list")


CARTAN = str(DATA / "cartan_a2.json")
PRES = str(DATA / PRES_A2)

# The accepted forms of the command-line grammar, each with the plain spelling
# whose stdout it must print.
GRAMMAR = [
    ("options-before-input", ["roots", "--json", "--tie-break", "max", CARTAN],
     ["roots", CARTAN, "--json", "--tie-break", "max"]),
    ("option-equals-value", ["roots", CARTAN, "--json", "--tie-break=max"],
     ["roots", CARTAN, "--json", "--tie-break", "max"]),
    ("unique-prefixes", ["roots", CARTAN, "--js", "--t", "max"],
     ["roots", CARTAN, "--json", "--tie-break", "max"]),
    ("prefix-equals-value", ["verify-s2", PRES, "--j", "--deg=3"],
     ["verify-s2", PRES, "--json", "--degree-bound", "3"]),
    ("prefix-then-value", ["verify-s2", PRES, "--deg", "3", "--json"],
     ["verify-s2", PRES, "--json", "--degree-bound", "3"]),
    ("last-repeat-wins", ["roots", CARTAN, "--tie-break", "min", "--json", "--tie-break", "max",
                          "--json"],
     ["roots", CARTAN, "--json", "--tie-break", "max"]),
    ("negative-value", ["roots", CARTAN, "--json", "--seed", "-5"],
     ["roots", CARTAN, "--json", "--seed=-5"]),
    ("signed-value", ["roots", CARTAN, "--json", "--seed", "+5"],
     ["roots", CARTAN, "--json", "--seed", "5"]),
    ("double-dash-ends-options", ["roots", "--json", "--", CARTAN], ["roots", CARTAN, "--json"]),
    ("double-dash-after-input", ["roots", CARTAN, "--"], ["roots", CARTAN]),
]


@pytest.mark.parametrize("argv, plain", [row[1:] for row in GRAMMAR],
                         ids=[row[0] for row in GRAMMAR])
def test_an_accepted_spelling_prints_what_the_plain_one_does(capsys, argv, plain):
    """Each accepted form exits 0 with the stdout of its plain spelling."""
    expected = run_cli(capsys, *plain)
    assert expected[0] == 0
    assert run_cli(capsys, *argv) == expected


def test_seed_keeps_a_negative_value(capsys):
    code, out = run_cli(capsys, "roots", CARTAN, "--json", "--seed", "-5")
    assert code == 0 and json.loads(out)["seed"] == -5


@pytest.mark.parametrize(
    "argv",
    [[], ["frobnicate", str(DATA / DATUM_A2)], ["check-cy"],
     ["verify-s2", str(DATA / PRES_A2), "--degree-bound", "x"],
     ["roots", str(DATA / "cartan_a2.json"), "--tie-break", "middle"],
     ["roots", str(DATA / "cartan_a2.json"), "--no-such-flag"],
     ["roots", CARTAN, "--seed"], ["roots", CARTAN, "--json=1"], ["roots", CARTAN, "extra"],
     ["--json", "roots", CARTAN], ["roots", CARTAN, "--json", "--"],
     ["roots", "--", CARTAN, "--json"], ["roots", CARTAN, "-hx"], ["roots", CARTAN, "-j"],
     # strings int() reads but a file may not hold (errors.read_int)
     ["verify-s2", PRES, "--degree-bound", "\u0663"],
     ["verify-s2", PRES, "--degree-bound", "1_0"], ["verify-s2", PRES, "--degree-bound", " 3"],
     ["roots", CARTAN, "--seed", "\u0663"]],
    ids=["no-verb", "unknown-verb", "no-input-path", "degree-bound-not-int",
         "tie-break-not-a-choice", "unknown-flag", "missing-value", "flag-with-value",
         "extra-positional", "option-before-verb", "double-dash-after-option",
         "option-after-double-dash", "help-with-value", "unknown-short-option",
         "degree-bound-non-ascii-digit", "degree-bound-underscore", "degree-bound-padded",
         "seed-non-ascii-digit"],
)
def test_malformed_command_line_is_one_error_line(capsys, argv):
    """A bad command line is invalid input like a bad file: exit 1, one line."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: cyhopf")


# -h or --help anywhere after the verb, or before it; an unknown option ahead of
# it is refused only at the end of the line, so it does not stop the help
@pytest.mark.parametrize("argv", [["--help"], ["check-cy", "--help"], ["-h"], ["--he", "roots"],
                                  ["roots", CARTAN, "--json", "-h"], ["roots", "--bogus", "--h"],
                                  ["roots", "-hh"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: cyhopf" in capsys.readouterr().out


# One accepted bundled file per verb that reads no degree bound.
UNBOUNDED_VERBS = [("check-cy", DATUM_A2), ("hdet", DATUM_A1A1), ("roots", "cartan_a2.json"),
                   ("lie-check", "lie_sl2_sign.json")]


@pytest.mark.parametrize("verb, filename", UNBOUNDED_VERBS, ids=[v for v, _ in UNBOUNDED_VERBS])
def test_every_verb_refuses_a_degree_bound_below_one(capsys, verb, filename):
    """These verbs read no bound, yet exited 0 on --degree-bound 0 or -5 with
    "degree_bound": null; they refuse it as the presentation verbs do.  A
    bound of 1 or more leaves their report as it was."""
    path = str(DATA / filename)
    for value in ("0", "-5"):
        assert main([verb, path, "--degree-bound", value]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == f"error: --degree-bound must be >= 1, got {value}\n"
    code, plain = run_cli(capsys, verb, path, "--json")
    assert code == 0 and json.loads(plain)["degree_bound"] is None
    assert run_cli(capsys, verb, path, "--json", "--degree-bound", "1") == (0, plain)
    assert main(["verify-s2", PRES, "--degree-bound", "0"]) == 1
    assert capsys.readouterr().err == "error: --degree-bound must be >= 1, got 0\n"


@pytest.mark.parametrize("verb", ["verify-hopf", "verify-s2"])
def test_huge_degree_bound_fails_fast(tmp_path, capsys, verb):
    in_file = tmp_path / "pres.json"
    in_file.write_text(json.dumps(edited(PRES_A1A1, ("degree_bound",), 1000)))
    for argv in ([verb, str(DATA / PRES_A2), "--degree-bound", "1000"], [verb, str(in_file)]):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


# Two generators of degree 1 and action 1 over Z3, and a rule whose left-hand
# side is a generator: x2 -> x1, or x1 -> 0.
REWRITES_A_GENERATOR = [
    dict(PRES_Z2, group={"invariant_factors": [3]}, rules=[{"lhs": lhs, "rhs": rhs}])
    for lhs, rhs in (("x2", [{"word": "x1", "coeff": "1"}]), ("x1", []))]


@pytest.mark.parametrize("obj", REWRITES_A_GENERATOR, ids=["x2-to-x1", "x1-to-0"])
def test_nakayama_refuses_a_rewritten_generator(tmp_path, capsys, obj):
    """nakayama reads psi(x_i) as one scalar on the basis word x_i, so a rule
    that rewrites x_i is invalid input for it: exit 1 with one error line, not
    an internal invariant violation.  The other presentation verbs still get
    a verdict."""
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(obj))
    assert main(["nakayama", str(path)]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    for verb in ("verify-hopf", "verify-s2", "confluence"):
        assert main([verb, str(path)]) == 0, verb
    capsys.readouterr()


@pytest.mark.parametrize(
    "obj",
    [edited(PRES_A2, ("degree_bound",), 11), ONE_GENERATOR, COMMUTING_Z593, NILPOTENT_Z781],
    ids=["a2-bound-11", "one-free-generator-bound-87", "six-commuting-over-z593",
         "nilpotent-over-z781"],
)
def test_confluent_input_over_pair_budget_gets_a_verdict(tmp_path, capsys, obj):
    """The sweep refuses these for pair cost; the rule path decides them in
    every degree, and forms no pairs, so even the degree <= 1 pairs of the
    last one, over the budget, cost nothing."""
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, out = run_cli(capsys, "verify-hopf", str(path), "--json")
    assert code == 0 and time.perf_counter() - start < 5
    report = json.loads(out)["report"]
    assert report["passed"] and len(report["entries"]) == 5
    assert report["notes"][-1].startswith("decided on generators and rules")


@pytest.mark.parametrize("order", [50, 100, 200, 499])
def test_rule_path_work_is_bounded(tmp_path, capsys, order):
    """x1^L -> 0 over Z_L at bound 2L - 1 fits the word budget, but its
    templates hold dense q-binomial coefficients: the rule path stops at the
    cost budget, and the answer comes at once either way."""
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(dict(
        PRES_Z2, group={"invariant_factors": [order]}, generators=1, degrees=[{"exp": [1]}],
        actions=[{"exp": [1]}], rules=[{"lhs": f"x1^{order}", "rhs": []}],
        degree_bound=2 * order - 1)))
    start = time.perf_counter()
    code = main(["verify-hopf", str(path)])
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert code == 0 and not err or code == 1 and len(err.splitlines()) == 1


def test_unexpected_exception_is_exit_two(monkeypatch, capsys):
    def broken(_algebra):
        raise RuntimeError("boom")

    monkeypatch.setattr(smash, "verify_double_antipode", broken)
    assert main(["verify-s2", str(DATA / "presentation_a2_z2z2.json")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: RuntimeError: boom"]


def test_degree_bound_flag_and_env(tmp_path, capsys, monkeypatch):
    """The bound is --degree-bound, else the file's "degree_bound", else the
    default 4.  The environment sets none: the CY_HOPF_DEGREE_BOUND variable
    that once did is ignored, even when it is not a number."""
    code, out = run_cli(
        capsys, "verify-s2", str(DATA / "presentation_a1a1_z3z3.json"),
        "--degree-bound", "3", "--json",
    )
    assert code == 0 and json.loads(out)["degree_bound"] == 3
    pres = json.loads((DATA / "presentation_a1a1_z3z3.json").read_text())
    del pres["degree_bound"]
    stripped = tmp_path / "pres.json"
    stripped.write_text(json.dumps(pres))
    for value in ("2", "zero"):
        monkeypatch.setenv("CY_HOPF_DEGREE_BOUND", value)
        code, out = run_cli(capsys, "verify-s2", str(stripped), "--json")
        assert code == 0 and json.loads(out)["degree_bound"] == 4
        code, out = run_cli(capsys, "verify-s2", str(stripped), "--json", "--degree-bound", "2")
        assert code == 0 and json.loads(out)["degree_bound"] == 2


def test_tie_break_flag_changes_word(capsys):
    _code, out_min = run_cli(capsys, "roots", str(DATA / "cartan_a2.json"), "--json")
    _code, out_max = run_cli(
        capsys, "roots", str(DATA / "cartan_a2.json"), "--json", "--tie-break", "max"
    )
    assert json.loads(out_min)["report"]["word"] == [1, 2, 1]
    assert json.loads(out_max)["report"]["word"] == [2, 1, 2]
    assert (
        json.loads(out_min)["report"]["positive_root_count"]
        == json.loads(out_max)["report"]["positive_root_count"]
        == 3
    )


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "cyhopf.cli", "lie-check", str(DATA / "lie_sl2_sign.json")],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 0
    assert "cy_smash: true" in result.stdout


def _a1t_on_factor_one(factors, g_exps, chi_exps) -> dict:
    """A1 x ... x A1 datum whose g_i and chi_i are trivial off the first factor."""
    pad = [0] * (len(factors) - 1)
    t = len(g_exps)
    return {
        "group": {"invariant_factors": list(factors)},
        "g": [{"exp": [a] + pad} for a in g_exps],
        "chi": [{"exp": [c] + pad} for c in chi_exps],
        "cartan": [[2 if i == j else 0 for j in range(t)] for i in range(t)],
    }


@pytest.mark.parametrize(
    "obj, witness",
    [
        (_a1t_on_factor_one((2,) * 21, (1,), (1,)), "y1"),
        # g = (y1, y1^2), chi = (zeta, zeta^4) on Z6: no group-like realizes S^2
        (_a1t_on_factor_one((6,) * 8, (1, 2), (1, 4)), "none"),
        # chi nontrivial on all 128 factors, the solver's limit: chi(g) = -1
        # first holds at y128
        (dict(_a1t_on_factor_one((2,) * 128, (1,), (1,)), chi=[{"exp": [1] * 128}]), "y128"),
    ],
    ids=["a1-on-z2-power-21", "no-witness-on-z6-power-8", "dense-a1-on-z2-power-128"],
)
def test_group_order_does_not_limit_check_cy(tmp_path, capsys, obj, witness):
    """Groups of order over a million: the witness is solved for, not
    searched, so check-cy and hdet answer."""
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, out = run_cli(capsys, "check-cy", str(path), "--json")
    assert code == 0 and time.perf_counter() - start < 5
    report = json.loads(out)["report"]
    assert report["cy_smash"] is False
    assert (report["inner_witness"] is None) == (witness == "none")
    code, out = run_cli(capsys, "check-cy", str(path))
    assert code == 0 and f"inner_witness: {witness}" in out
    code, out = run_cli(capsys, "hdet", str(path))
    assert code == 0 and "cy_smash: false" in out


def test_group_order_does_not_limit_nakayama(tmp_path, capsys):
    """The group-like check runs on the generators of Gamma, so a group of
    order 2^21, over the listing bound, gets its report."""
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(dict(
        PRES_Z2, group={"invariant_factors": [2] * 21}, generators=1,
        degrees=[{"exp": [1] + [0] * 20}], actions=[{"exp": [1] + [0] * 20}],
        xi={"exp": [1] * 21})))
    code, out = run_cli(capsys, "nakayama", str(path), "--json")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["checks"]["passed"]
    assert report["generator_scalars"] == [{"order": 2, "coeffs": [["1", "1"]]}]


def test_closed_stdout_is_exit_one():
    """The reader closes its end of the pipe before the child writes: exit 1
    with one error line, not an internal error."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "cyhopf.cli", "check-cy", str(DATA / DATUM_A1A1), "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=REPO, env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error:")
