"""JSON input parsing and report serialization.

All files and emitted reports carry a top-level {"schema": "cy-hopf/1"} key.
Scalars in input files may be integers, exact rational strings "a" or "a/b"
(an optional sign and ASCII digits, then optionally a slash and ASCII digits),
or cyclotomic objects {"order": m, "coeffs": [["num","den"], ...]}; floats are
rejected, every quantity in the system is exact.  Every integer in a file
(exponents, invariant factors, Cartan entries, indices, counts) is read by
errors.read_int: an int or a decimal string of one (an optional sign, then ASCII
digits), never a float or a boolean.
Lists must be JSON lists.  Sizes that drive the work have fixed caps: the
rank and positive-root count of a Cartan matrix (cartan.MAX_RANK,
ROOT_WORK_BUDGET; the longest-word descent refuses a matrix of infinite type
when it passes that count), the Lie dimension and the entries of
action-matrix powers (lie.MAX_DIMENSION, POWER_BIT_CAP), word length and the
confluence check's work (rewriting.MAX_WORD_LENGTH, REWRITE_BUDGET), and the
cost of the Delta check (smash.PAIR_COST_BUDGET).  A key no parser reads is
ignored: so is a presentation's "degree_bound", which no verb reads.

Each parser first checks that the top-level keys its kind needs are present
(a datum's group, cartan, g and chi, in that order; a presentation's group,
generators, degrees and actions; a Lie file's dim; a Cartan file's cartan),
and only then imports the layers it builds.  So a file of another kind is
refused before any layer loads, and a missing top-level key is reported
before a malformed value of another key.
"""

from __future__ import annotations

import json

from .errors import InputError, is_decimal, read_int

TYPE_CHECKING = False
if TYPE_CHECKING:  # each parser imports the layers it builds when it is called
    from fractions import Fraction

    from .cartan import CartanMatrix
    from .cyclotomic import CycloNumber
    from .datum import CartanDatum, CyReport
    from .groups import Character
    from .lie import GroupActionData, LieAlgebraData
    from .smash import PresentedAlgebra

SCHEMA = "cy-hopf/1"


def load_json_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal over the int-string digit limit
        raise InputError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: top level must be an object")
    if "schema" in obj and obj["schema"] != SCHEMA:
        raise InputError(f"{path}: unsupported schema {obj['schema']!r}, expected {SCHEMA!r}")
    return obj


def parse_rational(value) -> Fraction:
    from fractions import Fraction
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"exact rational required, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if is_decimal(num) and (not slash or is_decimal(den, signed=False)):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:  # ValueError: over the digit limit
                raise InputError(f"bad rational {value!r}") from exc
    raise InputError(f"bad rational {value!r}")


def parse_scalar(value) -> CycloNumber:
    from .cyclotomic import CycloNumber
    if isinstance(value, dict):
        return CycloNumber.from_json(value)
    return CycloNumber.from_rational(parse_rational(value))


def _list(name: str, raw) -> list:
    if not isinstance(raw, list):
        raise InputError(f"{name} must be a list, got {raw!r}")
    return raw


def _require(kind: str, obj: dict, keys: tuple[str, ...]) -> None:
    """Refuse a file that lacks a top-level key of its kind, before any layer loads."""
    for key in keys:
        if key not in obj:
            raise InputError(f"{kind} file missing key {key!r}")


def parse_datum(obj: dict) -> CartanDatum:
    _require("datum", obj, ("group", "cartan", "g", "chi"))
    from .cartan import CartanMatrix
    from .datum import CartanDatum, LinkingParameter
    from .groups import AbelianGroup, character_from_json, element_from_json
    group = AbelianGroup.from_json(obj["group"])
    cartan = CartanMatrix.from_json(obj["cartan"])
    g = tuple(element_from_json(group, e) for e in _list("g", obj["g"]))
    chi = tuple(character_from_json(group, c) for c in _list("chi", obj["chi"]))
    linking = []
    for entry in _list("lambda", obj.get("lambda", [])):
        try:
            i, j = _list("pair", entry["pair"])
            value = parse_scalar(entry["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed linking parameter {entry!r}") from exc
        linking.append(LinkingParameter(read_int("pair", i) - 1, read_int("pair", j) - 1, value))
    return CartanDatum(group=group, g=g, chi=chi, cartan=cartan, linking=tuple(linking))


def parse_presentation(obj: dict) -> tuple[PresentedAlgebra, Character | None]:
    """Build a PresentedAlgebra from a presentation file; returns the algebra
    and the optional winding character under the "xi" key.  The algebra has the
    library's default degree bound, which no verb reads."""
    _require("presentation", obj, ("group", "generators", "degrees", "actions"))
    # smash first: it is the largest module, and compiled from source before the
    # layers it imports are loaded it keeps a call's peak memory 0.7 MB lower
    from .smash import PresentedAlgebra
    from .groups import AbelianGroup, character_from_json, element_from_json
    from .rewriting import MAX_WORD_LENGTH, parse_word
    group = AbelianGroup.from_json(obj["group"])
    t = read_int("generators", obj["generators"])
    degrees = tuple(element_from_json(group, e) for e in _list("degrees", obj["degrees"]))
    actions = tuple(character_from_json(group, c) for c in _list("actions", obj["actions"]))
    if len(degrees) != t or len(actions) != t:
        raise InputError(f"presentation declares {t} generators but lists "
                         f"{len(degrees)} degrees / {len(actions)} actions")
    rules = {}
    for entry in _list("rules", obj.get("rules", [])):
        try:
            lhs = parse_word(entry["lhs"], t)
            rhs = tuple(
                (parse_word(term["word"], t), parse_scalar(term["coeff"]))
                for term in entry["rhs"]
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed rule {entry!r}") from exc
        if lhs in rules:
            raise InputError(f"duplicate rule for {entry['lhs']!r}")
        rules[lhs] = rhs
    if sum(map(len, rules)) > MAX_WORD_LENGTH:  # overlap enumeration is quadratic in it
        raise InputError(f"rule left-hand sides longer than {MAX_WORD_LENGTH} letters in all")
    algebra = PresentedAlgebra(group, degrees, actions, rules)
    xi = character_from_json(group, obj["xi"]) if "xi" in obj else None
    return algebra, xi


def parse_lie(obj: dict) -> tuple[LieAlgebraData, GroupActionData]:
    if "dim" not in obj:
        raise InputError("lie file needs an integer 'dim'")
    d = read_int("dim", obj["dim"])
    from fractions import Fraction

    from .groups import AbelianGroup
    from .lie import MAX_DIMENSION, GroupActionData, LieAlgebraData
    if not 0 <= d <= MAX_DIMENSION:
        raise InputError(f"dim must lie in 0..{MAX_DIMENSION}, got {d}")
    table = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for entry in _list("brackets", obj.get("brackets", [])):
        try:
            i, j = read_int("bracket i", entry["i"]) - 1, read_int("bracket j", entry["j"]) - 1
            coeffs = [parse_rational(x) for x in _list("coeffs", entry["coeffs"])]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed bracket {entry!r}") from exc
        if not (0 <= i < d and 0 <= j < d):
            raise InputError(f"bracket indices ({i + 1},{j + 1}) outside 1..{d}")
        if len(coeffs) != d:
            raise InputError(f"bracket ({i + 1},{j + 1}) needs {d} coordinates")
        table[i][j] = list(coeffs)
        table[j][i] = [-x for x in coeffs]
    algebra = LieAlgebraData(
        dimension=d,
        brackets=tuple(tuple(tuple(row) for row in plane) for plane in table),
    )
    action_obj = obj.get("action")
    if action_obj is None:
        group = AbelianGroup(())
        action = GroupActionData(group, ())
    else:
        try:
            group = AbelianGroup.from_json(action_obj["group"])
            matrices = tuple(
                tuple(tuple(parse_rational(x) for x in _list("matrix row", row))
                      for row in _list("matrix", m))
                for m in _list("matrices", action_obj["matrices"])
            )
        except (KeyError, TypeError) as exc:
            raise InputError("malformed action block") from exc
        if any(len(m) != d for m in matrices):
            raise InputError(f"action matrices must be {d}x{d}")
        action = GroupActionData(group, matrices)
    return algebra, action


def parse_cartan_only(obj: dict) -> CartanMatrix:
    if "cartan" not in obj:
        raise InputError("cartan file needs a 'cartan' key")
    from .cartan import CartanMatrix
    return CartanMatrix.from_json(obj["cartan"])


# -- report serialization ---------------------------------------------------


def cy_report_to_json(report: CyReport) -> dict:
    """Every field of the report, so a check_cy report that no one has read builds its
    display fields here."""
    witness = None
    if report.inner_witness is not None:
        scalar, element = report.inner_witness
        witness = {"scalar": scalar.to_json(), "element": element.to_json()}
    return {
        "kind": "cy-report",
        "cy_R": report.cy_R,
        "cy_smash": report.cy_smash,
        "cy_dimension": report.cy_dimension,
        "integral_character": report.integral_character.to_json(),
        "hdet": report.hdet.to_json() if report.hdet is not None else None,
        "nakayama_diag": [c.to_json() for c in report.nakayama_diag],
        "inner_witness": witness,
        "criteria": [c.to_json() for c in report.criteria],
        "notes": list(report.notes),
    }


def render_cy_report_text(report: CyReport) -> str:
    lines = [
        f"cy_R: {str(report.cy_R).lower()}",
        f"cy_smash: {str(report.cy_smash).lower()}",
        f"cy_dimension: {report.cy_dimension}",
        f"integral_character: {report.integral_character}",
        f"hdet: {report.hdet if report.hdet is not None else 'n/a'}",
        "nakayama_diag: (" + ", ".join(str(c) for c in report.nakayama_diag) + ")",
    ]
    if report.inner_witness is not None:
        lines.append(f"inner_witness: {report.inner_witness[1]} (scalar {report.inner_witness[0]})")
    else:
        lines.append("inner_witness: none")
    for c in report.criteria:
        lines.append(
            f"criterion {c.criterion}: {'holds' if c.satisfied else 'does not hold'} [{c.detail}]"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
