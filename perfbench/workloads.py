"""The three benchmark workloads: inputs from a seed, the timed verdict, and
checks against answers that do not come from the code under test.

Each workload exposes
  make_inputs(seed) -> list[Input]          (set-up, untimed)
  run(inp, tracer) -> output                (one verdict, timed)
  check(inp, output) -> str | None          (an error message, or None)
  coverage(inp, output) -> dict[str, int]   (extra per-layer counts, traced run only)

The library is called through module attributes (`smash.verify_hopf_axioms`),
never through names bound at import, so that the tracer's wrappers are seen.
Expected answers are computed here from exponent arithmetic on the integer
descriptions of the inputs, from closed forms, or from bundled files.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

from cyhopf import cartan, cyclotomic, datum, groups, lie, sampling, smash

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "cli_child.py"

HOPF_FAMILIES = ("coassociativity", "counit", "antipode-left", "antipode-right",
                 "coproduct-multiplicative")


@dataclass
class Input:
    id: int
    label: str
    kind: str
    spec: tuple


# -- exponent arithmetic (the independent side of the checks) -----------------


def _value(factors, chi_exp, g_exp) -> int:
    """k with chi(g) = zeta_m^k, m = lcm of the factors."""
    m = lcm(*factors)
    return sum(a * e * (m // n) for a, e, n in zip(chi_exp, g_exp, factors)) % m


def _spec_of(d) -> tuple:
    return (d.group.invariant_factors, tuple(x.exp for x in d.g),
            tuple(c.exp for c in d.chi), d.cartan.entries)


def _build_datum(spec):
    factors, g_exps, chi_exps, rows = spec
    group = groups.AbelianGroup(factors)
    g = tuple(group.element(e) for e in g_exps)
    chi = tuple(group.character(c) for c in chi_exps)
    return datum.CartanDatum(group, g, chi, cartan.CartanMatrix(rows))


def _a1t_rows(t: int) -> tuple:
    return tuple(tuple(2 if i == j else 0 for j in range(t)) for i in range(t))


def _hopf_error(report) -> str | None:
    checks = tuple(e.check for e in report.entries)
    if checks != HOPF_FAMILIES:
        return f"Hopf families {checks}"
    failed = [e.check for e in report.entries if e.status != "pass"]
    return f"Hopf axioms fail: {failed}" if failed else None


def _pair_count(words, bound: int) -> int:
    lengths = [len(w) for w in words]
    return sum(1 for a in lengths for b in lengths if a + b <= bound)


def _smash_coverage(algebra, bound: int) -> dict:
    words = algebra.normal_words(bound)
    order = algebra.group.order
    return {"smash.monomials_covered": len(words) * order,
            "smash.pairs_covered": _pair_count(words, bound) * order * order,
            "smash.overlaps_checked": algebra.confluence.checked}


# -- qaffine-hopf ---------------------------------------------------------------

# Group shapes (rank t, invariant factors, how many) of the sampled
# quantum-affine data.  The seed draws each braiding through random_a1t_datum
# and the shapes are fixed, so the cost mix is the same from seed to seed.
# On Z2 x Z3 the draw only picks q22 among Galois conjugates, so the middle
# cluster, where the median and the tail fall, costs the same for every seed.
QAFFINE_SHAPES = (
    (1, (3, 3), 3),  # Q(zeta_3), a spectator factor; about 0.1 s
    (2, (2, 3), 12),  # Q(zeta_6); about 0.3 s
    (2, (3, 2), 12),
    (3, (2, 2, 2), 2),  # rank 3; about 1.3 s
)
QAFFINE_BOUND = 4
# Pinned heaviest case of the acceptance sweep: Z4 x Z4, rank 3.
PINNED = ((4, 4), ((1, 0), (0, 1), (1, 1)), ((1, 0), (0, 1), (3, 3)), _a1t_rows(3))
# Negative control: the Z3 x Z3 quantum plane with q12 replaced by q12^2.
CONTROL = ((3, 3), ((1, 0), (0, 1)), ((1, 1), (2, 2)), _a1t_rows(2))


class QaffineHopf:
    name = "qaffine-hopf"

    def make_inputs(self, seed: int) -> list[Input]:
        rng = random.Random(seed)
        specs = []
        for t, factors, count in QAFFINE_SHAPES:
            for _ in range(count):
                while True:
                    d = sampling.random_a1t_datum(rng, t=t)
                    if d.group.invariant_factors == factors:
                        break
                specs.append(("sampled", _spec_of(d)))
        specs += [("pinned", PINNED), ("control", CONTROL)]
        rng.shuffle(specs)
        return [Input(i, f"{kind} {spec[0]} t={len(spec[1])}", kind, spec)
                for i, (kind, spec) in enumerate(specs)]

    def run(self, inp: Input, tracer):
        factors, g_exps, chi_exps, rows = inp.spec
        if inp.kind == "control":
            group = groups.AbelianGroup(factors)
            g = tuple(group.element(e) for e in g_exps)
            chi = tuple(group.character(c) for c in chi_exps)
            q12 = chi[1](g[0])
            rules = {(1, 0): (((0, 1), (q12 * q12).inverse()),)}
            algebra = smash.PresentedAlgebra(group, g, chi, rules, QAFFINE_BOUND)
            return algebra, smash.verify_hopf_axioms(algebra), None, None
        d = _build_datum(inp.spec)
        algebra = smash.quantum_affine_presentation(d.group, d.g, d.chi, QAFFINE_BOUND)
        hopf = smash.verify_hopf_axioms(algebra)
        s2 = smash.verify_double_antipode(algebra)
        nakayama = smash.nakayama_automorphism(algebra, datum.integral_character(d))
        return algebra, hopf, s2, nakayama

    def check(self, inp: Input, out) -> str | None:
        _algebra, hopf, s2, nakayama = out
        if inp.kind == "control":
            bad = [e for e in hopf.entries
                   if e.check == "coproduct-multiplicative" and e.status == "fail"]
            if not bad or not bad[0].counterexample:
                return "corrupted q12^2 control passed coproduct-multiplicative"
            return None
        err = _hopf_error(hopf)
        if err:
            return err
        if not s2.passed:
            return "double-antipode identity fails"
        auto, report = nakayama
        if not report.passed:
            return "nakayama closed form fails"
        factors, g_exps, chi_exps, _rows = inp.spec
        m = lcm(*factors)
        xi = tuple(sum(col) for col in zip(*chi_exps))  # A1^t: xi = prod chi_i
        for i, (g, c) in enumerate(zip(g_exps, chi_exps)):
            k = _value(factors, xi, g) - _value(factors, c, g)
            if auto.scalars[i] != cyclotomic.root_of_unity(k, m):
                return f"psi(x{i + 1}) is {auto.scalars[i]}, expected zeta_{m}^{k % m}"
        return None

    def coverage(self, inp: Input, out) -> dict:
        return _smash_coverage(out[0], QAFFINE_BOUND)


# -- cy-verdict -----------------------------------------------------------------

CARTAN_TYPES = ("A1", "A1xA1", "A2", "A3", "B2", "G2")
ROOT_COUNTS = {"A1": 1, "A1xA1": 2, "A2": 3, "A3": 6, "B2": 4, "G2": 6,
               "E6": 36, "E7": 63, "E8": 120}
CY_RANDOM_CARTAN = 240  # draws of random_cartan_datum, equally many per type
CY_RANDOM_A1T = 180  # draws of random_a1t_datum per balance setting
# A1 x A1 on (Z6)^k: g = (e1, e1^2) and chi = (zeta, zeta^4) on factor 1,
# trivial elsewhere.  It is a valid datum whose squared-antipode diagonal no
# group element realizes, so the witness search is exhaustive.  It is fixed,
# not drawn: the search time differs between such data, and the five k = 4
# copies and the two E6 data form the cluster the tail rank (eleventh
# heaviest input) falls in; eight inputs are heavier.
NO_WITNESS = (1, 2, 1, 4)  # (g1, g2, chi1, chi2) exponents on factor 1
NO_WITNESS_RANKS = (2, 3, 4, 4, 4, 4, 4, 5, 6)


def _simply_laced(n: int, edges) -> tuple:
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = -1
    return tuple(tuple(r) for r in rows)


def _built_types() -> dict:
    # A7 is left out: it would fall among the inputs around the tail rank.
    out = {f"A{n}": _simply_laced(n, [(i, i + 1) for i in range(1, n)]) for n in (4, 5, 6, 8)}
    for n in (6, 7, 8):  # Bourbaki numbering: 1-3-4-5-...-n, with 2 on 4
        out[f"E{n}"] = _simply_laced(n, [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, n)])
    return out


def _root_count(type_name: str) -> int:
    if type_name in ROOT_COUNTS:
        return ROOT_COUNTS[type_name]
    if type_name.startswith("A1^"):
        return int(type_name[3:])
    n = int(type_name[1:])
    return n * (n + 1) // 2


def _lie_inputs():
    z, o = Fraction(0), Fraction(1)

    def table(d, pairs):
        t = [[[z] * d for _ in range(d)] for _ in range(d)]
        for (i, j), coords in pairs.items():
            t[i][j] = [Fraction(x) for x in coords]
            t[j][i] = [-Fraction(x) for x in coords]
        return tuple(tuple(tuple(r) for r in plane) for plane in t)

    sl2 = (3, table(3, {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, -2)}))
    sign = ((2,), (((-o, z, z), (z, o, z), (z, z, -o)),))
    solvable = (2, table(2, {(0, 1): (0, 1)}))
    line_sign = ((2,), (((-o,),),))
    # (algebra, action, expected cy_R, expected cy_smash, expected dimension)
    return [("sl2 sign", sl2, sign, True, True, 3),
            ("solvable 2-dim", solvable, ((), ()), False, False, 2),
            ("line sign", (1, table(1, {})), line_sign, True, False, 1)]


class CyVerdict:
    name = "cy-verdict"

    def make_inputs(self, seed: int) -> list[Input]:
        rng = random.Random(seed)
        specs = []
        for i in range(CY_RANDOM_CARTAN):
            name = CARTAN_TYPES[i % len(CARTAN_TYPES)]
            specs.append(("datum", (name, _spec_of(sampling.random_cartan_datum(rng, name)))))
        for balanced in (True, False):
            for _ in range(CY_RANDOM_A1T):
                d = sampling.random_a1t_datum(rng, balanced=balanced)
                specs.append(("datum", (f"A1^{d.rank}", _spec_of(d))))
        for (name, rows), e in product(_built_types().items(), (1, 2)):  # q = zeta_3^e
            t = len(rows)
            chi = tuple(tuple((e * rows[i][j]) % 3 for i in range(t)) for j in range(t))
            gens = tuple(tuple(int(i == j) for j in range(t)) for i in range(t))
            specs.append(("datum", (name, ((3,) * t, gens, chi, rows))))
        a1, a2, c1, c2 = NO_WITNESS
        for k in NO_WITNESS_RANKS:
            pad = (0,) * (k - 1)
            spec = ((6,) * k, ((a1,) + pad, (a2,) + pad), ((c1,) + pad, (c2,) + pad), _a1t_rows(2))
            specs.append(("no-witness", ("A1^2", spec)))
        for label, algebra, action, *expected in _lie_inputs():
            specs.append(("lie", (label, algebra, action, tuple(expected))))
        rng.shuffle(specs)
        return [Input(i, f"{kind} {spec[0]}" + (f" {spec[1][0]}" if kind != "lie" else ""), kind, spec)
                for i, (kind, spec) in enumerate(specs)]

    def run(self, inp: Input, tracer):
        if inp.kind == "lie":
            _label, (dim, brackets), (factors, matrices), _expected = inp.spec
            algebra = lie.LieAlgebraData(dim, brackets)
            action = lie.GroupActionData(groups.AbelianGroup(factors), matrices)
            return lie.check_cy_lie_smash(algebra, action)
        d = _build_datum(inp.spec[1])
        reports = (datum.check_cy(d, tie_break="min"), datum.check_cy(d, tie_break="max"))
        if d.cartan.is_a1_power():
            reports += (datum.quantum_affine_report(d),)
        return reports

    def check(self, inp: Input, out) -> str | None:
        if inp.kind == "lie":
            want = inp.spec[3]
            got = (out.cy_R, out.cy_smash, out.cy_dimension)
            return None if got == want else f"Lie verdict {got}, expected {want}"
        type_name, (factors, g_exps, chi_exps, rows) = inp.spec
        r_min, r_max, *qa = out
        count = _root_count(type_name)
        closure = len(cartan.positive_roots_closure(cartan.CartanMatrix(rows)))
        if (r_min.cy_dimension, r_max.cy_dimension, closure) != (count, count, count):
            return (f"{type_name}: beta counts {r_min.cy_dimension}/{r_max.cy_dimension}, "
                    f"closure {closure}, expected {count}")
        if r_min.integral_character.exp != r_max.integral_character.exp:
            return "min and max tie-breaks disagree on the integral character"
        for r in (r_min, r_max):
            if r.cy_smash != (r.integral_character.is_trivial() and r.inner_witness is not None):
                return "cy_smash is not (xi trivial and witness found)"
        diag = [-_value(factors, c, g) for g, c in zip(g_exps, chi_exps)]
        reports = (r_min, r_max, *qa)
        m = lcm(*factors)
        for r in reports:
            w = r.inner_witness and r.inner_witness[1].exp
            if w and any((_value(factors, c, w) - k) % m for c, k in zip(chi_exps, diag)):
                return f"witness {w} does not realize the squared antipode"
        found = [r.inner_witness is not None for r in reports]
        if inp.kind == "no-witness":  # chi and g are trivial off factor 1
            pad = (0,) * (len(factors) - 1)
            candidates = [(x,) + pad for x in range(factors[0])]
        else:
            candidates = product(*(range(n) for n in factors))
        exists = any(all((_value(factors, c, w) - k) % m == 0 for c, k in zip(chi_exps, diag))
                     for w in candidates)
        if found != [exists] * len(reports):
            return f"witness found {found}, but one exists: {exists}"
        if qa:
            return self._check_a1t(factors, g_exps, chi_exps, r_min, r_max, qa[0])
        return None

    @staticmethod
    def _check_a1t(factors, g_exps, chi_exps, r_min, r_max, qa) -> str | None:
        m, t = lcm(*factors), len(g_exps)
        xi = tuple(sum(col) % n for col, n in zip(zip(*chi_exps), factors))
        if r_min.integral_character.exp != xi:
            return f"integral character {r_min.integral_character.exp}, expected {xi}"
        hdet = tuple(-x % n for x, n in zip(xi, factors))
        if qa.hdet.exp != hdet:
            return f"hdet {qa.hdet.exp}, expected {hdet}"
        q = [[_value(factors, chi_exps[j], g_exps[i]) for j in range(t)] for i in range(t)]
        balanced = all((sum(q[k][i] for k in range(i)) - sum(q[i][k] for k in range(i + 1, t))) % m == 0
                       for i in range(t))
        if qa.cy_R != balanced:
            return f"balance verdict {qa.cy_R}, expected {balanced}"
        if balanced and any(r.cy_R and r.cy_smash for r in (r_min, r_max, qa)):
            return "balanced A1^t datum reported both cy_R and cy_smash"
        return None

    def coverage(self, inp: Input, out) -> dict:
        return {}


# -- cli-bundled ----------------------------------------------------------------

VERBS = ("check-cy", "hdet", "nakayama", "roots", "verify-hopf", "verify-s2", "confluence",
         "lie-check")
FILE_KINDS = {
    "cartan_a2.json": "cartan",
    "datum_a1a1_z3z3.json": "datum-a1t",
    "datum_a2_z2z2.json": "datum",
    "lie_sl2_sign.json": "lie",
    "presentation_a1a1_z3z3.json": "presentation",
    "presentation_a2_z2z2.json": "presentation",
    "presentation_nonconfluent.json": "presentation",
}
GOLDEN_FOR = {"datum_a2_z2z2.json": "example_a2_z2z2", "datum_a1a1_z3z3.json": "example_a1a1_z3z3"}
ZETA3_INV = [["-1", "1"], ["-1", "1"]]  # zeta_3^2 = -1 - zeta_3
ZETA3 = [["0", "1"], ["1", "1"]]
# Known answers on the bundled files: JSON fields of the report, and text lines.
KNOWN = {
    ("check-cy", "datum_a2_z2z2.json"): ({}, ("cy_smash: true", "cy_dimension: 3", "inner_witness: y1")),
    ("check-cy", "datum_a1a1_z3z3.json"): ({}, ("cy_smash: true", "cy_dimension: 2")),
    ("hdet", "datum_a1a1_z3z3.json"): ({"cy_R": False}, ("cy_R: false",)),
    ("roots", "cartan_a2.json"): ({"positive_root_count": 3, "closure_count": 3},
                                  ("positive roots: 3 (closure agrees: true)",)),
    ("roots", "datum_a2_z2z2.json"): ({"positive_root_count": 3, "closure_count": 3},
                                      ("positive roots: 3 (closure agrees: true)",)),
    ("roots", "datum_a1a1_z3z3.json"): ({"positive_root_count": 2, "closure_count": 2},
                                        ("positive roots: 2 (closure agrees: true)",)),
    ("lie-check", "lie_sl2_sign.json"): ({"cy_R": True, "cy_smash": True, "cy_dimension": 3},
                                         ("cy_R: true", "cy_smash: true")),
    ("nakayama", "presentation_a2_z2z2.json"): (
        {"generator_scalars": [{"order": 2, "coeffs": [["-1", "1"]]}] * 2, "passed": True},
        ("nakayama-generators-closed-form: pass", "nakayama-group-likes-closed-form: pass")),
    ("nakayama", "presentation_a1a1_z3z3.json"): (
        {"generator_scalars": [{"order": 3, "coeffs": ZETA3_INV}, {"order": 3, "coeffs": ZETA3}],
         "passed": True},
        ("nakayama-generators-closed-form: pass", "nakayama-group-likes-closed-form: pass")),
}
for _name in ("presentation_a2_z2z2.json", "presentation_a1a1_z3z3.json"):
    KNOWN[("verify-hopf", _name)] = ({"passed": True}, tuple(f"{f}: pass" for f in HOPF_FAMILIES))
    KNOWN[("verify-s2", _name)] = ({"passed": True}, ("double-antipode-graded-identity: pass",))
    KNOWN[("confluence", _name)] = ({"locally_confluent": True}, ("locally confluent: true",))
KNOWN[("confluence", "presentation_nonconfluent.json")] = (
    {"locally_confluent": False}, ("locally confluent: false",))
for _verb in ("verify-hopf", "verify-s2", "nakayama"):
    KNOWN[(_verb, "presentation_nonconfluent.json")] = ({}, ("note: NonConfluent",))

# Exit-code contract probes: each must exit 1 with one "error:" line, within
# the child limits.  The last one needs a power table of ~10^8 integers.
PROBES = {
    "cartan-entry-not-int": ("check-cy", {
        "schema": "cy-hopf/1", "group": {"invariant_factors": [2]}, "g": [{"exp": [1]}],
        "chi": [{"exp": [1]}], "cartan": [["a"]]}),
    "generators-not-int": ("verify-hopf", {
        "schema": "cy-hopf/1", "group": {"invariant_factors": [2]}, "generators": "x",
        "degrees": [{"exp": [1]}], "actions": [{"exp": [1]}], "rules": []}),
    "zero-denominator": ("check-cy", {
        "schema": "cy-hopf/1", "group": {"invariant_factors": [2, 2]},
        "g": [{"exp": [1, 0]}, {"exp": [0, 1]}], "chi": [{"exp": [1, 0]}, {"exp": [0, 1]}],
        "cartan": [[2, 0], [0, 2]],
        "lambda": [{"pair": [1, 2], "value": {"order": 1, "coeffs": [["1", "0"]]}}]}),
    "large-exponent": ("check-cy", {
        "schema": "cy-hopf/1", "group": {"invariant_factors": [10001]}, "g": [{"exp": [1]}],
        "chi": [{"exp": [1]}], "cartan": [[2]]}),
}
PROBE_TIMEOUT_S = 10
PROBE_ADDRESS_SPACE = 512 * 2**20


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CY_HOPF_DEGREE_BOUND", None)
    return env


def _expected_exit(verb: str, kind: str) -> int:
    accepts = {
        "check-cy": ("datum", "datum-a1t"), "hdet": ("datum-a1t",),
        "roots": ("cartan", "datum", "datum-a1t"), "lie-check": ("lie",),
    }.get(verb, ("presentation",))
    return 0 if kind in accepts else 1


def _stderr_error(code: int, stderr: str) -> str | None:
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code == 1 and (len(stderr.splitlines()) != 1 or not stderr.startswith("error:")):
        return f"exit 1 without a single error line: {stderr[:120]!r}"
    if code == 0 and stderr:
        return f"unexpected stderr: {stderr[:120]!r}"
    return None


class CliBundled:
    name = "cli-bundled"
    verdicts_in_children = True  # peak memory is that of the CLI processes

    def __init__(self) -> None:
        self.env = cli_env()
        self.golden = {name: (GOLDEN / f"{g}.check-cy.json").read_text(encoding="utf-8")
                       for name, g in GOLDEN_FOR.items()}

    def make_inputs(self, seed: int) -> list[Input]:
        calls = [(verb, name, mode) for name in sorted(FILE_KINDS) for verb in VERBS
                 for mode in (True, False)]
        random.Random(seed).shuffle(calls)
        return [Input(i, f"{verb} {name}{' --json' if mode else ''}", "call", (verb, name, mode))
                for i, (verb, name, mode) in enumerate(calls)]

    def run(self, inp: Input, tracer):
        verb, name, as_json = inp.spec
        argv = [verb, str(DATA / name)] + (["--json"] if as_json else [])
        if tracer is None:
            return self._call([sys.executable, "-m", "cyhopf.cli", *argv])
        WORK.mkdir(exist_ok=True)
        summary_path = WORK / "child-trace.json"
        result = self._call([sys.executable, str(CHILD), str(summary_path), *argv])
        tracer.merge(json.loads(summary_path.read_text(encoding="utf-8")), inp.id)
        summary_path.unlink()
        return result

    def _call(self, cmd, limits=False):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S if limits else 120,
                              preexec_fn=_limit_child if limits else None)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inp: Input, out) -> str | None:
        verb, name, as_json = inp.spec
        code, stdout, stderr = out
        want = _expected_exit(verb, FILE_KINDS[name])
        if code != want:
            return f"exit {code}, expected {want}"
        err = _stderr_error(code, stderr)
        if err or code:
            return err
        fields, lines = KNOWN.get((verb, name), ({}, ()))
        if not as_json:
            missing = [s for s in lines if s not in stdout]
            return f"text output lacks {missing}" if missing else None
        if verb == "check-cy" and stdout != self.golden[name]:
            return "check-cy --json differs from the golden file"
        blob = json.loads(stdout)
        if blob.get("schema") != "cy-hopf/1" or blob.get("command") != verb:
            return "JSON envelope lacks schema or command"
        report = blob["report"]
        if verb == "nakayama":
            report = dict(report, **report["checks"])
        for key, value in fields.items():
            if report.get(key) != value:
                return f"report[{key!r}] = {report.get(key)!r}, expected {value!r}"
        if name == "presentation_nonconfluent.json" and verb != "confluence":
            if not any("NonConfluent" in note for note in report["notes"]):
                return "non-confluent presentation not flagged"
        return None

    def coverage(self, inp: Input, out) -> dict:
        return {}

    def probe(self) -> list[tuple[str, str | None]]:
        """Run each exit-code contract probe under the child limits; return
        (probe name, failure or None)."""
        WORK.mkdir(exist_ok=True)
        results = []
        for label, (verb, obj) in PROBES.items():
            path = WORK / f"probe-{label}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            try:
                code, _out, stderr = self._call(
                    [sys.executable, "-m", "cyhopf.cli", verb, str(path)], limits=True)
                err = (f"exit {code}, expected 1" if code != 1 else None) or _stderr_error(code, stderr)
            except subprocess.TimeoutExpired:
                err = f"no answer within {PROBE_TIMEOUT_S} s"
            finally:
                path.unlink()
            results.append((label, err))
        return results


def _limit_child() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (PROBE_ADDRESS_SPACE, PROBE_ADDRESS_SPACE))


WORKLOADS = {w.name: w for w in (QaffineHopf, CyVerdict, CliBundled)}
