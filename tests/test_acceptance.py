"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with its runtime.  All comparisons are exact; runtime limits
are asserted."""

import json
import random
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from cyhopf.cartan import CartanMatrix, beta_sequence, longest_word, positive_roots_closure
from cyhopf.cli import main
from cyhopf.cyclotomic import CycloNumber, one, root_of_unity
from cyhopf.datum import check_cy, integral_character, quantum_affine_report
from cyhopf.groups import AbelianGroup
from cyhopf.lie import GroupActionData, LieAlgebraData, check_cy_lie_smash
from cyhopf.sampling import random_a1t_datum, random_cartan_datum
from cyhopf.smash import (
    PresentedAlgebra,
    nakayama_automorphism,
    verify_double_antipode,
    verify_hopf_axioms,
    winding_endomorphism,
)
from conftest import a1a1_znzn_datum
from test_datum import hdet_quantum_affine, quantum_affine_balance
from test_lie import brackets_from_pairs, sl2, sl2_sign_action
from test_smash import double_antipode_failure, normal_monomials, phi_graded_formula, phi_smash_formula

DATA = Path(__file__).resolve().parent.parent / "data"


@contextmanager
def criterion(capsys, cid: str, limit: float):
    start = perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {cid}: FAIL ({perf_counter() - start:.2f}s)")
        raise
    elapsed = perf_counter() - start
    verdict = "PASS" if elapsed < limit else "FAIL (over time budget)"
    with capsys.disabled():
        print(f"[acceptance] {cid}: {verdict} ({elapsed:.2f}s, limit {limit:g}s)")
    assert elapsed < limit, f"{cid} took {elapsed:.2f}s, limit {limit}s"


def run_check_cy_json(path: Path, capsys) -> dict:
    code = main(["check-cy", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["report"]


def test_criterion_1_first_bundled_example(capsys):
    with criterion(capsys, "C1 pointed example Z2xZ2/A2", 1.0):
        report = run_check_cy_json(DATA / "datum_a2_z2z2.json", capsys)
        assert report["cy_smash"] is True
        assert report["cy_dimension"] == 3
        assert report["integral_character"]["exp"] == [0, 0]
        witness = report["inner_witness"]
        assert witness is not None and witness["element"]["exp"] == [1, 0]
        minus_one = CycloNumber.from_rational(-1, 2)
        diag = [CycloNumber.from_json(c) for c in report["nakayama_diag"]]
        assert diag == [minus_one, minus_one]


def test_criterion_2_second_bundled_example(capsys):
    for n in (3, 4, 5):
        with criterion(capsys, f"C2 quantum plane Zn x Zn, n={n}", 1.0):
            report = check_cy(a1a1_znzn_datum(n))
            q = root_of_unity(1, n)
            assert report.cy_smash and report.cy_dimension == 2
            assert report.nakayama_diag == (q.inverse(), q)
            assert any(
                "shift" in note and "p = 2" in note for note in report.notes
            ), "shift-discrepancy note missing"


def test_criterion_3_hdet_identity_and_mutual_exclusion(capsys):
    with criterion(capsys, "C3 balanced-family hdet identity", 10.0):
        rng = random.Random(1729)
        count = 0
        while count < 200:
            datum = random_a1t_datum(rng, balanced=True)
            balanced, _ = quantum_affine_balance(datum)
            assert balanced
            report = quantum_affine_report(datum)
            assert report is check_cy(datum)
            assert report.cy_R and report.hdet == hdet_quantum_affine(datum)
            for j in range(datum.rank):
                assert report.hdet(datum.g[j]) == datum.chi[j](datum.g[j]).inverse()
            assert not report.cy_smash
            count += 1


def test_criterion_4_hopf_axiom_suite(capsys, seeded_family):
    _data, algebras = seeded_family
    with criterion(capsys, "C4 Hopf axiom sweep", 60.0):
        for algebra in algebras:
            report = verify_hopf_axioms(algebra)
            assert report.passed, report.to_json()
            assert len(report.entries) == 5
        # negative control: corrupted rule coefficient q_12 -> q_12^2
        datum = a1a1_znzn_datum(3)
        q12 = datum.chi[1](datum.g[0])
        corrupted = PresentedAlgebra(
            datum.group, datum.g, datum.chi,
            {(1, 0): (((0, 1), (q12 * q12).inverse()),)}, 4,
        )
        report = verify_hopf_axioms(corrupted)
        failed = [e for e in report.entries if e.status == "fail"]
        assert failed and any(
            e.check == "coproduct-multiplicative" and e.counterexample for e in failed
        )


def test_criterion_5_double_antipode_identity(capsys, seeded_family):
    data, algebras = seeded_family
    with criterion(capsys, "C5 squared-antipode graded identity", 30.0):
        for datum, algebra in zip(data, algebras):
            assert verify_double_antipode(algebra).passed
            assert double_antipode_failure(algebra) is None
            phi_a = phi_smash_formula(algebra)
            phi_b = phi_graded_formula(algebra)
            assert phi_a.scalars == phi_b.scalars
            for i in range(datum.rank):
                assert phi_a.scalars[i] == datum.chi[i](datum.g[i]).inverse()


def test_criterion_6_root_system_oracle(capsys):
    with criterion(capsys, "C6 root-system oracle equivalence", 5.0):
        cases = [
            (CartanMatrix(((2,),)), 1),
            (CartanMatrix(((2, 0), (0, 2))), 2),
            (CartanMatrix(((2, -1), (-1, 2))), 3),
            (CartanMatrix(((2, -1, 0), (-1, 2, -1), (0, -1, 2))), 6),
            (CartanMatrix(((2, -1), (-2, 2))), 4),
            (CartanMatrix(((2, -1), (-3, 2))), 6),
        ]
        for cartan, count in cases:
            closure = positive_roots_closure(cartan)
            assert len(closure) == count
            for tie in ("min", "max"):
                word = longest_word(cartan, tie_break=tie)
                betas = beta_sequence(cartan, word)
                assert len(betas) == count
                assert set(betas) == closure
        rng = random.Random(60)
        for _ in range(50):
            datum = random_cartan_datum(rng)
            assert integral_character(datum, "min") == integral_character(datum, "max")


def test_criterion_7_lie_cases(capsys):
    with criterion(capsys, "C7 enveloping-algebra cases", 1.0):
        rep = check_cy_lie_smash(sl2(), sl2_sign_action())
        assert rep.cy_R and rep.cy_smash and rep.cy_dimension == 3
        solvable = LieAlgebraData(2, brackets_from_pairs(2, {(0, 1): (0, 1)}))
        rep2 = check_cy_lie_smash(solvable, GroupActionData(AbelianGroup(()), ()))
        assert not rep2.cy_R and not rep2.cy_smash
        from fractions import Fraction

        one_dim = LieAlgebraData(1, brackets_from_pairs(1, {}))
        sign = GroupActionData(AbelianGroup((2,)), (((Fraction(-1),),),))
        rep3 = check_cy_lie_smash(one_dim, sign)
        assert rep3.cy_R and not rep3.cy_smash


def test_criterion_8_winding_and_nakayama(capsys, seeded_family):
    data, algebras = seeded_family
    with criterion(capsys, "C8 winding/nakayama closed form", 10.0):
        # [eps] = id on all normal monomials to degree 4 of the two bundled examples
        for path in ("presentation_a2_z2z2.json", "presentation_a1a1_z3z3.json"):
            from cyhopf.io import load_json_file, parse_presentation

            algebra, _ = parse_presentation(load_json_file(str(DATA / path)))
            eps = algebra.group.trivial_character()
            for w, g in normal_monomials(algebra, 4):
                m = algebra.monomial(w, g)
                assert winding_endomorphism(algebra, eps, m) == m
        # composed nakayama equals the closed form on every generator
        rng = random.Random(88)
        for datum, algebra in zip(data, algebras):
            group = algebra.group
            for xi in (
                group.trivial_character(),
                integral_character(datum),
                group.character(tuple(rng.randrange(n) for n in group.invariant_factors)),
            ):
                auto, report = nakayama_automorphism(algebra, xi)
                assert report.passed, report.to_json()
                for i in range(algebra.t):
                    closed = xi(algebra.degrees[i]) * algebra.actions[i](
                        algebra.degrees[i].inverse()
                    )
                    assert auto.scalars[i] == closed
