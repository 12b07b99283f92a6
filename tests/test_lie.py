import json
import random
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from cyhopf import lie as lie_module
from cyhopf.cli import main
from cyhopf.cyclotomic import euler_phi
from cyhopf.errors import InputError, InternalError
from cyhopf.groups import AbelianGroup
from cyhopf.lie import (
    GroupActionData,
    LieAlgebraData,
    adjoint_trace,
    check_cy_lie_smash,
    finite_order_bound,
    mat_det,
    mat_identity,
    mat_mul,
    mat_pow,
)

DATA = Path(__file__).resolve().parent.parent / "data"
Z = Fraction(0)


def hdet_lie(action: GroupActionData, g) -> Fraction:
    """Homological determinant of the action at g: det of the matrix by which
    g acts, the product of the generator matrices to g's exponents."""
    assert g.group == action.group
    m = mat_identity(action.dimension)
    for gen, e in zip(action.matrices, g.exp):
        m = mat_mul(m, mat_pow(gen, e))
    return mat_det(m)


def brackets_from_pairs(d, pairs):
    """pairs: {(i, j): coords of [x_i, x_j]} for i < j, zero elsewhere."""
    table = [[[Z] * d for _ in range(d)] for _ in range(d)]
    for (i, j), coords in pairs.items():
        table[i][j] = [Fraction(x) for x in coords]
        table[j][i] = [-Fraction(x) for x in coords]
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def sl2() -> LieAlgebraData:
    """Basis (e, h, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebraData(
        3,
        brackets_from_pairs(
            3, {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, -2)}
        ),
    )


def sl2_sign_action() -> GroupActionData:
    group = AbelianGroup((2,))
    nu = ((Fraction(-1), Z, Z), (Z, Fraction(1), Z), (Z, Z, Fraction(-1)))
    return GroupActionData(group, (nu,))


def ad_matrix(algebra: LieAlgebraData, i: int):
    """(ad x_i) in the chosen basis: column j holds the coords of [x_i, x_j]."""
    d = algebra.dimension
    return tuple(tuple(algebra.brackets[i][j][k] for j in range(d)) for k in range(d))

def test_antisymmetry_enforced():
    d = 2
    bad = (
        ((Z, Z), (Fraction(1), Z)),
        ((Fraction(1), Z), (Z, Z)),
    )
    with pytest.raises(InputError):
        LieAlgebraData(2, bad)


def test_jacobi_rejects_perturbed_sl2():
    # replace [e,f] = h by [e,f] = h + e: Jacobi fails
    with pytest.raises(InputError):
        LieAlgebraData(
            3,
            brackets_from_pairs(
                3, {(0, 1): (-2, 0, 0), (0, 2): (1, 1, 0), (1, 2): (0, 0, -2)}
            ),
        )


def test_adjoint_traces():
    # abelian Lie algebra: all traces vanish
    abelian = LieAlgebraData(2, brackets_from_pairs(2, {}))
    assert adjoint_trace(abelian, 0) == 0 and adjoint_trace(abelian, 1) == 0
    # sl2: traces vanish on the whole basis
    algebra = sl2()
    assert [adjoint_trace(algebra, i) for i in range(3)] == [0, 0, 0]
    # ad h = diag(2, 0, -2) in the basis (e, h, f)
    assert ad_matrix(algebra, 1) == (
        (Fraction(2), Z, Z),
        (Z, Z, Z),
        (Z, Z, Fraction(-2)),
    )
    # solvable algebra [x, y] = y: tr(ad x) = 1
    solvable = LieAlgebraData(2, brackets_from_pairs(2, {(0, 1): (0, 1)}))
    assert adjoint_trace(solvable, 0) == 1


def test_action_validation():
    group = AbelianGroup((2,))
    with pytest.raises(InputError):
        # matrix of order 3, declared order 2
        m = ((Z, Fraction(-1)), (Fraction(1), Fraction(-1)))
        GroupActionData(group, (m,))
    with pytest.raises(InputError):
        # not a Lie automorphism of sl2: swaps e and f without fixing h's bracket
        bad = ((Z, Z, Fraction(1)), (Z, Fraction(1), Z), (Fraction(1), Z, Z))
        action = GroupActionData(group, (bad,))
        action.validate(sl2())


@pytest.mark.parametrize("build", [
    lambda: LieAlgebraData(2, (((0, 0), (0.25, 0)), ((-0.25, 0), (0, 0)))),
    lambda: LieAlgebraData(2, (((0, 0), (0.0, 0)), ((0, 0), (0, 0)))),
    lambda: GroupActionData(AbelianGroup((2,)), (((-1.0, 0), (0, 1.0)),)),
    lambda: GroupActionData(AbelianGroup((1,)), (((1.0, 0), (0, 1)),)),
], ids=["brackets", "zero-bracket", "action-matrix", "identity-action-matrix"])
def test_floats_are_refused(build):
    """No floating point: a float entry raises TypeError, as CycloNumber does."""
    with pytest.raises(TypeError):
        build()


def test_hdet_is_determinant_and_multiplicative():
    action = sl2_sign_action()
    group = action.group
    assert hdet_lie(action, group.identity()) == 1
    assert hdet_lie(action, group.generator(0)) == 1  # det diag(-1,1,-1) = 1
    # diag(1,-1,1) has determinant -1
    g2 = AbelianGroup((2,))
    action2 = GroupActionData(
        g2, (((Fraction(1), Z, Z), (Z, Fraction(-1), Z), (Z, Z, Fraction(1))),)
    )
    assert hdet_lie(action2, g2.generator(0)) == -1
    # det(nu(g)) is a homomorphism on all pairs
    g22 = AbelianGroup((2, 2))
    action3 = GroupActionData(
        g22,
        (
            ((Fraction(-1), Z), (Z, Fraction(-1))),
            ((Fraction(1), Z), (Z, Fraction(-1))),
        ),
    )
    for g in g22.elements():
        for h in g22.elements():
            assert hdet_lie(action3, g * h) == hdet_lie(action3, g) * hdet_lie(action3, h)


def test_trace_linearity_on_random_combinations():
    import random

    rng = random.Random(3)
    algebra = sl2()
    d = algebra.dimension
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
        # tr(ad(sum a_i x_i)) computed from the full matrix
        total = [[Z] * d for _ in range(d)]
        for i, a in enumerate(coeffs):
            m = ad_matrix(algebra, i)
            for r in range(d):
                for c in range(d):
                    total[r][c] += a * m[r][c]
        assert sum(total[k][k] for k in range(d)) == sum(
            a * adjoint_trace(algebra, i) for i, a in enumerate(coeffs)
        )


def test_cy_reports():
    # sl2 with the sign action: both CY, dimension 3
    rep = check_cy_lie_smash(sl2(), sl2_sign_action())
    assert rep.cy_R and rep.cy_smash and rep.cy_dimension == 3
    assert rep.integral_character.is_trivial()
    # solvable [x, y] = y with trivial group: enveloping algebra not CY
    solvable = LieAlgebraData(2, brackets_from_pairs(2, {(0, 1): (0, 1)}))
    trivial = GroupActionData(AbelianGroup(()), ())
    rep2 = check_cy_lie_smash(solvable, trivial)
    assert not rep2.cy_R and not rep2.cy_smash and rep2.cy_dimension == 2
    # 1-dim abelian with nu(g) = -1: enveloping algebra CY, smash not
    one_dim = LieAlgebraData(1, brackets_from_pairs(1, {}))
    g2 = AbelianGroup((2,))
    sign = GroupActionData(g2, (((Fraction(-1),),),))
    rep3 = check_cy_lie_smash(one_dim, sign)
    assert rep3.cy_R and not rep3.cy_smash
    assert not rep3.integral_character.is_trivial()


@pytest.mark.parametrize("det, order", [(Fraction(2), 2), (Fraction(-1), 3)])
def test_a_determinant_that_validation_rules_out_is_an_internal_error(monkeypatch, det, order):
    """GroupActionData has checked each matrix's order, so its determinant is
    +-1, and -1 only on a generator of even order; any other is an internal
    error (exit 2), not an input error."""
    one_dim = LieAlgebraData(1, brackets_from_pairs(1, {}))
    action = GroupActionData(AbelianGroup((order,)), (((Fraction(1),),),))
    monkeypatch.setattr(lie_module, "mat_det", lambda m: det)
    with pytest.raises(InternalError, match=f"determinant {det} on a generator of order {order}"):
        check_cy_lie_smash(one_dim, action)


def test_group_exponent_does_not_limit_the_report(tmp_path, capsys):
    """The report's scalars are rational, so they are built at order 1: the
    sign action on Z_N with N = 10^30, whose Q(zeta_N) has no power table,
    still gets its report."""
    path = tmp_path / "lie.json"
    obj = json.loads((DATA / "lie_sl2_sign.json").read_text())
    obj["action"]["group"]["invariant_factors"] = [10**30]
    path.write_text(json.dumps(obj))
    assert main(["lie-check", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["cy_R"] and report["cy_smash"] and report["cy_dimension"] == 3
    scalars = report["nakayama_diag"] + [report["inner_witness"]["scalar"]]
    assert [s["order"] for s in scalars] == [1, 1, 1, 1]


def test_mat_helpers():
    ident = mat_identity(3)
    assert mat_mul(ident, ident) == ident
    assert mat_det(ident) == 1
    singular = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
    assert mat_det(singular) == 0


def test_finite_order_bound():
    assert finite_order_bound(3) == 12 and finite_order_bound(16) == 24504480
    # the search cutoff k <= 2d loses nothing: phi(k) >= sqrt(k/2), so every
    # k with phi(k) <= 16 is below 2000
    phi = {k: euler_phi(k) for k in range(1, 2000)}
    for d in range(17):
        assert finite_order_bound(d) == lcm(*(k for k, f in phi.items() if f <= d))


def diagonal(*entries):
    n = len(entries)
    return tuple(tuple(Fraction(entries[i]) if i == j else Z for j in range(n)) for i in range(n))


def cycle_matrix(d):
    return tuple(tuple(Fraction(int(j == (i + 1) % d)) for j in range(d)) for i in range(d))


@pytest.mark.parametrize(
    "factor, matrix, message",
    [
        (10**10, diagonal(2, 1, 1), "does not have order dividing 10000000000"),
        (24504480, tuple(tuple(Fraction(random.Random(i).randint(-3, 3)) for _ in range(16))
                         for i in range(16)), "work limit hit"),
        (24, cycle_matrix(16), "does not have order dividing 24"),
        (10**30, diagonal(*[-1] * 16), None),
        (48, cycle_matrix(16), None),
    ],
    ids=["infinite-order-huge-factor", "dense-over-bit-cap", "cycle-order-16-vs-24",
         "minus-identity-huge-factor", "cycle-order-16-vs-48"],
)
def test_order_check_is_bounded(factor, matrix, message):
    start = time.perf_counter()
    if message is None:
        GroupActionData(AbelianGroup((factor,)), (matrix,))
    else:
        with pytest.raises(InputError, match=message):
            GroupActionData(AbelianGroup((factor,)), (matrix,))
    assert time.perf_counter() - start < 5
