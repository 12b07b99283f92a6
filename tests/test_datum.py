import gc
import random
import weakref
from math import gcd, lcm, prod
from pathlib import Path

import pytest

from cyhopf import datum as datum_module
from cyhopf.cartan import CartanMatrix, Root, beta_sequence, longest_word, simple_root
from cyhopf.cli import main as cli_main
from cyhopf.cyclotomic import CycloNumber, one, root_of_unity, zero
from cyhopf.datum import (
    CartanDatum,
    CyReport,
    LinkingParameter,
    check_cy,
    check_cy_braided,
    check_cy_smash,
    chi_beta,
    inner_witness_search,
    integral_character,
    quantum_affine_report,
    squared_antipode_diag,
)
from cyhopf.datum import _first_solution
from cyhopf.errors import InputError, InternalError, InvalidDatum, NegativeRoot, WrongCartanType
from cyhopf.groups import AbelianGroup, Character
from cyhopf.sampling import random_a1t_datum, random_cartan_datum
from conftest import a1_power, a1a1_znzn_datum, a2_z2z2_datum, type_a, unbuilt_datum

DATA = Path(__file__).resolve().parent.parent / "data"


def hdet_quantum_affine(datum):
    """Homological determinant g -> prod_i chi_i(g^{-1}) of an A1 x ... x A1
    datum, as the inverse of the product of the chi_i (test-only oracle)."""
    assert datum.cartan.is_a1_power()
    out = datum.group.trivial_character()
    for c in datum.chi:
        out = out * c
    return out.inverse()


def quantum_affine_balance(datum):
    """Balance criterion for quantum affine space (test-only oracle): for each
    i the product of q_{ki} over k < i equals the product of q_{ik} over k > i.
    Returns the verdict and the exponents mod N of the per-index residual
    ratios (left * right^{-1})."""
    assert datum.cartan.is_a1_power()
    t, m = datum.rank, datum.group.exponent
    e = datum.braiding_exponents
    residuals = tuple(
        (sum(e[k][i] for k in range(i)) - sum(e[i][k] for k in range(i + 1, t))) % m
        for i in range(t)
    )
    return not any(residuals), residuals


def criteria(report) -> dict:
    return {c.criterion: c for c in report.criteria}


def test_braiding_matrix_of_the_bundled_examples(example_a2, example_a1a1):
    # q_ij = chi_j(g_i) = zeta_N^{e_ij}
    assert example_a2.braiding_exponents == ((1, 1), (0, 1))  # N = 2: q_21 = 1, the rest -1
    for datum in (example_a2, example_a1a1):
        m = datum.group.exponent
        for i, row in enumerate(datum.braiding_exponents):
            for j, e in enumerate(row):
                assert datum.chi[j](datum.g[i]) == root_of_unity(e, m)
    qq = example_a1a1.braiding_exponents
    assert qq[0][1] == 2 and qq[1][0] == 1  # q_12 = q^{-1}, q_21 = q with q = zeta_3


def test_datum_validation():
    group = AbelianGroup((2, 2))
    g = (group.element((1, 0)), group.element((0, 1)))
    with pytest.raises(InvalidDatum):
        # trivial chi_1 gives q_11 = 1
        CartanDatum(group, g, (group.character((0, 0)), group.character((1, 1))),
                    CartanMatrix(((2, 0), (0, 2))))
    with pytest.raises(InvalidDatum):
        # the A2 character table has q_12 q_21 = -1, but a_12 = 0 demands 1
        CartanDatum(group, g, (group.character((1, 0)), group.character((1, 1))),
                    CartanMatrix(((2, 0), (0, 2))))


def test_linking_shape_validation(example_a1a1):
    from cyhopf.datum import LinkingParameter

    group = example_a1a1.group
    with pytest.raises(InvalidDatum):
        CartanDatum(
            group,
            example_a1a1.g,
            example_a1a1.chi,
            CartanMatrix(((2, -1), (-1, 2))),
            (LinkingParameter(0, 1, one(1)),),
        )  # a_12 != 0 cannot be linked; note this chi fails A2 compatibility too


def test_chi_beta_simple_and_composite(example_a2):
    assert chi_beta(example_a2, Root((1, 0))) == example_a2.chi[0]
    composite = chi_beta(example_a2, Root((1, 1)))
    y1 = example_a2.group.element((1, 0))
    assert composite(y1).is_one()  # (-1) * (-1)
    assert chi_beta(example_a2, Root((0, 0))).is_trivial()
    with pytest.raises(NegativeRoot):
        chi_beta(example_a2, Root((-1, 1)))


def test_integral_character_examples(example_a2, example_a1a1):
    assert integral_character(example_a2).is_trivial()
    assert integral_character(example_a1a1).is_trivial()
    # t=1, A1, nontrivial chi: the integral character is chi itself
    group = AbelianGroup((2,))
    datum = CartanDatum(
        group, (group.generator(0),), (group.character((1,)),), CartanMatrix(((2,),))
    )
    assert integral_character(datum) == group.character((1,))


def test_hdet_quantum_affine(example_a1a1):
    assert check_cy(example_a1a1).hdet.is_trivial()
    group = AbelianGroup((5,))
    datum = CartanDatum(
        group, (group.generator(0),), (group.character((1,)),), CartanMatrix(((2,),))
    )
    hdet = check_cy(datum).hdet
    assert hdet == integral_character(datum).inverse()
    assert hdet(group.generator(0)) == root_of_unity(4, 5)  # q^{-1}
    assert check_cy(a2_z2z2_datum()).hdet is None


def test_balance_criterion(example_a1a1):
    # t=1 is trivially balanced
    group = AbelianGroup((3,))
    datum = CartanDatum(
        group, (group.generator(0),), (group.character((1,)),), CartanMatrix(((2,),))
    )
    ok, residuals = quantum_affine_balance(datum)
    assert ok and residuals == (0,)
    balance = criteria(check_cy(datum))["quantum-affine-balance"]
    assert balance.satisfied and balance.detail == "residuals (1)"
    # the Zn x Zn example fails balance: residual q = zeta_3 at index 1
    ok2, res2 = quantum_affine_balance(example_a1a1)
    assert not ok2
    assert res2 == (1, 2)
    assert not criteria(check_cy(example_a1a1))["quantum-affine-balance"].satisfied
    # cross-terms all 1 gives balance
    g22 = AbelianGroup((2, 2))
    datum3 = CartanDatum(
        g22,
        (g22.element((1, 0)), g22.element((0, 1))),
        (g22.character((1, 0)), g22.character((0, 1))),
        CartanMatrix(((2, 0), (0, 2))),
    )
    assert quantum_affine_balance(datum3)[0]
    assert check_cy(datum3).cy_R


def test_braided_diag_of_examples(example_a2, example_a1a1):
    ok, diag = check_cy_braided(example_a2)
    assert not ok and diag == (1, 1)  # (-1, -1)
    ok2, diag2 = check_cy_braided(example_a1a1)
    assert not ok2 and diag2 == (2, 1)  # (q^{-1}, q), q = zeta_3
    # all cross q = 1 makes the braided factor CY
    g22 = AbelianGroup((2, 2))
    datum3 = CartanDatum(
        g22,
        (g22.element((1, 0)), g22.element((0, 1))),
        (g22.character((1, 0)), g22.character((0, 1))),
        CartanMatrix(((2, 0), (0, 2))),
    )
    ok3, diag3 = check_cy_braided(datum3)
    assert ok3 and diag3 == (0, 0)


def test_witness_search(example_a2):
    group = example_a2.group
    # all-ones diagonal is realized by the identity
    found = inner_witness_search(example_a2, (0, 0))
    assert found is not None and found.is_identity()
    # the squared-antipode diagonal (-1, -1) is realized by y1 (first in lex order)
    assert squared_antipode_diag(example_a2) == (1, 1)
    assert inner_witness_search(example_a2, squared_antipode_diag(example_a2)) == group.element((1, 0))
    # unreachable diagonal: chi values are +-1, so zeta_4 is never attained
    g4 = AbelianGroup((4,))
    datum4 = CartanDatum(
        g4, (g4.generator(0),), (g4.character((2,)),), CartanMatrix(((2,),))
    )
    assert inner_witness_search(datum4, (1,)) is None


def test_check_cy_smash_examples(example_a2):
    ok, xi, witness, p = check_cy_smash(example_a2)
    assert ok and xi.is_trivial() and p == 3
    assert witness == example_a2.group.element((1, 0))
    for n in (3, 4, 5):
        datum = a1a1_znzn_datum(n)
        ok, xi, witness, p = check_cy_smash(datum)
        assert ok and p == 2
        # post hoc: the witness realizes chi_i(g) = chi_i(g_i)^{-1}
        for i in range(2):
            assert datum.chi[i](witness) == datum.chi[i](datum.g[i]).inverse()
    # A1 with nontrivial character: integral character nontrivial, not CY
    group = AbelianGroup((2,))
    datum1 = CartanDatum(
        group, (group.generator(0),), (group.character((1,)),), CartanMatrix(((2,),))
    )
    ok1, xi1, _w, _p = check_cy_smash(datum1)
    assert not ok1 and not xi1.is_trivial()


def test_check_cy_full_reports(example_a2, example_a1a1):
    rep = check_cy(example_a2)
    assert rep.cy_smash and not rep.cy_R and rep.cy_dimension == 3
    assert rep.hdet is None  # undefined beyond A1 x ... x A1
    rep2 = check_cy(example_a1a1)
    assert rep2.cy_smash and not rep2.cy_R and rep2.cy_dimension == 2
    assert rep2.hdet is not None and rep2.hdet.is_trivial()
    assert any("shift" in note for note in rep2.notes)
    assert any("unit group" in note or "group-like" in note for note in rep2.notes)


def test_quantum_affine_report_casework(example_a1a1):
    """hdet is check_cy's report, refused beyond A1 x ... x A1."""
    for tie_break in ("min", "max"):
        rep = quantum_affine_report(example_a1a1, tie_break)
        assert rep is check_cy(example_a1a1, tie_break)
        assert rep.cy_smash and not rep.cy_R  # xi = hdet^{-1} trivial, balance fails
        assert rep.hdet.is_trivial()
        assert list(criteria(rep)) == [
            "integral-character-trivial", "squared-antipode-inner", "braided-nakayama-trivial",
            "quantum-affine-balance", "hdet-trivial"]
    with pytest.raises(WrongCartanType):
        quantum_affine_report(a2_z2z2_datum())


def test_balanced_data_with_nontrivial_qjj_never_both_cy():
    rng = random.Random(20240817)
    for _ in range(120):
        datum = random_a1t_datum(rng, balanced=True)
        rep = quantum_affine_report(datum)
        assert rep.cy_R  # balance holds by construction
        assert not rep.cy_smash  # hdet(g_j) = chi_j(g_j)^{-1} != 1
        for j in range(datum.rank):
            assert rep.hdet(datum.g[j]) == datum.chi[j](datum.g[j]).inverse()


def test_mutual_exclusion_on_random_valid_data():
    rng = random.Random(99)
    for _ in range(1000):
        rep = check_cy(random_a1t_datum(rng))
        assert not (rep.cy_R and rep.hdet.is_trivial())
        assert not (rep.cy_R and rep.cy_smash)


def test_braided_criterion_agrees_with_balance_on_random_data():
    """On A1 x ... x A1 data the balance residuals are the c_k^{-1} and hdet
    is xi^{-1}: the report's criteria equal the oracles' on every draw."""
    rng = random.Random(7)
    for _ in range(200):
        datum = random_a1t_datum(rng)
        m = datum.group.exponent
        balanced, residuals = quantum_affine_balance(datum)
        hdet = hdet_quantum_affine(datum)
        assert check_cy_braided(datum)[0] == balanced
        for tie_break in ("min", "max"):
            rep = check_cy(datum, tie_break)
            assert quantum_affine_report(datum, tie_break) is rep
            assert rep.cy_R == balanced and rep.hdet == hdet
            listing = ", ".join(str(root_of_unity(x, m)) for x in residuals)
            named = criteria(rep)
            balance, hdet_trivial = named["quantum-affine-balance"], named["hdet-trivial"]
            assert (balance.satisfied, balance.detail) == (balanced, f"residuals ({listing})")
            assert (hdet_trivial.satisfied, hdet_trivial.detail) == (hdet.is_trivial(), str(hdet))


def test_integral_character_independent_of_tie_break():
    rng = random.Random(4242)
    for _ in range(60):
        datum = random_cartan_datum(rng)
        assert integral_character(datum, "min") == integral_character(datum, "max")
        assert check_cy_braided(datum, "min") == check_cy_braided(datum, "max")


def _chi_beta_by_products(datum, root):
    """chi_beta as the product of Character powers (test-only oracle)."""
    out = datum.group.trivial_character()
    for c, m in zip(datum.chi, root.coeffs):
        if m:
            out = out * datum.group.character(tuple(m * a for a in c.exp))
    return out


def _product_oracle(datum, tie_break):
    """xi and the braided diagonal as literal products of chi_beta over the
    beta sequence: xi = prod_i chi_{beta_i}, c_k = prod_{i != j_k} chi_{beta_i}(g_k)."""
    betas = beta_sequence(datum.cartan, longest_word(datum.cartan, tie_break))
    xi = datum.group.trivial_character()
    for beta in betas:
        xi = xi * _chi_beta_by_products(datum, beta)
    diag = []
    for k in range(datum.rank):
        j_k = betas.index(simple_root(datum.cartan, k))
        c = one(datum.group.exponent)
        for i, beta in enumerate(betas):
            if i != j_k:
                c = c * _chi_beta_by_products(datum, beta)(datum.g[k])
        diag.append(c)
    return xi, tuple(diag)


def _twisted_e_datum(n: int, rng: random.Random) -> CartanDatum:
    """Type E_n on (Z_5)^n: q_ij = q^{a_ij} zeta_5^{b_ij} with b antisymmetric,
    so the braiding is not symmetric and the diagonal is not forced to 1."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, n)]:
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = -1
    twist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            twist[i][j] = rng.randrange(5)
            twist[j][i] = -twist[i][j]
    group = AbelianGroup((5,) * n)
    g = tuple(group.generator(i) for i in range(n))
    chi = tuple(group.character(tuple(rows[i][j] + twist[i][j] for i in range(n)))
                for j in range(n))
    return CartanDatum(group, g, chi, CartanMatrix(tuple(map(tuple, rows))))


def test_closed_forms_match_products_over_the_beta_sequence():
    rng = random.Random(2011)
    data = [random_cartan_datum(rng) for _ in range(40)]
    data += [random_a1t_datum(rng, balanced=b) for b in (True, False) for _ in range(20)]
    data += [_twisted_e_datum(n, rng) for n in (6, 7, 8)]
    for datum in data:
        for tie_break in ("min", "max"):
            xi, diag = _product_oracle(datum, tie_break)
            assert integral_character(datum, tie_break) == xi
            exponents = check_cy_braided(datum, tie_break)[1]
            assert tuple(root_of_unity(x, datum.group.exponent) for x in exponents) == diag


def _enumeration_oracle(datum, targets):
    """The witness by listing Gamma in lexicographic order and comparing the
    values chi_k(g) with zeta_N^{d_k} (test-only)."""
    diag = [root_of_unity(d, datum.group.exponent) for d in targets]
    for g in datum.group.elements():
        if all(datum.chi[k](g) == diag[k] for k in range(datum.rank)):
            return g
    return None


def _no_witness_datum(k: int) -> CartanDatum:
    """A1 x A1 on (Z6)^k with g = (y1, y1^2), chi = (zeta, zeta^4) on factor 1:
    valid, but no group-like realizes its squared-antipode diagonal."""
    group = AbelianGroup((6,) * k)
    pad = (0,) * (k - 1)
    return CartanDatum(group, (group.element((1,) + pad), group.element((2,) + pad)),
                       (group.character((1,) + pad), group.character((4,) + pad)),
                       CartanMatrix(((2, 0), (0, 2))))


def _targets(datum, rng):
    """Exponent vectors to search for: 3 random ones, the exponents of chi(h)
    for a random h, the same shifted by N (unreduced), and -chi(h) when N is
    even."""
    m = datum.group.exponent
    out = [tuple(rng.randrange(m) for _ in range(datum.rank)) for _ in range(3)]
    h = datum.group.element([rng.randrange(n) for n in datum.group.invariant_factors])
    planted = tuple(c.value_exponent(h) for c in datum.chi)
    out.append(planted)
    out.append(tuple(x - m for x in planted))
    if m % 2 == 0:
        out.append(tuple(x + m // 2 for x in planted))
    return out


def test_witness_solver_matches_enumeration():
    rng = random.Random(1111)
    data = [random_cartan_datum(rng) for _ in range(60)]
    data += [random_a1t_datum(rng, balanced=b) for b in (True, False) for _ in range(40)]
    data += [_no_witness_datum(k) for k in (1, 2, 3, 4)]
    searches = found = 0
    for datum in data:
        assert datum.group.order <= 10**4
        for tie_break in ("min", "max"):
            report = check_cy(datum, tie_break)
            want = _enumeration_oracle(datum, squared_antipode_diag(datum))
            got = report.inner_witness
            assert (got is None) == (want is None)
            if got is not None:
                assert got[1] is want and got[0].is_one()
        for targets in _targets(datum, rng):
            want = _enumeration_oracle(datum, targets)
            assert inner_witness_search(datum, targets) is want, (datum.group, targets)
            searches += 1
            found += want is not None
    assert 0 < found < searches  # both outcomes occur
    for k in (1, 2, 3, 4):
        assert check_cy(_no_witness_datum(k)).inner_witness is None


def _substitutes(ns, rows, targets, m, x) -> bool:
    return all(0 <= xi < n for xi, n in zip(x, ns)) and all(
        (sum(c * xi for c, xi in zip(row, x)) - d) % m == 0 for row, d in zip(rows, targets))


def test_witness_solver_on_planted_systems_over_huge_groups():
    """Random characters on groups of order up to about 10^40, with targets
    from a planted solution: the result substitutes, and is lexicographically
    no later than the planted one."""
    rng = random.Random(4201)
    largest = refused = 0
    for trial in range(200):
        r = rng.randint(1, 4)
        if trial % 2:
            ns = [rng.randint(2, 10**rng.randint(1, 10)) for _ in range(r)]
        else:  # smooth factors (some of them 1), so that the characters have large kernels
            ns = [rng.choice((2, 3, 4, 6, 12)) ** rng.randint(0, 12) for _ in range(r)]
        m = lcm(*ns)
        largest = max(largest, prod(ns))
        t = rng.randint(1, 4)
        chars = [[rng.randrange(n) if rng.random() < 0.7 else 0 for n in ns] for _ in range(t)]
        rows = [[a * (m // n) for a, n in zip(chi, ns)] for chi in chars]
        planted = [rng.randrange(n) for n in ns]
        targets = [sum(c * x for c, x in zip(row, planted)) % m for row in rows]
        x = _first_solution(ns, rows, targets, m)
        assert x is not None and _substitutes(ns, rows, targets, m, x)
        assert x <= planted
        # row k only reaches multiples of gcd(row k, m), so target + 1 is out of reach
        k = rng.randrange(t)
        if gcd(*rows[k], m) > 1:
            bumped = targets[:k] + [targets[k] + 1] + targets[k + 1:]
            assert _first_solution(ns, rows, bumped, m) is None
            refused += 1
    assert refused > 50
    assert largest > 10**30


def test_witness_solver_on_large_groups_with_small_exponent():
    """(Z2)^21 and (Z6)^8 are out of reach of enumeration; the solver agrees
    with the closed-form answer."""
    group = AbelianGroup((2,) * 21)
    d = CartanDatum(group, (group.generator(0),), (group.character((1,) + (0,) * 20),),
                    CartanMatrix(((2,),)))
    assert inner_witness_search(d, squared_antipode_diag(d)) is group.generator(0)
    assert inner_witness_search(_no_witness_datum(8), squared_antipode_diag(_no_witness_datum(8))) is None
    # chi = product of all characters: the first g with chi(g) = -1 is y21
    chi = group.character((1,) * 21)
    assert inner_witness_search(
        CartanDatum(group, (group.generator(0),), (chi,), CartanMatrix(((2,),))), (1,)
    ) is group.generator(20)


def _huge_order_datum() -> CartanDatum:
    """A1 over Z_N, N = 10^30, with g = gamma and chi = gamma^2."""
    group = AbelianGroup((10**30,))
    return CartanDatum(group, (group.generator(0),), (group.character((2,)),),
                       CartanMatrix(((2,),)))


def test_verdicts_build_no_cyclotomic_number():
    """Over Z_N with N = 10^30, no CycloNumber in Q(zeta_N) can be built (its
    power table is over the budget), yet every verdict function returns:
    verdicts are decided on exponents mod N."""
    datum = _huge_order_datum()
    group, n = datum.group, datum.group.exponent
    with pytest.raises(InputError):
        root_of_unity(1, n)
    assert squared_antipode_diag(datum) == (n - 2,)
    witness = group.element((n // 2 - 1,))  # chi(g) = zeta^{2x} = zeta^{-2}, x = N/2 - 1
    assert inner_witness_search(datum, (n - 2,)) is witness
    assert check_cy_smash(datum) == (False, datum.chi[0], witness, 1)  # xi = chi
    assert check_cy_braided(datum) == (True, (0,))  # c_1 = xi(g) chi(g)^{-1} = 1


def test_root_data_is_computed_once_per_matrix_and_tie_break(monkeypatch):
    calls = []

    def counting_longest_word(cartan, tie_break="min"):
        calls.append((cartan, tie_break))
        return longest_word(cartan, tie_break)

    monkeypatch.setattr(datum_module, "longest_word", counting_longest_word)
    rng = random.Random(77)
    data = [random_cartan_datum(rng) for _ in range(30)] + [random_a1t_datum(rng) for _ in range(30)]
    assert len({d.cartan for d in data}) < len(data)  # data share matrices
    fresh = [unbuilt_datum(type_a), unbuilt_datum(a1_power)]
    data += fresh
    # root data live on the interned matrix, so an earlier test may have computed some
    pairs = {(d.cartan, tb) for d in data for tb in ("min", "max")}
    missing = {(c, tb) for c, tb in pairs if tb not in c.root_counts}
    assert {(d.cartan, tb) for d in fresh for tb in ("min", "max")} <= missing
    for datum in data:
        for tie_break in ("min", "max"):
            check_cy(datum, tie_break)
            integral_character(datum, tie_break)
    assert sorted(calls, key=repr) == sorted(missing, key=repr)
    assert len(calls) == len(missing)
    calls.clear()
    for d in data:  # new data on the same matrices: check_cy keeps no report across data
        datum = CartanDatum(d.group, d.g, d.chi, CartanMatrix(d.cartan.entries), d.linking)
        for tie_break in ("min", "max"):
            assert check_cy(datum, tie_break) == check_cy(d, tie_break)
            integral_character(datum, tie_break)
    assert calls == []


def test_both_tie_breaks_share_one_report_and_the_rows_of_validation():
    """Both tie-breaks derive the same p and 2 rho, so check_cy builds one
    report for both; the witness search reads the character rows that
    validation kept, chi_k's exponents times N / n_i."""
    rng = random.Random(26)
    data = [random_cartan_datum(rng) for _ in range(30)] + [random_a1t_datum(rng) for _ in range(30)]
    for d in data + [a2_z2z2_datum(), a1a1_znzn_datum(3)]:
        scale = d.group.scale
        assert d.chi_rows == tuple(tuple(a * s for a, s in zip(c.exp, scale)) for c in d.chi)
        report = check_cy(d, "max")
        assert check_cy(d, "min") is report and check_cy(d) is report
        assert d.cartan.root_counts["min"] == d.cartan.root_counts["max"]


def test_tie_breaks_whose_root_data_disagree_raise_an_internal_error(monkeypatch, capsys):
    """The tie-breaks cross-check each other: each derives p and 2 rho from its
    own word, so a "max" word that is not a longest word raises InternalError
    (CLI exit 2) instead of giving a second report with a wrong p, and its
    (p, 2 rho) is not kept."""
    d = a2_z2z2_datum()
    counts = d.cartan.root_counts  # kept on the interned matrix: restored after the test
    monkeypatch.setitem(counts, "max", None)
    del counts["max"]

    def shortened(cartan, tie_break="min"):
        word = longest_word(cartan, tie_break)
        return word[:-1] if tie_break == "max" else word

    monkeypatch.setattr(datum_module, "longest_word", shortened)
    assert check_cy(d, "min").cy_dimension == 3
    with pytest.raises(InternalError, match="tie-breaks min and max derive different"):
        check_cy(d, "max")
    assert "max" not in counts
    capsys.readouterr()
    assert cli_main(["check-cy", str(DATA / "datum_a2_z2z2.json"), "--tie-break", "max"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "tie-breaks min and max" in err
    assert "max" not in counts


def test_a_report_equals_one_rebuilt_field_by_field():
    """Characters and elements are interned, so a report rebuilt from the
    exponents of its characters and witness equals the kept one."""
    rng = random.Random(25)
    data = [random_cartan_datum(rng) for _ in range(20)] + [random_a1t_datum(rng) for _ in range(20)]
    for d in data:
        for tie_break in ("min", "max"):
            report = check_cy(d, tie_break)
            fields = {name: getattr(report, name) for name in CyReport._compared}
            fields["integral_character"] = d.group.character(report.integral_character.exp)
            if report.hdet is not None:
                fields["hdet"] = Character(d.group, report.hdet.exp)
            if report.inner_witness is not None:
                scalar, g = report.inner_witness
                fields["inner_witness"] = (scalar, d.group.element(g.exp))
            rebuilt = CyReport(**fields)
            assert rebuilt == report and rebuilt.integral_character is report.integral_character


def test_witness_and_quantum_affine_criteria_are_computed_once_per_datum(monkeypatch):
    solves, builds = [], []
    solve, diagonal = datum_module._first_solution, datum_module._nakayama_exponents

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    def counting_diagonal(datum, xi):
        builds.append(datum)
        return diagonal(datum, xi)

    monkeypatch.setattr(datum_module, "_first_solution", counting_solve)
    monkeypatch.setattr(datum_module, "_nakayama_exponents", counting_diagonal)
    rng = random.Random(1211)
    data = [random_a1t_datum(rng, balanced=b) for b in (True, False) for _ in range(20)]
    data += [random_cartan_datum(rng) for _ in range(30)]
    assert not solves  # building a datum solves nothing
    a1t = [d for d in data if d.cartan.is_a1_power()]
    assert 40 <= len(a1t) < len(data)
    for datum in data:
        first = [check_cy(datum, "min"), check_cy(datum, "max")]
        assert len({r.inner_witness and r.inner_witness[1] for r in first}) == 1
        assert all(r is kept for r, kept in zip(first, (check_cy(datum), check_cy(datum, "max"))))
        if datum.cartan.is_a1_power():
            assert all(quantum_affine_report(datum, tb) is r for tb, r in zip(("min", "max"), first))
    assert len(solves) == len(data)
    assert [id(d) for d in builds] == [id(d) for d in data]  # one report serves both tie-breaks
    for datum in data:
        fresh = inner_witness_search(datum, squared_antipode_diag(datum))
        assert datum.squared_antipode_witness is fresh
        assert check_cy_smash(datum)[2] is fresh
    # a second datum from the same exponents keeps nothing of the first
    solves.clear()
    for datum in data[:5] + data[-5:]:
        twin = CartanDatum(datum.group, datum.g, datum.chi, datum.cartan)
        check_cy(twin)
        check_cy(twin, "max")
    assert len(solves) == 10


def _report_data():
    """Random A1^t and finite-type data, and both bundled data."""
    rng = random.Random(2207)
    data = [random_a1t_datum(rng, balanced=b) for b in (True, False) for _ in range(10)]
    return data + [random_cartan_datum(rng) for _ in range(20)] + [
        a2_z2z2_datum(), a1a1_znzn_datum(3)]


DEFERRED = ("nakayama_diag", "criteria", "notes")


def test_reading_verdicts_renders_nothing(monkeypatch):
    """The verdicts, characters and witness are fields at the call; neither the
    call nor reading them builds a display scalar or formats a CycloNumber."""
    scalars, strings = [], []
    build, render = datum_module.report_scalars, CycloNumber.__str__
    monkeypatch.setattr(datum_module, "report_scalars",
                        lambda *args: scalars.append(args) or build(*args))
    monkeypatch.setattr(CycloNumber, "__str__", lambda x: strings.append(x) or render(x))
    data = _report_data()
    for datum in data:
        reports = [check_cy(datum, "min"), check_cy(datum, "max")]
        if datum.cartan.is_a1_power():
            reports.append(quantum_affine_report(datum))
        for r in reports:
            assert r.cy_smash == (r.integral_character.is_trivial() and r.inner_witness is not None)
            assert r.cy_dimension >= datum.rank and r.cy_R in (True, False)
            assert (r.hdet is None) != datum.cartan.is_a1_power()
            if r.inner_witness is not None:
                assert r.inner_witness[0] == one(datum.group.exponent)
            assert not any(name in vars(r) for name in DEFERRED)
    assert not scalars and not strings
    for datum in data:  # the first read of a display field renders
        report = check_cy(datum)
        assert str(report.nakayama_diag[0]) and report.criteria
    assert len(scalars) == len(data) + sum(d.cartan.is_a1_power() for d in data)
    assert strings


def test_the_first_read_renders_once_and_is_kept(monkeypatch):
    scalars = []
    build = datum_module.report_scalars
    monkeypatch.setattr(datum_module, "report_scalars",
                        lambda *args: scalars.append(args) or build(*args))
    for datum in _report_data():
        report = check_cy(datum, "max")
        scalars.clear()
        first = report.criteria
        # the diagonal, and for A1 x ... x A1 the balance residuals
        assert len(scalars) == 1 + datum.cartan.is_a1_power()
        assert report.criteria is first and check_cy(datum, "max").criteria is first
        assert report.nakayama_diag is report.nakayama_diag
        assert report.notes is report.notes
        assert len(scalars) == 1 + datum.cartan.is_a1_power()
        m = datum.group.exponent
        assert report.nakayama_diag == tuple(
            root_of_unity(x, m) for x in check_cy_braided(datum, "max")[1])
        assert [c.satisfied for c in first[:3]] == [
            report.integral_character.is_trivial(), report.inner_witness is not None,
            report.cy_R]
        eager = datum_module.CyReport(*(getattr(report, name) for name in (
            "cy_R", "cy_smash", "cy_dimension", "integral_character", "hdet", "nakayama_diag",
            "inner_witness", "criteria", "notes")))
        assert eager == report and vars(eager).keys() == vars(report).keys() - {"_nakayama"}


@pytest.mark.parametrize("name", DEFERRED)
def test_a_deferred_field_is_read_only_before_and_after_its_first_read(name):
    report = check_cy(a1a1_znzn_datum(5))
    for _ in range(2):  # unread, then read
        with pytest.raises(AttributeError):
            setattr(report, name, ())
        with pytest.raises(AttributeError):
            delattr(report, name)
        value = getattr(report, name)
    assert getattr(report, name) is value and value


def test_dropping_a_datum_frees_its_report():
    """A report holds no reference to its datum, so the datum and its kept
    reports are freed by reference counting alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for read in DEFERRED + (None,):
            datum = a1a1_znzn_datum(4)
            report = check_cy(datum)
            if read is not None:
                getattr(report, read)
            refs = weakref.ref(datum), weakref.ref(report)
            del datum, report
            assert [ref() for ref in refs] == [None, None], read
    finally:
        if enabled:
            gc.enable()


def test_an_order_over_the_power_table_budget_is_refused_at_the_call():
    """Z_10001: Q(zeta_N) has no power table.  The witness's scalar 1 is built
    at the call, so check_cy refuses there, with a witness and without one."""
    group = AbelianGroup((10001,))
    with_witness = CartanDatum(group, (group.generator(0),), (group.character((1,)),),
                               CartanMatrix(((2,),)))
    # g = (1, -73), chi = (1, 73): a witness h needs h = -1 mod 10001 from chi_1
    # and 73 h = 73 * 73 mod 10001, so h = 73 mod 137, from chi_2
    without = CartanDatum(group, (group.element((1,)), group.element((-73,))),
                          (group.character((1,)), group.character((73,))),
                          CartanMatrix(((2, 0), (0, 2))))
    assert with_witness.squared_antipode_witness is not None
    assert without.squared_antipode_witness is None
    for datum in (with_witness, without):
        for _ in range(2):
            with pytest.raises(InputError, match="power table"):
                check_cy(datum)
        assert datum.report is None


def _a3_over_z2_cubed(value) -> CartanDatum:
    """A3 over (Z2)^3, g_i = gamma_i, q_ii = -1, with lambda_13 = value: nodes 1
    and 3 have a_13 = 0, chi_1 chi_3 = epsilon and g_1 g_3 != 1, but lie in
    one component."""
    group = AbelianGroup((2, 2, 2))
    g = tuple(group.generator(i) for i in range(3))
    chi = (group.character((1, 0, 1)), group.character((1, 1, 1)), group.character((1, 0, 1)))
    return CartanDatum(group, g, chi, CartanMatrix(((2, -1, 0), (-1, 2, -1), (0, -1, 2))),
                       (LinkingParameter(0, 2, value),))


def test_a_linked_pair_must_be_linkable():
    """lambda_ij != 0 needs chi_i chi_j = epsilon, g_i g_j != 1 and i, j in
    different components of the Dynkin diagram; lambda_ij = 0 needs none."""
    z3 = AbelianGroup((3, 3))
    z2 = AbelianGroup((2,))
    a1a1 = CartanMatrix(((2, 0), (0, 2)))
    cases = [
        ("chi_1 chi_2 = epsilon",
         lambda v: CartanDatum(z3, (z3.element((1, 0)), z3.element((0, 1))),
                               (z3.character((1, 1)), z3.character((2, 1))), a1a1,
                               (LinkingParameter(0, 1, v),))),
        ("g_1 g_2 != 1",
         lambda v: CartanDatum(z2, (z2.element((1,)),) * 2, (z2.character((1,)),) * 2, a1a1,
                               (LinkingParameter(0, 1, v),))),
        ("1 and 3 in different components", _a3_over_z2_cubed),
    ]
    for reason, build in cases:
        with pytest.raises(InvalidDatum, match=reason):
            build(one(1))
        with pytest.raises(InvalidDatum, match=reason):
            build(root_of_unity(1, 3))
        assert build(zero(1)).linking[0].value.is_zero()
    assert a1a1_znzn_datum(3).linking[0].value == one(1)  # the bundled lambda = 1 is linkable


def test_exponent_vector_characters_match_character_products():
    rng = random.Random(3030)
    data = [random_cartan_datum(rng) for _ in range(100)]
    data += [random_a1t_datum(rng, balanced=b) for b in (True, False) for _ in range(47)]
    data += [_twisted_e_datum(n, rng) for n in (6, 7, 8)]
    data += [_no_witness_datum(k) for k in (1, 2)] + [_huge_order_datum()]
    assert len(data) == 200
    zero_coefficients = 0
    for datum in data:
        t = datum.rank
        rows = datum.cartan.entries
        assert datum.cartan.is_a1_power() == all(rows[i][j] == 0 for i in range(t) for j in range(t)
                                                 if i != j)
        assert datum.braiding_exponents == tuple(
            tuple(c.value_exponent(x) for c in datum.chi) for x in datum.g)
        tie_break = rng.choice(("min", "max"))
        betas = beta_sequence(datum.cartan, longest_word(datum.cartan, tie_break))
        xi = datum.group.trivial_character()
        for beta in betas:
            xi = xi * _chi_beta_by_products(datum, beta)
        assert integral_character(datum, tie_break) == xi
        coeffs = tuple(rng.choice((0, 0, 1, 2, 10**31 + 1)) for _ in range(t))
        roots = [Root((0,) * t), Root(coeffs)]
        for root in roots + list(betas):
            zero_coefficients += 0 in root.coeffs
            assert chi_beta(datum, root) == _chi_beta_by_products(datum, root)
        if datum.cartan.is_a1_power():
            assert integral_character(datum, tie_break).inverse() == hdet_quantum_affine(datum)
    assert zero_coefficients > 200


def test_building_a_datum_runs_no_solver(monkeypatch):
    """Over the witness rank limit a datum still builds and its integral
    character still answers; check_cy and quantum_affine_report, which is
    check_cy on A1 x ... x A1, refuse with one line: the witness is decided
    before any report scalar is built, so the rank refusal comes first even
    where Q(zeta_N) has no power table."""
    solves = []
    monkeypatch.setattr(datum_module, "_first_solution", lambda *args: solves.append(args))
    over = datum_module.MAX_WITNESS_RANK + 1
    rank_error = (f"witness solver needs {over} group factors on which a character is "
                  f"nontrivial, over the limit of {over - 1}")
    for ns in ((2,) * over, (3,) * (over - 1) + (10**30,)):
        group = AbelianGroup(ns)
        datum = CartanDatum(group, (group.generator(0),), (group.character((1,) * over),),
                            CartanMatrix(((2,),)))
        assert integral_character(datum) == datum.chi[0]
        for _ in range(2):  # a refusal is not kept: asking again refuses again
            with pytest.raises(InputError) as refused:
                check_cy(datum)
            assert str(refused.value) == rank_error
            with pytest.raises(InputError) as refused:
                quantum_affine_report(datum)
            assert str(refused.value) == rank_error
    assert not solves
