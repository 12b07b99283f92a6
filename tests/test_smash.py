import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cyhopf import rewriting, smash
from cyhopf.cyclotomic import CycloNumber, euler_phi, one, root_of_unity, zero
from cyhopf.errors import (
    DegreeBoundExceeded,
    GroupMismatch,
    InputError,
    InternalError,
    InvalidPresentation,
)
from cyhopf.groups import AbelianGroup, GroupElement
from cyhopf.rewriting import check_local_confluence, format_word, parse_word
from cyhopf.sampling import random_a1t_datum
from cyhopf.smash import (
    DiagonalAutomorphism,
    PresentedAlgebra,
    SmashElement,
    TensorElement,
    format_monomial,
    nakayama_automorphism,
    quantum_affine_presentation,
    verify_double_antipode,
    verify_hopf_axioms,
    winding_endomorphism,
)
from conftest import a1a1_znzn_datum, a2_z2z2_datum, characters


def a2_algebra(bound=4) -> PresentedAlgebra:
    """Braided factor of the first bundled example with its two cubic rules."""
    datum = a2_z2z2_datum()
    rules = {
        (1, 0, 0): (((0, 0, 1), one(1)),),
        (1, 1, 0): (((0, 1, 1), one(1)),),
    }
    return PresentedAlgebra(datum.group, datum.g, datum.chi, rules, bound)


def qa_algebra(n=3, bound=4) -> PresentedAlgebra:
    datum = a1a1_znzn_datum(n)
    return quantum_affine_presentation(datum.group, datum.g, datum.chi, bound)


def normal_monomials(algebra: PresentedAlgebra, max_degree: int | None = None):
    """Every normal monomial (w, g) of degree at most max_degree, all tails g."""
    gs = list(algebra.group.elements())
    return [(w, g) for w in algebra.normal_words(max_degree) for g in gs]


def normalize_with_strategy(algebra: PresentedAlgebra, word, choose):
    """Uncached rewriting with a caller-chosen redex strategy: choose receives
    the nonempty list of (position, lhs) redexes of the current word and
    returns one of them."""
    acc: dict = {}
    stack = [(tuple(word), one(algebra.order))]
    while stack:
        w, c = stack.pop()
        redexes = list(algebra._redexes(w))
        if not redexes:
            rewriting._accumulate(acc, w, c)
            continue
        for nw, rc in algebra._rewrite_at(w, *choose(redexes)):
            stack.append((nw, c * rc))
    return tuple(sorted(acc.items(), key=lambda kv: rewriting.graded_lex_key(kv[0])))


# -- words and rule validation ------------------------------------------------


def test_word_parsing_and_formatting():
    assert parse_word("x2*x1^2", 2) == (1, 0, 0)
    assert parse_word("1", 3) == ()
    assert format_word((1, 0, 0)) == "x2*x1^2"
    assert format_word(()) == "1"
    with pytest.raises(InputError):
        parse_word("x9", 2)


def test_rule_orientation_enforced():
    datum = a1a1_znzn_datum(3)
    with pytest.raises(InvalidPresentation):
        # ascending -> descending increases the graded-lex order
        PresentedAlgebra(
            datum.group, datum.g, datum.chi, {(0, 1): (((1, 0), one(1)),)}, 4
        )


def test_rule_homogeneity_and_equivariance_enforced():
    group = AbelianGroup((4,))
    y = group.element((1,))
    # x2 x1 -> x1 x1 changes the Gamma-degree when deg x2 != deg x1
    with pytest.raises(InvalidPresentation):
        PresentedAlgebra(
            group,
            (y, group.element((2,))),
            (group.trivial_character(), group.trivial_character()),
            {(1, 0): (((0, 0), one(1)),)},
            4,
        )
    # same degrees but different action characters: chi-equivariance fails
    with pytest.raises(InvalidPresentation):
        PresentedAlgebra(
            group,
            (y, y),
            (group.character((1,)), group.character((2,))),
            {(1, 0): (((0, 0), one(1)),)},
            4,
        )


def test_rule_scalar_outside_session_field_rejected():
    datum = a1a1_znzn_datum(3)  # session order 3
    with pytest.raises(InvalidPresentation):
        PresentedAlgebra(
            datum.group,
            datum.g,
            datum.chi,
            {(1, 0): (((0, 1), root_of_unity(1, 4)),)},
            4,
        )


# -- normalization -------------------------------------------------------------


def test_normalize_quantum_affine_swap():
    algebra = qa_algebra(3)
    e = algebra.group.identity()
    q = root_of_unity(1, 3)
    x1, x2 = algebra.generator(0), algebra.generator(1)
    # x2 x1 = q x1 x2 (one swap), x1 x2 already normal
    assert algebra.monomial((1, 0), e) == algebra.monomial((0, 1), e, q) == x2 * x1
    assert algebra.monomial((0, 1), e).terms == {((0, 1), e): one(3)}
    assert x1 * x2 == algebra.monomial((0, 1), e)


def test_normalize_pushes_group_elements_right():
    algebra = qa_algebra(3)
    y1 = algebra.group.element((1, 0))
    q = root_of_unity(1, 3)
    # g x_1 = chi_1(g) x_1 g, and x_1 g is the monomial x_1 # g
    assert algebra.group_like(y1) * algebra.generator(0) == algebra.monomial((0,), y1, q)
    assert algebra.generator(0) * algebra.group_like(y1) == algebra.monomial((0,), y1)


def test_monomial_refuses_a_group_like_of_another_group():
    algebra = qa_algebra(3)
    with pytest.raises(GroupMismatch):
        algebra.monomial((), AbelianGroup((5,)).identity())


def test_default_coefficient_builds_no_scalar(monkeypatch):
    """monomial without a coefficient, and so a product of generators, uses the
    cached one of the session field; an explicit rational coefficient is still
    converted."""
    algebra = qa_algebra(3)
    e = algebra.group.identity()
    calls = []
    from_rational = CycloNumber.from_rational

    def counting(value, order=1):
        calls.append(value)
        return from_rational(value, order)

    monkeypatch.setattr(CycloNumber, "from_rational", staticmethod(counting))
    for w in ((), (0,), (1, 0), (1, 1, 0)):
        assert algebra.monomial(w, e) == algebra.monomial(w, e, one(algebra.order))
    assert (algebra.generator(1) * algebra.generator(0)).terms
    assert calls == []
    assert algebra.monomial((0,), e, 2) == algebra.generator(0).scale(2)
    assert calls


def test_normalize_a2_cubic_rule():
    algebra = a2_algebra()
    e = algebra.group.identity()
    x1, x2 = algebra.generator(0), algebra.generator(1)
    assert algebra.monomial((1, 0, 0), e) == algebra.monomial((0, 0, 1), e) == x2 * x1 * x1


def test_normalize_idempotent_and_strategy_independent():
    rng = random.Random(1234)
    for algebra in (qa_algebra(3), a2_algebra(), qa_algebra(4)):
        letters = range(algebra.t)
        for _ in range(500):
            word = tuple(
                rng.choice(letters) for _ in range(rng.randint(0, algebra.degree_bound))
            )
            reference = algebra._normal_combination(word)
            for nw, _c in reference:
                assert algebra.is_normal(nw)
                assert algebra._normal_combination(nw) == ((nw, one(algebra.order)),)
            random_strategy = normalize_with_strategy(
                algebra, word, lambda redexes: rng.choice(redexes)
            )
            assert random_strategy == reference


def test_long_rewrite_chain_needs_no_recursion():
    # x2^35 x1^35 takes 35 * 35 swaps to reach x1^35 x2^35
    algebra = qa_algebra(3, bound=70)
    elem = algebra.monomial((1,) * 35 + (0,) * 35, algebra.group.identity())
    q12 = algebra.actions[1](algebra.degrees[0])
    assert elem.terms == {((0,) * 35 + (1,) * 35, algebra.group.identity()): q12 ** -1225}


def test_degree_bound_enforced():
    algebra = qa_algebra(3, bound=3)
    with pytest.raises(DegreeBoundExceeded):
        algebra.monomial((0, 1, 0, 1), algebra.group.identity())
    with pytest.raises(DegreeBoundExceeded):
        algebra.monomial((0, 0), algebra.group.identity()) * algebra.monomial(
            (1, 1), algebra.group.identity()
        )


# -- multiplication ---------------------------------------------------------------


def test_multiply_examples():
    algebra = a2_algebra()
    group = algebra.group
    e = group.identity()
    y1 = group.element((1, 0))
    x1 = algebra.generator(0)
    # (x1 # e)(1 # g) = x1 # g
    assert x1 * algebra.group_like(y1) == algebra.monomial((0,), y1)
    # (1 # y1)(x1 # e) = chi_1(y1) x1 # y1 = -x1 # y1
    assert algebra.group_like(y1) * x1 == algebra.monomial((0,), y1, -one(2))
    # x1 * x1 stays x1^2: no rule applies
    assert x1 * x1 == algebra.monomial((0, 0), e)


def test_multiply_unital_and_associative_sampled():
    rng = random.Random(5)
    algebra = qa_algebra(4)
    monos = [
        algebra.monomial(w, g)
        for w, g in normal_monomials(algebra, 1)
    ]
    unit = algebra.one_element()
    for m in monos[:40]:
        assert m * unit == m and unit * m == m
    for _ in range(120):
        a, b, c = (rng.choice(monos) for _ in range(3))
        try:
            left = (a * b) * c
            right = a * (b * c)
        except DegreeBoundExceeded:
            continue
        assert left == right


def test_multiply_preserves_grading():
    algebra = a2_algebra()
    rng = random.Random(11)
    words = algebra.normal_words(2)
    gs = list(algebra.group.elements())
    for _ in range(80):
        w1, w2 = rng.choice(words), rng.choice(words)
        if len(w1) + len(w2) > algebra.degree_bound:
            continue
        g1, g2 = rng.choice(gs), rng.choice(gs)
        prod = algebra.monomial(w1, g1) * algebra.monomial(w2, g2)
        total = algebra._degree_of(w1) * algebra._degree_of(w2)
        for (w, _g), _c in prod.terms.items():
            assert algebra._degree_of(w) == total


# -- coproduct, counit, antipode -----------------------------------------------------


def test_coproduct_on_generators_and_group_likes():
    algebra = a2_algebra()
    g1 = algebra.degrees[0]
    y2 = algebra.group.element((0, 1))
    t = algebra.comultiply(algebra.generator(0))
    e = algebra.group.identity()
    assert t.terms == {
        (((0,), e), ((), e)): one(2),
        (((), g1), ((0,), e)): one(2),
    }
    tg = algebra.comultiply(algebra.group_like(y2))
    assert tg.terms == {(((), y2), ((), y2)): one(2)}


def test_coproduct_respects_yetter_drinfeld_grading():
    for algebra in (a2_algebra(), qa_algebra(3)):
        for w in algebra.normal_words():
            target = algebra._degree_of(w)
            for u, v, _c in algebra._delta_word(w):
                assert algebra._degree_of(u) * algebra._degree_of(v) == target


def test_antipode_values():
    algebra = qa_algebra(3)
    group = algebra.group
    y1 = group.element((1, 0))
    g1_inv = algebra.degrees[0].inverse()
    # S(1 # g) = 1 # g^{-1}
    assert algebra.antipode(algebra.group_like(y1)) == algebra.group_like(y1.inverse())
    # S(x1) = -chi_1(g1^{-1}) x1 # g1^{-1}
    expected = algebra.monomial((0,), g1_inv, -algebra.actions[0](g1_inv))
    assert algebra.antipode(algebra.generator(0)) == expected


def test_antipode_antihomomorphism_sampled():
    rng = random.Random(23)
    algebra = qa_algebra(3)
    monos = [algebra.monomial(w, g) for w, g in normal_monomials(algebra, 2)]
    for _ in range(100):
        a, b = rng.choice(monos), rng.choice(monos)
        try:
            lhs = algebra.antipode(a * b)
        except DegreeBoundExceeded:
            continue
        assert lhs == algebra.antipode(b) * algebra.antipode(a)


def test_counit():
    algebra = qa_algebra(3)
    y = algebra.group.element((1, 1))
    assert algebra.counit(algebra.group_like(y)).is_one()
    assert algebra.counit(algebra.monomial((0,), y)).is_zero()
    elem = algebra.generator(0) + algebra.one_element().scale(3)
    assert algebra.counit(elem) == CycloNumber.from_rational(3, 3)


# -- equality on term dicts ------------------------------------------------------------


def _z5_presentation() -> PresentedAlgebra:
    group = AbelianGroup((5,))
    g = group.generator(0)
    return quantum_affine_presentation(
        group, (g, g * g), (group.character((1,)), group.character((3,))), 4)


def _z8_half_presentation() -> PresentedAlgebra:
    """Z8, two generators of one degree and character, rule scalars 1/2 and
    zeta_8 + 1/2: coefficients with denominator 2 in a field with phi = 4."""
    group = AbelianGroup((8,))
    g, chi = group.generator(0), group.character((3,))
    half = CycloNumber.from_rational(Fraction(1, 2))
    rules = {(1, 1): (((0, 0), half),), (1, 0): (((0, 1), root_of_unity(1, 8) + half),)}
    return PresentedAlgebra(group, (g, g), (chi, chi), rules, 4)


def _element_pools(algebra: PresentedAlgebra, rng: random.Random) -> list[list]:
    """Smash elements, arity-2 and arity-3 tensors, each pool holding pairs
    equal by construction (built two ways) among pairs that differ."""
    keys = normal_monomials(algebra, 2)
    scalars = [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), 1, -1]

    def draw(degree):
        picks = rng.sample([k for k in keys if len(k[0]) <= degree], rng.randint(0, 3))
        return SmashElement(algebra, {
            k: algebra.scalar(rng.choice(scalars)) * root_of_unity(rng.randrange(8), algebra.order)
            for k in picks})

    smash_pool, arity2, arity3 = [], [], []
    for _ in range(5):
        a, b = draw(2), draw(1)
        half = a.scale(Fraction(1, 2))
        key = next(iter(b.terms), ((), algebra.group.identity()))
        smash_pool += [a, half + half, a.scale(2), a + b - b, b.scale(0) + a, a - a, a * b,
                       (a + b) * b - b * b,
                       # an explicit zero, and a coefficient not lifted to the session field
                       SmashElement(algebra, {**a.terms, key: zero(algebra.order)}),
                       SmashElement(algebra, {key: one(1)}), algebra.monomial(*key)]
        da, db = algebra.comultiply(a), algebra.comultiply(b)
        arity2 += [da, da + db - db, da.scale(-1) + da.scale(2), da.scale(2),
                   algebra.comultiply(a * b), da * db,
                   TensorElement(algebra, {**da.terms, **{k: zero(1) for k in db.terms}}, 2)]
        arity3 += [da.coproduct_on_leg(0), da.coproduct_on_leg(1), db.coproduct_on_leg(0)]
    return [smash_pool, arity2, arity3]


@pytest.mark.parametrize(
    "build",
    [_z5_presentation, _z8_half_presentation, lambda: _nonconfluent_presentation(),
     lambda: a2_algebra()],
    ids=["qa-z5", "z8-half-scalars", "nonconfluent-file", "a2-z2z2"],
)
def test_term_dict_equality_agrees_with_subtraction(build):
    """a == b compares term dicts; it agrees with (a - b).is_zero() on every
    pair of a seeded pool, equal pairs and unequal pairs both occurring."""
    algebra = build()
    rng = random.Random(7070 + algebra.order)
    seen = {True: 0, False: 0}
    for pool in _element_pools(algebra, rng):
        for a in pool:
            for b in pool:
                diff = a - b
                assert (a == b) is diff.is_zero() and (a != b) is not diff.is_zero()
                assert diff.is_zero() is not any(diff.terms.values())  # no zero kept
                seen[a == b] += a is not b
    assert seen[True] >= 20 and seen[False] >= 20
    t2, t3 = algebra.comultiply(algebra.one_element()), algebra.one_element()
    with pytest.raises(InternalError):
        _ = t2 == t2.coproduct_on_leg(0)
    assert (t2 == t3) is False and (t3 == t2) is False


# -- axiom sweeps ------------------------------------------------------------------


def test_hopf_axioms_pass_on_bundled_presentations():
    for algebra in (qa_algebra(3), a2_algebra()):
        report = verify_hopf_axioms(algebra)
        assert report.passed, report.to_json()
        assert [e.check for e in report.entries] == [
            "coassociativity",
            "counit",
            "antipode-left",
            "antipode-right",
            "coproduct-multiplicative",
        ]


def test_hopf_axioms_group_algebra_only():
    group = AbelianGroup((3, 2))
    algebra = PresentedAlgebra(group, (), (), {}, 4)
    assert verify_hopf_axioms(algebra).passed


def test_corrupted_rule_fails_with_counterexample():
    datum = a1a1_znzn_datum(3)
    q12 = datum.chi[1](datum.g[0])
    bad = PresentedAlgebra(
        datum.group,
        datum.g,
        datum.chi,
        {(1, 0): (((0, 1), (q12 * q12).inverse()),)},
        4,
    )
    report = verify_hopf_axioms(bad)
    assert not report.passed
    failures = {e.check: e for e in report.entries if e.status == "fail"}
    assert "coproduct-multiplicative" in failures
    assert failures["coproduct-multiplicative"].counterexample


def _full_tail_hopf_sweep(algebra: PresentedAlgebra) -> list[tuple[str, str | None]]:
    """First counterexample of each Hopf family over every normal monomial
    x^w # g, every tail g included, and over every pair of them.

    A test-only oracle for the tail reduction in verify_hopf_axioms: it uses
    nothing of the engine but comultiply, *, antipode and counit.
    """
    alg = algebra
    monos = [(w, format_monomial(w, g), alg.monomial(w, g)) for w, g in normal_monomials(alg)]

    def legs(m):
        """Delta(m) as (left monomial key, right monomial key, coefficient)."""
        return [(ka, kb, c) for (ka, kb), c in alg.comultiply(m).terms.items()]

    def coassociative(m):
        left, right = {}, {}
        for ka, kb, c in legs(m):
            for k1, k2, c1 in legs(alg.monomial(*ka)):
                left[k1, k2, kb] = left.get((k1, k2, kb), zero(alg.order)) + c * c1
            for k1, k2, c2 in legs(alg.monomial(*kb)):
                right[ka, k1, k2] = right.get((ka, k1, k2), zero(alg.order)) + c * c2
        return TensorElement(alg, left, 3) == TensorElement(alg, right, 3)

    def counit(m):
        left, right = alg.zero(), alg.zero()
        for ka, kb, c in legs(m):
            a, b = alg.monomial(*ka), alg.monomial(*kb)
            left = left + b.scale(c * alg.counit(a))
            right = right + a.scale(c * alg.counit(b))
        return left == m and right == m

    def antipode(m, side):
        total = alg.zero()
        for ka, kb, c in legs(m):
            a, b = alg.monomial(*ka), alg.monomial(*kb)
            folded = alg.antipode(a) * b if side == "left" else a * alg.antipode(b)
            total = total + folded.scale(c)
        return total == alg.one_element().scale(alg.counit(m))

    def first_pair_failure():
        for w1, label1, m1 in monos:
            for w2, label2, m2 in monos:
                if len(w1) + len(w2) > alg.degree_bound:
                    continue
                if alg.comultiply(m1 * m2) != alg.comultiply(m1) * alg.comultiply(m2):
                    return f"{label1} , {label2}"
        return None

    families = {
        "coassociativity": coassociative,
        "counit": counit,
        "antipode-left": lambda m: antipode(m, "left"),
        "antipode-right": lambda m: antipode(m, "right"),
    }
    first = {}
    for _w, label, m in monos:
        for name, holds in families.items():
            if name not in first and not holds(m):
                first[name] = label
    return [(name, first.get(name)) for name in families] + [
        ("coproduct-multiplicative", first_pair_failure())
    ]


def _nonconfluent_presentation() -> PresentedAlgebra:
    from cyhopf.io import load_json_file, parse_presentation

    path = Path(__file__).resolve().parent.parent / "data" / "presentation_nonconfluent.json"
    return parse_presentation(load_json_file(str(path)), degree_bound=4)[0]


def _q12_squared_control() -> PresentedAlgebra:
    datum = a1a1_znzn_datum(3)
    q12 = datum.chi[1](datum.g[0])
    rules = {(1, 0): (((0, 1), (q12 * q12).inverse()),)}
    return PresentedAlgebra(datum.group, datum.g, datum.chi, rules, 4)


def _sweep(algebra: PresentedAlgebra) -> smash.CheckReport:
    """The tail-e sweep over every normal word, whichever path would decide."""
    return smash._hopf_sweep(algebra, algebra.normal_words())


RULE_NOTE = "decided on generators and rules: holds in every degree"
SWEEP_NOTE = "group tails reduced to e by Gamma-equivariance"


@pytest.mark.parametrize(
    "build, path",
    [(_nonconfluent_presentation, "sweep"), (_q12_squared_control, "sweep"),
     (lambda: qa_algebra(3, 3), "rules"), (lambda: a2_algebra(3), "sweep"),
     # the self-overlap x1^5 of x1^3 -> 0 is over the bound, but resolves to 0 both ways
     (lambda: _one_generator({(0, 0, 0): ()}, chi=1, n=3), "rules")],
    ids=["nonconfluent-bound4", "q12-squared-z3z3-bound4", "qa-z3z3-bound3", "a2-z2z2-bound3",
         "x1^3-to-0-z3-bound4"],
)
def test_tail_reduced_sweep_matches_full_tail_oracle(build, path):
    algebra = build()
    oracle = _full_tail_hopf_sweep(algebra)
    report = verify_hopf_axioms(algebra)
    assert [(e.check, e.counterexample) for e in report.entries] == oracle
    assert [(e.check, e.counterexample) for e in _sweep(build()).entries] == oracle
    assert report.notes[-1] == {"rules": RULE_NOTE, "sweep": SWEEP_NOTE}[path]


def _triples(report) -> list:
    return [(e.check, e.status, e.counterexample) for e in report.entries]


def test_rule_path_agrees_with_sweep(seeded_family):
    """On confluent presentations the rule path decides, and the tail-e sweep
    agrees with it entry by entry: the C4 family, the two bundled confluent
    presentations and 40 random quantum-affine draws."""
    from cyhopf.io import load_json_file, parse_presentation

    data_dir = Path(__file__).resolve().parent.parent / "data"
    bundled = [parse_presentation(load_json_file(str(data_dir / name)))[0]
               for name in ("presentation_a2_z2z2.json", "presentation_a1a1_z3z3.json")]
    rng = random.Random(4040)
    draws = [random_a1t_datum(rng) for _ in range(40)]
    algebras = seeded_family[1] + bundled + [
        quantum_affine_presentation(d.group, d.g, d.chi, 4) for d in draws]
    for algebra in algebras:
        report = verify_hopf_axioms(algebra)
        assert report.notes[-1] == RULE_NOTE
        assert _triples(report) == _triples(_sweep(algebra))


def quantum_linear_space_twins(rng: random.Random) -> tuple[PresentedAlgebra, PresentedAlgebra]:
    """A quantum linear space and its corrupted twin.

    Gamma = Z_n^t, g_i = e_i and chi_i(g_j) = zeta_n^{c_ji}, with q_ii = zeta_n^{c_ii}
    not 1 and c_ij + c_ji = 0 mod n for i != j, so x_i x_j - q_ij x_j x_i is
    primitive.  Rules x_i^{N_i} -> 0, N_i the order of q_ii, and
    x_j x_i -> q_ij^{-1} x_i x_j for i < j.  The twin raises one N_i to N_i + 1:
    eps and S still vanish on x_i^{N_i + 1}, but Delta does not descend.
    """
    t = rng.randint(1, 3)
    n = rng.choice((2, 3, 4, 6)) if t < 3 else 2  # few normal words at bound 5
    group = AbelianGroup((n,) * t)
    c = [[0] * t for _ in range(t)]
    for i in range(t):
        c[i][i] = rng.randrange(1, n)
        for j in range(i + 1, t):
            c[i][j] = rng.randrange(n)
            c[j][i] = -c[i][j] % n
    degrees = tuple(group.generator(i) for i in range(t))
    actions = tuple(group.character([c[j][i] for j in range(t)]) for i in range(t))
    nilpotency = [n // math.gcd(n, c[i][i]) for i in range(t)]
    swaps = {(j, i): (((i, j), root_of_unity(-c[i][j], n)),)
             for i in range(t) for j in range(i + 1, t)}
    corrupted = rng.randrange(t)

    def build(exponents):
        powers = {(i,) * exponents[i]: () for i in range(t)}
        return PresentedAlgebra(group, degrees, actions, {**powers, **swaps}, 5)

    raised = [N + (i == corrupted) for i, N in enumerate(nilpotency)]
    return build(nilpotency), build(raised)


def test_rule_path_sees_delta_descent_on_quantum_linear_spaces():
    """Quantum linear spaces take the rule path; their twins with one
    nilpotency exponent raised, on which only Delta fails to descend, never
    do, and both paths' reports agree with the sweep entry by entry."""
    rng = random.Random(9090)
    draws = [quantum_linear_space_twins(rng) for _ in range(80)]
    on_rules = {"valid": 0, "corrupted": 0}
    for pair in draws:
        for kind, algebra in zip(on_rules, pair):
            report = verify_hopf_axioms(algebra)
            assert _triples(report) == _triples(_sweep(algebra))
            on_rules[kind] += report.notes[-1] == RULE_NOTE
    assert on_rules["valid"] >= 30
    assert on_rules["corrupted"] == 0


def test_rule_path_forms_no_pair_products(monkeypatch):
    """On the rule path no TensorElement is multiplied: comultiply(m1 * m2)
    is never compared with comultiply(m1) * comultiply(m2)."""
    from cyhopf.io import load_json_file, parse_presentation

    data_dir = Path(__file__).resolve().parent.parent / "data"
    algebras = [qa_algebra(3)] + [
        parse_presentation(load_json_file(str(data_dir / name)))[0]
        for name in ("presentation_a2_z2z2.json", "presentation_a1a1_z3z3.json")]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the rule path formed a pair product")

    monkeypatch.setattr(TensorElement, "__mul__", refuse)
    for algebra in algebras:
        report = verify_hopf_axioms(algebra)
        assert report.passed and report.notes[-1] == RULE_NOTE
        assert report.entries[-1].check == "coproduct-multiplicative"


def test_antipode_axioms_see_a_sign_flipped_antipode(monkeypatch):
    """With S(x_i) = +g_i^{-1} x_i, fold_with must still apply the (mutated)
    antipode: on both bundled confluent presentations the rule path fails,
    and the sweep reports both antipode axioms failing at x1#e.  The Delta
    check does not read S, so it still passes and only the antipode families
    catch it."""
    from cyhopf.io import load_json_file, parse_presentation

    data_dir = Path(__file__).resolve().parent.parent / "data"
    antipode_word = PresentedAlgebra._antipode_word

    def sign_flipped(self, word):
        terms = antipode_word(self, word)
        return tuple((w, g, -c) for w, g, c in terms) if len(word) == 1 else terms

    monkeypatch.setattr(PresentedAlgebra, "_antipode_word", sign_flipped)
    for name in ("presentation_a2_z2z2.json", "presentation_a1a1_z3z3.json"):
        algebra = parse_presentation(load_json_file(str(data_dir / name)))[0]
        report = verify_hopf_axioms(algebra)
        assert report.notes[-1] == SWEEP_NOTE
        entries = {e.check: (e.status, e.counterexample) for e in report.entries}
        assert entries["antipode-left"] == entries["antipode-right"] == ("fail", "x1#e")
        assert entries["coassociativity"] == entries["counit"] == ("pass", None)


def _one_generator(rules, chi=0, n=2, bound=4) -> PresentedAlgebra:
    group = AbelianGroup((n,))
    return PresentedAlgebra(group, (group.generator(0),), (group.character((chi,)),), rules, bound)


def _a2_rules(rules, bound) -> PresentedAlgebra:
    datum = a2_z2z2_datum()
    return PresentedAlgebra(datum.group, datum.g, datum.chi, rules, bound)


def _nonconfluent_rules_respected() -> PresentedAlgebra:
    """x2^2 -> -i x1^2 over Z4 with q = -1: the rule passes every rule-path
    check, but its overlap x2^3 diverges."""
    group = AbelianGroup((4,))
    g, chi = group.generator(0), group.character((2,))
    return PresentedAlgebra(group, (g, g), (chi, chi), {(1, 1): (((0, 0), -root_of_unity(1, 4)),)}, 6)


@pytest.mark.parametrize(
    "build, counterexamples",
    [
        (_q12_squared_control, [None, None, None, None, "x2#e , x1#e"]),
        # x1^2 -> 1 with q = 1: Delta and eps do not descend
        (lambda: _one_generator({(0, 0): (((), one(1)),)}), [None] * 4 + ["x1#e , x1#e"]),
        # x1^3 -> 0 with q = 1: only Delta does not descend, and no product of
        # two generators shows it
        (lambda: _one_generator({(0, 0, 0): ()}, bound=5), [None] * 4 + ["x1#e , x1^2#e"]),
        (lambda: _a2_rules({(1, 0, 0): (((0, 0, 1), one(1)),)}, 2), [None] * 5),
        (lambda: a2_algebra(3), [None] * 5),
        (_nonconfluent_presentation,
         ["x2*x1*x2*x1#e", None, "x1^2*x2^2#e", "x1^2*x2^2#e", "x2#e , x1^2#e"]),
        (_nonconfluent_rules_respected,
         ["x2*x1*x2*x1*x2#e", None, "x2*x1*x2*x1*x2#e", None, "x2#e , x2*x1*x2#e"]),
    ],
    ids=["q12-squared-control", "x1^2-to-1", "x1^3-to-0-q-one", "lhs-over-bound",
         "overlap-over-bound", "nonconfluent-file", "nonconfluent-rules-respected"],
)
def test_sweep_path_inputs_report_as_before(build, counterexamples):
    """Inputs the rule path cannot decide, or on which one of its checks
    fails, get the sweep's report, with its first counterexamples."""
    report = verify_hopf_axioms(build())
    assert report.to_json() == _sweep(build()).to_json()
    assert report.notes[-1] == SWEEP_NOTE
    assert [e.counterexample for e in report.entries] == counterexamples


# -- the graded squared-antipode identity: a per-word oracle ---------------------
#
# verify_double_antipode decides S^2(r) = (deg r)^{-1} . S_R^2(r) by construction.
# The helpers below compute both sides on every normal word with the engine's own
# maps, as a cross-check that fails if the antipode's tail rule or its scalars
# are wrong.


def homogeneous_degree(algebra: PresentedAlgebra, elem) -> GroupElement:
    assert all(g.is_identity() for _w, g in elem.terms), "element with a group tail"
    degrees = {algebra._degree_of(w) for w, _g in elem.terms}
    assert len(degrees) <= 1, "element is not Gamma-homogeneous"
    return degrees.pop() if degrees else algebra.group.identity()


def braided_antipode(algebra: PresentedAlgebra, elem) -> SmashElement:
    """Antipode of R on a Gamma-homogeneous element with trivial tails.

    For homogeneous r of degree d the smash antipode satisfies
    S(r) = (1 # d^{-1}) (S_R(r) # 1), so S_R(r) = (1 # d) S(r).
    """
    out = algebra.group_like(homogeneous_degree(algebra, elem)) * algebra.antipode(elem)
    assert all(g.is_identity() for _w, g in out.terms), "braided antipode left a group tail"
    return out


def act(algebra: PresentedAlgebra, g: GroupElement, elem) -> SmashElement:
    """Diagonal Gamma-action: scales x^w # h by chi_w(g)."""
    terms = {key: c * algebra._char_value(key[0], g) for key, c in elem.terms.items()}
    return SmashElement(algebra, terms)


def graded_double_antipode(algebra: PresentedAlgebra, elem) -> SmashElement:
    """(deg r)^{-1} acting on S_R^2(r), for r homogeneous with trivial tails."""
    srr = braided_antipode(algebra, braided_antipode(algebra, elem))
    return act(algebra, homogeneous_degree(algebra, elem).inverse(), srr)


def double_antipode_failure(algebra: PresentedAlgebra) -> str | None:
    """First normal monomial x^w # e on which S^2 and (deg r)^{-1} . S_R^2
    differ, or None."""
    e = algebra.group.identity()
    for w in algebra.normal_words():
        elem = algebra.monomial(w, e)
        if algebra.antipode(algebra.antipode(elem)) != graded_double_antipode(algebra, elem):
            return format_monomial(w, e)
    return None


def s2_generators(algebra: PresentedAlgebra) -> list[SmashElement]:
    """S^2(x_i) for each generator, as nakayama_automorphism computes it."""
    return [algebra.antipode(algebra.antipode(algebra.generator(i))) for i in range(algebra.t)]


def phi_smash_formula(algebra: PresentedAlgebra) -> DiagonalAutomorphism:
    """The squared smash antipode restricted to the braided factor, computed
    on generators; must come out diagonal with c_i = chi_i(g_i^{-1})."""
    scalars = []
    for i, image in enumerate(s2_generators(algebra)):
        c = smash._diagonal_coefficient(algebra, image, i)
        expected = algebra.actions[i](algebra.degrees[i].inverse())
        assert c == expected, f"squared antipode on x{i + 1} is {c}, expected {expected}"
        scalars.append(c)
    return DiagonalAutomorphism(algebra, tuple(scalars))


def apply_diagonal(auto: DiagonalAutomorphism, elem: SmashElement) -> SmashElement:
    """The automorphism x_i -> c_i x_i applied to a combination of monomials."""
    terms = {key: c * auto._word_scale(key[0]) for key, c in elem.terms.items()}
    return SmashElement(auto.algebra, terms)


def phi_graded_formula(algebra: PresentedAlgebra) -> DiagonalAutomorphism:
    """Nakayama-style automorphism of the braided factor via its grading:
    each generator is sent through S_R^2 and then acted on by its degree's
    inverse, which must agree with phi_smash_formula."""
    smash_version = phi_smash_formula(algebra)
    scalars = []
    for i in range(algebra.t):
        image = graded_double_antipode(algebra, algebra.generator(i))
        c = smash._diagonal_coefficient(algebra, image, i)
        assert c == smash_version.scalars[i], f"graded and smash formulas disagree on x{i + 1}"
        scalars.append(c)
    return DiagonalAutomorphism(algebra, tuple(scalars))


def random_homogeneous_presentation(rng: random.Random) -> PresentedAlgebra:
    """Up to three generators over a small group, with up to three rules whose
    right-hand sides are random combinations of the graded-lex smaller words
    of the same Gamma-degree and character; mostly neither confluent nor Hopf."""
    group = AbelianGroup(rng.choice([(2,), (3,), (4,), (5,), (6,), (2, 2), (3, 3), (2, 4)]))
    n = group.exponent

    def draw(make):
        return make(tuple(rng.randrange(k) for k in group.invariant_factors))

    t = rng.randint(1, 3)
    degrees = tuple(draw(group.element) for _ in range(t))
    actions = tuple(draw(group.character) for _ in range(t))
    words = [w for k in range(4) for w in itertools.product(range(t), repeat=k)]
    lhss = rng.sample([w for w in words if len(w) >= 2], rng.randint(1, min(3, t * t)))

    def signature(w):  # (Gamma-degree, character) of x^w
        return (math.prod((degrees[i] for i in w), start=group.identity()),
                math.prod((actions[i] for i in w), start=group.trivial_character()))

    rules = {}
    for lhs in lhss:
        smaller = [w for w in words if rewriting.graded_lex_key(w) < rewriting.graded_lex_key(lhs)
                   and signature(w) == signature(lhs)]
        rules[lhs] = tuple(
            (w, root_of_unity(rng.randrange(n), n) * rng.choice((1, -1, 2, Fraction(1, 2))))
            for w in smaller if rng.random() < 0.5)
    return PresentedAlgebra(group, degrees, actions, rules, rng.choice((3, 4)))


def descends(algebra: PresentedAlgebra, template) -> bool:
    """Whether the template of each rule lhs is the sum of c times the
    templates of its rhs words: the map vanishes on every lhs - rhs."""
    unit = one(algebra.order)
    for lhs, rhs in algebra.rules.items():
        image: dict = {}
        for w, c in ((lhs, unit), *((w, -c) for w, c in rhs)):
            for a, b, tc in template(w):
                rewriting._accumulate(image, (a, b), c * tc)
        if image:
            return False
    return True


def test_delta_descent_implies_counit_and_antipode_descent():
    """The rule path decides on Delta-descent alone; eps- and S-descent follow
    from it (see verify_hopf_axioms).  On every draw that meets the rule
    path's preconditions, _rules_respected is Delta-descent, and where Delta
    descends, the eps and S template checks, kept here as the oracle, pass."""
    rng = random.Random(2121)
    draws = [random_homogeneous_presentation(rng) for _ in range(400)]
    for _ in range(80):
        draws.extend(quantum_linear_space_twins(rng))
    met = delta = eps_or_s_fails = 0
    for algebra in draws:
        conf = algebra.confluence
        if (not conf.ok or conf.skipped_over_bound
                or max(map(len, algebra.rules), default=0) > algebra.degree_bound):
            continue
        met += 1
        has_delta = descends(algebra, algebra._delta_word)
        assert smash._rules_respected(algebra) is has_delta

        def counit(w, unit=one(algebra.order)):  # the counit's template
            return () if w else (((), (), unit),)

        has_eps_and_s = descends(algebra, counit) and descends(algebra, algebra._antipode_word)
        assert has_eps_and_s or not has_delta
        delta += has_delta
        eps_or_s_fails += not has_eps_and_s
    assert met >= 350 and delta >= 90 and eps_or_s_fails >= 90, (met, delta, eps_or_s_fails)


def test_double_antipode_identity_and_phi():
    for algebra, expected in (
        (a2_algebra(), (-one(2), -one(2))),
        (qa_algebra(3), (root_of_unity(2, 3), root_of_unity(1, 3))),
    ):
        assert verify_double_antipode(algebra).passed
        assert double_antipode_failure(algebra) is None
        phi_a = phi_smash_formula(algebra)
        phi_b = phi_graded_formula(algebra)
        assert phi_a.scalars == phi_b.scalars
        assert tuple(phi_a.scalars) == expected
        for i in range(algebra.t):
            closed = algebra.actions[i](algebra.degrees[i].inverse())
            assert phi_a.scalars[i] == closed


def test_phi_is_identity_for_trivial_coaction():
    group = AbelianGroup((3,))
    e = group.identity()
    chi = group.character((1,))
    # commutative polynomial algebra in two variables, trivial coaction
    algebra = PresentedAlgebra(
        group, (e, e), (chi, chi), {(1, 0): (((0, 1), one(1)),)}, 4
    )
    phi = phi_graded_formula(algebra)
    assert all(c.is_one() for c in phi.scalars)


def test_double_antipode_on_random_quantum_affine_data():
    rng = random.Random(31337)
    for _ in range(8):
        datum = random_a1t_datum(rng)
        algebra = quantum_affine_presentation(datum.group, datum.g, datum.chi, 3)
        assert verify_double_antipode(algebra).passed
        assert double_antipode_failure(algebra) is None


def test_double_antipode_oracle_holds_on_every_accepted_presentation(seeded_family):
    """The per-word identity holds on the C4/C5 family, the bundled
    presentations and 200 random homogeneous presentations, confluent or not,
    Hopf or not, as verify_double_antipode's construction argument says."""
    from cyhopf.io import load_json_file, parse_presentation

    data_dir = Path(__file__).resolve().parent.parent / "data"
    bundled = [parse_presentation(load_json_file(str(path)))[0]
               for path in sorted(data_dir.glob("presentation_*.json"))]
    rng = random.Random(8080)
    drawn = [random_homogeneous_presentation(rng) for _ in range(200)]
    for algebra in seeded_family[1] + bundled + drawn:
        assert double_antipode_failure(algebra) is None
        assert verify_double_antipode(algebra).passed
    # the drawn rules need not respect x_i -> chi_i(g_i^{-1}) x_i, so phi is
    # compared where it is an automorphism
    for algebra in seeded_family[1] + bundled:
        assert phi_graded_formula(algebra).scalars == phi_smash_formula(algebra).scalars
    assert sum(not a.confluence.ok for a in drawn) >= 20
    assert sum(not verify_hopf_axioms(a).passed for a in drawn[:20]) >= 10


def test_double_antipode_computes_no_products(monkeypatch):
    """verify_double_antipode reads the normal words and the confluence report
    only: with the antipode, the coproduct and monomial products disabled it
    still gives its report."""
    algebras = [_nonconfluent_presentation(), qa_algebra(3, 4)]

    def refuse(*_args, **_kwargs):
        raise AssertionError("verify_double_antipode computed a product")

    for name in ("antipode", "comultiply", "_mul_mono"):
        monkeypatch.setattr(PresentedAlgebra, name, refuse)
    for algebra in algebras:
        report = verify_double_antipode(algebra)
        assert report.to_json() == {
            "passed": True,
            "entries": [{"check": "double-antipode-graded-identity", "status": "pass"}],
            "notes": [*rewriting.confluence_notes(algebra), "degree bound 4",
                      "holds in every degree by Gamma-equivariance of S"],
        }


# -- winding and nakayama --------------------------------------------------------------


def test_winding_by_counit_is_identity():
    algebra = a2_algebra()
    eps = algebra.group.trivial_character()
    for w, g in normal_monomials(algebra):
        m = algebra.monomial(w, g)
        assert winding_endomorphism(algebra, eps, m) == m


def winding_oracle(algebra: PresentedAlgebra, xi, elem: SmashElement) -> SmashElement:
    """[xi](a) = sum xi(a_1) a_2 read off the whole tensor comultiply(a)."""
    out = {}
    for ((w1, g1), key2), c in algebra.comultiply(elem).terms.items():
        if not w1:
            out[key2] = out.get(key2, zero(algebra.order)) + c * xi(g1)
    return SmashElement(algebra, out)


def test_winding_matches_the_tensor_oracle(seeded_family):
    """winding_endomorphism, which reads the u = () terms of the Delta
    templates, equals the tensor-based oracle on every normal monomial up to
    degree 3 at every tail, on S^2 of the generators and on a random sum, for
    the bundled presentations and the 21 quantum-affine ones of C4."""
    from cyhopf.io import load_json_file, parse_presentation

    data_dir = Path(__file__).resolve().parent.parent / "data"
    bundled = [parse_presentation(load_json_file(str(data_dir / name)))[0]
               for name in ("presentation_a2_z2z2.json", "presentation_a1a1_z3z3.json",
                            "presentation_nonconfluent.json")]
    assert len(seeded_family[1]) == 21
    rng = random.Random(6060)
    for algebra in bundled + seeded_family[1]:
        chars = characters(algebra.group)
        elems = [algebra.monomial(w, g) for w, g in normal_monomials(algebra, 3)]
        total = algebra.zero()
        for m in rng.sample(elems, min(8, len(elems))):
            total = total + m.scale(rng.randint(-3, 3))
        for elem in elems + s2_generators(algebra) + [total]:
            xi = rng.choice(chars)
            assert winding_endomorphism(algebra, xi, elem) == winding_oracle(algebra, xi, elem)


def test_winding_values_and_composition():
    algebra = qa_algebra(3)
    group = algebra.group
    xi = group.character((1, 0))
    xi2 = group.character((0, 2))
    y = group.element((1, 2))
    # [xi](1 # g) = xi(g) g
    assert winding_endomorphism(algebra, xi, algebra.group_like(y)) == algebra.group_like(
        y
    ).scale(xi(y))
    # [xi](x_i) = xi(g_i) x_i
    for i in range(algebra.t):
        assert winding_endomorphism(algebra, xi, algebra.generator(i)) == algebra.generator(
            i
        ).scale(xi(algebra.degrees[i]))
    # composition multiplies characters
    for w, g in list(normal_monomials(algebra, 2))[:30]:
        m = algebra.monomial(w, g)
        twice = winding_endomorphism(algebra, xi, winding_endomorphism(algebra, xi2, m))
        assert twice == winding_endomorphism(algebra, xi * xi2, m)


def test_winding_is_algebra_endomorphism_sampled():
    rng = random.Random(17)
    algebra = qa_algebra(4)
    xi = algebra.group.character((1, 3))
    monos = [algebra.monomial(w, g) for w, g in normal_monomials(algebra, 2)]
    for _ in range(80):
        a, b = rng.choice(monos), rng.choice(monos)
        try:
            lhs = winding_endomorphism(algebra, xi, a * b)
        except DegreeBoundExceeded:
            continue
        assert lhs == winding_endomorphism(algebra, xi, a) * winding_endomorphism(
            algebra, xi, b
        )


def test_nakayama_with_trivial_xi_is_squared_antipode():
    algebra = a2_algebra()
    auto, report = nakayama_automorphism(algebra, algebra.group.trivial_character())
    assert report.passed
    assert tuple(auto.scalars) == (-one(2), -one(2))


def test_nakayama_closed_form_with_nontrivial_xi():
    algebra = qa_algebra(3)
    xi = algebra.group.character((2, 1))
    auto, report = nakayama_automorphism(algebra, xi)
    assert report.passed
    for i in range(algebra.t):
        expected = xi(algebra.degrees[i]) * algebra.actions[i](
            algebra.degrees[i].inverse()
        )
        assert auto.scalars[i] == expected


def test_diagonal_automorphism_consistency_check():
    # a rule that trades letters: x3^2 -> x1 x2; scalars must satisfy c3^2 = c1 c2
    group = AbelianGroup((4,))
    y = group.element((1,))
    eps = group.trivial_character()
    algebra = PresentedAlgebra(
        group,
        (y, y, y),
        (eps, eps, eps),
        {(2, 2): (((0, 1), one(1)),)},
        4,
    )
    with pytest.raises(InvalidPresentation):
        DiagonalAutomorphism(algebra, (one(4), one(4), root_of_unity(1, 4)))
    good = DiagonalAutomorphism(algebra, (one(4), one(4), -one(4)))
    assert apply_diagonal(good, algebra.generator(2)).terms
    # multiset-preserving rules accept any diagonal; scalars cancel on even words
    a2 = a2_algebra()
    auto = DiagonalAutomorphism(a2, (-one(2), -one(2)))
    x1x2 = a2.monomial((0, 1), a2.group.identity())
    assert apply_diagonal(auto, x1x2) == x1x2


# -- confluence -------------------------------------------------------------------------


def test_quantum_affine_rules_always_confluent():
    for n in (2, 3, 5):
        datum = a1a1_znzn_datum(n)
        for bound in (2, 4, 6):
            algebra = quantum_affine_presentation(datum.group, datum.g, datum.chi, bound)
            assert check_local_confluence(algebra).ok
    rng = random.Random(8)
    for _ in range(10):
        datum = random_a1t_datum(rng)
        algebra = quantum_affine_presentation(datum.group, datum.g, datum.chi, 5)
        assert algebra.confluence.ok


def test_a2_overlap_resolves():
    algebra = a2_algebra()
    report = algebra.confluence
    assert report.ok and report.checked == 1


def test_empty_rule_set_vacuously_confluent():
    group = AbelianGroup((2,))
    algebra = PresentedAlgebra(
        group, (group.generator(0),), (group.character((1,)),), {}, 4
    )
    assert algebra.confluence.ok and algebra.confluence.checked == 0


def test_divergent_overlap_detected_and_flagged():
    group = AbelianGroup((4,))
    y = group.element((1,))
    eps = group.trivial_character()
    algebra = PresentedAlgebra(
        group,
        (y, y),
        (eps, eps),
        {
            (1, 0, 0): (((0, 0, 1), one(1)),),
            (1, 1, 0): (((0, 1, 1), root_of_unity(1, 4)),),
        },
        4,
    )
    report = algebra.confluence
    assert not report.ok
    assert report.divergent[0].to_json()["word"] == "x2^2*x1^2"
    hopf = verify_hopf_axioms(algebra)
    assert any("NonConfluent at bound 4" in note for note in hopf.notes)


def test_pair_cost_budget_is_the_sum_over_checked_pairs(monkeypatch):
    """The budget bounds phi(N) times the sum of |Delta(m1)| * |Delta(m2)| over
    the pairs with |w1| + |w2| <= bound: that sum passes, one less is refused."""
    for make in (lambda: a2_algebra(5), lambda: qa_algebra(3, 4)):
        algebra = make()
        e = algebra.group.identity()
        sizes = [(len(w), len(algebra.comultiply(algebra.monomial(w, e)).terms))
                 for w in algebra.normal_words()]
        cost = euler_phi(algebra.order) * sum(s1 * s2 for d1, s1 in sizes for d2, s2 in sizes
                                              if d1 + d2 <= algebra.degree_bound)
        monkeypatch.setattr(smash, "PAIR_COST_BUDGET", cost)
        assert _sweep(make()).passed
        monkeypatch.setattr(smash, "PAIR_COST_BUDGET", cost - 1)
        with pytest.raises(InputError, match="pair check costs over"):
            _sweep(make())


def test_nonconfluent_presentation_pins_first_counterexamples():
    from cyhopf.io import load_json_file, parse_presentation

    path = Path(__file__).resolve().parent.parent / "data" / "presentation_nonconfluent.json"
    algebra, _xi = parse_presentation(load_json_file(str(path)), degree_bound=4)
    report = verify_hopf_axioms(algebra)
    assert [(e.check, e.counterexample) for e in report.entries] == [
        ("coassociativity", "x2*x1*x2*x1#e"),
        ("counit", None),
        ("antipode-left", "x1^2*x2^2#e"),
        ("antipode-right", "x1^2*x2^2#e"),
        ("coproduct-multiplicative", "x2#e , x1^2#e"),
    ]


def test_rendering_of_monomials():
    algebra = a2_algebra()
    y1 = algebra.group.element((1, 0))
    assert format_monomial((0, 0, 1), y1) == "x1^2*x2#y1"
    elem = algebra.monomial((0,), y1, -one(2))
    assert str(elem) == "(-1)*x1#y1"
