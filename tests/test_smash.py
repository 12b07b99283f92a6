import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def all_redexes(system: rewriting.RewritingSystem, word) -> list:
    """(position, lhs) of every rule occurrence in word, by position, then by
    graded-lex order of lhs."""
    found = [(pos, lhs) for lhs in system.rules for pos in range(len(word) - len(lhs) + 1)
             if word[pos:pos + len(lhs)] == lhs]
    return sorted(found, key=lambda r: (r[0], rewriting.graded_lex_key(r[1])))


def normalize_with_strategy(algebra: rewriting.RewritingSystem, word, choose):
    """Uncached rewriting with a caller-chosen redex strategy: choose receives
    the nonempty list of (position, lhs) redexes of the current word and
    returns one of them."""
    acc: dict = {}
    stack = [(tuple(word), one(algebra.order))]
    while stack:
        w, c = stack.pop()
        redexes = all_redexes(algebra, w)
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


def _rule_sets():
    """Rewriting systems in at most 3 generators over order 1 with random
    rules of length at most 3: each lhs goes to 0 or to c times one graded-lex
    smaller word, so many (about one in five) are not confluent."""
    def system(t, draws, bound):
        rules = {}
        for lhs, rhs, c in draws:
            lhs = tuple(i % t for i in lhs)
            rhs = tuple(i % t for i in rhs)
            if rewriting.graded_lex_key(rhs) < rewriting.graded_lex_key(lhs):
                rules[lhs] = ((rhs, CycloNumber.from_rational(c)),)
            else:
                rules[lhs] = ()
        return rewriting.RewritingSystem(t, 1, rules, bound)
    letters = st.integers(min_value=0, max_value=2)
    draws = st.lists(st.tuples(st.lists(letters, min_size=1, max_size=3).map(tuple),
                               st.lists(letters, max_size=3).map(tuple),
                               st.integers(min_value=-2, max_value=2).filter(bool)),
                      min_size=1, max_size=6)
    return st.builds(system, st.integers(min_value=1, max_value=3), draws,
                     st.integers(min_value=1, max_value=5))


@given(_rule_sets(), st.lists(st.integers(min_value=0, max_value=2), max_size=6))
def test_the_first_redex_is_the_least_by_position_then_graded_lex(system, letters):
    """_first_redex returns the least (position, lhs) by position, then by
    graded-lex order of lhs, or None on a normal word; and normal forms rewrite
    that redex, which the NonConfluent reports depend on."""
    word = tuple(i % system.t for i in letters)
    redexes = all_redexes(system, word)
    assert system._first_redex(word) == (redexes[0] if redexes else None)
    assert system.is_normal(word) == (not redexes)
    assert system._normal_combination(word) == normalize_with_strategy(
        system, word, lambda found: found[0])


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
                   algebra.comultiply(a * b), tensor_product(algebra, da, db),
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


def test_the_arity_two_methods_refuse_the_arity_three_tensor_of_a_coproduct_on_a_leg():
    """counit_on_leg and fold_with take arity-2 tensors only: the arity-3
    tensor coproduct_on_leg builds is an internal error for each, not folded
    silently onto one leg."""
    algebra = qa_algebra(3)
    delta = algebra.comultiply(algebra.generator(0))
    triple = delta.coproduct_on_leg(0)
    assert triple.arity == 3
    for leg in (0, 1):
        with pytest.raises(InternalError, match="arity-2"):
            triple.counit_on_leg(leg)
        with pytest.raises(InternalError, match="arity-2"):
            triple.fold_with(leg)


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


def tensor_product(algebra: PresentedAlgebra, s: TensorElement, t: TensorElement) -> TensorElement:
    """The legwise product (a (x) b)(a' (x) b') = aa' (x) bb' of two arity-2
    tensors, from the engine's product on each leg."""
    out: dict = {}
    for (a1, b1), c1 in s.terms.items():
        for (a2, b2), c2 in t.terms.items():
            left = algebra.monomial(*a1) * algebra.monomial(*a2)
            right = algebra.monomial(*b1) * algebra.monomial(*b2)
            for ka, ca in left.terms.items():
                for kb, cb in right.terms.items():
                    rewriting._accumulate(out, (ka, kb), c1 * c2 * ca * cb)
    return TensorElement(algebra, out, 2)


def _full_tail_hopf_sweep(algebra: PresentedAlgebra, tails=None) -> list[tuple[str, str | None]]:
    """First counterexample of each Hopf family over every normal monomial
    x^w # g, g in tails (default: every group element), and over every pair of
    them up to the bound, the pairs with 1#e included.

    A test-only oracle for verify_hopf_axioms, which checks no pairs, and for
    its reduction to tail e: it uses nothing of the engine but comultiply, *,
    antipode and counit.
    """
    alg = algebra
    tails = list(alg.group.elements()) if tails is None else tails
    monos = [(w, format_monomial(w, g), alg.monomial(w, g))
             for w in alg.normal_words() for g in tails]

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
                product = tensor_product(alg, alg.comultiply(m1), alg.comultiply(m2))
                if alg.comultiply(m1 * m2) != product:
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


def _at_bound(algebra: PresentedAlgebra, bound: int) -> PresentedAlgebra:
    """The same presentation with the library degree bound set to bound."""
    return PresentedAlgebra(algebra.group, algebra.degrees, algebra.actions, algebra.rules, bound)


def _bundled_presentation(name: str, bound=4) -> PresentedAlgebra:
    from cyhopf.io import load_json_file, parse_presentation

    path = Path(__file__).resolve().parent.parent / "data" / f"presentation_{name}.json"
    return _at_bound(parse_presentation(load_json_file(str(path)))[0], bound)


def _nonconfluent_presentation(bound=4) -> PresentedAlgebra:
    return _bundled_presentation("nonconfluent", bound)


def _q12_squared_control() -> PresentedAlgebra:
    datum = a1a1_znzn_datum(3)
    q12 = datum.chi[1](datum.g[0])
    rules = {(1, 0): (((0, 1), (q12 * q12).inverse()),)}
    return PresentedAlgebra(datum.group, datum.g, datum.chi, rules, 4)


RULE_NOTE = "decided on generators and rules: holds in every degree"
FAIL_NOTE = "decided on generators and rules: fails"
FAMILIES = ["coassociativity", "counit", "antipode-left", "antipode-right",
            "coproduct-multiplicative"]


def _triples(report) -> list:
    return [(e.check, e.status, e.counterexample) for e in report.entries]


def _report_triples(oracle) -> list:
    return [(check, "fail" if c else "pass", c) for check, c in oracle]


def _tail_e_oracle(algebra: PresentedAlgebra) -> list[tuple[str, str | None]]:
    """The all-pairs oracle at tail e, at the algebra's bound, or at 2 max|lhs|
    when a rule is longer than the bound, so that its pairs reach every rule."""
    longest = max(map(len, algebra.rules), default=0)
    if longest > algebra.degree_bound:
        algebra = PresentedAlgebra(algebra.group, algebra.degrees, algebra.actions,
                                   algebra.rules, 2 * longest)
    return _full_tail_hopf_sweep(algebra, [algebra._e])


def _agrees_with_oracle(report, oracle) -> bool:
    """The same verdict as the oracle's, and the same entries where both pass."""
    fails = any(c for _check, c in oracle)
    return report.passed is not fails and (fails or _triples(report) == _report_triples(oracle))


@pytest.mark.parametrize(
    "build",
    [_nonconfluent_presentation, _q12_squared_control, lambda: qa_algebra(3, 3),
     lambda: a2_algebra(3),
     # the self-overlap x1^5 of x1^3 -> 0 is over the bound, but resolves to 0 both ways
     lambda: _one_generator({(0, 0, 0): ()}, chi=1, n=3)],
    ids=["nonconfluent-bound4", "q12-squared-z3z3-bound4", "qa-z3z3-bound3", "a2-z2z2-bound3",
         "x1^3-to-0-z3-bound4"],
)
def test_tail_reduced_sweep_matches_full_tail_oracle(build):
    """The all-pairs oracle at tail e reports as over every tail, the reduction
    verify_hopf_axioms makes by Gamma-equivariance, confluent or not; on
    confluent rules verify_hopf_axioms agrees with it, and the non-confluent
    file is undecided."""
    algebra = build()
    oracle = _full_tail_hopf_sweep(algebra)
    assert _full_tail_hopf_sweep(algebra, [algebra._e]) == oracle
    report = verify_hopf_axioms(algebra)
    if algebra.confluence.ok:
        assert _agrees_with_oracle(report, oracle)
        assert report.notes[-1] == (RULE_NOTE if report.passed else FAIL_NOTE)
    else:
        assert {e.status for e in report.entries} == {"undecided"}


def test_rule_path_agrees_with_sweep(seeded_family):
    """On confluent presentations the rule path decides, and the all-pairs
    oracle at tail e agrees with it entry by entry: the C4 family, the two
    bundled confluent presentations and 40 random quantum-affine draws."""
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
        assert _agrees_with_oracle(report, _tail_e_oracle(algebra))


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
    """Quantum linear spaces pass on the rule path; their twins with one
    nilpotency exponent raised, on which only Delta fails to descend, fail
    coproduct-multiplicative there, at the raised rule.  The all-pairs oracle
    at tail e agrees with both."""
    rng = random.Random(9090)
    for valid, twin in (quantum_linear_space_twins(rng) for _ in range(80)):
        assert verify_hopf_axioms(valid).notes[-1] == RULE_NOTE
        report = verify_hopf_axioms(twin)
        ((raised,),) = [set(twin.rules) - set(valid.rules)]
        assert report.notes[-1] == FAIL_NOTE
        assert [(e.check, e.status) for e in report.entries if e.status != "pass"] == [
            ("coproduct-multiplicative", "fail")]
        assert report.entries[-1].counterexample.startswith(f"rule {format_word(raised)}, ")
        for algebra in (valid, twin):
            assert _agrees_with_oracle(verify_hopf_axioms(algebra), _tail_e_oracle(algebra))


def test_antipode_axioms_see_a_sign_flipped_antipode(monkeypatch):
    """With S(x_i) = +g_i^{-1} x_i, fold_with must still apply the (mutated)
    antipode: on both bundled confluent presentations both antipode axioms
    fail at x1#e.  The Delta check does not read S, so it still passes and
    only the antipode families catch it."""
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
        assert report.notes[-1] == FAIL_NOTE
        entries = {e.check: (e.status, e.counterexample) for e in report.entries}
        assert entries["antipode-left"] == entries["antipode-right"] == ("fail", "x1#e")
        assert entries["coassociativity"] == entries["counit"] == ("pass", None)
        assert entries["coproduct-multiplicative"] == ("pass", None)


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


UNDECIDED = [("undecided", None)] * 5


@pytest.mark.parametrize(
    "build, entries",
    [
        (_q12_squared_control,
         [("pass", None)] * 4 + [("fail", "rule x2*x1, leading term (-z3 + 1)*x2#y1 (x) x1#e")]),
        # x1^2 -> 1 with q = 1: Delta and eps do not descend
        (lambda: _one_generator({(0, 0): (((), one(1)),)}),
         [("pass", None)] * 4 + [("fail", "rule x1^2, leading term (2)*x1#y1 (x) x1#e")]),
        # x1^3 -> 0 with q = 1: only Delta does not descend
        (lambda: _one_generator({(0, 0, 0): ()}, bound=5),
         [("pass", None)] * 4 + [("fail", "rule x1^3, leading term (3)*x1^2#y1 (x) x1#e")]),
        (lambda: _a2_rules({(1, 0, 0): (((0, 0, 1), one(1)),)}, 2), [("pass", None)] * 5),
        (lambda: a2_algebra(3), [("pass", None)] * 5),
        (_nonconfluent_presentation, UNDECIDED),
        (_nonconfluent_rules_respected, UNDECIDED),
    ],
    ids=["q12-squared-control", "x1^2-to-1", "x1^3-to-0-q-one", "lhs-over-bound",
         "overlap-over-bound", "nonconfluent-file", "nonconfluent-rules-respected"],
)
def test_sweep_path_inputs_report_as_before(build, entries):
    """Inputs the library's sweep used to decide keep their verdict: the
    confluent ones, with a rule left side or an overlap over the bound or a
    rule through which Delta does not descend, are decided on rules, and a
    failing one names that rule and the leading term of its Delta image; the
    non-confluent ones, which failed, are undecided and do not pass."""
    report = verify_hopf_axioms(build())
    assert [(e.status, e.counterexample) for e in report.entries] == entries
    assert report.notes[-1].startswith(
        {"pass": RULE_NOTE, "fail": FAIL_NOTE, "undecided": "undecided: overlap "}[entries[-1][0]])


def test_a_rule_over_the_bound_is_decided_by_delta_descent():
    """x1^5 -> 0 over Z3 with chi(g) = zeta_3 at bound 2: Delta does not
    descend through x1^5, whose every normal word and pair up to the bound
    hold, so coproduct-multiplicative fails there, and the all-pairs oracle
    at bound 10 sees it too."""
    algebra = _one_generator({(0,) * 5: ()}, chi=1, n=3, bound=2)
    report = verify_hopf_axioms(algebra)
    assert not any(c for _check, c in _full_tail_hopf_sweep(algebra, [algebra._e]))
    assert report.notes[-1] == FAIL_NOTE
    assert [(e.check, e.status) for e in report.entries if e.status != "pass"] == [
        ("coproduct-multiplicative", "fail")]
    assert report.entries[-1].counterexample == "rule x1^5, leading term (z3 + 1)*x1^4#y1 (x) x1#e"
    assert _agrees_with_oracle(report, _tail_e_oracle(algebra))


def test_every_overlap_is_checked_at_its_own_length():
    """The non-confluent file's overlap x2^2*x1^2 has length 4: at bound 3 it is
    checked, does not resolve, and every Hopf family is undecided.  A2 at
    bound 3, whose overlap x2^2*x1^2 resolves, is decided on rules."""
    algebra = _nonconfluent_presentation(bound=3)
    assert not algebra.confluence.ok and algebra.confluence.checked == 1
    report = verify_hopf_axioms(algebra)
    assert [(e.check, e.status, e.counterexample) for e in report.entries] == [
        (name, "undecided", None) for name in FAMILIES]
    assert not report.passed
    assert report.notes[0].startswith("NonConfluent: 1 unresolved overlap(s)")
    assert report.notes[-1].startswith("undecided: overlap x2^2*x1^2 does not resolve")
    a2 = a2_algebra(3)
    assert a2.confluence.ok and a2.confluence.checked == 1
    report = verify_hopf_axioms(a2)
    assert report.passed and report.notes[-1] == RULE_NOTE


def _corrupted_quantum_affine(rng: random.Random) -> PresentedAlgebra:
    """A quantum-affine presentation of rank >= 2 at bound 4 with one swap
    coefficient squared."""
    d = random_a1t_datum(rng, t=rng.choice((2, 3)))
    rules = dict(quantum_affine_presentation(d.group, d.g, d.chi, 4).rules)
    lhs = rng.choice(sorted(rules))
    ((word, c),) = rules[lhs]
    rules[lhs] = ((word, c * c),)
    return PresentedAlgebra(d.group, d.g, d.chi, rules, 4)


def test_the_sweep_reports_as_the_all_pairs_oracle_at_tail_e():
    """verify_hopf_axioms, which forms no pairs, has the verdict of the
    all-pairs oracle at tail e, and its entries where both pass, on the inputs
    the library's sweep used to decide: the q12^2 control, A2 at bound 3 and
    quantum-affine draws with one swap coefficient squared.  The non-confluent
    file, which the oracle sees fail, is undecided."""
    rng = random.Random(5151)
    algebras = [_q12_squared_control(), a2_algebra(3)]
    algebras += [_corrupted_quantum_affine(rng) for _ in range(28)]
    failing = 0
    for algebra in algebras:
        oracle = _tail_e_oracle(algebra)
        assert _agrees_with_oracle(verify_hopf_axioms(algebra), oracle)
        failing += any(c for _check, c in oracle)
    assert (len(algebras), failing) == (30, 19)
    algebra = _nonconfluent_presentation()
    assert any(c for _check, c in _tail_e_oracle(algebra))
    assert {e.status for e in verify_hopf_axioms(algebra).entries} == {"undecided"}


def test_no_verdict_depends_on_the_library_degree_bound():
    """No verb reads the degree bound: verify_hopf_axioms, verify_double_antipode,
    nakayama_automorphism (report and scalars) and the confluence report are
    the same at library bounds 1, 2, 4 and 8, on the bundled presentations, the
    q12^2 control, quantum-affine draws and the twin pairs."""
    rng = random.Random(3232)
    draws = [random_a1t_datum(rng) for _ in range(20)]
    algebras = [_bundled_presentation(name) for name in ("a1a1_z3z3", "a2_z2z2", "nonconfluent")]
    algebras += [_q12_squared_control()]
    algebras += [quantum_affine_presentation(d.group, d.g, d.chi) for d in draws]
    algebras += _galois_inputs("twins")
    failing = 0
    for algebra in algebras:
        xi = math.prod(algebra.actions, start=algebra.group.trivial_character())
        reports = []
        for bound in (1, 2, 4, 8):
            at_bound = _at_bound(algebra, bound)
            auto, nakayama = nakayama_automorphism(at_bound, xi)
            reports.append([verify_hopf_axioms(at_bound).to_json(),
                            verify_double_antipode(at_bound).to_json(), nakayama.to_json(),
                            [c.to_json() for c in auto.scalars], at_bound.confluence.to_json()])
        assert reports[1:] == reports[:-1]
        failing += not reports[0][0]["passed"]
    assert (len(algebras), failing) == (184, 82)


def galois_conjugate(algebra: PresentedAlgebra, u: int) -> PresentedAlgebra:
    """The presentation with zeta_N -> zeta_N^u, gcd(u, N) = 1, applied to its
    action characters and its rule coefficients."""
    n, group = algebra.order, algebra.group

    def sigma(c: CycloNumber) -> CycloNumber:
        return sum((q * root_of_unity(u * k, n) for k, q in enumerate(c.coeffs)), zero(n))

    actions = tuple(group.character([u * a for a in chi.exp]) for chi in algebra.actions)
    rules = {lhs: tuple((w, sigma(c)) for w, c in rhs) for lhs, rhs in algebra.rules.items()}
    return PresentedAlgebra(group, algebra.degrees, actions, rules, algebra.degree_bound)


def _galois_inputs(name: str) -> list[PresentedAlgebra]:
    if name == "twins":
        rng = random.Random(9090)
        return [a for _ in range(80) for a in quantum_linear_space_twins(rng)]
    return [{"q12-squared-control": _q12_squared_control,
             "nonconfluent-file": _nonconfluent_presentation}[name]()]


@pytest.mark.parametrize("name", ["twins", "q12-squared-control", "nonconfluent-file"])
def test_galois_conjugation_keeps_every_verify_hopf_status(name):
    """zeta_N -> zeta_N^u on the characters and the rule coefficients maps the
    presented algebra to a Galois conjugate, so every verify-hopf status stays,
    and a failing rule is named with the same left side and leading monomials."""
    conjugated = 0
    for algebra in _galois_inputs(name):
        report = verify_hopf_axioms(algebra)
        for u in range(2, algebra.order):
            if math.gcd(u, algebra.order) != 1:
                continue
            image = verify_hopf_axioms(galois_conjugate(algebra, u))
            assert [(e.check, e.status) for e in image.entries] == [
                (e.check, e.status) for e in report.entries]
            for mine, theirs in zip(report.entries, image.entries):
                if mine.counterexample:
                    rule, term = mine.counterexample.split(", leading term ")
                    assert theirs.counterexample.startswith(f"{rule}, leading term ")
                    # the coefficient, "(c)*" when it is not 1, is conjugated; the monomials stay
                    assert (theirs.counterexample.partition(")*")[2] or theirs.counterexample
                            ).endswith(term.partition(")*")[2] or term)
            conjugated += 1
    assert conjugated >= (40 if name == "twins" else 1)


def _fresh(c: CycloNumber) -> CycloNumber:
    """A new CycloNumber equal to c, not the object c is."""
    out = CycloNumber(c.order, c.coeffs)
    assert out == c and out is not c
    return out


@pytest.mark.parametrize(
    "build", [lambda: qa_algebra(3), _q12_squared_control, lambda: a2_algebra(3)],
    ids=["qa-z3z3-rules", "q12-squared-sweep", "a2-z2z2-sweep"])
def test_a_unit_that_is_not_the_interned_one_is_multiplied_as_any_scalar(build):
    """The engine skips a product by the interned unit, tested with `is`; a
    scalar equal to a root of unity, 1 included, that is not the interned
    object is multiplied.  Rule coefficients, monomial coefficients and term
    coefficients given as new CycloNumbers give the reports and the term
    dicts of the canonical objects."""
    canonical = build()
    n, e = canonical.order, canonical._e
    rules = {lhs: tuple((w, _fresh(c)) for w, c in rhs) for lhs, rhs in canonical.rules.items()}
    fresh = PresentedAlgebra(canonical.group, canonical.degrees, canonical.actions, rules,
                             canonical.degree_bound)
    assert all(c is not canonical.rules[lhs][0][1] for lhs, ((_w, c),) in fresh.rules.items())
    xi = canonical.actions[0] * canonical.actions[-1]
    reports = []
    for algebra in (canonical, fresh):
        auto, nakayama = nakayama_automorphism(algebra, xi)
        reports.append([verify_hopf_axioms(algebra).to_json(),
                        verify_double_antipode(algebra).to_json(), nakayama.to_json(),
                        [str(c) for c in auto.scalars]])
    assert reports[0] == reports[1]

    def maps(algebra, elem, other):
        delta = algebra.comultiply(elem)
        return [elem.terms, (elem * other).terms, (other * elem).terms,
                algebra.antipode(elem).terms, delta.terms,
                delta.fold_with(0).terms, delta.fold_with(1).terms,
                winding_endomorphism(algebra, xi, elem).terms]

    for k in sorted({0, 1, n - 1}):
        root = root_of_unity(k, n)
        for w, g in normal_monomials(canonical, 2):
            expected = maps(canonical, canonical.monomial(w, g, coeff=root), canonical.generator(0))
            built = fresh.monomial(w, g, coeff=_fresh(root))
            assert maps(fresh, built, fresh.generator(0)) == expected
            given = SmashElement(fresh, {(w, g): _fresh(root)})
            assert maps(fresh, given, SmashElement(fresh, {((0,), e): _fresh(one(n))})) == expected


def test_maps_of_zero_need_no_unit_on_an_order_over_the_power_table_budget():
    """The unit of Q(zeta_10001) has no power table to come from; the maps read
    it only once there is a term to multiply, so on zero they return zero."""
    group = AbelianGroup((10001,))
    algebra = PresentedAlgebra(group, (group.element((1,)),), (group.character((1,)),))
    z = algebra.zero()
    delta = algebra.comultiply(z)
    results = [z * z, algebra.antipode(z), delta.fold_with(0), delta.fold_with(1),
               delta.coproduct_on_leg(1), z.scale(zero(10001)),
               winding_endomorphism(algebra, group.character((1,)), z)]
    assert [r.terms for r in results] == [{}] * len(results)
    assert "_one" not in vars(algebra)
    with pytest.raises(InputError, match="cyclotomic order 10001 needs a power table"):
        algebra.one_element()


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
    """verify_hopf_axioms decides on Delta-descent alone; eps- and S-descent
    follow from it.  On every confluent draw, _descent_failure is None exactly
    when Delta descends, and where it does, the eps and S template checks, kept
    here as the oracle, pass."""
    rng = random.Random(2121)
    draws = [random_homogeneous_presentation(rng) for _ in range(400)]
    for _ in range(80):
        draws.extend(quantum_linear_space_twins(rng))
    met = delta = eps_or_s_fails = 0
    for algebra in draws:
        if not algebra.confluence.ok:
            continue
        met += 1
        has_delta = descends(algebra, algebra._delta_word)
        assert (smash._descent_failure(algebra) is None) is has_delta

        def counit(w, unit=one(algebra.order)):  # the counit's template
            return () if w else (((), (), unit),)

        # the S templates are products, which the bound limits: build them at the rules' length
        wide = PresentedAlgebra(algebra.group, algebra.degrees, algebra.actions, algebra.rules,
                                max([algebra.degree_bound, *map(len, algebra.rules)]))
        has_eps_and_s = descends(algebra, counit) and descends(wide, wide._antipode_word)
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
    """verify_double_antipode reads the confluence report only: with the
    antipode, the coproduct, monomial products and the normal-word list
    disabled it still gives its report."""
    algebras = [_nonconfluent_presentation(), qa_algebra(3, 4)]

    def refuse(*_args, **_kwargs):
        raise AssertionError("verify_double_antipode computed a product or listed words")

    for name in ("antipode", "comultiply", "_mul_mono", "normal_words"):
        monkeypatch.setattr(PresentedAlgebra, name, refuse)
    for algebra in algebras:
        report = verify_double_antipode(algebra)
        assert report.to_json() == {
            "passed": True,
            "entries": [{"check": "double-antipode-graded-identity", "status": "pass"}],
            "notes": [*rewriting.confluence_notes(algebra),
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
    assert any(note.startswith("NonConfluent: ") for note in hopf.notes)


def test_the_confluence_check_resolves_each_overlap_within_the_rewrite_budget(monkeypatch):
    """Each overlap is resolved at its own length, one unit per word rewritten
    and phi(N) per term product: A2's overlap x2^2*x1^2 costs 8 units over Z2,
    the non-confluent file's 12 over Z4.  That cost passes, one less is
    refused with an InputError, whatever the degree bound."""
    for make, cost in ((a2_algebra, 8), (_nonconfluent_presentation, 12)):
        for bound in (1, 4):
            monkeypatch.setattr(rewriting, "REWRITE_BUDGET", cost)
            assert make(bound).confluence.checked == 1
            monkeypatch.setattr(rewriting, "REWRITE_BUDGET", cost - 1)
            with pytest.raises(InputError, match="resolving the rule overlaps costs over"):
                make(bound)


def test_the_delta_check_budget_is_the_sum_over_the_templates_it_builds(monkeypatch):
    """PAIR_COST_BUDGET bounds phi(N) times twice the terms of the Delta
    template of w[:-1], summed over the prefixes w of the rule words: that sum
    passes, one less is refused with an InputError, where a sweep used to
    run.  x1^5 -> 0 over Z3 is charged at bound 2 too."""
    builds = [lambda: a2_algebra(5), _q12_squared_control,
              lambda: _one_generator({(0,) * 5: ()}, chi=1, n=3, bound=2)]
    for make in builds:
        algebra = make()
        words = {w for lhs, rhs in algebra.rules.items() for w in (lhs, *(rw for rw, _c in rhs))}
        prefixes = {w[:k] for w in words for k in range(1, len(w) + 1)}
        cost = euler_phi(algebra.order) * sum(2 * len(algebra._delta_word(p[:-1])) for p in prefixes)
        monkeypatch.setattr(smash, "PAIR_COST_BUDGET", cost)
        verify_hopf_axioms(make())
        monkeypatch.setattr(smash, "PAIR_COST_BUDGET", cost - 1)
        with pytest.raises(InputError, match="the Delta check costs over"):
            verify_hopf_axioms(make())


def test_nonconfluent_presentation_pins_first_counterexamples():
    """The non-confluent file has no counterexample: every family is undecided,
    and the last note names its first overlap that does not resolve."""
    report = verify_hopf_axioms(_nonconfluent_presentation())
    assert [(e.check, e.status, e.counterexample) for e in report.entries] == [
        (name, "undecided", None) for name in FAMILIES]
    assert report.notes[-1] == ("undecided: overlap x2^2*x1^2 does not resolve, "
                                "so normal words need not be a basis")


def test_rendering_of_monomials():
    algebra = a2_algebra()
    y1 = algebra.group.element((1, 0))
    assert format_monomial((0, 0, 1), y1) == "x1^2*x2#y1"
    elem = algebra.monomial((0,), y1, -one(2))
    assert str(elem) == "(-1)*x1#y1"
