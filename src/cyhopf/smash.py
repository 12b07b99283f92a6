"""Exact engine for smash products R # k[Gamma].

R is presented by generators x_1..x_t, each carrying a grading degree
g_i in Gamma (coaction) and an action character chi_i (so g(x_i) =
chi_i(g) x_i), together with a rewriting system over words in the x_i
(PresentedAlgebra is a rewriting.RewritingSystem).  Rules must strictly decrease
the graded-lex order with x_1 < ... < x_t, be Gamma-homogeneous, and be
chi-equivariant; local confluence is checked (not assumed) on every overlap,
and a non-confluent system is accepted but flagged on every downstream report.

Elements of the smash product (SmashElement) and of its tensor powers
(TensorElement) are exact linear combinations of PBW normal monomials x^w * g,
sharing one implementation of their linear operations.  Monomials are built
only by PresentedAlgebra.monomial and multiplied only in _products, which
moves each left tail past the right word by the smash relation
g x_i = chi_i(g) x_i g: the product of elements, the antipode templates and
the antipode axioms' S(a) b and a S(b) all go through it.  Every chi-value,
there and in the Hopf templates, comes from _char_value, which keeps one row
of exponents of chi_i(g) per group element.  Scalars enter the session field
Q(zeta_N) only through PresentedAlgebra.scalar; a product of scalars with 1
returns the other operand (CycloNumber.__mul__).
Each algebra keeps the constants its maps read on every call, once: the group
identity e (_e), taken at construction and tested for with `is`, since group
elements are interned, so that the maps form no group product with e; the
unit of Q(zeta_N) (_one, from the rewriting layer); and the N roots zeta_N^k
(_roots, the order's one tuple, cyclotomic.roots_of_unity), so that nothing an
algebra builds grows with N.  The maps read _one only once there is a term to
multiply, so on an empty input they return 0 without it.
The unit and the roots are resolved on first use, not at construction: an N
whose power table is over budget is then refused only by the structure maps
and the checks built on them, and building an algebra, checking its
confluence and verify_double_antipode still succeed on a rule-free
presentation over such an N.  The Hopf structure is defined on generators --
Delta(x_i) = x_i (x) 1 + g_i (x) x_i,  Delta(g) = g (x) g,
S(x_i) = -g_i^{-1} x_i,  S(g) = g^{-1} -- and extended as an algebra map
(anti-algebra map for S) through per-word templates cached on the algebra.
The Hopf-axiom check decides a confluent presentation on its generators and
rules, by Delta-descent of the rules, and reports a non-confluent one as
undecided (see verify_hopf_axioms).  The graded squared-antipode identity holds
by construction and is decided without a sweep (see verify_double_antipode).
PAIR_COST_BUDGET refuses oversized work before it starts, as the rewriting
layer's limits do; it binds the Delta check.  No map reads the degree bound:
products and monomials of any degree are formed, and the bound is only the
default depth to which RewritingSystem.normal_words lists words.
"""

from __future__ import annotations

from functools import cached_property
from math import prod

from .cyclotomic import CycloNumber, euler_phi, roots_of_unity, zero
from .errors import (
    GroupMismatch,
    IndexOutOfRange,
    InputError,
    InternalError,
    InvalidPresentation,
    Record,
)
from .groups import AbelianGroup, Character, GroupElement
from .rewriting import (RewritingSystem, Word, _accumulate, confluence_notes, format_word,
                        graded_lex_key)
from .rewriting import check_local_confluence  # noqa: F401  (re-exported for the benchmark tracer)

DEFAULT_DEGREE_BOUND = 4
# Limit on the terms of the Delta templates the Delta check builds, each times
# phi(N), the rational parts of a coefficient (13-50 us a unit for phi(N) up to
# 100 on a 2-core host).  The largest check any test input, bundled file or
# benchmark input runs costs 92400 (x1^11 -> 0 over Z_781); a bundled file's, 44.
PAIR_COST_BUDGET = 100_000


def format_monomial(word: Word, g: GroupElement) -> str:
    return f"{format_word(word)}#{g}"


class CheckEntry(Record):
    """One check's status, "pass", "fail" or "undecided", and its
    counterexample if any; equal by its fields."""

    _compared = ("check", "status", "counterexample")
    __hash__ = None

    def __init__(self, check: str, status: str, counterexample: str | None = None) -> None:
        self.check, self.status, self.counterexample = check, status, counterexample

    def to_json(self) -> dict:
        out = {"check": self.check, "status": self.status}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _entry(check: str, failure: str | None) -> CheckEntry:
    return CheckEntry(check, "fail" if failure else "pass", failure)


class CheckReport(Record):
    """Equal by its fields."""

    _compared = ("entries", "notes")
    __hash__ = None

    def __init__(self, entries: list[CheckEntry], notes: tuple[str, ...] = ()) -> None:
        self.entries, self.notes = entries, notes

    @property
    def passed(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "entries": [e.to_json() for e in self.entries],
            "notes": list(self.notes),
        }


class PresentedAlgebra(RewritingSystem):
    """Immutable presentation of R # k[Gamma] over its rewriting system.  Its
    degree bound is the default depth of normal_words; no map reads it."""

    def __init__(
        self,
        group: AbelianGroup,
        degrees: tuple[GroupElement, ...],
        actions: tuple[Character, ...],
        rules: dict[Word, tuple[tuple[Word, CycloNumber], ...]] | None = None,
        degree_bound: int = DEFAULT_DEGREE_BOUND,
    ) -> None:
        if degree_bound < 1:
            raise InputError(f"degree bound must be >= 1, got {degree_bound}")
        if len(degrees) != len(actions):
            raise InvalidPresentation("one grading degree and one action character per generator")
        for d in degrees:
            if d.group != group:
                raise InvalidPresentation("grading degree outside the presentation group")
        for a in actions:
            if a.group != group:
                raise InvalidPresentation("action character outside the presentation group")
        self.group = group
        self.t = len(degrees)
        self.degrees = tuple(degrees)
        self.actions = tuple(actions)
        self.order = group.exponent
        self._e = group.identity()
        self._delta_cache: dict[Word, tuple] = {}
        self._antipode_cache: dict[Word, tuple] = {}
        self._worddeg: dict[Word, GroupElement] = {}
        self._char_rows: dict[GroupElement, tuple[int, ...]] = {}  # g -> exponents of chi_i(g)
        super().__init__(self.t, self.order, self._validate_rules(rules or {}), degree_bound)

    # -- construction helpers ---------------------------------------------

    def _validate_rules(self, rules) -> dict[Word, tuple[tuple[Word, CycloNumber], ...]]:
        out: dict[Word, tuple[tuple[Word, CycloNumber], ...]] = {}
        for lhs, rhs in rules.items():
            lhs = tuple(lhs)
            if not lhs:
                raise InvalidPresentation("empty rule left-hand side")
            self._check_indices(lhs)
            lhs_key = graded_lex_key(lhs)
            lhs_deg = self._degree_of(lhs)
            lhs_chi = self._char_of(lhs)
            cleaned = []
            for word, coeff in rhs:
                word = tuple(word)
                self._check_indices(word)
                for broken, what in (
                    (graded_lex_key(word) >= lhs_key, "does not decrease the graded-lex order"),
                    (self._degree_of(word) != lhs_deg, "is not Gamma-homogeneous"),
                    (self._char_of(word) != lhs_chi, "is not chi-equivariant"),
                ):
                    if broken:
                        rule = f"rule {format_word(lhs)} -> {format_word(word)}"
                        raise InvalidPresentation(f"{rule} {what}")
                coeff = self.scalar(coeff)
                if not coeff.is_zero():
                    cleaned.append((word, coeff))
            out[lhs] = tuple(cleaned)
        return out

    def _check_indices(self, word) -> None:
        for i in word:
            if not 0 <= i < self.t:
                raise IndexOutOfRange(f"generator x{i + 1} outside 1..{self.t}")

    def _degree_of(self, word: Word) -> GroupElement:
        cached = self._worddeg.get(word)
        if cached is not None:
            return cached
        e = d = self._e
        for g in map(self.degrees.__getitem__, word):
            d = g if d is e else d if g is e else d * g
        self._worddeg[word] = d
        return d

    def _char_of(self, word: Word) -> Character:
        return prod((self.actions[i] for i in word), start=self.group.trivial_character())

    @cached_property
    def _roots(self) -> tuple[CycloNumber, ...]:
        """zeta_N^k at index k, 0 <= k < N; the order's one tuple, read on first use."""
        return roots_of_unity(self.order)

    def _char_value(self, word: Word, g: GroupElement) -> CycloNumber:
        """chi_{w_1}(g) * ... * chi_{w_k}(g), the scalar for g acting on x^w."""
        if not word or g is self._e:
            return self._one
        row = self._char_rows.get(g)
        if row is None:
            row = self._char_rows[g] = tuple(a.value_exponent(g) for a in self.actions)
        return self._roots[sum(map(row.__getitem__, word)) % self.order]

    # -- scalars and elements -------------------------------------------------

    def scalar(self, value) -> CycloNumber:
        """value lifted into the session field Q(zeta_N), N the group exponent."""
        if value.__class__ is CycloNumber and value.order == self.order:
            return value
        if not isinstance(value, CycloNumber):
            value = CycloNumber.from_rational(value)
        if self.order % value.order != 0:
            raise InvalidPresentation(f"scalar of order {value.order} outside the session field")
        return value.lift(self.order)

    def zero(self) -> SmashElement:
        return SmashElement(self, {})

    def one_element(self) -> SmashElement:
        return self.monomial((), self._e)

    def generator(self, i: int) -> SmashElement:
        return self.monomial((i,), self._e)

    def group_like(self, g: GroupElement) -> SmashElement:
        return self.monomial((), g)

    def monomial(self, word: Word, g: GroupElement, coeff=None) -> SmashElement:
        """coeff (default 1) times x^w # g, in normal form."""
        c = self.scalar(coeff) if coeff is not None else self._one
        word = tuple(word)
        self._check_indices(word)
        if g.group != self.group:
            raise GroupMismatch(f"group-like {g} of {g.group} outside {self.group}")
        terms = {(nw, g): nc * c for nw, nc in self._normal_combination(word)} if c else {}
        return SmashElement._of(self, terms)

    # -- monomial multiplication ----------------------------------------------------

    def _products(self, pairs) -> dict[tuple[Word, GroupElement], CycloNumber]:
        """The sum of c (x^{w1} # g1) (x^{w2} # g2) over the (w1, g1, w2, g2, c)
        in pairs, as a zero-free dict (nw, tail) -> coefficient.  Each product
        moves g1 past x^{w2}, so is c chi_{w2}(g1) times the normal form of
        x^{w1 w2}, at tail g1 g2."""
        out: dict = {}
        e, chi = self._e, self._char_value
        for w1, g1, w2, g2, c in pairs:
            scalar = c * chi(w2, g1)
            tail = g2 if g1 is e else g1 if g2 is e else g1 * g2
            for nw, nc in self._normal_combination(w1 + w2):
                _accumulate(out, (nw, tail), scalar * nc)
        return out

    # -- Hopf structure maps -------------------------------------------------------------

    def _delta_word(self, word: Word):
        """Template for Delta(x^w # e): terms (u, v, coeff) standing for
        coeff * (x^u # deg(v)) (x) (x^v # e)."""
        cached = self._delta_cache.get(word)
        if cached is not None:
            return cached
        if not word:
            result = (((), (), self._one),)
        else:
            head, last = word[:-1], word[-1]
            acc: dict[tuple[Word, Word], CycloNumber] = {}
            for u, v, c in self._delta_word(head):
                # times (x_last (x) 1): left leg (x^u # deg v) x_last
                lc = self._char_value((last,), self._degree_of(v)) * c
                for nw, nc in self._normal_combination(u + (last,)):
                    _accumulate(acc, (nw, v), nc * lc)
                # times (g_last (x) x_last): the left tail deg(v) grows implicitly
                for nw, nc in self._normal_combination(v + (last,)):
                    _accumulate(acc, (u, nw), nc * c)
            result = tuple((u, v, c) for (u, v), c in acc.items())
        self._delta_cache[word] = result
        return result

    def comultiply(self, elem: SmashElement) -> TensorElement:
        return TensorElement._of(self, {(k,): c for k, c in elem.terms.items()}).coproduct_on_leg(0)

    def _antipode_word(self, word: Word):
        """S(x^w # e) as normal terms (nw, tail, coeff)."""
        cached = self._antipode_cache.get(word)
        if cached is not None:
            return cached
        if not word:
            result = (((), self._e, self._one),)
        else:
            head, last = word[:-1], word[-1]
            g_inv = self.degrees[last].inverse()
            lc = -self._char_value((last,), g_inv)
            # S(x^w) = S(x_last) S(x^head)
            pairs = (((last,), g_inv, hw, hg, lc * hc) for hw, hg, hc in self._antipode_word(head))
            result = tuple((w, g, c) for (w, g), c in self._products(pairs).items())
        self._antipode_cache[word] = result
        return result

    def _antipode_mono(self, w: Word, g: GroupElement):
        """S(x^w # g) = (1 # g^{-1}) S(x^w # e) as normal terms (nw, tail, coeff);
        at g = e, the template itself."""
        template, e = self._antipode_word(w), self._e
        if g is e:
            return template
        g_inv, chi = g.inverse(), self._char_value
        return [(sw, g_inv if sg is e else g_inv * sg, sc * chi(sw, g_inv))
                for sw, sg, sc in template]

    def antipode(self, elem: SmashElement) -> SmashElement:
        terms = {}
        for (w, g), c in elem.terms.items():
            for sw, tail, sc in self._antipode_mono(w, g):
                _accumulate(terms, (sw, tail), c * sc)
        return SmashElement._of(self, terms)

    def counit(self, elem: SmashElement) -> CycloNumber:
        return sum((c for (w, _g), c in elem.terms.items() if not w), zero(self.order))


class _Combination:
    """Exact linear combination of keys with nonzero, canonical CycloNumber
    coefficients, shared by SmashElement (arity 1) and TensorElement: equal
    elements have equal term dicts.  The public constructor drops zeros; _of
    wraps a zero-free dict, as _accumulate keeps it, without a copy."""

    __slots__ = ("algebra", "terms", "arity")

    def __init__(self, algebra: PresentedAlgebra, terms: dict, arity: int = 1) -> None:
        self.algebra, self.arity = algebra, arity
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    @classmethod
    def _of(cls, algebra: PresentedAlgebra, terms: dict, arity: int = 1):
        out = object.__new__(cls)
        out.algebra, out.terms, out.arity = algebra, terms, arity
        return out

    def _like(self, terms: dict):
        return self._of(self.algebra, terms, self.arity)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.arity != other.arity:
            raise InternalError("tensor arity mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.algebra.scalar(c)  # c * v is zero only when c is
        return self._like({k: v * c for k, v in self.terms.items()} if c else {})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.arity != other.arity:
            raise InternalError("tensor arity mismatch")
        return self.terms == other.terms

    __hash__ = None


class SmashElement(_Combination):
    """Exact linear combination of PBW normal monomials x^w * g."""

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, SmashElement):
            return self.scale(other)
        pairs = ((w1, g1, w2, g2, c1 * c2) for (w1, g1), c1 in self.terms.items()
                 for (w2, g2), c2 in other.terms.items())
        return self._like(self.algebra._products(pairs))

    def __rmul__(self, other):
        return self.scale(other)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        terms = sorted(self.terms.items(), key=lambda kv: (graded_lex_key(kv[0][0]), kv[0][1].exp))
        for (w, g), c in terms:
            mono = format_monomial(w, g)
            parts.append(mono if c.is_one() else f"({c})*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


class TensorElement(_Combination):
    """Element of a tensor power of the smash product."""

    __slots__ = ()

    def coproduct_on_leg(self, leg: int) -> TensorElement:
        alg = self.algebra
        e, degree_of = alg._e, alg._degree_of
        out: dict = {}
        for key, c in self.terms.items():
            w, g = key[leg]
            for u, v, tc in alg._delta_word(w):
                dv = degree_of(v)
                left_tail = dv if g is e else g if dv is e else dv * g
                expanded = key[:leg] + ((u, left_tail), (v, g)) + key[leg + 1:]
                _accumulate(out, expanded, c * tc)
        return self._of(alg, out, self.arity + 1)

    def counit_on_leg(self, leg: int) -> SmashElement:
        """Apply the counit to one leg of an arity-2 tensor."""
        if self.arity != 2:
            raise InternalError("counit_on_leg needs an arity-2 tensor")
        out: dict = {}
        for key, c in self.terms.items():
            if not key[leg][0]:
                _accumulate(out, key[1 - leg], c)
        return SmashElement._of(self.algebra, out)

    def fold_with(self, antipode_leg: int) -> SmashElement:
        """The sum of S(a) b (antipode_leg 0) or of a S(b) (antipode_leg 1)
        over the terms a (x) b of an arity-2 tensor, in one dict."""
        if self.arity != 2:
            raise InternalError("fold_with needs an arity-2 tensor")
        alg, pairs = self.algebra, []
        for (a, b), c in self.terms.items():
            for sw, sg, sc in alg._antipode_mono(*(a, b)[antipode_leg]):
                cs = c * sc
                pairs.append((sw, sg, *b, cs) if antipode_leg == 0 else (*a, sw, sg, cs))
        return SmashElement._of(alg, alg._products(pairs))


# -- constructors ----------------------------------------------------------


def quantum_affine_presentation(group: AbelianGroup, degrees: tuple[GroupElement, ...],
                                actions: tuple[Character, ...],
                                degree_bound: int = DEFAULT_DEGREE_BOUND) -> PresentedAlgebra:
    """Skew-polynomial presentation x_i x_j = q_ij x_j x_i (i < j), with
    q_ij = chi_j(g_i); rules are oriented as x_j x_i -> q_ij^{-1} x_i x_j."""
    t = len(degrees)
    rules: dict[Word, tuple[tuple[Word, CycloNumber], ...]] = {}
    for i in range(t):
        for j in range(i + 1, t):
            q_ij = actions[j](degrees[i])
            rules[(j, i)] = (((i, j), q_ij.inverse()),)
    return PresentedAlgebra(group, tuple(degrees), tuple(actions), rules, degree_bound)


# -- verification ------------------------------------------------------------------


def verify_hopf_axioms(algebra: PresentedAlgebra) -> CheckReport:
    """The Hopf axioms of the presented algebra A = F / I, F free on the x_i
    and I the ideal of the r = lhs - rhs: coassociativity, counit, both
    antipode axioms, and Delta(m1 m2) = Delta(m1) Delta(m2), decided on
    generators and rules in every degree.

    A non-confluent system is undecided in every family, and a note names its
    first overlap that does not resolve: its normal words need not be a basis
    of A, so a check on them speaks about the engine's maps, not about A.

    A confluent system (every overlap resolves, at its own length): the rules
    decrease the graded-lex order, so by the diamond lemma (Bergman 1978) the
    normal words are a basis of A in every degree.  Delta, eps and the
    anti-multiplicative S descend from F if they vanish on each r (Kassel,
    Quantum Groups, Ch. III).  Delta-descent decides: _descent_failure checks
    that the Delta template of each lhs is the sum of c times the Delta
    templates of its rhs words, and eps and S then descend too.  For eps,
    1 (x) 1 counts the rhs constant twice in Delta(lhs), once in Delta(rhs)
    (graded-lex induction), so it is 0; for S, a pointed bialgebra with
    invertible group-likes is Hopf (Montgomery, Hopf Algebras and Their Actions
    on Rings, 5.2.11).  The tests keep the eps and S checks as an oracle for
    this reduction.  Delta is then an algebra map on A, and comultiply computes
    it on the normal-word basis, so comultiply(m1 * m2) = comultiply(m1) *
    comultiply(m2) is an identity and coproduct-multiplicative passes.  Where
    Delta does not descend it is no map on A, and that family fails, naming
    the first such rule and the leading term of its Delta image.  The other
    families compare algebra maps or hold on a subalgebra
    (S((ab)_1) (ab)_2 = S(b_1) S(a_1) a_2 b_2), so they are checked on the
    normal words of degree <= 1 only, the empty word and each generator that
    no rule rewrites, at tail e.

    Tails reduce to e by Gamma-equivariance of the engine's own maps:
    comultiply(x^w # g) is comultiply(x^w # e) with both tails times g;
    antipode(x^w # g) = (1 # g^{-1}) antipode(x^w # e); products change scalars
    only by chi_u(h), multiplicative in h; the rules are chi-equivariant, so
    normal forms of x^w keep chi_w.  So each identity at tail g is the one at e
    times a unit scalar.
    """
    e, one_element = algebra._e, algebra.one_element()
    families = {  # eps(m) 1 is the right-hand side of both antipode axioms
        "coassociativity": lambda m, d: d.coproduct_on_leg(0) == d.coproduct_on_leg(1),
        "counit": lambda m, d: d.counit_on_leg(0) == m and d.counit_on_leg(1) == m,
        "antipode-left": lambda m, d: d.fold_with(0) == one_element.scale(algebra.counit(m)),
        "antipode-right": lambda m, d: d.fold_with(1) == one_element.scale(algebra.counit(m)),
    }
    notes = confluence_notes(algebra)
    divergent = algebra.confluence.divergent
    if divergent:
        entries = [CheckEntry(name, "undecided") for name in (*families, "coproduct-multiplicative")]
        return CheckReport(entries, notes + (f"undecided: overlap {format_word(divergent[0].word)} "
                                             f"does not resolve, so normal words need not be a basis",))
    failure = _descent_failure(algebra)
    words = [(), *((i,) for i in range(algebra.t) if algebra.is_normal((i,)))]
    checked = [(w, m, algebra.comultiply(m)) for w in words for m in (algebra.monomial(w, e),)]
    entries = [_entry(name, next((format_monomial(w, e) for w, m, d in checked if not holds(m, d)),
                                 None))
               for name, holds in families.items()]
    entries.append(_entry("coproduct-multiplicative", failure))
    verdict = "holds in every degree" if all(entry.status == "pass" for entry in entries) else "fails"
    return CheckReport(entries, notes + (f"decided on generators and rules: {verdict}",))


def _descent_failure(algebra: PresentedAlgebra) -> str | None:
    """None if Delta descends through every rule; else the first rule in
    graded-lex order through which it does not, and the leading term of
    Delta(lhs) - sum c Delta(rhs) in A (x) A, by total degree, then by the
    graded-lex order of the left leg, then of the right leg.  The Delta
    templates it builds are charged their terms times phi(N), within
    PAIR_COST_BUDGET, before they are built."""
    words = {w for lhs, rhs in algebra.rules.items() for w in (lhs, *(rw for rw, _c in rhs))}
    cost, phi = 0, euler_phi(algebra.order)
    for prefix in sorted({w[:k] for w in words for k in range(1, len(w) + 1)}, key=graded_lex_key):
        cost += 2 * len(algebra._delta_word(prefix[:-1])) * phi
        if cost > PAIR_COST_BUDGET:
            raise InputError(f"the Delta check costs over {PAIR_COST_BUDGET} coproduct template "
                             f"terms times phi({algebra.order})")
    for lhs in sorted(algebra.rules, key=graded_lex_key):
        image: dict = {}  # Delta template of lhs - rhs
        for w, c in ((lhs, algebra._one), *((w, -c) for w, c in algebra.rules[lhs])):
            for a, b, tc in algebra._delta_word(w):
                _accumulate(image, (a, b), c * tc)
        if image:
            u, v = max(image, key=lambda k: (len(k[0]) + len(k[1]), graded_lex_key(k[0]),
                                             graded_lex_key(k[1])))
            c = image[u, v]
            term = f"{format_monomial(u, algebra._degree_of(v))} (x) {format_monomial(v, algebra._e)}"
            return f"rule {format_word(lhs)}, leading term {term if c.is_one() else f'({c})*{term}'}"
    return None


def verify_double_antipode(algebra: PresentedAlgebra) -> CheckReport:
    """The graded identity S^2(r) = (deg r)^{-1} . S_R^2(r) on the braided
    factor, decided by construction: it computes no products.

    The engine's S_R is its own S with the tail cleared, S_R(r) = (1 # d) S(r)
    for r homogeneous of degree d.  The rules are Gamma-homogeneous and
    chi-equivariant, and S(x_i) = -g_i^{-1} x_i, so
    S(x^w # e) = sum_j c_j x^{u_j} # d^{-1} with every u_j of degree d and
    character chi_w; write S(x^{u_j} # e) = sum_k c_jk x^{u_jk} # d^{-1}.
    By the tail rule S(x^u # g) = (1 # g^{-1}) S(x^u # e),
        S^2(x^w # e) = sum_j c_j (1 # d) S(x^{u_j} # e),
    and both S^2(x^w # e) and d^{-1} acting on S_R^2(x^w) equal
    chi_w(d) sum_j sum_k c_j c_jk x^{u_jk} # e, coefficient by coefficient.
    This holds for every word, on every presentation the engine accepts,
    confluent or not, so a sweep would compute one element two ways; the tests
    keep that per-word sweep as an oracle against the engine.  It enumerates
    no words either: the report reads only the confluence check.
    """
    entry = _entry("double-antipode-graded-identity", None)
    notes = confluence_notes(algebra) + ("holds in every degree by Gamma-equivariance of S",)
    return CheckReport([entry], notes=notes)


class DiagonalAutomorphism:
    """Algebra automorphism x_i -> c_i x_i, identity on the group part."""

    def __init__(self, algebra: PresentedAlgebra, scalars: tuple[CycloNumber, ...]) -> None:
        self.algebra, self.scalars = algebra, scalars
        if len(self.scalars) != self.algebra.t:
            raise InputError("one scalar per generator required")
        for lhs, rhs in self.algebra.rules.items():
            lhs_scale = self._word_scale(lhs)
            for word, _c in rhs:
                if self._word_scale(word) != lhs_scale:
                    raise InvalidPresentation(f"diagonal automorphism inconsistent with rule "
                                              f"on {format_word(lhs)}")

    def _word_scale(self, word: Word) -> CycloNumber:
        return prod((self.scalars[i] for i in word), start=self.algebra._one)


def winding_endomorphism(algebra: PresentedAlgebra, xi: Character, elem: SmashElement) -> SmashElement:
    """[xi](a) = sum xi(a_1) a_2 for a character xi of Gamma extended by zero
    on the generators: only the terms of Delta(x^w # g) with u = () count."""
    if xi.group != algebra.group:
        raise InputError("winding character outside the presentation group")
    out, e = {}, algebra._e
    for (w, g), c in elem.terms.items():
        for u, v, tc in algebra._delta_word(w):
            if not u:
                dv = algebra._degree_of(v)
                _accumulate(out, (v, g), c * tc * xi(g if dv is e else dv if g is e else dv * g))
    return SmashElement._of(algebra, out)


def _diagonal_coefficient(algebra: PresentedAlgebra, elem: SmashElement, i: int) -> CycloNumber:
    key = ((i,), algebra._e)
    if set(elem.terms) != {key}:
        raise InternalError(f"expected a diagonal image on x{i + 1}, got {elem}")
    return elem.terms[key]


def nakayama_automorphism(algebra: PresentedAlgebra,
                          xi: Character) -> tuple[DiagonalAutomorphism, CheckReport]:
    """psi = [xi] o S^2, computed by composition and cross-checked against the
    closed form psi(x_i) = xi(g_i) chi_i(g_i^{-1}) x_i, psi(g) = xi(g) g, the
    latter on generators of Gamma (both sides are multiplicative).  Each x_i
    must be a normal word, so that psi(x_i) is read off as one scalar."""
    entries, scalars, failure = [], [], None
    for i in range(algebra.t):
        if not algebra.is_normal((i,)):
            raise InputError(f"a rule rewrites x{i + 1}; nakayama needs every generator normal")
        s2x = algebra.antipode(algebra.antipode(algebra.generator(i)))
        c = _diagonal_coefficient(algebra, winding_endomorphism(algebra, xi, s2x), i)
        closed = xi(algebra.degrees[i]) * algebra.actions[i](algebra.degrees[i].inverse())
        scalars.append(c)
        if c != closed and failure is None:
            failure = f"x{i + 1}: composed {c}, closed form {closed}"
    entries.append(_entry("nakayama-generators-closed-form", failure))
    failure = None
    for g in map(algebra.group.generator, range(algebra.group.rank)):
        elem = algebra.group_like(g)
        image = winding_endomorphism(algebra, xi, algebra.antipode(algebra.antipode(elem)))
        if image != elem.scale(xi(g)):
            failure = str(g)
            break
    entries.append(_entry("nakayama-group-likes-closed-form", failure))
    report = CheckReport(entries, notes=confluence_notes(algebra))
    return DiagonalAutomorphism(algebra, tuple(scalars)), report
