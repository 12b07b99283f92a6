"""Degree-bounded exact engine for smash products R # k[Gamma].

R is presented by generators x_1..x_t, each carrying a grading degree
g_i in Gamma (coaction) and an action character chi_i (so g(x_i) =
chi_i(g) x_i), together with a rewriting system over words in the x_i
(PresentedAlgebra is a rewriting.RewritingSystem).  Rules must strictly decrease
the graded-lex order with x_1 < ... < x_t, be Gamma-homogeneous, and be
chi-equivariant; local confluence is checked (not assumed) up to the degree
bound, and a non-confluent system is accepted but flagged on every downstream
report.

Elements of the smash product (SmashElement) and of its tensor powers
(TensorElement) are exact linear combinations of PBW normal monomials x^w * g,
sharing one implementation of their linear operations.  Monomials are built
only by PresentedAlgebra.monomial, and two monomials are multiplied only in
_mul_mono, which moves the left tail past the right word by the smash relation
g x_i = chi_i(g) x_i g.  Every chi-value, there and in the Hopf templates, comes
from _char_value, which keeps one row of exponents of chi_i(g) per group
element.  Scalars enter the session field Q(zeta_N) only through
PresentedAlgebra.scalar.  The Hopf structure is defined on generators --
Delta(x_i) = x_i (x) 1 + g_i (x) x_i,  Delta(g) = g (x) g,
S(x_i) = -g_i^{-1} x_i,  S(g) = g^{-1} -- and extended as an algebra map
(anti-algebra map for S) through per-word templates cached on the algebra.
The Hopf-axiom check decides a presentation whose overlaps fit the degree bound
and resolve on its generators and rules, by Delta-descent of the rules and
forming no pair products; it sweeps every other one over the normal words up to
the bound at tail e, and Gamma-equivariance covers the other tails (see
verify_hopf_axioms).  The graded squared-antipode identity holds by
construction and is decided without a sweep (see verify_double_antipode).
PAIR_COST_BUDGET refuses oversized work before it starts, as the rewriting
layer's limits do; it binds only the rule path's Delta check and the sweep.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from .cyclotomic import CycloNumber, euler_phi, one, root_of_unity, zero
from .errors import (
    DegreeBoundExceeded,
    GroupMismatch,
    IndexOutOfRange,
    InputError,
    InternalError,
    InvalidPresentation,
)
from .groups import AbelianGroup, Character, GroupElement
from .rewriting import (RewritingSystem, Word, _accumulate, confluence_notes, format_word,
                        graded_lex_key)
from .rewriting import check_local_confluence  # noqa: F401  (re-exported for the benchmark tracer)

DEFAULT_DEGREE_BOUND = 4
# Limit on the sweep's pair cost, sum |Delta(m1)| * |Delta(m2)|, and on the
# terms of the Delta templates the rule path builds, each times phi(N), the
# rational parts of a coefficient (13-50 us a unit for phi(N) up to 100 on a
# 2-core host).  The rule path forms no pairs, so no pair cost is charged there.
# The largest sweep any fixed test input, bundled file or benchmark input runs
# has 53 normal words costing 13386 (Z4 at bound 6).
PAIR_COST_BUDGET = 100_000


def format_monomial(word: Word, g: GroupElement) -> str:
    return f"{format_word(word)}#{g}"


class CheckEntry:
    """One check's status, "pass" or "fail", and its counterexample if any;
    equal by its fields."""

    def __init__(self, check: str, status: str, counterexample: str | None = None) -> None:
        self.check, self.status, self.counterexample = check, status, counterexample

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.check, self.status, self.counterexample)
                == (other.check, other.status, other.counterexample))

    def to_json(self) -> dict:
        out = {"check": self.check, "status": self.status}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _entry(check: str, failure: str | None) -> CheckEntry:
    return CheckEntry(check, "fail" if failure else "pass", failure)


class CheckReport:
    """Equal by its fields."""

    def __init__(self, entries: list[CheckEntry], notes: tuple[str, ...] = ()) -> None:
        self.entries, self.notes = entries, notes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.notes) == (other.entries, other.notes)

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
    """Immutable presentation of R # k[Gamma] over its rewriting system."""

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

    def _check_degree(self, what: str, degree: int) -> None:
        if degree > self.degree_bound:
            raise DegreeBoundExceeded(f"{what} degree {degree} exceeds bound {self.degree_bound}")

    def _degree_of(self, word: Word) -> GroupElement:
        cached = self._worddeg.get(word)
        if cached is not None:
            return cached
        d = self.group.identity()
        for i in word:
            d = d * self.degrees[i]
        self._worddeg[word] = d
        return d

    def _char_of(self, word: Word) -> Character:
        return prod((self.actions[i] for i in word), start=self.group.trivial_character())

    def _char_value(self, word: Word, g: GroupElement) -> CycloNumber:
        """chi_{w_1}(g) * ... * chi_{w_k}(g), the scalar for g acting on x^w."""
        if not word or g.is_identity():
            return one(self.order)
        row = self._char_rows.get(g)
        if row is None:
            row = self._char_rows[g] = tuple(a.value_exponent(g) for a in self.actions)
        return root_of_unity(sum(map(row.__getitem__, word)), self.order)

    # -- scalars and elements -------------------------------------------------

    def scalar(self, value) -> CycloNumber:
        """value lifted into the session field Q(zeta_N), N the group exponent."""
        if not isinstance(value, CycloNumber):
            value = CycloNumber.from_rational(value)
        if self.order % value.order != 0:
            raise InvalidPresentation(f"scalar of order {value.order} outside the session field")
        return value.lift(self.order)

    def zero(self) -> SmashElement:
        return SmashElement(self, {})

    def one_element(self) -> SmashElement:
        return self.monomial((), self.group.identity())

    def generator(self, i: int) -> SmashElement:
        return self.monomial((i,), self.group.identity())

    def group_like(self, g: GroupElement) -> SmashElement:
        return self.monomial((), g)

    def monomial(self, word: Word, g: GroupElement, coeff=None) -> SmashElement:
        """coeff (default 1) times x^w # g, in normal form."""
        c = one(self.order) if coeff is None else self.scalar(coeff)
        word = tuple(word)
        self._check_indices(word)
        if g.group != self.group:
            raise GroupMismatch(f"group-like {g} of {g.group} outside {self.group}")
        self._check_degree("word", len(word))
        terms = {(nw, g): nc * c for nw, nc in self._normal_combination(word)} if c else {}
        return SmashElement._of(self, terms)

    # -- monomial multiplication ----------------------------------------------------

    def _mul_mono(self, w1: Word, g1: GroupElement, w2: Word,
                  g2: GroupElement) -> list[tuple[Word, GroupElement, CycloNumber]]:
        """(x^{w1} # g1) (x^{w2} # g2) as a normal combination."""
        self._check_degree("product", len(w1) + len(w2))
        scalar = self._char_value(w2, g1)
        tail = g1 * g2
        return [(nw, tail, scalar * nc) for nw, nc in self._normal_combination(w1 + w2)]

    # -- Hopf structure maps -------------------------------------------------------------

    def _delta_word(self, word: Word):
        """Template for Delta(x^w # e): terms (u, v, coeff) standing for
        coeff * (x^u # deg(v)) (x) (x^v # e)."""
        cached = self._delta_cache.get(word)
        if cached is not None:
            return cached
        if not word:
            result = (((), (), one(self.order)),)
        else:
            head, last = word[:-1], word[-1]
            acc: dict[tuple[Word, Word], CycloNumber] = {}
            for u, v, c in self._delta_word(head):
                # times (x_last (x) 1): left leg (x^u # deg v) x_last
                chi = self._char_value((last,), self._degree_of(v))
                for nw, nc in self._normal_combination(u + (last,)):
                    _accumulate(acc, (nw, v), chi * nc * c)
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
            result = (((), self.group.identity(), one(self.order)),)
        else:
            head, last = word[:-1], word[-1]
            g_inv = self.degrees[last].inverse()
            lw, lg, lc = ((last,), g_inv, -self._char_value((last,), g_inv))
            acc: dict[tuple[Word, GroupElement], CycloNumber] = {}
            # S(x^w) = S(x_last) S(x^head)
            for hw, hg, hc in self._antipode_word(head):
                for nw, tail, nc in self._mul_mono(lw, lg, hw, hg):
                    _accumulate(acc, (nw, tail), lc * hc * nc)
            result = tuple((w, g, c) for (w, g), c in acc.items())
        self._antipode_cache[word] = result
        return result

    def _antipode_mono(self, w: Word, g: GroupElement):
        """S(x^w # g) = (1 # g^{-1}) S(x^w # e) as normal terms (nw, tail, coeff)."""
        g_inv = g.inverse()
        return [(sw, g_inv * sg, sc * self._char_value(sw, g_inv))
                for sw, sg, sc in self._antipode_word(w)]

    def antipode(self, elem: SmashElement) -> SmashElement:
        terms: dict = {}
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
        out: dict = {}
        alg = self.algebra
        for (w1, g1), c1 in self.terms.items():
            for (w2, g2), c2 in other.terms.items():
                c12 = c1 * c2
                for nw, tail, nc in alg._mul_mono(w1, g1, w2, g2):
                    _accumulate(out, (nw, tail), c12 * nc)
        return self._like(out)

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
    """Element of a tensor power of the smash product, multiplied legwise."""

    __slots__ = ()

    def __mul__(self, other: TensorElement) -> TensorElement:
        if self.arity != other.arity:
            raise InternalError("tensor arity mismatch")
        alg = self.algebra
        out: dict = {}
        for key1, c1 in self.terms.items():
            for key2, c2 in other.terms.items():
                partial = [(tuple(), c1 * c2)]
                for (w1, g1), (w2, g2) in zip(key1, key2):
                    nxt = []
                    for prefix, c in partial:
                        for nw, tail, nc in alg._mul_mono(w1, g1, w2, g2):
                            nxt.append((prefix + ((nw, tail),), c * nc))
                    partial = nxt
                for key, c in partial:
                    _accumulate(out, key, c)
        return self._like(out)

    def coproduct_on_leg(self, leg: int) -> TensorElement:
        alg = self.algebra
        out: dict = {}
        for key, c in self.terms.items():
            w, g = key[leg]
            for u, v, tc in alg._delta_word(w):
                expanded = key[:leg] + ((u, alg._degree_of(v) * g), (v, g)) + key[leg + 1:]
                _accumulate(out, expanded, c * tc)
        return self._of(alg, out, self.arity + 1)

    def counit_on_leg(self, leg: int) -> SmashElement:
        """Apply the counit to one leg of an arity-2 tensor."""
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
        alg = self.algebra
        out: dict = {}
        for ((w1, g1), (w2, g2)), c in self.terms.items():
            if antipode_leg == 0:
                pairs = ((sw, sg, w2, g2, c * sc) for sw, sg, sc in alg._antipode_mono(w1, g1))
            else:
                pairs = ((w1, g1, sw, sg, c * sc) for sw, sg, sc in alg._antipode_mono(w2, g2))
            for lw, lg, rw, rg, pc in pairs:
                for nw, tail, nc in alg._mul_mono(lw, lg, rw, rg):
                    _accumulate(out, (nw, tail), pc * nc)
        return SmashElement._of(alg, out)


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


# -- verification sweeps ---------------------------------------------------------


def verify_hopf_axioms(algebra: PresentedAlgebra) -> CheckReport:
    """The Hopf axioms of the engine's Delta, eps and S: coassociativity,
    counit, both antipode axioms, and Delta(m1 m2) = Delta(m1) Delta(m2).

    Rule path, if every overlap and rule lhs fits the bound and every overlap
    resolves: the rules decrease the graded-lex order, so by Newman's lemma
    normal words are a basis of A = F / I in every degree, I the ideal of the
    r = lhs - rhs in the free F.  Delta, eps and the anti-multiplicative S
    descend from F if they vanish on each r (Kassel, Quantum Groups, Ch. III).
    Delta-descent decides: _rules_respected checks that the Delta template of
    each lhs is the sum of c times the Delta templates of its rhs words, and
    eps and S then descend too.  For eps, 1 (x) 1 counts the rhs constant twice
    in Delta(lhs), once in Delta(rhs) (graded-lex induction), so it is 0; for
    S, a pointed bialgebra with invertible group-likes is Hopf (Montgomery,
    Hopf Algebras and Their Actions on Rings, 5.2.11).  The tests keep the eps
    and S checks as an oracle for this reduction.
    Delta is then an algebra map on A, and comultiply computes it on the
    normal-word basis, so comultiply(m1 * m2) = comultiply(m1) * comultiply(m2)
    is an identity: the rule path forms no pair products and charges no pair
    cost.  The other families compare algebra maps or hold on a subalgebra
    (S((ab)_1) (ab)_2 = S(b_1) S(a_1) a_2 b_2), so they are checked on the
    words of degree <= 1 only.
    _rules_respected counts Delta template terms times phi(N) per template
    before it is built; past PAIR_COST_BUDGET, or if the path does not run or a
    family fails, the sweep runs, so every failing report is the sweep's.

    Tails reduce to e by Gamma-equivariance of the engine's own maps, true for
    non-confluent systems too: comultiply(x^w # g) is comultiply(x^w # e) with
    both tails times g; antipode(x^w # g) = (1 # g^{-1}) antipode(x^w # e);
    products change scalars only by chi_u(h), multiplicative in h; the rules are
    chi-equivariant, so normal forms of x^w keep chi_w.  So each identity at
    tail g is the one at e times a unit scalar, and, e being first in
    AbelianGroup.elements(), the first counterexample is a full sweep's.
    """
    words = algebra.normal_words()  # NORMAL_WORD_BUDGET binds both paths
    if _rules_respected(algebra):
        e = algebra.group.identity()
        monomials = [(w, algebra.monomial(w, e)) for w in words if len(w) <= 1]
        entries = _monomial_families(algebra, [(w, m, algebra.comultiply(m)) for w, m in monomials])
        if all(entry.status == "pass" for entry in entries):
            entries.append(_entry("coproduct-multiplicative", None))
            notes = (f"degree bound {algebra.degree_bound}",
                     "decided on generators and rules: holds in every degree")
            return CheckReport(entries, notes=confluence_notes(algebra) + notes)
    return _hopf_sweep(algebra, words)


def _rules_respected(algebra: PresentedAlgebra) -> bool:
    """Whether verify_hopf_axioms' rule path runs and Delta descends."""
    conf, unit, bound = algebra.confluence, one(algebra.order), algebra.degree_bound
    if not conf.ok or conf.skipped_over_bound or max(map(len, algebra.rules), default=0) > bound:
        return False
    words = {w for lhs, rhs in algebra.rules.items() for w in (lhs, *(rw for rw, _c in rhs))}
    cost, phi = 0, euler_phi(algebra.order)
    for prefix in sorted({w[:k] for w in words for k in range(1, len(w) + 1)}, key=graded_lex_key):
        cost += 2 * len(algebra._delta_word(prefix[:-1])) * phi
        if cost > PAIR_COST_BUDGET:
            return False
    for lhs, rhs in algebra.rules.items():
        image: dict = {}  # Delta template of lhs - rhs
        for w, c in ((lhs, unit), *((w, -c) for w, c in rhs)):
            for a, b, tc in algebra._delta_word(w):
                _accumulate(image, (a, b), c * tc)
        if image:
            return False
    return True


def _monomial_families(algebra: PresentedAlgebra,
                       swept: list[tuple[Word, SmashElement, TensorElement]]) -> list[CheckEntry]:
    """Coassociativity, counit and both antipode axioms: each family's first
    counterexample among the (w, x^w # e, Delta(x^w # e)) in swept.  It forms
    no pair products, so PAIR_COST_BUDGET does not bind it."""
    e, one_element = algebra.group.identity(), algebra.one_element()
    families = {  # eps(m) 1 is the right-hand side of both antipode axioms
        "coassociativity": lambda m, d: d.coproduct_on_leg(0) == d.coproduct_on_leg(1),
        "counit": lambda m, d: d.counit_on_leg(0) == m and d.counit_on_leg(1) == m,
        "antipode-left": lambda m, d: d.fold_with(0) == one_element.scale(algebra.counit(m)),
        "antipode-right": lambda m, d: d.fold_with(1) == one_element.scale(algebra.counit(m)),
    }
    return [_entry(name, next((format_monomial(w, e) for w, m, d in swept if not holds(m, d)),
                              None))
            for name, holds in families.items()]


def _hopf_sweep(algebra: PresentedAlgebra, words: list[Word]) -> CheckReport:
    """Each family's first counterexample among the x^w # e, w in words, and
    their pairs with |w1| + |w2| <= bound, within PAIR_COST_BUDGET: the one
    path that forms pair products and charges their cost."""
    bound = algebra.degree_bound
    e = algebra.group.identity()
    sweep = []
    delta_terms = Counter()  # degree -> number of Delta terms over the words swept so far
    # sum of |Delta(m1)| * |Delta(m2)| over the pairs among those words, times
    # phi(N), the rule path's unit: a coefficient has phi(N) rational parts
    cost, phi = 0, euler_phi(algebra.order)
    for w in words:
        elem = algebra.monomial(w, e)
        delta = algebra.comultiply(elem)
        sweep.append((w, elem, delta))
        size = len(delta.terms)
        delta_terms[len(w)] += size
        # pairs of w with the earlier words and with itself, in both orders
        partners = sum(n for degree, n in delta_terms.items() if len(w) + degree <= bound)
        cost += size * (2 * partners - (size if 2 * len(w) <= bound else 0)) * phi
        if cost > PAIR_COST_BUDGET:
            raise InputError(f"pair check costs over {PAIR_COST_BUDGET} coproduct term "
                             f"products times phi({algebra.order}) at degree bound {bound}; "
                             f"lower the degree bound")

    entries = _monomial_families(algebra, sweep)
    pair_failure = next((f"{format_monomial(w1, e)} , {format_monomial(w2, e)}"
                         for w1, m1, d1 in sweep for w2, m2, d2 in sweep
                         if len(w1) + len(w2) <= bound and algebra.comultiply(m1 * m2) != d1 * d2),
                        None)
    entries.append(_entry("coproduct-multiplicative", pair_failure))
    notes = (f"degree bound {bound}", "group tails reduced to e by Gamma-equivariance")
    return CheckReport(entries, notes=confluence_notes(algebra) + notes)


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
    keep that per-word sweep as an oracle against the engine.  The normal words
    are still enumerated, so NORMAL_WORD_BUDGET refuses the same inputs as
    verify_hopf_axioms.
    """
    algebra.normal_words()
    entry = _entry("double-antipode-graded-identity", None)
    notes = (f"degree bound {algebra.degree_bound}",
             "holds in every degree by Gamma-equivariance of S")
    return CheckReport([entry], notes=confluence_notes(algebra) + notes)


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
        return prod((self.scalars[i] for i in word), start=one(self.algebra.order))


def winding_endomorphism(algebra: PresentedAlgebra, xi: Character, elem: SmashElement) -> SmashElement:
    """[xi](a) = sum xi(a_1) a_2 for a character xi of Gamma extended by zero
    on the generators: only the terms of Delta(x^w # g) with u = () count."""
    if xi.group != algebra.group:
        raise InputError("winding character outside the presentation group")
    out: dict = {}
    for (w, g), c in elem.terms.items():
        for u, v, tc in algebra._delta_word(w):
            if not u:
                _accumulate(out, (v, g), c * tc * xi(algebra._degree_of(v) * g))
    return SmashElement._of(algebra, out)


def _diagonal_coefficient(algebra: PresentedAlgebra, elem: SmashElement, i: int) -> CycloNumber:
    key = ((i,), algebra.group.identity())
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
