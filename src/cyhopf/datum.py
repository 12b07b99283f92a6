"""Cartan data over finite abelian groups and the character-level CY criteria.

A datum bundles a finite abelian group, group-like elements g_i, characters
chi_i and a finite-type Cartan matrix, with optional linking parameters that
are carried as data but never influence verdicts.  A pair with lambda_ij != 0
must be linkable: chi_i chi_j = epsilon, g_i g_j != 1, and i, j in different
components of the Dynkin diagram.  The braiding matrix is
q_ij = chi_j(g_i) = zeta_N^{e_ij}, N the exponent of the group; construction
enforces q_ii != 1 and q_ij q_ji = q_ii^{a_ij}, i.e. e_ii != 0 and
e_ij + e_ji = a_ij e_ii mod N.  Every verdict is decided on exponents mod N,
and every character is summed as one exponent vector.

check_cy's report is built in two phases.  At the call it decides the
verdicts and keeps the fields a verdict is read from: cy_R, cy_smash,
cy_dimension, the integral character, hdet and the witness, whose scalar is
one(N), the only CycloNumber built there; so an N whose power table of
Q(zeta_N) is over budget is refused at the call.  The Nakayama diagonal (by
report_scalars), the criteria with their detail strings and the notes are
built from the kept exponents the first time they are read, and then kept.

The verdicts are exact character computations:

* the integral character xi = prod_beta chi_beta = prod_j chi_j^{(2 rho)_j},
  2 rho the sum of the positive roots derived from a reduced longest word;
* the smash-product CY check: xi trivial and a group-like g realizing the
  squared antipode by conjugation, chi_k(g) = chi_k(g_k)^{-1}, solved as
  linear congruences (inner_witness_search);
* the braided-factor CY check: triviality of the Nakayama diagonal
  c_k = prod_{i != j_k} chi_{beta_i}(g_k) = xi(g_k) chi_k(g_k)^{-1}.

The two verdicts never both hold on a valid datum: a CY smash product needs
xi trivial, and then c_k = q_kk^{-1}, which construction keeps from 1.

For type A1 x ... x A1, 2 rho = (1, ..., 1) and a_ij = 0 forces
q_ij q_ji = 1, so the quantum-affine-space criteria are these same objects:
the homological determinant g -> prod chi_i(g^{-1}) is xi^{-1}, and the
balance criterion q_{1k}...q_{(k-1)k} = q_{k(k+1)}...q_{kt} has residual
c_k^{-1}, so it holds iff the braided factor is CY.  quantum_affine_report is
check_cy restricted to these data.

Each tie-break ("min" or "max") derives p and 2 rho from its own longest
word.  They are computed once per interned matrix and tie-break and kept on
the matrix (CartanMatrix.root_counts), so every datum of one Cartan type
shares them.  Every reduced longest word has the same positive roots, so a
tie-break whose (p, 2 rho) differs from one already kept on the matrix raises
InternalError: the tie-breaks cross-check each other once per matrix.  A
report depends on the tie-break only through (p, 2 rho), which every tie-break
that passes the cross-check shares, so check_cy keeps one report per datum
(CartanDatum.report), built on the first call, and every tie-break returns it.
Each call still derives or reads its own tie-break's (p, 2 rho) first, so a
tie-break that disagrees raises even after the report is kept.  The witness
does not depend on the tie-break; it is computed on first use and kept on its
datum (CartanDatum.squared_antipode_witness).  Its congruences are read from
the rows chi_k (N / n_i) that validation computes and keeps
(CartanDatum.chi_rows).  Building a datum computes no report, root data or
witness.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from operator import mul

from .cartan import CartanMatrix, Root, beta_sequence, longest_word
from .cyclotomic import CycloNumber, one, root_of_unity
from .errors import (Frozen, InputError, InternalError, InvalidDatum, NegativeRoot, Record,
                     WrongCartanType, set_field)
from .groups import AbelianGroup, Character, GroupElement

# Most group factors the witness solver works on; its echelon step costs
# O(r^3) on dense characters, 0.2 s at r = 128 and 2.2 s at r = 256.
MAX_WITNESS_RANK = 128

UNIT_GROUP_NOTE = (
    "inner-automorphism search ranges over units of the form scalar * group-like; "
    "this is complete when the braided factor is a connected graded domain, whose "
    "smash product has unit group k^x * Gamma"
)


def _shift_note(p: int) -> str:
    return (
        f"rigid-dualizing shift of the braided factor is reported as the "
        f"positive-root count p = {p}; quoted shifts that differ from p are "
        f"inconsistent with this count and are ignored"
    )


class LinkingParameter(Frozen):
    def __init__(self, i: int, j: int, value: CycloNumber) -> None:
        set_field(self, "i", i)  # 0-based, i < j
        set_field(self, "j", j)
        set_field(self, "value", value)


class CartanDatum(Frozen):
    report = None  # check_cy's report, set on the datum once, by its first call

    def __init__(self, group: AbelianGroup, g: tuple[GroupElement, ...],
                 chi: tuple[Character, ...], cartan: CartanMatrix,
                 linking: tuple[LinkingParameter, ...] = ()) -> None:
        set_field(self, "group", group)
        set_field(self, "g", g)
        set_field(self, "chi", chi)
        set_field(self, "cartan", cartan)
        set_field(self, "linking", linking)
        self.__post_init__()

    def __post_init__(self):
        """Validate the datum and keep its braiding exponents; a method of its
        own, which perfbench/tracing.py times as datum.validate."""
        t = self.cartan.rank
        if len(self.g) != t or len(self.chi) != t:
            raise InvalidDatum(f"need {t} group-likes and {t} characters for a rank-{t} matrix")
        for x in self.g:
            if x.group != self.group:
                raise InvalidDatum("group-like element outside the datum's group")
        for c in self.chi:
            if c.group != self.group:
                raise InvalidDatum("character outside the datum's group")
        m, scale = self.group.exponent, self.group.scale
        rows = tuple(tuple(a * s for a, s in zip(c.exp, scale)) for c in self.chi)
        set_field(self, "chi_rows", rows)  # chi_k(x) = zeta_N^(rows[k] . x.exp)
        e = tuple(tuple(sum(map(mul, row, x.exp)) % m for row in rows) for x in self.g)
        set_field(self, "braiding_exponents", e)  # q_ij = chi_j(g_i) = zeta_N^e_ij
        for i in range(t):
            if e[i][i] == 0:
                raise InvalidDatum(f"q_{i + 1}{i + 1} = chi_{i + 1}(g_{i + 1}) must differ from 1")
        for i, j in product(range(t), repeat=2):
            if i != j and (e[i][j] + e[j][i] - self.cartan.entries[i][j] * e[i][i]) % m:
                raise InvalidDatum(f"compatibility q_{i + 1}{j + 1} q_{j + 1}{i + 1} = "
                                   f"q_{i + 1}{i + 1}^a_{i + 1}{j + 1} fails")
        seen = set()
        for lp in self.linking:
            if not (0 <= lp.i < lp.j < t):
                raise InvalidDatum(f"linking pair ({lp.i + 1},{lp.j + 1}) out of range or unordered")
            if self.cartan.entries[lp.i][lp.j] != 0:
                raise InvalidDatum(
                    f"linking pair ({lp.i + 1},{lp.j + 1}) requires a_{lp.i + 1}{lp.j + 1} = 0"
                )
            if (lp.i, lp.j) in seen:
                raise InvalidDatum(f"duplicate linking pair ({lp.i + 1},{lp.j + 1})")
            seen.add((lp.i, lp.j))
            if not lp.value.is_zero():
                self._check_linkable(lp.i, lp.j)

    def _check_linkable(self, i: int, j: int) -> None:
        """A pair with lambda_ij != 0 must be linkable (Andruskiewitsch-Schneider):
        chi_i chi_j = epsilon, g_i g_j != 1, and i, j in different connected
        components of the Dynkin diagram."""
        pair = f"linked pair ({i + 1},{j + 1})"
        if not (self.chi[i] * self.chi[j]).is_trivial():
            raise InvalidDatum(f"{pair} requires chi_{i + 1} chi_{j + 1} = epsilon")
        if (self.g[i] * self.g[j]).is_identity():
            raise InvalidDatum(f"{pair} requires g_{i + 1} g_{j + 1} != 1")
        component, todo = {i}, [i]
        while todo:
            row = self.cartan.entries[todo.pop()]
            joined = [k for k, a in enumerate(row) if a and k not in component]
            component.update(joined)
            todo += joined
        if j in component:
            raise InvalidDatum(f"{pair} requires {i + 1} and {j + 1} in different "
                               f"components of the Dynkin diagram")

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @cached_property
    def squared_antipode_witness(self) -> GroupElement | None:
        """The first group-like realizing the squared antipode by conjugation."""
        return inner_witness_search(self, squared_antipode_diag(self))


class CriterionResult(Frozen, Record):
    """Equal and hashed by its three fields."""

    _compared = ("criterion", "satisfied", "detail")

    def __init__(self, criterion: str, satisfied: bool, detail: str) -> None:
        set_field(self, "criterion", criterion)
        set_field(self, "satisfied", satisfied)
        set_field(self, "detail", detail)

    def to_json(self) -> dict:
        return {"criterion": self.criterion, "satisfied": self.satisfied, "detail": self.detail}


class CyReport(Frozen, Record):
    """Machine-readable verdict for one datum (or one Lie-action input).
    Equal by its fields; unhashable, as the CycloNumbers it holds are.

    The constructor takes every field.  check_cy builds its report with
    deferred instead: the verdicts, the characters and the witness are fields
    at once, while nakayama_diag, criteria and notes, the scalars and strings
    a report displays, are built from the Nakayama exponents on first read
    and then kept.  Either way every field is read-only."""

    _compared = ("cy_R", "cy_smash", "cy_dimension", "integral_character", "hdet",
                 "nakayama_diag", "inner_witness", "criteria", "notes")
    __hash__ = None

    def __init__(self, cy_R: bool, cy_smash: bool, cy_dimension: int,
                 integral_character: Character, hdet: Character | None,
                 nakayama_diag: tuple[CycloNumber, ...],
                 inner_witness: tuple[CycloNumber, GroupElement] | None,
                 criteria: tuple[CriterionResult, ...], notes: tuple[str, ...] = ()) -> None:
        self._set_verdicts(cy_R, cy_smash, cy_dimension, integral_character, hdet, inner_witness)
        set_field(self, "nakayama_diag", nakayama_diag)
        set_field(self, "criteria", criteria)
        set_field(self, "notes", notes)

    @classmethod
    def deferred(cls, cy_R: bool, cy_smash: bool, cy_dimension: int,
                 integral_character: Character, hdet: Character | None,
                 inner_witness: tuple[CycloNumber, GroupElement] | None,
                 order: int, nakayama_exponents: tuple[int, ...]) -> CyReport:
        """A report whose display fields are built on first read from the
        exponents mod order of the Nakayama diagonal.  It holds no datum."""
        report = cls.__new__(cls)
        report._set_verdicts(cy_R, cy_smash, cy_dimension, integral_character, hdet,
                             inner_witness)
        set_field(report, "_nakayama", (order, nakayama_exponents))
        return report

    def _set_verdicts(self, cy_R, cy_smash, cy_dimension, integral_character, hdet,
                      inner_witness) -> None:
        if cy_smash and not integral_character.is_trivial():
            raise InternalError("cy_smash verdict with nontrivial integral character")
        set_field(self, "cy_R", cy_R)
        set_field(self, "cy_smash", cy_smash)
        set_field(self, "cy_dimension", cy_dimension)
        set_field(self, "integral_character", integral_character)
        set_field(self, "hdet", hdet)
        set_field(self, "inner_witness", inner_witness)

    # Each is a constructor field, or built from _nakayama on first read.
    @cached_property
    def nakayama_diag(self) -> tuple[CycloNumber, ...]:
        return report_scalars(*self._nakayama)

    @cached_property
    def criteria(self) -> tuple[CriterionResult, ...]:
        """For A1 x ... x A1 data (hdet given) also the balance criterion,
        whose residuals are the c_k^{-1}, and hdet's triviality."""
        xi, witness = self.integral_character, self.inner_witness
        criteria = [
            CriterionResult("integral-character-trivial", xi.is_trivial(), str(xi)),
            CriterionResult("squared-antipode-inner", witness is not None,
                            f"witness {witness[1]}" if witness else "no group-like witness"),
            CriterionResult("braided-nakayama-trivial", self.cy_R,
                            "diag " + _listing(self.nakayama_diag)),
        ]
        if self.hdet is not None:
            m, exponents = self._nakayama
            residuals = report_scalars(m, (-x % m for x in exponents))
            criteria += [
                CriterionResult("quantum-affine-balance", self.cy_R,
                                "residuals " + _listing(residuals)),
                CriterionResult("hdet-trivial", self.hdet.is_trivial(), str(self.hdet)),
            ]
        return tuple(criteria)

    @cached_property
    def notes(self) -> tuple[str, ...]:
        return (UNIT_GROUP_NOTE, _shift_note(self.cy_dimension))


def _chi_product(datum: CartanDatum, powers) -> Character:
    """chi_1^{m_1} ... chi_t^{m_t}, summed as one exponent vector."""
    cols = zip(*(c.exp for c in datum.chi))  # column i: the chi_k's exponents on factor i
    return Character(datum.group, tuple(sum(map(mul, powers, col)) for col in cols))


def chi_beta(datum: CartanDatum, root: Root) -> Character:
    """Product character chi_1^{m_1} ... chi_t^{m_t} for a positive root."""
    if any(m < 0 for m in root.coeffs):
        raise NegativeRoot(f"chi_beta needs nonnegative coefficients, got {root}")
    return _chi_product(datum, root.coeffs)


def _root_counts(cartan: CartanMatrix, tie_break: str) -> tuple[int, Root]:
    """Positive-root count p and 2 rho, the sum of the positive roots, from one
    reduced longest word; computed once per matrix and tie-break, checked
    against the (p, 2 rho) of every other tie-break kept on the matrix, then
    kept there too."""
    kept = cartan.root_counts.get(tie_break)
    if kept is None:
        betas = beta_sequence(cartan, longest_word(cartan, tie_break))
        kept = len(betas), Root(tuple(map(sum, zip(*(b.coeffs for b in betas)))))
        for other, counts in cartan.root_counts.items():
            if counts != kept:
                raise InternalError(f"tie-breaks {other} and {tie_break} derive different "
                                    "p and 2 rho")
        cartan.root_counts[tie_break] = kept
    return kept


def integral_character(datum: CartanDatum, tie_break: str = "min") -> Character:
    """Character of the homological integral on the group: prod of chi_beta,
    xi = chi_beta(2 rho)."""
    return chi_beta(datum, _root_counts(datum.cartan, tie_break)[1])


def _nakayama_exponents(datum: CartanDatum, xi: Character) -> tuple[int, ...]:
    """Exponents mod N of c_k = xi(g_k) chi_k(g_k)^{-1}."""
    e, m = datum.braiding_exponents, datum.group.exponent
    return tuple((xi.value_exponent(g) - e[k][k]) % m for k, g in enumerate(datum.g))


def check_cy_braided(datum: CartanDatum, tie_break: str = "min") -> tuple[bool, tuple[int, ...]]:
    """CY verdict for the braided factor and the exponents mod N of its
    Nakayama diagonal c_k = prod_{i != j_k} chi_{beta_i}(g_k), j_k the position
    of alpha_k in the beta sequence: CY iff every c_k is 1.  alpha_k occurs
    exactly once among the betas, so c_k = xi(g_k) chi_k(g_k)^{-1}."""
    diag = _nakayama_exponents(datum, integral_character(datum, tie_break))
    return not any(diag), diag


def squared_antipode_diag(datum: CartanDatum) -> tuple[int, ...]:
    """Exponents mod N of the squared antipode's diagonal on generators,
    x_i -> chi_i(g_i)^{-1} x_i."""
    m = datum.group.exponent
    return tuple(-row[i] % m for i, row in enumerate(datum.braiding_exponents))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _combine(u, v, cu: int, cv: int, ns) -> tuple[int, list[int], list[int]]:
    """Unimodular step on lattice vectors u, v with values cu, cv: returns
    g = gcd(cu, cv) and s u + t v, a v - b u, of values g and 0, with
    coordinate i reduced mod n_i."""
    g, s, t = _xgcd(cu, cv)
    a, b = cu // g, cv // g
    return (g, [(s * x + t * y) % n for x, y, n in zip(u, v, ns)],
            [(a * y - b * x) % n for x, y, n in zip(u, v, ns)])


def _first_solution(ns, rows, targets, m: int) -> list[int] | None:
    """Lexicographically first x with 0 <= x_i < n_i and
    sum_i rows[k][i] x_i = targets[k] (mod m) for every k, or None.

    Every row has the form a_i (m / n_i), so n_i e_i solves the homogeneous
    system and the solutions in Z^r are a coset x0 + L with L a full-rank
    lattice containing every n_i e_i.  Those vectors are kept implicit, so
    coordinate i of any vector of L, or of x0, may be reduced mod n_i.

    The congruences are folded in one at a time, starting from the basis of
    Z^r: extended-gcd column operations gather the basis vectors' values
    (mod m) into one vector b with value v, and the others then lie in the
    new lattice.  The congruence is solvable iff h = gcd(v, m) divides the
    residual of x0; b is replaced by (m / h) b.

    x0 is then reduced against an echelon basis of L, one pivot h_jj > 0 per
    coordinate, into [0, h_jj).  h_jj divides n_j, so the result lies in the
    box.  Any other solution in the box differs from it by a nonzero vector
    of L whose first nonzero coordinate j is a multiple of h_jj; staying in
    the box forces it positive, so the other solution is lexicographically
    later (H. Cohen, A Course in Computational Algebraic Number Theory, 2.4).
    """
    r = len(ns)
    basis = [[int(i == j) % n for i, n in enumerate(ns)] for j in range(r)]
    x0 = [0] * r
    for coeffs, target in zip(rows, targets):
        vals = [sum(map(mul, coeffs, vec)) % m for vec in basis]
        for j in range(1, r):
            if vals[j]:
                vals[0], basis[0], basis[j] = _combine(basis[0], basis[j], vals[0], vals[j], ns)
        h, inv, _ = _xgcd(vals[0], m)
        residual = (target - sum(map(mul, coeffs, x0))) % m
        if residual % h:
            return None
        q = residual // h * inv
        x0 = [(x + q * y) % n for x, y, n in zip(x0, basis[0], ns)]
        basis[0] = [(m // h) * y % n for y, n in zip(basis[0], ns)]
    rest = [vec for vec in basis if any(vec)]
    for j, n_j in enumerate(ns):
        pivot = [0] * r
        pivot[j] = n_j
        later = []
        for vec in rest:
            if vec[j]:  # 0 < vec[j] < n_j, so the new pivot[j] = gcd stays below n_j
                _, pivot, vec = _combine(pivot, vec, pivot[j], vec[j], ns)
            if any(vec):
                later.append(vec)
        rest = later
        q = x0[j] // pivot[j]
        x0 = [x - q * y for x, y in zip(x0, pivot)]
    return x0


def inner_witness_search(datum: CartanDatum, targets: tuple[int, ...]) -> GroupElement | None:
    """Find g in Gamma realizing the diagonal automorphism x_k -> zeta_N^{d_k} x_k
    by conjugation, N the group exponent and d_k = targets[k], i.e.
    chi_k(g) = zeta_N^{d_k} for all k.  Returns the first such g in
    lexicographic order of the exponent vectors, or None when there is none.

    The condition is the linear system sum_i a_{k,i} (N / n_i) g_i = d_k (mod N),
    chi_k = (a_{k,1}, ..., a_{k,r}), solved exactly by _first_solution.  Its
    rows are the datum's chi_rows, kept from validation.  The cost is
    polynomial in the rank and the bit size of N, not in |Gamma|.  Factors
    on which every chi_k is trivial (a zero column of the rows) leave g_i
    free, so g_i = 0 there and the system is solved on the other factors, at
    most MAX_WITNESS_RANK of them."""
    if len(targets) != datum.rank:
        raise InputError(f"diagonal needs {datum.rank} exponents, got {len(targets)}")
    ns = datum.group.invariant_factors
    active = [i for i, column in enumerate(zip(*datum.chi_rows)) if any(column)]
    if len(active) > MAX_WITNESS_RANK:
        raise InputError(
            f"witness solver needs {len(active)} group factors on which a character is "
            f"nontrivial, over the limit of {MAX_WITNESS_RANK}"
        )
    rows = [[row[i] for i in active] for row in datum.chi_rows]
    x = _first_solution([ns[i] for i in active], rows, targets, datum.group.exponent)
    if x is None:
        return None
    exps = [0] * len(ns)
    for i, xi in zip(active, x):
        exps[i] = xi
    return datum.group.element(tuple(exps))


def check_cy_smash(
    datum: CartanDatum, tie_break: str = "min"
) -> tuple[bool, Character, GroupElement | None, int]:
    """CY verdict for the smash product / its linking lifts.

    Condition 1: the integral character is trivial.  Condition 2: the squared
    antipode's diagonal is realized by conjugation with a group-like (witness
    search).  Returns (verdict, integral character, witness, root count p).
    The verdict does not depend on the linking parameters.
    """
    p, two_rho = _root_counts(datum.cartan, tie_break)
    xi = chi_beta(datum, two_rho)
    witness = datum.squared_antipode_witness
    return xi.is_trivial() and witness is not None, xi, witness, p


def report_scalars(order: int, exponents) -> tuple[CycloNumber, ...]:
    """zeta_order^x for each exponent x.  Verdicts are decided on exponents;
    the scalars a report displays are built here on first read: the Nakayama
    diagonal and the residual and diagonal details."""
    return tuple(root_of_unity(x, order) for x in exponents)


def _listing(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def check_cy(datum: CartanDatum, tie_break: str = "min") -> CyReport:
    """Full report: smash-product and braided-factor verdicts plus, for
    A1 x ... x A1 data, the homological determinant xi^{-1} and the balance
    criterion, whose residuals are the c_k^{-1}.  Built once per datum, so one
    report serves both tie-breaks, and kept on the datum; its display fields are
    built on first read."""
    _root_counts(datum.cartan, tie_break)  # on every call: the tie-breaks cross-check
    report = datum.report
    if report is None:
        cy_smash, xi, witness, p = check_cy_smash(datum, tie_break)
        m = datum.group.exponent
        unit = one(m)  # refuses an order whose power table is over budget, witness or not
        exponents = _nakayama_exponents(datum, xi)
        report = CyReport.deferred(
            cy_R=not any(exponents),
            cy_smash=cy_smash,
            cy_dimension=p,
            integral_character=xi,
            hdet=xi.inverse() if datum.cartan.is_a1_power() else None,
            inner_witness=(unit, witness) if witness is not None else None,
            order=m,
            nakayama_exponents=exponents,
        )
        set_field(datum, "report", report)
    return report


def quantum_affine_report(datum: CartanDatum, tie_break: str = "min") -> CyReport:
    """check_cy's report, for A1 x ... x A1 data only."""
    if not datum.cartan.is_a1_power():
        raise WrongCartanType("quantum-affine report needs a Cartan matrix of type A1 x ... x A1")
    return check_cy(datum, tie_break)
