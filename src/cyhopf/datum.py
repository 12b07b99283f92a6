"""Cartan data over finite abelian groups and the character-level CY criteria.

A datum bundles a finite abelian group, group-like elements g_i, characters
chi_i and a finite-type Cartan matrix, with optional linking parameters that
are carried as data but never influence verdicts.  The braiding matrix is
q_ij = chi_j(g_i); construction enforces q_ii != 1 and the compatibility
q_ij q_ji = q_ii^{a_ij}.

The verdicts computed here are exact character computations:

* the integral character xi, the product of chi_beta over the positive roots
  derived from a reduced longest word, i.e. prod_j chi_j^{(2 rho)_j} with
  2 rho the sum of the positive roots;
* the smash-product CY check: integral character trivial plus an exhaustive
  inner-automorphism witness search for the squared antipode;
* the braided-factor CY check: triviality of the diagonal
  c_k = prod_{i != j_k} chi_{beta_i}(g_k) = xi(g_k) chi_k(g_k)^{-1}, reported
  as the Nakayama diagonal;
* for type A1 x ... x A1, the quantum-affine-space specializations: the
  homological determinant g -> prod chi_i(g^{-1}) and the balance criterion
  q_{1i}...q_{(i-1)i} = q_{i(i+1)}...q_{it}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cartan import CartanMatrix, Root, beta_sequence, longest_word
from .cyclotomic import CycloNumber, one
from .errors import InputError, InternalError, InvalidDatum, NegativeRoot, WrongCartanType
from .groups import AbelianGroup, Character, GroupElement

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


@dataclass(frozen=True, eq=False)
class LinkingParameter:
    i: int  # 0-based, i < j
    j: int
    value: CycloNumber


@dataclass(frozen=True, eq=False)
class CartanDatum:
    group: AbelianGroup
    g: tuple[GroupElement, ...]
    chi: tuple[Character, ...]
    cartan: CartanMatrix
    linking: tuple[LinkingParameter, ...] = ()

    def __post_init__(self):
        t = self.cartan.rank
        if len(self.g) != t or len(self.chi) != t:
            raise InvalidDatum(f"need {t} group-likes and {t} characters for a rank-{t} matrix")
        for x in self.g:
            if x.group != self.group:
                raise InvalidDatum("group-like element outside the datum's group")
        for c in self.chi:
            if c.group != self.group:
                raise InvalidDatum("character outside the datum's group")
        q = self.braiding_matrix()
        for i in range(t):
            if q[i][i].is_one():
                raise InvalidDatum(f"q_{i + 1}{i + 1} = chi_{i + 1}(g_{i + 1}) must differ from 1")
        for i in range(t):
            for j in range(t):
                if i != j:
                    a = self.cartan.entries[i][j]
                    if q[i][j] * q[j][i] != q[i][i] ** a:
                        raise InvalidDatum(
                            f"compatibility q_{i + 1}{j + 1} q_{j + 1}{i + 1} = "
                            f"q_{i + 1}{i + 1}^a_{i + 1}{j + 1} fails"
                        )
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

    @property
    def rank(self) -> int:
        return self.cartan.rank

    def braiding(self, i: int, j: int) -> CycloNumber:
        return self.chi[j](self.g[i])

    def braiding_matrix(self) -> tuple[tuple[CycloNumber, ...], ...]:
        t = self.cartan.rank
        return tuple(tuple(self.braiding(i, j) for j in range(t)) for i in range(t))


@dataclass
class CriterionResult:
    criterion: str
    satisfied: bool
    detail: str

    def to_json(self) -> dict:
        return {"criterion": self.criterion, "satisfied": self.satisfied, "detail": self.detail}


@dataclass
class CyReport:
    """Machine-readable verdict for one datum (or one Lie-action input)."""

    cy_R: bool
    cy_smash: bool
    cy_dimension: int
    integral_character: Character
    hdet: Character | None
    nakayama_diag: tuple[CycloNumber, ...]
    inner_witness: tuple[CycloNumber, GroupElement] | None
    criteria: tuple[CriterionResult, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.cy_smash and not self.integral_character.is_trivial():
            raise InternalError("cy_smash verdict with nontrivial integral character")


def chi_beta(datum: CartanDatum, root: Root) -> Character:
    """Product character chi_1^{m_1} ... chi_t^{m_t} for a positive root."""
    if any(m < 0 for m in root.coeffs):
        raise NegativeRoot(f"chi_beta needs nonnegative coefficients, got {root}")
    out = datum.group.trivial_character()
    for c, m in zip(datum.chi, root.coeffs):
        if m:
            out = out * c**m
    return out


def _root_data(datum: CartanDatum, tie_break: str) -> tuple[int, Character]:
    """Positive-root count p and integral character xi of the datum, from one
    reduced longest word.  xi = prod_beta chi_beta = prod_j chi_j^{(2 rho)_j},
    2 rho the sum of the positive roots, so the word's order does not matter."""
    betas = beta_sequence(datum.cartan, longest_word(datum.cartan, tie_break))
    two_rho = Root(tuple(map(sum, zip(*(b.coeffs for b in betas)))))
    return len(betas), chi_beta(datum, two_rho)


def integral_character(datum: CartanDatum, tie_break: str = "min") -> Character:
    """Character of the homological integral on the group: prod of chi_beta."""
    return _root_data(datum, tie_break)[1]


def hdet_quantum_affine(datum: CartanDatum) -> Character:
    """Homological determinant g -> prod_i chi_i(g^{-1}) for type A1 x ... x A1."""
    if not datum.cartan.is_a1_power():
        raise WrongCartanType("homological determinant is only computed for A1 x ... x A1 data")
    out = datum.group.trivial_character()
    for c in datum.chi:
        out = out * c
    return out.inverse()


def quantum_affine_balance(datum: CartanDatum) -> tuple[bool, tuple[CycloNumber, ...]]:
    """Balance criterion for quantum affine space: for each i the product of
    q_{ki} over k < i equals the product of q_{ik} over k > i.  Returns the
    verdict and the per-index residual ratios (left * right^{-1})."""
    if not datum.cartan.is_a1_power():
        raise WrongCartanType("balance criterion is only defined for A1 x ... x A1 data")
    t = datum.rank
    q = datum.braiding_matrix()
    m = datum.group.exponent
    residuals = []
    for i in range(t):
        left = one(m)
        for k in range(i):
            left = left * q[k][i]
        right = one(m)
        for k in range(i + 1, t):
            right = right * q[i][k]
        residuals.append(left * right.inverse())
    return all(r.is_one() for r in residuals), tuple(residuals)


def _nakayama_diag(datum: CartanDatum, xi: Character) -> tuple[CycloNumber, ...]:
    return tuple((xi * c.inverse())(g) for g, c in zip(datum.g, datum.chi))


def braided_nakayama_diag(datum: CartanDatum, tie_break: str = "min") -> tuple[CycloNumber, ...]:
    """Diagonal c_k = prod_{i != j_k} chi_{beta_i}(g_k) of the braided factor's
    Nakayama automorphism, j_k the position of alpha_k in the beta sequence.
    alpha_k occurs exactly once among the betas, so c_k = xi(g_k) chi_k(g_k)^{-1}."""
    return _nakayama_diag(datum, integral_character(datum, tie_break))


def check_cy_braided(datum: CartanDatum, tie_break: str = "min") -> tuple[bool, tuple[CycloNumber, ...]]:
    """CY verdict for the braided factor: all c_k equal 1."""
    diag = braided_nakayama_diag(datum, tie_break)
    return all(c.is_one() for c in diag), diag


def squared_antipode_diag(datum: CartanDatum) -> tuple[CycloNumber, ...]:
    """Diagonal of the squared antipode on generators: x_i -> chi_i(g_i)^{-1} x_i."""
    return tuple(datum.chi[i](datum.g[i]).inverse() for i in range(datum.rank))


def inner_witness_search(
    datum: CartanDatum, diag: tuple[CycloNumber, ...]
) -> tuple[CycloNumber, GroupElement] | None:
    """Search Gamma for g realizing the diagonal automorphism by conjugation,
    i.e. chi_k(g) = diag_k for all k.  Returns (1, g) for the first match in
    lexicographic order, or None once the group is exhausted."""
    if len(diag) != datum.rank:
        raise InputError(f"diagonal needs {datum.rank} scalars, got {len(diag)}")
    for g in datum.group.elements():
        if all(datum.chi[k](g) == diag[k] for k in range(datum.rank)):
            return one(datum.group.exponent), g
    return None


def check_cy_smash(
    datum: CartanDatum, tie_break: str = "min"
) -> tuple[bool, Character, tuple[CycloNumber, GroupElement] | None, int]:
    """CY verdict for the smash product / its linking lifts.

    Condition 1: the integral character is trivial.  Condition 2: the squared
    antipode's diagonal is realized by conjugation with a group-like (witness
    search).  Returns (verdict, integral character, witness, root count p).
    The verdict does not depend on the linking parameters.
    """
    p, xi = _root_data(datum, tie_break)
    witness = inner_witness_search(datum, squared_antipode_diag(datum))
    return xi.is_trivial() and witness is not None, xi, witness, p


def _listing(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _witness_criterion(name: str, witness) -> CriterionResult:
    return CriterionResult(
        name, witness is not None, f"witness {witness[1]}" if witness else "no group-like witness"
    )


def _quantum_affine_criteria(datum: CartanDatum) -> tuple[Character, tuple[CriterionResult, ...]]:
    """hdet and the balance and hdet-trivial criteria of an A1 x ... x A1 datum."""
    balanced, residuals = quantum_affine_balance(datum)
    hdet = hdet_quantum_affine(datum)
    return hdet, (
        CriterionResult("quantum-affine-balance", balanced, "residuals " + _listing(residuals)),
        CriterionResult("hdet-trivial", hdet.is_trivial(), str(hdet)),
    )


def check_cy(datum: CartanDatum, tie_break: str = "min") -> CyReport:
    """Full report: smash-product and braided-factor verdicts plus, for
    A1 x ... x A1 data, the quantum-affine-space specializations."""
    cy_smash, xi, witness, p = check_cy_smash(datum, tie_break)
    diag = _nakayama_diag(datum, xi)
    cy_r = all(c.is_one() for c in diag)
    criteria = [
        CriterionResult("integral-character-trivial", xi.is_trivial(), str(xi)),
        _witness_criterion("squared-antipode-inner", witness),
        CriterionResult("braided-nakayama-trivial", cy_r, "diag " + _listing(diag)),
    ]
    hdet = None
    if datum.cartan.is_a1_power():
        hdet, affine = _quantum_affine_criteria(datum)
        criteria.extend(affine)
    return CyReport(
        cy_R=cy_r,
        cy_smash=cy_smash,
        cy_dimension=p,
        integral_character=xi,
        hdet=hdet,
        nakayama_diag=diag,
        inner_witness=witness,
        criteria=tuple(criteria),
        notes=(UNIT_GROUP_NOTE, _shift_note(p)),
    )


def quantum_affine_report(datum: CartanDatum) -> CyReport:
    """Three-condition report for A1 x ... x A1 data.

    (i) the balance criterion for the braided factor, (ii) triviality of the
    homological determinant, (iii) a group-like witness for the diagonal
    x_j -> chi_j(g_j^{-1}) x_j.  The conjunction of all three is equivalent
    to both algebras being CY and is reported as cy_smash.
    """
    if not datum.cartan.is_a1_power():
        raise WrongCartanType("quantum-affine report needs a Cartan matrix of type A1 x ... x A1")
    hdet, affine = _quantum_affine_criteria(datum)
    diag = squared_antipode_diag(datum)
    witness = inner_witness_search(datum, diag)
    criteria = affine + (_witness_criterion("nakayama-inner", witness),)
    return CyReport(
        cy_R=affine[0].satisfied,
        cy_smash=all(c.satisfied for c in criteria),
        cy_dimension=datum.rank,
        integral_character=hdet,
        hdet=hdet,
        nakayama_diag=diag,
        inner_witness=witness,
        criteria=criteria,
        notes=(
            UNIT_GROUP_NOTE,
            "cy_smash here is the three-condition conjunction: it holds exactly "
            "when the braided factor and the smash product are both CY",
        ),
    )
