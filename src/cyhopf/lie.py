"""The cocommutative case: enveloping algebras with finite abelian group actions.

A Lie algebra is given by exact-rational structure constants, a group action
by one matrix per group generator.  The CY criteria reduce to linear algebra:
the enveloping algebra is CY iff tr(ad x) = 0 for every basis element, and
the smash product is CY iff additionally every action matrix has determinant
one.  The automorphism twisting the dualizing complex is the identity here
(the coaction is trivial), so it is recorded as such.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import _rational, euler_phi
from .datum import CriterionResult, CyReport, report_scalars
from .errors import Frozen, InputError, InternalError, set_field
from .groups import AbelianGroup, Character

Matrix = tuple[tuple[Fraction, ...], ...]
# Largest dimension an input file may declare.  The Jacobi check costs
# O(d^5): on dense structure constants it took 1.3 s at d = 16 and 11.7 s
# at d = 24 (Python 3.11, 2-core host).
MAX_DIMENSION = 16
# Largest bit size (numerator plus denominator) an entry of a matrix power may
# reach.  Powers of a finite-order matrix stay as small as the matrix; the cap
# stops the order check on a dense matrix of infinite order, whose entries
# double in size with every squaring.
POWER_BIT_CAP = 4096


def _as_matrix(rows, d: int) -> Matrix:
    out = tuple(tuple(map(_rational, row)) for row in rows)
    if len(out) != d or any(len(row) != d for row in out):
        raise InputError(f"expected a {d}x{d} matrix")
    return out


def mat_identity(d: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)) for i in range(d)
    )


def _capped(a: Matrix) -> Matrix:
    if any(x.numerator.bit_length() + x.denominator.bit_length() > POWER_BIT_CAP
           for row in a for x in row):
        raise InputError(f"work limit hit: a matrix power has an entry over {POWER_BIT_CAP} bits")
    return a


def mat_pow(a: Matrix, n: int) -> Matrix:
    """a^n by repeated squaring, within POWER_BIT_CAP."""
    result = mat_identity(len(a))
    base = a
    while n:
        if n & 1:
            result = _capped(mat_mul(result, base))
        base = _capped(mat_mul(base, base)) if n > 1 else base
        n >>= 1
    return result


def finite_order_bound(d: int) -> int:
    """L_d = lcm{k : phi(k) <= d}, a multiple of the order of every
    finite-order matrix in GL_d(Q).

    Such a matrix is diagonalizable over C with k-th roots of unity as
    eigenvalues; a primitive one has minimal polynomial Phi_k over Q, of
    degree phi(k) <= d.  L_d is also the lcm of the prime powers q with
    phi(q) <= d, and q <= 2 phi(q), so the search stops at 2d."""
    return lcm(*(k for k in range(1, 2 * d + 1) if euler_phi(k) <= d))


def mat_det(a: Matrix) -> Fraction:
    d = len(a)
    rows = [list(row) for row in a]
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, d):
            if rows[r][col]:
                factor = rows[r][col] * inv
                for c in range(col, d):
                    rows[r][c] -= factor * rows[col][c]
    return det


class LieAlgebraData(Frozen):
    """Structure constants c_{ij}^k with [x_i, x_j] = sum_k c_{ij}^k x_k;
    brackets[i][j] holds the coordinates of [x_i, x_j]."""

    def __init__(self, dimension: int,
                 brackets: tuple[tuple[tuple[Fraction, ...], ...], ...]) -> None:
        d = dimension
        table = tuple(
            tuple(tuple(map(_rational, brackets[i][j])) for j in range(d))
            for i in range(d)
        )
        set_field(self, "dimension", d)
        set_field(self, "brackets", table)
        for i in range(d):
            for j in range(d):
                if len(table[i][j]) != d:
                    raise InputError("each bracket needs one coordinate per basis element")
                for k in range(d):
                    if table[i][j][k] != -table[j][i][k]:
                        raise InputError(f"brackets not antisymmetric at ({i + 1},{j + 1})")
        basis = mat_identity(d)
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    # [x_i, [x_j, x_k]] + [x_j, [x_k, x_i]] + [x_k, [x_i, x_j]]
                    terms = [self.bracket(basis[a], table[b][c])
                             for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
                    if any(map(sum, zip(*terms))):
                        raise InputError(f"Jacobi identity fails on ({i + 1},{j + 1},{k + 1})")

    def bracket(self, u, v) -> tuple[Fraction, ...]:
        """[u, v] of two coordinate vectors, extended bilinearly."""
        out = [Fraction(0)] * self.dimension
        for a, ua in enumerate(u):
            if ua:
                for b, vb in enumerate(v):
                    if vb:
                        c = ua * vb
                        for k, x in enumerate(self.brackets[a][b]):
                            out[k] += c * x
        return tuple(out)


def adjoint_trace(algebra: LieAlgebraData, i: int) -> Fraction:
    """tr(ad x_i) = sum_j c_{ij}^j."""
    return sum(algebra.brackets[i][j][j] for j in range(algebra.dimension))


class GroupActionData(Frozen):
    """Action of a finite abelian group by Lie algebra automorphisms.

    Given on group generators only and extended multiplicatively; the
    generator-order relations and pairwise commutation are verified here,
    the automorphism property against a specific algebra in validate()."""

    def __init__(self, group: AbelianGroup, matrices: tuple[Matrix, ...]) -> None:
        if len(matrices) != group.rank:
            raise InputError("one action matrix per group generator required")
        d = len(matrices[0]) if matrices else 0
        mats = tuple(_as_matrix(m, d) for m in matrices)
        set_field(self, "group", group)
        set_field(self, "matrices", mats)
        set_field(self, "dimension", d)
        ident = mat_identity(d)
        order_bound = finite_order_bound(d)
        for idx, (m, n) in enumerate(zip(mats, self.group.invariant_factors)):
            # a finite order divides order_bound, so m^n = I iff m^gcd(n, order_bound) = I
            if mat_pow(m, gcd(n, order_bound)) != ident:
                raise InputError(f"action matrix {idx + 1} does not have order dividing {n}")
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                if mat_mul(mats[a], mats[b]) != mat_mul(mats[b], mats[a]):
                    raise InputError("action matrices of an abelian group must commute")

    def validate(self, algebra: LieAlgebraData) -> None:
        d = algebra.dimension
        if self.matrices and self.dimension != d:
            raise InputError(
                f"action matrices are {self.dimension}x{self.dimension}, algebra has dimension {d}"
            )
        for m in self.matrices:
            images = tuple(zip(*m))  # images[i] = coords of m(x_i)
            for i in range(d):
                for j in range(d):
                    lhs = tuple(sum(r[c] * algebra.brackets[i][j][c] for c in range(d)) for r in m)
                    if lhs != algebra.bracket(images[i], images[j]):
                        raise InputError(
                            f"matrix is not a Lie algebra automorphism at ({i + 1},{j + 1})"
                        )


def _det_character(action: GroupActionData, dets: list[Fraction]) -> Character:
    """The determinant homomorphism Gamma -> {1, -1} as a Character, from the
    determinants of the generator matrices.

    GroupActionData checked that each generator matrix has order dividing its
    generator's order n, so its determinant is a rational n-th root of unity,
    hence +-1, and -1 forces n even and maps to the exponent n/2.  Any other
    determinant is an internal error."""
    exps = []
    for det, n in zip(dets, action.group.invariant_factors):
        if det != 1 and (det != -1 or n % 2):
            raise InternalError(f"action matrix determinant {det} on a generator of order {n}")
        exps.append(0 if det == 1 else n // 2)
    return Character(action.group, tuple(exps))


def check_cy_lie_smash(algebra: LieAlgebraData, action: GroupActionData) -> CyReport:
    """CY verdicts for the enveloping algebra and its smash product."""
    action.validate(algebra)
    d = algebra.dimension
    traces = [adjoint_trace(algebra, i) for i in range(d)]
    unimodular = all(t == 0 for t in traces)
    dets = [mat_det(m) for m in action.matrices]
    special = all(det == 1 for det in dets)
    det_char = _det_character(action, dets)
    criteria = (
        CriterionResult(
            "adjoint-traces-vanish",
            unimodular,
            "tr(ad x_i) = (" + ", ".join(str(t) for t in traces) + ")",
        ),
        CriterionResult(
            "action-in-special-linear-group",
            special,
            "det nu(gamma_i) = (" + ", ".join(str(x) for x in dets) + ")",
        ),
    )
    return CyReport(
        cy_R=unimodular,
        cy_smash=unimodular and special,
        cy_dimension=d,
        integral_character=det_char,
        hdet=det_char,
        nakayama_diag=report_scalars(1, (0,) * d),
        inner_witness=(*report_scalars(1, (0,)), action.group.identity()),
        criteria=criteria,
        notes=(
            "twisting automorphism is the identity (trivial coaction), "
            "inner with the identity group-like as witness",
        ),
    )
