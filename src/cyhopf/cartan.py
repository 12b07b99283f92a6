"""Finite-type Cartan matrices, positive roots, and reduced longest words.

Roots are integer coefficient vectors over the simple roots.  The reflection
convention is s_i(r) = r - (sum_j a_ij r_j) alpha_i; the package's criteria
only consume order-independent products over the derived root sequence, and
the convention is pinned down by closure/beta-sequence cross-checks rather
than by matching any external table.

Finite type is detected by the longest-word descent, capped at the most
positive roots the rank allows.  The reflection closure gives the `roots`
verb's closure_count and is the tests' oracle for the beta sequence.

Cartan matrices are interned in an errors.InternTable, which describes the
rule: CartanMatrix(rows) reads its argument into a tuple of int rows,
validates a new one once per process and then returns the one matrix of
those rows, so matrices compare and hash by identity.  Each keeps its root
data, p and 2 rho per tie-break, in root_counts; datum fills it on first use,
so every datum of one Cartan type shares them.
"""

from __future__ import annotations

from math import isqrt

from .errors import (Frozen, IndexOutOfRange, InputError, InternTable, NotFiniteType, NotReduced,
                     Record, read_ints, set_field)

# Largest rank the root layer accepts.
MAX_RANK = 128
# Largest p^2 t it accepts, p the positive-root count and t the rank.  It keeps
# the value fixed when peeling the longest word cost p^2 t, so that it refuses
# the same matrices as then.  The descent takes p steps of length t, the beta
# sequence p (1 + degree) column updates of length t: 0.01-0.03 s for both on
# A31, A14 x A1^114 and A1^128.  The closure, run only by `roots`, takes 2p t
# reflections of length t: 0.17 s, 0.72 s and 0.37 s there (Python 3.11).
ROOT_WORK_BUDGET = 8_000_000


def _new_matrix(rows: tuple[tuple[int, ...], ...]) -> CartanMatrix:
    t = len(rows)
    if t == 0:
        raise InputError("Cartan matrix must have rank >= 1")
    if any(len(row) != t for row in rows):
        raise InputError("Cartan matrix must be square")
    for i, row in enumerate(rows):
        if row[i] != 2:
            raise InputError(f"diagonal entry a_{i + 1}{i + 1} must be 2, got {row[i]}")
        for j, a in enumerate(row):
            if i != j:
                if a > 0:
                    raise InputError(f"off-diagonal a_{i + 1}{j + 1} must be <= 0")
                if (a == 0) != (rows[j][i] == 0):
                    raise InputError(f"a_{i + 1}{j + 1} and a_{j + 1}{i + 1} must vanish together")
    matrix = object.__new__(CartanMatrix)
    set_field(matrix, "entries", rows)
    set_field(matrix, "_a1_power", all(
        a == 0 for i, row in enumerate(rows) for j, a in enumerate(row) if i != j))
    set_field(matrix, "root_counts", {})  # tie-break -> (p, 2 rho), filled by datum
    return matrix


# rows -> the one matrix; an argument is read into a tuple of int rows
_MATRICES = InternTable(lambda entries: tuple(tuple(map(int, row)) for row in entries), _new_matrix)


class CartanMatrix(Frozen):
    """One object per tuple of int rows, so compared and hashed by identity."""

    def __new__(cls, entries: tuple[tuple[int, ...], ...]) -> CartanMatrix:
        return _MATRICES.intern(entries)

    def __reduce__(self):  # a copy or an unpickled matrix is the interned one
        return CartanMatrix, (self.entries,)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def is_a1_power(self) -> bool:
        """True for type A1 x ... x A1 (all off-diagonal entries zero)."""
        return self._a1_power

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    @staticmethod
    def from_json(obj) -> CartanMatrix:
        if not isinstance(obj, list):
            raise InputError(f"malformed Cartan matrix: {obj!r}")
        return CartanMatrix(tuple(read_ints("Cartan matrix row", row) for row in obj))


class Root(Frozen, Record):
    """Equal and hashed by its coefficients."""

    _compared = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        set_field(self, "coeffs", coeffs)

    def is_positive(self) -> bool:
        return any(self.coeffs) and all(c >= 0 for c in self.coeffs)

    def __str__(self) -> str:
        parts = (f"a{i + 1}" if c == 1 else f"{c}*a{i + 1}" for i, c in enumerate(self.coeffs) if c)
        return "+".join(parts) or "0"


def simple_root(cartan: CartanMatrix, i: int) -> Root:
    return Root(tuple(int(j == i) for j in range(cartan.rank)))


def simple_reflection(cartan: CartanMatrix, i: int, root: Root) -> Root:
    """s_i(root); involutive, sends alpha_i to -alpha_i."""
    if not 0 <= i < cartan.rank:
        raise IndexOutOfRange(f"reflection index {i + 1} outside 1..{cartan.rank}")
    coeffs = list(root.coeffs)
    coeffs[i] -= sum(a * c for a, c in zip(cartan.entries[i], root.coeffs))
    return Root(tuple(coeffs))


def _root_limit(cartan: CartanMatrix) -> int:
    """The most positive roots the rank allows: the largest p with
    p^2 t <= ROOT_WORK_BUDGET."""
    if cartan.rank > MAX_RANK:
        raise InputError(f"Cartan matrix of rank {cartan.rank} is over the limit of {MAX_RANK}")
    return isqrt(ROOT_WORK_BUDGET // cartan.rank)


def _past_limit(cartan: CartanMatrix, limit: int) -> NotFiniteType:
    return NotFiniteType(f"root system passed {limit} positive roots, the most a rank-"
                         f"{cartan.rank} matrix may have (p^2 t <= {ROOT_WORK_BUDGET})")


def positive_roots_closure(cartan: CartanMatrix) -> frozenset[Root]:
    """Positive part of the reflection closure of the simple roots.  The
    closure of a finite type is all 2p roots, so a cap of twice the root limit
    refuses exactly the matrices that longest_word refuses."""
    limit = _root_limit(cartan)
    t = cartan.rank
    frontier = [simple_root(cartan, i) for i in range(t)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(t):
                image = simple_reflection(cartan, i, root)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        if len(seen) > 2 * limit:
            raise _past_limit(cartan, limit)
        frontier = nxt
    return frozenset(r for r in seen if r.is_positive())


def longest_word(cartan: CartanMatrix, tie_break: str = "min") -> tuple[int, ...]:
    """Reduced word for the longest Weyl element, by descent from rho.

    lam starts at rho, all 1 in fundamental-weight coordinates.  While some
    lam_i > 0 (smallest such i for tie_break="min", largest for "max"), record
    i and set lam = s_i(lam) = lam - lam_i alpha_i, alpha_i being column i of
    the Cartan matrix.  Each step lengthens the Weyl element by one, and lam
    reaches -rho after p steps (Humphreys, Reflection Groups and Coxeter
    Groups, 1.6-1.8).  An infinite type never stops; the cap refuses it.
    """
    if tie_break not in ("min", "max"):
        raise InputError(f"tie_break must be 'min' or 'max', got {tie_break!r}")
    limit = _root_limit(cartan)
    t = cartan.rank
    alphas = tuple(zip(*cartan.entries))
    order = range(t) if tie_break == "min" else range(t - 1, -1, -1)
    lam = [1] * t
    word = []
    while (i := next((i for i in order if lam[i] > 0), None)) is not None:
        if len(word) == limit:
            raise _past_limit(cartan, limit)
        word.append(i)
        c = lam[i]
        lam = [x - c * a for x, a in zip(lam, alphas[i])]
    return tuple(word)


def beta_sequence(cartan: CartanMatrix, word: tuple[int, ...]) -> tuple[Root, ...]:
    """Ordered roots beta_k = s_{i_1}...s_{i_{k-1}}(alpha_{i_k}) of a word.

    W = s_{i_1}...s_{i_{k-1}} is kept as its columns W(alpha_j), so beta_k is
    column i_k; W s_i replaces column j by column j - a_ij column i, which
    changes only the columns with a_ij != 0.  Positivity certifies reducedness,
    since W s_i is longer than W exactly when W(alpha_i) > 0 (Humphreys 1.6-1.7);
    a reduced word's betas are its inversions, all distinct.
    """
    t = cartan.rank
    cols = [simple_root(cartan, j).coeffs for j in range(t)]
    links = [[(j, a) for j, a in enumerate(row) if a] for row in cartan.entries]
    betas = []
    for k, i in enumerate(word):
        if not 0 <= i < t:
            raise IndexOutOfRange(f"word letter {i + 1} outside 1..{t}")
        beta = Root(cols[i])
        if not beta.is_positive():
            raise NotReduced(f"beta_{k + 1} = {beta} is not positive; word is not reduced")
        betas.append(beta)
        for j, a in links[i]:
            cols[j] = tuple(x - a * y for x, y in zip(cols[j], beta.coeffs))
    return tuple(betas)
