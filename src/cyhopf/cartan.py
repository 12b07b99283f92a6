"""Finite-type Cartan matrices, positive roots, and reduced longest words.

Roots are integer coefficient vectors over the simple roots.  The reflection
convention is s_i(r) = r - (sum_j a_ij r_j) alpha_i; the package's criteria
only consume order-independent products over the derived root sequence, and
the convention is pinned down by closure/beta-sequence cross-checks rather
than by matching any external table.

Finite type is detected by termination of the reflection closure, which
doubles as an independent oracle for the beta sequence derived from the
longest word.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import IndexOutOfRange, InputError, InternalError, NotFiniteType, NotReduced, read_ints

# Largest rank the root layer accepts; the closure takes about p t^2 steps.
MAX_RANK = 128
# Largest p^2 t it accepts, p the positive-root count and t the rank: peeling
# a longest word and deriving its beta sequence each take about p^2
# reflections of length t.  The closure, both words and both beta sequences
# take 3.4 s on A31 (p^2 t = 7626496), 4.1 s on A14 x A1^114 and 1.9 s on
# A1^128 (Python 3.11, 2-core host); A32 and A60 are refused in 0.2-0.3 s.
ROOT_WORK_BUDGET = 8_000_000


@dataclass(frozen=True)
class CartanMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(a) for a in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
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
        a1_power = all(a == 0 for i, row in enumerate(rows) for j, a in enumerate(row) if i != j)
        object.__setattr__(self, "_a1_power", a1_power)

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


@dataclass(frozen=True)
class Root:
    coeffs: tuple[int, ...]

    def is_positive(self) -> bool:
        return any(self.coeffs) and all(c >= 0 for c in self.coeffs)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 1:
                parts.append(f"a{i + 1}")
            elif c:
                parts.append(f"{c}*a{i + 1}")
        return "+".join(parts) if parts else "0"


def simple_root(cartan: CartanMatrix, i: int) -> Root:
    coeffs = [0] * cartan.rank
    coeffs[i] = 1
    return Root(tuple(coeffs))


def simple_reflection(cartan: CartanMatrix, i: int, root: Root) -> Root:
    """s_i(root); involutive, sends alpha_i to -alpha_i."""
    if not 0 <= i < cartan.rank:
        raise IndexOutOfRange(f"reflection index {i + 1} outside 1..{cartan.rank}")
    pairing = sum(a * c for a, c in zip(cartan.entries[i], root.coeffs))
    coeffs = list(root.coeffs)
    coeffs[i] -= pairing
    return Root(tuple(coeffs))


def positive_roots_closure(cartan: CartanMatrix) -> frozenset[Root]:
    """Positive part of the reflection closure of the simple roots.

    Refuses a rank over MAX_RANK, and raises NotFiniteType when the closure
    passes the most positive roots the rank allows, the largest p with
    p^2 t <= ROOT_WORK_BUDGET.  That is how non-finite Cartan matrices, whose
    closure never ends, are rejected everywhere, and finite types too large
    to peel with them.  The closure of a finite type is all 2p roots, so the
    check is exact.
    """
    t = cartan.rank
    if t > MAX_RANK:
        raise InputError(f"Cartan matrix of rank {t} is over the limit of {MAX_RANK}")
    limit = isqrt(ROOT_WORK_BUDGET // t)
    simples = [simple_root(cartan, i) for i in range(t)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(t):
                image = simple_reflection(cartan, i, root)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        if len(seen) > 2 * limit:
            raise NotFiniteType(f"root closure passed {limit} positive roots, the most a "
                                f"rank-{t} matrix may have (p^2 t <= {ROOT_WORK_BUDGET})")
        frontier = nxt
    return frozenset(r for r in seen if r.is_positive())


def longest_word(cartan: CartanMatrix, tie_break: str = "min") -> tuple[int, ...]:
    """Reduced word for the longest Weyl element, by inversion-set peeling.

    Start from B = all positive roots; repeatedly pick a simple alpha_i in B
    (smallest index for tie_break="min", largest for "max"), record i, and
    replace B by s_i(B minus alpha_i).  Each step must shrink B by exactly
    one positive root; the word length equals the number of positive roots.
    """
    if tie_break not in ("min", "max"):
        raise InputError(f"tie_break must be 'min' or 'max', got {tie_break!r}")
    t = cartan.rank
    simples = {simple_root(cartan, i): i for i in range(t)}
    remaining = set(positive_roots_closure(cartan))
    word = []
    while remaining:
        candidates = sorted(i for r, i in simples.items() if r in remaining)
        if not candidates:
            raise InternalError("no simple root left in a nonempty inversion set")
        i = candidates[0] if tie_break == "min" else candidates[-1]
        word.append(i)
        alpha = simple_root(cartan, i)
        peeled = {simple_reflection(cartan, i, r) for r in remaining if r != alpha}
        if len(peeled) != len(remaining) - 1 or not all(r.is_positive() for r in peeled):
            raise InternalError("inversion-set peeling failed to shrink by one")
        remaining = peeled
    return tuple(word)


def beta_sequence(cartan: CartanMatrix, word: tuple[int, ...]) -> tuple[Root, ...]:
    """Ordered roots beta_k = s_{i_1}...s_{i_{k-1}}(alpha_{i_k}) of a reduced word.

    Rejects words whose sequence repeats a root or leaves the positive cone,
    which certifies reducedness for words of full length.
    """
    betas = []
    for k, idx in enumerate(word):
        if not 0 <= idx < cartan.rank:
            raise IndexOutOfRange(f"word letter {idx + 1} outside 1..{cartan.rank}")
        root = simple_root(cartan, idx)
        for j in range(k - 1, -1, -1):
            root = simple_reflection(cartan, word[j], root)
        if not root.is_positive():
            raise NotReduced(f"beta_{k + 1} = {root} is not positive; word is not reduced")
        betas.append(root)
    if len(set(betas)) != len(betas):
        raise NotReduced("beta sequence repeats a root; word is not reduced")
    return tuple(betas)
