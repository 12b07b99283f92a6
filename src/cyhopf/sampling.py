"""Seeded random generators for Cartan data, used by property sweeps.

All samplers take an explicit random.Random instance so sweeps are exactly
reproducible.  The A1 x ... x A1 family realizes prescribed braiding values
q_ij on a group Z_{n_1} x ... x Z_{n_t} (x Z_k) with g_i the i-th standard
generator: q_ij = chi_j(g_i) is then the exponent of chi_j on factor i.
Compatibility forces q_ji = q_ij^{-1}, so off-diagonal values are drawn
from the roots of unity of order gcd(n_i, n_j).
"""

from __future__ import annotations

import random
from math import gcd, prod

from .cartan import CartanMatrix
from .datum import CartanDatum
from .groups import AbelianGroup


def _a1t_matrix(t: int) -> CartanMatrix:
    return CartanMatrix(tuple(tuple(2 if i == j else 0 for j in range(t)) for i in range(t)))


def random_a1t_datum(
    rng: random.Random, t: int | None = None, balanced: bool = False
) -> CartanDatum:
    """Random valid datum of type A1 x ... x A1 with |Gamma| <= 16.

    With balanced=True the braiding satisfies the quantum-affine balance
    condition (solved in closed form for t <= 3).  A spectator factor is
    added only to groups of order at most 6, so that sweeps over many data
    stay fast.
    """
    if t is None:
        t = rng.choice([1, 2, 3])
    if t == 1:
        ns = [rng.choice([2, 3, 4, 5, 6, 8, 12, 16])]
    elif t == 2:
        ns = [rng.choice([2, 3, 4]), rng.choice([2, 3, 4])]
    else:
        ns = [2, 2, 2]
    # optional spectator factor not hit by any g_i
    extras = [k for k in (2, 3, 4) if prod(ns) * k <= 12]
    extra = rng.choice([1] * max(1, len(extras)) + extras)
    factors = tuple(ns) + ((extra,) if extra > 1 else ())
    group = AbelianGroup(factors)
    g = tuple(group.generator(i) for i in range(t))

    # chi_j exponent on factor i encodes q_ij = zeta_{n_i}^{e}
    exps = [[0] * group.rank for _ in range(t)]
    for j in range(t):
        exps[j][j] = rng.randrange(1, ns[j])  # q_jj != 1
        if extra > 1:
            exps[j][t] = rng.randrange(extra)
    if balanced:
        if t == 2:
            pass  # balance forces q_12 = q_21 = 1
        elif t == 3:
            # q_12 = q_23 = c, q_13 = c^{-1}, inverses transposed
            d = gcd(gcd(ns[0], ns[1]), ns[2])
            a = rng.randrange(d)
            _set_q(exps, ns, 0, 1, a * ns[0] // d)
            _set_q(exps, ns, 1, 0, -a * ns[1] // d)
            _set_q(exps, ns, 1, 2, a * ns[1] // d)
            _set_q(exps, ns, 2, 1, -a * ns[2] // d)
            _set_q(exps, ns, 0, 2, -a * ns[0] // d)
            _set_q(exps, ns, 2, 0, a * ns[2] // d)
    else:
        for i in range(t):
            for j in range(i + 1, t):
                d = gcd(ns[i], ns[j])
                a = rng.randrange(d)
                _set_q(exps, ns, i, j, a * ns[i] // d)
                _set_q(exps, ns, j, i, -a * ns[j] // d)
    chi = tuple(group.character(tuple(e)) for e in exps)
    return CartanDatum(group, g, chi, _a1t_matrix(t))


def _set_q(exps, ns, i, j, value) -> None:
    """Record q_ij = zeta_{n_i}^value as the exponent of chi_j on factor i."""
    exps[j][i] = value % ns[i]


_SYMMETRIZABLE = {
    "A1": (((2,),), (1,), 3),
    "A1xA1": (((2, 0), (0, 2)), (1, 1), 3),
    "A2": (((2, -1), (-1, 2)), (1, 1), 3),
    "A3": (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), (1, 1, 1), 3),
    "B2": (((2, -1), (-2, 2)), (2, 1), 5),
    "G2": (((2, -1), (-3, 2)), (3, 1), 7),
}


def random_cartan_datum(rng: random.Random, type_name: str | None = None) -> CartanDatum:
    """Random valid datum of a named finite type, via the symmetrized braiding
    q_ij = q^{d_i a_ij}, q_ii = q^{2 d_i} on Gamma = (Z_N)^t with g_i the
    standard generators."""
    if type_name is None:
        type_name = rng.choice(sorted(_SYMMETRIZABLE))
    rows, d, n_min = _SYMMETRIZABLE[type_name]
    cartan = CartanMatrix(rows)
    t = cartan.rank
    n = rng.choice([n_min, n_min + 1, 2 * n_min + 1])
    # exponent of q in Z_N; 2 d_i must stay nonzero mod N
    e = rng.choice([a for a in range(1, n) if all((2 * di * a) % n for di in d)])
    group = AbelianGroup((n,) * t)
    g = tuple(group.generator(i) for i in range(t))
    chi = []
    for j in range(t):
        exp = [0] * t
        for i in range(t):
            a_ij = rows[i][j] if i != j else 2
            exp[i] = (e * d[i] * a_ij) % n
        chi.append(group.character(tuple(exp)))
    return CartanDatum(group, g, tuple(chi), cartan)
