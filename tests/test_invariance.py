"""Verdicts are invariants of the data's symmetries (the datum layer).

Each transform maps a Cartan datum to an isomorphic or Galois-conjugate one,
together with a map phi of group elements: a node permutation, an
automorphism of Gamma scaling one factor by a unit, Galois conjugation of the
characters, and an extension of Gamma by a factor on which every chi_k is
trivial.  check_cy's (cy_R, cy_smash, p, xi trivial, witness exists) must not
change, and phi must map a squared-antipode witness to a witness of the image.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyhopf.cartan import CartanMatrix
from cyhopf.datum import CartanDatum, check_cy, squared_antipode_diag
from cyhopf.errors import InvalidDatum
from cyhopf.groups import AbelianGroup
from cyhopf.sampling import random_a1t_datum, random_cartan_datum


def _unit(rng: random.Random, n: int) -> int:
    return rng.choice([u for u in range(1, max(n, 2)) if math.gcd(u, n) == 1])


def permute_nodes(d: CartanDatum, rng: random.Random):
    """x_k -> x_sigma(k), the Cartan matrix permuted to a_sigma(i)sigma(j)."""
    sigma = list(range(d.rank))
    rng.shuffle(sigma)
    rows = d.cartan.entries
    cartan = CartanMatrix(tuple(tuple(rows[i][j] for j in sigma) for i in sigma))
    image = CartanDatum(d.group, tuple(d.g[i] for i in sigma), tuple(d.chi[i] for i in sigma),
                        cartan)
    return image, lambda x: x


def scale_a_factor(d: CartanDatum, rng: random.Random):
    """The automorphism of Gamma that multiplies factor i by a unit u mod n_i:
    elements by u, characters by u^-1, so chi(x) is unchanged."""
    ns = d.group.invariant_factors
    i = rng.randrange(len(ns))
    u = _unit(rng, ns[i])
    u_inv = pow(u, -1, ns[i])

    def scaled(vector, by):
        return tuple(a * by if k == i else a for k, a in enumerate(vector))

    def phi(x):
        return d.group.element(scaled(x.exp, u))

    image = CartanDatum(d.group, tuple(map(phi, d.g)),
                        tuple(d.group.character(scaled(c.exp, u_inv)) for c in d.chi), d.cartan)
    return image, phi


def conjugate_characters(d: CartanDatum, rng: random.Random):
    """chi_k -> chi_k^u with gcd(u, N) = 1, N the group exponent: every q_ij
    goes to its Galois conjugate q_ij^u."""
    u = _unit(rng, d.group.exponent)
    chi = tuple(d.group.character(tuple(u * a for a in c.exp)) for c in d.chi)
    return CartanDatum(d.group, d.g, chi, d.cartan), lambda x: x


def extend_the_group(d: CartanDatum, rng: random.Random):
    """Gamma x Z_m, every chi_k trivial on the new factor and g_k free there."""
    m = rng.choice((2, 3, 4, 5))
    group = AbelianGroup(d.group.invariant_factors + (m,))
    g = tuple(group.element(x.exp + (rng.randrange(m),)) for x in d.g)
    chi = tuple(group.character(c.exp + (0,)) for c in d.chi)
    return CartanDatum(group, g, chi, d.cartan), lambda x: group.element(x.exp + (0,))


def verdicts(d: CartanDatum) -> tuple:
    report = check_cy(d)
    return (report.cy_R, report.cy_smash, report.cy_dimension,
            report.integral_character.is_trivial(), report.inner_witness is not None)


def is_witness(d: CartanDatum, x) -> bool:
    """chi_k(x) is the squared antipode's scalar on x_k, for every k."""
    return [c.value_exponent(x) for c in d.chi] == list(squared_antipode_diag(d))


TRANSFORMS = {"permute-nodes": permute_nodes, "scale-a-factor": scale_a_factor,
              "conjugate-characters": conjugate_characters, "extend-the-group": extend_the_group}


def random_free_datum(rng: random.Random) -> CartanDatum:
    """A valid datum of type A1, A1 x A1 or A2 with g and chi drawn freely over
    a small group, so that some data have no witness."""
    group = AbelianGroup(rng.choice(((6,), (12,), (2, 4), (3, 3), (2, 6), (2, 2, 2))))
    cartan = CartanMatrix(rng.choice((((2,),), ((2, 0), (0, 2)), ((2, -1), (-1, 2)))))

    def draw(make):
        return make(tuple(rng.randrange(n) for n in group.invariant_factors))

    while True:
        g = tuple(draw(group.element) for _ in range(cartan.rank))
        chi = tuple(draw(group.character) for _ in range(cartan.rank))
        try:
            return CartanDatum(group, g, chi, cartan)
        except InvalidDatum:
            continue


SAMPLERS = {"a1t": lambda rng: random_a1t_datum(rng, balanced=rng.random() < 0.5),
            "cartan": random_cartan_datum, "free": random_free_datum}


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("transform", TRANSFORMS)
@settings(max_examples=100, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_transform_keeps_the_verdicts_and_maps_a_witness_to_a_witness(sampler, transform,
                                                                         seed):
    rng = random.Random(seed)
    datum = SAMPLERS[sampler](rng)
    image, phi = TRANSFORMS[transform](datum, rng)
    assert verdicts(image) == verdicts(datum)
    witness = datum.squared_antipode_witness
    if witness is not None:
        assert is_witness(datum, witness) and is_witness(image, phi(witness))
