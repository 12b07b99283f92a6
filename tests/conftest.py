import random

import pytest
from hypothesis import HealthCheck, settings

from cyhopf import (
    AbelianGroup,
    CartanDatum,
    CartanMatrix,
    LinkingParameter,
    root_of_unity,
)
from cyhopf.sampling import random_a1t_datum
from cyhopf.smash import quantum_affine_presentation

settings.register_profile(
    "cyhopf",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("cyhopf")


def characters(group: AbelianGroup) -> list:
    """Every character of the group, one per exponent vector, in the order of
    group.elements()."""
    return [group.character(g.exp) for g in group.elements()]


def type_a(n: int) -> list[list[int]]:
    """Rows of the Cartan matrix of type A_n."""
    return [[2 if i == j else -(abs(i - j) == 1) for j in range(n)] for i in range(n)]


def a2_z2z2_datum() -> CartanDatum:
    """First bundled example: Gamma = Z2 x Z2, type A2, lambda = 0."""
    group = AbelianGroup((2, 2))
    g = (group.element((1, 0)), group.element((0, 1)))
    chi = (group.character((1, 0)), group.character((1, 1)))
    return CartanDatum(group, g, chi, CartanMatrix(((2, -1), (-1, 2))))


def a1a1_znzn_datum(n: int) -> CartanDatum:
    """Second bundled example: Gamma = Zn x Zn, type A1 x A1, lambda = 1,
    chi_1 = q on both generators, chi_2 = q^{-1}."""
    group = AbelianGroup((n, n))
    g = (group.element((1, 0)), group.element((0, 1)))
    chi = (group.character((1, 1)), group.character((n - 1, n - 1)))
    return CartanDatum(
        group,
        g,
        chi,
        CartanMatrix(((2, 0), (0, 2))),
        (LinkingParameter(0, 1, root_of_unity(0, 1)),),
    )


@pytest.fixture
def example_a2():
    return a2_z2z2_datum()


@pytest.fixture
def example_a1a1():
    return a1a1_znzn_datum(3)


@pytest.fixture(scope="module")
def seeded_family():
    """>= 20 seeded quantum affine data (t <= 3, |Gamma| <= 16) plus one
    pinned heaviest case, shared by acceptance criteria 4, 5 and 8 and by the
    comparison of the two Hopf-axiom paths."""
    rng = random.Random(20250810)
    data = [random_a1t_datum(rng) for _ in range(20)]
    group = AbelianGroup((4, 4))
    heavy_g = (group.element((1, 0)), group.element((0, 1)), group.element((1, 1)))
    heavy_chi = (group.character((1, 0)), group.character((0, 1)), group.character((3, 3)))
    heavy = CartanDatum(
        group, heavy_g, heavy_chi,
        CartanMatrix(((2, 0, 0), (0, 2, 0), (0, 0, 2))),
    )
    data.append(heavy)
    assert all(d.group.order <= 16 and d.rank <= 3 for d in data)
    algebras = [quantum_affine_presentation(d.group, d.g, d.chi, 4) for d in data]
    return data, algebras
