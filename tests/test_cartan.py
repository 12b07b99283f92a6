import pytest

from cyhopf.cartan import (
    CartanMatrix,
    Root,
    beta_sequence,
    longest_word,
    positive_roots_closure,
    simple_reflection,
    simple_root,
)
from cyhopf.errors import IndexOutOfRange, InputError, NotFiniteType, NotReduced
from conftest import type_a

A1 = CartanMatrix(((2,),))
A1xA1 = CartanMatrix(((2, 0), (0, 2)))
A2 = CartanMatrix(((2, -1), (-1, 2)))
A3 = CartanMatrix(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))
A4 = CartanMatrix(
    ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
)
B2 = CartanMatrix(((2, -1), (-2, 2)))
B3 = CartanMatrix(((2, -1, 0), (-1, 2, -1), (0, -2, 2)))
C3 = CartanMatrix(((2, -1, 0), (-1, 2, -2), (0, -1, 2)))
G2 = CartanMatrix(((2, -1), (-3, 2)))
D4 = CartanMatrix(
    ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
)

# classical positive-root counts, the independent check on the closure oracle
COUNTS = [
    (A1, 1),
    (A1xA1, 2),
    (A2, 3),
    (A3, 6),
    (A4, 10),
    (B2, 4),
    (B3, 9),
    (C3, 9),
    (G2, 6),
    (D4, 12),
]


def test_validation_rejects_bad_matrices():
    with pytest.raises(InputError):
        CartanMatrix(((2, -1), (-1, 3)))  # diagonal must be 2
    with pytest.raises(InputError):
        CartanMatrix(((2, 1), (-1, 2)))  # off-diagonal must be <= 0
    with pytest.raises(InputError):
        CartanMatrix(((2, 0), (-1, 2)))  # zeros must be symmetric
    with pytest.raises(InputError):
        CartanMatrix(((2, -1),))  # square


def test_reflection_defining_properties():
    for cartan in (A2, B2, G2):
        for i in range(cartan.rank):
            alpha = simple_root(cartan, i)
            assert simple_reflection(cartan, i, alpha) == Root(
                tuple(-c for c in alpha.coeffs)
            )
    assert simple_reflection(A2, 0, simple_root(A2, 1)) == Root((1, 1))
    with pytest.raises(IndexOutOfRange):
        simple_reflection(A2, 2, simple_root(A2, 0))


def test_reflection_involutive_on_closure():
    for cartan, _count in COUNTS:
        for root in positive_roots_closure(cartan):
            for i in range(cartan.rank):
                assert simple_reflection(cartan, i, simple_reflection(cartan, i, root)) == root


def test_closure_counts():
    for cartan, count in COUNTS:
        assert len(positive_roots_closure(cartan)) == count


def test_a2_closure_is_the_expected_set():
    assert positive_roots_closure(A2) == {Root((1, 0)), Root((0, 1)), Root((1, 1))}
    assert positive_roots_closure(A1xA1) == {Root((1, 0)), Root((0, 1))}


def test_affine_matrix_rejected():
    affine = CartanMatrix(((2, -2), (-2, 2)))
    with pytest.raises(NotFiniteType):
        positive_roots_closure(affine)
    with pytest.raises(NotFiniteType):
        longest_word(affine)


def test_root_work_budget_is_exact_at_its_edge():
    """A31 (496 positive roots) fits p^2 t <= ROOT_WORK_BUDGET, A32 (528 roots,
    at most 500 allowed at rank 32) does not; a rank over MAX_RANK is refused
    before any root is computed."""
    assert len(positive_roots_closure(CartanMatrix.from_json(type_a(31)))) == 496
    with pytest.raises(NotFiniteType):
        positive_roots_closure(CartanMatrix.from_json(type_a(32)))
    rank_129 = CartanMatrix(tuple(tuple(2 * (i == j) for j in range(129)) for i in range(129)))
    with pytest.raises(InputError, match="rank 129"):
        positive_roots_closure(rank_129)


def test_longest_word_small_cases():
    assert longest_word(A1) == (0,)
    assert longest_word(A1xA1) == (0, 1)
    assert longest_word(A2) == (0, 1, 0)
    assert longest_word(A2, tie_break="max") == (1, 0, 1)
    with pytest.raises(InputError):
        longest_word(A2, tie_break="median")


def test_beta_sequence_a2():
    betas = beta_sequence(A2, (0, 1, 0))
    assert betas == (Root((1, 0)), Root((1, 1)), Root((0, 1)))
    assert beta_sequence(A1xA1, (0, 1)) == (Root((1, 0)), Root((0, 1)))


def test_beta_sequence_first_root_is_first_letter():
    for cartan, _ in COUNTS:
        word = longest_word(cartan)
        betas = beta_sequence(cartan, word)
        assert betas[0] == simple_root(cartan, word[0])


def test_beta_sequence_enumerates_closure():
    for cartan, count in COUNTS:
        for tie in ("min", "max"):
            word = longest_word(cartan, tie_break=tie)
            assert len(word) == count
            betas = beta_sequence(cartan, word)
            assert len(set(betas)) == len(betas)
            assert set(betas) == positive_roots_closure(cartan)


def test_non_reduced_words_rejected():
    with pytest.raises(NotReduced):
        beta_sequence(A2, (0, 0))
    with pytest.raises(NotReduced):
        beta_sequence(A2, (0, 1, 0, 1))
    with pytest.raises(IndexOutOfRange):
        beta_sequence(A2, (0, 5))


def test_a1_power_detection():
    assert A1xA1.is_a1_power()
    assert A1.is_a1_power()
    assert not A2.is_a1_power()


def test_json_round_trip():
    assert CartanMatrix.from_json(A2.to_json()) == A2
