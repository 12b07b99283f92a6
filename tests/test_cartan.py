import copy
import pickle
import random
import time

import pytest

from cyhopf import cartan as cartan_module
from cyhopf import cli
from cyhopf.cartan import (
    CartanMatrix,
    Root,
    beta_sequence,
    longest_word,
    positive_roots_closure,
    simple_reflection,
    simple_root,
)
from cyhopf.datum import check_cy, quantum_affine_report
from cyhopf.errors import IndexOutOfRange, InputError, NotFiniteType, NotReduced
from cyhopf.sampling import random_a1t_datum, random_cartan_datum
from conftest import (Unread, a1_power, a1a1_znzn_datum, a2_z2z2_datum, error_line, type_a,
                      unbuilt_datum)

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


@pytest.mark.parametrize("cartan, count", COUNTS, ids=[f"t{c.rank}-p{n}" for c, n in COUNTS])
def test_descent_and_closure_refuse_at_the_same_edge(monkeypatch, cartan, count):
    """With the budget at exactly p^2 t both accept the matrix; one below,
    both refuse it."""
    edge = count * count * cartan.rank
    monkeypatch.setattr(cartan_module, "ROOT_WORK_BUDGET", edge)
    assert len(longest_word(cartan)) == len(positive_roots_closure(cartan)) == count
    monkeypatch.setattr(cartan_module, "ROOT_WORK_BUDGET", edge - 1)
    with pytest.raises(NotFiniteType):
        longest_word(cartan)
    with pytest.raises(NotFiniteType):
        positive_roots_closure(cartan)


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


def test_a_row_tuple_has_one_matrix():
    assert CartanMatrix([[2, -1], [-1, 2]]) is A2 is cartan_module._MATRICES[((2, -1), (-1, 2))]
    assert CartanMatrix.from_json([[2, -1], [-1, 2]]) is A2
    assert CartanMatrix(iter([(2, -1), [-1, 2]])) is A2
    assert CartanMatrix(((2, -2), (-1, 2))) is not B2 and B2 is CartanMatrix(B2.entries)
    rng = random.Random(5)
    for name in ("A2", "B2", "G2"):
        drawn = random_cartan_datum(rng, name).cartan
        assert drawn is random_cartan_datum(rng, name).cartan is CartanMatrix(drawn.entries)
    assert random_a1t_datum(rng, t=2).cartan is A1xA1 is random_a1t_datum(rng, t=2).cartan


@pytest.mark.parametrize(
    "rows", [((2, -1),), ((2, -1), (-1, 3)), ((2, 0), (-1, 2)), ((2, 1), (-1, 2)), ()],
    ids=["non-square", "diagonal-3", "one-sided-zero", "positive", "empty"])
def test_a_refused_matrix_leaves_no_entry(rows):
    before = dict(cartan_module._MATRICES)
    with pytest.raises(InputError):
        CartanMatrix(rows)
    assert cartan_module._MATRICES == before and rows not in cartan_module._MATRICES


MATRIX_LOOKUP_CASES = [  # (case, argument, the matrix it is read to, or the error line)
    ("tuple", ((2, -1), (-1, 2)), A2),
    ("list", [[2, -1], [-1, 2]], A2),
    ("list-rows", ([2, -1], [-1, 2]), A2),  # unhashable: the lookup misses, so it is read
    ("iterator", [(2, -1), [-1, 2]], A2),
    ("bool", ((2, False), (False, 2)), A1xA1),
    ("float", ((2.0, -1.0), (-1, 2)), A2),
    ("fraction", ((2, -1.5), (-1, 2)), A2),
    ("short", ((2, -1),), "InputError: Cartan matrix must be square"),
    ("long", ((2, -1), (-1, 2), (0, 0)), "InputError: Cartan matrix must be square"),
    ("positive", ((2, 1), (-1, 2)), "InputError: off-diagonal a_12 must be <= 0"),
    ("list-entry", ((2, [0]), (0, 2)), error_line(int, [0])),
]


@pytest.mark.parametrize("case, rows, want", MATRIX_LOOKUP_CASES,
                         ids=[case for case, _, _ in MATRIX_LOOKUP_CASES])
def test_a_matrix_lookup_before_reading_gives_what_reading_gives(case, rows, want):
    """CartanMatrix looks its argument up before it reads it: the matrix or
    error line is the one that reading first gives, and neither the lookup
    nor a refusal adds a table entry."""
    if case == "iterator":
        rows = iter(rows)
    before = dict(cartan_module._MATRICES)
    if isinstance(want, str):
        assert error_line(CartanMatrix, rows) == want
    else:
        assert CartanMatrix(rows) is want
    assert cartan_module._MATRICES == before


def test_a_matrix_already_built_is_not_read():
    assert CartanMatrix(Unread(A2.entries)) is A2
    with pytest.raises(AssertionError):  # a tuple of list rows misses, so it is read
        CartanMatrix(Unread(([2, -1], [-1, 2])))


def test_copies_and_pickles_are_the_interned_matrix():
    check_cy(a2_z2z2_datum())  # A2 keeps its root data
    for obj in (A2, A1xA1):
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
        assert pickle.loads(pickle.dumps(obj)) is obj
    assert "min" in copy.deepcopy(A2).root_counts


def test_a1_power_detection():
    assert A1xA1.is_a1_power()
    assert A1.is_a1_power()
    assert not A2.is_a1_power()


def test_json_round_trip():
    assert CartanMatrix.from_json(A2.to_json()) == A2


# -- the peeling oracle for the descent ------------------------------------------


def reflect(cartan: CartanMatrix, i: int, r: tuple[int, ...]) -> tuple[int, ...]:
    """s_i on a bare coefficient tuple: r - (sum_j a_ij r_j) alpha_i."""
    pairing = sum(a * c for a, c in zip(cartan.entries[i], r) if a)
    return r[:i] + (r[i] - pairing,) + r[i + 1:]


def peeled_longest_word(cartan: CartanMatrix, closure, tie_break: str) -> tuple[int, ...]:
    """Reduced longest word by inversion-set peeling, about p^2 t steps.

    Start from B = all positive roots (the closure); repeatedly pick a simple
    alpha_i in B (smallest index for "min", largest for "max"), record i, and
    replace B by s_i(B minus alpha_i), which must shrink B by exactly one
    positive root; the word length equals the number of positive roots."""
    simples = {simple_root(cartan, i).coeffs: i for i in range(cartan.rank)}
    remaining = {r.coeffs for r in closure}
    word = []
    while remaining:
        candidates = sorted(i for r, i in simples.items() if r in remaining)
        assert candidates, "no simple root left in a nonempty inversion set"
        i = candidates[0] if tie_break == "min" else candidates[-1]
        word.append(i)
        peeled = {reflect(cartan, i, r) for r in remaining - {simple_root(cartan, i).coeffs}}
        assert len(peeled) == len(remaining) - 1
        assert all(min(r) >= 0 for r in peeled)
        remaining = peeled
    return tuple(word)


def reflected_beta_sequence(cartan: CartanMatrix, word) -> tuple[Root, ...]:
    """beta_k = s_{i_1}...s_{i_{k-1}}(alpha_{i_k}) by k - 1 reflections each."""
    betas = []
    for k, i in enumerate(word):
        root = simple_root(cartan, i).coeffs
        for j in reversed(word[:k]):
            root = reflect(cartan, j, root)
        betas.append(Root(root))
    return tuple(betas)


def block_diagonal(*blocks) -> CartanMatrix:
    """The Cartan matrix of a product of types, one block per factor."""
    t = sum(len(b) for b in blocks)
    rows = [[0] * t for _ in range(t)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[offset + i][offset:offset + len(row)] = row
        offset += len(b)
    return CartanMatrix.from_json(rows)


def type_e(n: int) -> list[list[int]]:
    """E_n: the chain 1..n-1 with node n joined to node 3."""
    rows = [row + [0] for row in type_a(n - 1)] + [[0] * (n - 1) + [2]]
    rows[2][n - 1] = rows[n - 1][2] = -1
    return rows


def transposed(cartan: CartanMatrix) -> CartanMatrix:
    return CartanMatrix(tuple(zip(*cartan.entries)))


F4 = CartanMatrix(((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)))
DESCENT_TYPES = {
    "A2": A2, "G2": G2, "G2^T": transposed(G2), "B3": B3, "B3^T": transposed(B3),
    "F4": F4, "F4^T": transposed(F4),
    **{f"E{n}": CartanMatrix.from_json(type_e(n)) for n in (6, 7, 8)},
    "A12": CartanMatrix.from_json(type_a(12)),
    "A31": CartanMatrix.from_json(type_a(31)),
    "A14xA1^114": block_diagonal(type_a(14), *[[[2]]] * 114),
    "A1^128": block_diagonal(*[[[2]]] * 128),
    "B3xG2xA3": block_diagonal(B3.to_json(), G2.to_json(), type_a(3)),
}


@pytest.mark.parametrize("name", sorted(DESCENT_TYPES))
def test_descent_matches_the_peeling_oracle(name):
    """The descent's word and beta sequence are the peeled word and its
    reflected beta sequence, for both tie-breaks, and enumerate the closure."""
    cartan = DESCENT_TYPES[name]
    closure = positive_roots_closure(cartan)
    for tie in ("min", "max"):
        word = longest_word(cartan, tie_break=tie)
        assert word == peeled_longest_word(cartan, closure, tie)
        betas = beta_sequence(cartan, word)
        assert betas == reflected_beta_sequence(cartan, word)
        assert set(betas) == closure and len(betas) == len(closure)


@pytest.mark.parametrize("rows", [((2, -2), (-2, 2)), ((2, -3), (-3, 2)), ((2, -4), (-1, 2))],
                         ids=["affine-A1", "hyperbolic", "affine-A2-twisted"])
def test_descent_refuses_infinite_types_fast(rows):
    cartan = CartanMatrix(rows)
    for tie in ("min", "max"):
        start = time.perf_counter()
        with pytest.raises(NotFiniteType):
            longest_word(cartan, tie_break=tie)
        assert time.perf_counter() - start < 1.0


def test_only_the_roots_verb_runs_the_closure(monkeypatch, tmp_path, capsys):
    """check_cy with either tie-break and quantum_affine_report never compute
    the reflection closure, also on matrices whose root data they compute
    here; the roots verb computes it exactly once."""
    calls = []

    def counting_closure(cartan):
        calls.append(cartan)
        return positive_roots_closure(cartan)

    monkeypatch.setattr(cartan_module, "positive_roots_closure", counting_closure)
    fresh = [unbuilt_datum(type_a), unbuilt_datum(a1_power)]
    assert [d.cartan.root_counts for d in fresh] == [{}, {}]
    for d in (a2_z2z2_datum(), a1a1_znzn_datum(3), *fresh):
        for tie in ("min", "max"):
            check_cy(d, tie_break=tie)
    quantum_affine_report(a1a1_znzn_datum(3))
    quantum_affine_report(unbuilt_datum(a1_power))
    assert calls == []
    assert [set(d.cartan.root_counts) for d in fresh] == [{"min", "max"}] * 2
    path = tmp_path / "a3.json"
    path.write_text('{"schema": "cy-hopf/1", "cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]}')
    assert cli.main(["roots", str(path), "--json"]) == 0
    assert '"closure_count": 6' in capsys.readouterr().out
    assert len(calls) == 1
