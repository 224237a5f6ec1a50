"""Exact integer linear algebra: Smith form and rank computations."""

import random

import pytest

from spectral_delta import boundary_matrix
from spectral_delta.fixtures import rp2_complex
from spectral_delta.linalg import (
    IntMatrix,
    _eliminate_unit_pivots,
    mod_p_rank,
    rational_rank,
    smith_normal_form,
    snf_diagonal,
)

from oracles import determinant


def test_matrix_basics():
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert A.rows == 2 and A.cols == 2
    assert determinant(A) == -2
    I = IntMatrix.identity(2)
    assert A @ I == A and I @ A == A
    assert not A.is_zero()
    assert IntMatrix(2, 3, ((0, 0, 0), (0, 0, 0))).is_zero()


def test_matmul_shape_check():
    A = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        A @ A


def test_determinant_needs_square():
    with pytest.raises(ValueError):
        determinant(IntMatrix.from_rows([[1, 2]]))


MATRIX_ERRORS = {
    "negative_rows": ((-1, 2), "matrix dimensions must be nonnegative"),
    "too_few_rows": ((2, 1, [[1]]), "data shape does not match dimensions"),
    "short_row": ((1, 2, [[1]]), "data shape does not match dimensions"),
}


@pytest.mark.parametrize("case", sorted(MATRIX_ERRORS))
def test_matrix_shape_errors(case):
    args, message = MATRIX_ERRORS[case]
    with pytest.raises(ValueError) as exc:
        IntMatrix(*args)
    assert str(exc.value) == message


def test_determinant_frozen_values():
    assert determinant(IntMatrix.identity(3)) == 1
    A = IntMatrix.from_rows([[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    # cofactor expansion by hand: 2*(1) - 0 + 1*(3) = 5
    assert determinant(A) == 5
    assert determinant(IntMatrix.from_rows([])) == 1


def test_snf_couples_two_and_three():
    # classic: diag(2,3) has invariant factors 1, 6
    res = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert res.invariant_factors == [1, 6]


def test_snf_identity_and_zero():
    res = smith_normal_form(IntMatrix.identity(3))
    assert res.invariant_factors == [1, 1, 1]
    res = smith_normal_form(IntMatrix(2, 2, ((0, 0), (0, 0))))
    assert res.invariant_factors == []


def test_snf_empty_shapes():
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        data = tuple(tuple(0 for _ in range(cols)) for _ in range(rows))
        res = smith_normal_form(IntMatrix(rows, cols, data))
        assert res.invariant_factors == []
        assert res.U.rows == rows and res.V.cols == cols


def test_snf_single_negative_entry():
    res = smith_normal_form(IntMatrix.from_rows([[-4]]))
    assert res.invariant_factors == [4]


def test_snf_known_rectangular():
    # 2x + 4y = b has content 2; second row dependent
    A = IntMatrix.from_rows([[2, 4], [4, 8], [6, 12]])
    res = smith_normal_form(A)
    assert res.invariant_factors == [2]


def _check_snf_contract(A: IntMatrix):
    res = smith_normal_form(A)
    U, D, V = res.U, res.D, res.V
    assert U.rows == U.cols == A.rows
    assert V.rows == V.cols == A.cols
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    assert U @ A @ V == D
    factors = res.invariant_factors
    assert all(d > 0 for d in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0, factors
    # off-diagonal of D vanishes
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D.data[i][j] == 0


def test_snf_contract_on_seeded_random_matrices():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(0, 6)
        n = rng.randint(0, 6)
        A = IntMatrix(m, n, tuple(
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m)))
        _check_snf_contract(A)


def test_snf_contract_with_large_entries():
    rng = random.Random(11)
    for _ in range(20):
        A = IntMatrix(4, 4, tuple(
            tuple(rng.randint(-10**6, 10**6) for _ in range(4))
            for _ in range(4)))
        _check_snf_contract(A)


def test_snf_diagonal_matches_full_decomposition():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        fast = snf_diagonal(rows, m, n)
        full = smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors
        assert fast == full


def test_rational_rank_agrees_with_snf_rank():
    rng = random.Random(5)
    for _ in range(80):
        m = rng.randint(0, 5)
        n = rng.randint(0, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        assert rational_rank(rows, m, n) == len(snf_diagonal(rows, m, n))


def test_mod_p_rank_counts_units_among_invariant_factors():
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(40):
            m = rng.randint(0, 5)
            n = rng.randint(0, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            factors = snf_diagonal(rows, m, n)
            expected = sum(1 for d in factors if d % p != 0)
            assert mod_p_rank(rows, m, n, p) == expected


def test_mod_p_rank_drops_on_torsion_matrix():
    rows = [[2, 0], [0, 2]]
    assert rational_rank(rows, 2, 2) == 2
    assert mod_p_rank(rows, 2, 2, 2) == 0
    assert mod_p_rank(rows, 2, 2, 3) == 2


def _sparse_columns(rows, n):
    return [{r: row[c] for r, row in enumerate(rows) if row[c]}
            for c in range(n)]


def _check_elimination(rows, m, n):
    cols = _sparse_columns(rows, n)
    pivot_rows, rest = _eliminate_unit_pivots(cols)
    pivots = len(pivot_rows)
    assert cols == _sparse_columns(rows, n)  # input left as it was
    rm, rn = len(rest), len(rest[0]) if rest else 0
    assert all(any(row) for row in rest)
    assert all(any(row[j] for row in rest) for j in range(rn))
    assert [1] * pivots + snf_diagonal(rest, rm, rn) == snf_diagonal(rows, m, n)
    assert pivots + rational_rank(rest, rm, rn) == rational_rank(rows, m, n)
    for p in (2, 3):
        assert (pivots + mod_p_rank(rest, rm, rn, p)
                == mod_p_rank(rows, m, n, p))
    # the pivot rows are distinct nonzero rows of the input; a row may
    # only reach its +-1 through column operations, but each pivot column
    # has a +-1 in its own row and none in earlier pivot rows, so the
    # input restricted to the pivot rows has unit Smith divisors only
    assert len(set(pivot_rows)) == pivots
    assert all(0 <= r < m and any(rows[r]) for r in pivot_rows)
    assert (snf_diagonal([rows[r] for r in pivot_rows], pivots, n)
            == [1] * pivots)
    return pivots, rest, pivot_rows


def test_unit_pivot_elimination_on_seeded_sparse_matrices():
    rng = random.Random(17)
    for _ in range(300):
        m = rng.randint(0, 8)
        n = rng.randint(0, 8)
        rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.3
                 else 0 for _ in range(n)] for _ in range(m)]
        _check_elimination(rows, m, n)


def test_unit_pivot_elimination_keeps_a_matrix_without_units():
    assert (_check_elimination([[2, 0], [0, 2]], 2, 2)
            == (0, [[2, 0], [0, 2]], []))
    assert _check_elimination([[0, 0, 0]], 1, 3) == (0, [], [])
    assert _eliminate_unit_pivots([]) == ([], [])


def test_unit_pivot_elimination_on_rp2_boundaries():
    K = rp2_complex()
    ds = [boundary_matrix(K, i) for i in range(3)]
    results = [_check_elimination(d.data, d.rows, d.cols) for d in ds]
    # every invariant factor is 1 but the last one of d2, the 2 that
    # gives H1 its torsion; only that one is left for the dense kernel
    assert [pivots for pivots, _, _ in results] == [1, 5, 9]
    rest = results[2][1]
    assert snf_diagonal(rest, len(rest), len(rest[0])) == [2]
    for d, (_, _, pivot_rows) in zip(ds, results):
        assert all(any(abs(x) == 1 for x in d.data[r]) for r in pivot_rows)
