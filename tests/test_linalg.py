import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veroav.linalg import (
    MatrixQ,
    determinant,
    kernel_basis,
    quotient_coords,
    rank,
    rank_residues,
    random_unimodular,
    rref,
)
from veroav.parsing import parse_poly
from veroav.polyring import coefficient_vector

matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                     min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


def _reference_rref(rows):
    """Plain Fraction Gauss-Jordan, the oracle for the fraction-free path."""
    m = [list(map(Fraction, row)) for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = m[r][c]
        m[r] = [x / f for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = [x - g * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m[: len(pivots)]], tuple(pivots)


@given(matrices)
@settings(max_examples=120)
def test_rref_matches_fraction_oracle(rows):
    R = rref(MatrixQ.from_rows(rows))
    expected_rows, expected_pivots = _reference_rref(rows)
    assert R.pivots == expected_pivots
    assert list(R.matrix) == expected_rows
    assert R.rank == len(expected_pivots)


def test_rank_identity():
    assert rank(MatrixQ.from_rows([[int(i == j) for j in range(4)] for i in range(4)])) == 4


def test_kernel_of_difference_functional():
    kb = kernel_basis(MatrixQ.from_rows([[1, -1]]))
    assert kb == [(1, 1)]


@given(matrices)
@settings(max_examples=60)
def test_kernel_vectors_annihilated(rows):
    M = MatrixQ.from_rows(rows)
    for v in kernel_basis(M):
        for row in M.entries:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(kernel_basis(M)) == M.cols - rank(M)


def test_kernel_of_columns_with_very_different_denominators():
    # column j of M is column j of the integer matrix A over q_j, so the
    # kernel of M is diag(q) times that of A; with the denominators cleared
    # row by row, this 31 x 32 matrix took 3.2 s, and 0.014 s column by column
    rng = random.Random(0)
    q = [rng.randint(10**8, 10**9) for _ in range(32)]
    A = [[rng.randint(-9, 9) for _ in range(32)] for _ in range(31)]
    M = MatrixQ.from_rows([[Fraction(a, qj) for a, qj in zip(row, q)] for row in A])
    start = time.perf_counter()
    kernel = kernel_basis(M)
    assert time.perf_counter() - start < 1.0
    free = rref(MatrixQ.from_rows(A)).free_columns
    expected = [
        tuple(qj * w / q[j] for qj, w in zip(q, v))
        for j, v in zip(free, kernel_basis(MatrixQ.from_rows(A)))
    ]
    assert kernel == expected and len(kernel) == 1
    assert all(sum(a * b for a, b in zip(row, kernel[0])) == 0 for row in M.entries)


def test_determinant_examples():
    assert determinant(MatrixQ.from_rows([[2, 1], [1, 1]])) == 1
    assert determinant(MatrixQ.from_rows([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        determinant(MatrixQ.from_rows([[1, 2, 3]]))


@given(matrices)
@settings(max_examples=60)
def test_determinant_matches_expansion(rows):
    n = min(len(rows), len(rows[0]))
    square = [row[:n] for row in rows[:n]]

    def cofactor(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor(minor)
        return total

    assert determinant(MatrixQ.from_rows(square)) == cofactor(
        [list(map(Fraction, r)) for r in square]
    )


def test_family_cubic_rank_and_relations():
    f = parse_poly("x*y*z + x^3 + y^3", 3)
    R = rref(MatrixQ.from_rows([coefficient_vector(g, 2) for g in f.gradient()]))
    assert R.rank == 3
    # the row space satisfies z1 = 3 z5, z4 = 3 z3, z6 = 0
    for row in R.matrix:
        assert row[0] == 3 * row[4]
        assert row[3] == 3 * row[2]
        assert row[5] == 0


def test_quotient_coords_membership():
    f = parse_poly("x*y*z + x^3 + y^3", 3)
    R = rref(MatrixQ.from_rows([coefficient_vector(g, 2) for g in f.gradient()]))
    z2 = coefficient_vector(parse_poly("z^2", 3), 2)
    assert any(c != 0 for c in quotient_coords(z2, R))
    member = coefficient_vector(parse_poly("3*x^2 + y*z", 3), 2)
    assert all(c == 0 for c in quotient_coords(member, R))

    fermat = parse_poly("x^3 + y^3 + z^3", 3)
    Rf = rref(MatrixQ.from_rows([coefficient_vector(g, 2) for g in fermat.gradient()]))
    x2 = coefficient_vector(parse_poly("x^2", 3), 2)
    assert quotient_coords(x2, Rf) == (0,) * (6 - Rf.rank)


@given(matrices, st.integers(0, 10))
@settings(max_examples=60)
def test_quotient_coords_linear(rows, seed):
    M = MatrixQ.from_rows(rows)
    R = rref(M)
    rng = random.Random(seed)
    u = [Fraction(rng.randint(-9, 9)) for _ in range(M.cols)]
    v = [Fraction(rng.randint(-9, 9)) for _ in range(M.cols)]
    qu = quotient_coords(u, R)
    qv = quotient_coords(v, R)
    qsum = quotient_coords([a + 3 * b for a, b in zip(u, v)], R)
    assert qsum == tuple(a + 3 * b for a, b in zip(qu, qv))
    # rows of the matrix itself map to zero
    for row in M.entries:
        assert all(c == 0 for c in quotient_coords(row, R))


_PRIMES_30BIT = [1073741789, 1073741783, 1073741741, 1073741723, 1073741719]


def _residue_rows(M: MatrixQ, p: int) -> list[dict[int, int]] | None:
    """The rows of M as sparse residues mod p; None when p divides a
    denominator (a bad prime)."""
    if any(x.denominator % p == 0 for row in M.entries for x in row):
        return None
    return [
        {j: x.numerator * pow(x.denominator, -1, p) for j, x in enumerate(row)}
        for row in M.entries
    ]


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_rank_mod_p_agreement(rows):
    M = MatrixQ.from_rows(rows)
    exact = rank(M)
    agreeing = 0
    for p in _PRIMES_30BIT:
        rows_mod_p = _residue_rows(M, p)
        if rows_mod_p is None:
            continue  # bad prime: retry with another
        rk = rank_residues(rows_mod_p, p)
        assert rk <= exact
        if rk == exact:
            agreeing += 1
        if agreeing == 2:
            break
    assert agreeing == 2


def test_random_unimodular_is_unimodular():
    rng = random.Random(5)
    for _ in range(20):
        A = random_unimodular(4, rng)
        assert determinant(MatrixQ.from_rows(A)) in (1, -1)
