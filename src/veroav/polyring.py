"""Graded-ring utilities on top of the sparse polynomial core.

The fixed basis order for graded pieces (and for printing) is graded lex
with x1 > x2 > ..., which for R_2 in three variables yields
x^2, xy, xz, y^2, yz, z^2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from veroav.polynomial import Monomial, Polynomial, iter_monomials


class SingularMatrixError(ValueError):
    """Raised when a coordinate change matrix is not invertible."""


@lru_cache(maxsize=None)
def graded_basis(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """Monomials of R_degree in descending graded-lex order, which within
    one degree is descending lexicographic order: ``iter_monomials``
    reversed."""
    return tuple(iter_monomials(nvars, degree))[::-1]


def dim_graded(nvars: int, degree: int) -> int:
    """dim R_degree = C(nvars + degree - 1, degree)."""
    if degree < 0:
        return 0
    return math.comb(nvars + degree - 1, degree)


def coefficient_vector(p: Polynomial, degree: int) -> tuple[int | Fraction, ...]:
    """Coordinates of a homogeneous polynomial in the graded basis."""
    if not p.is_homogeneous() or (not p.is_zero() and p.homogeneous_degree() != degree):
        raise ValueError(f"polynomial is not homogeneous of degree {degree}")
    return tuple(p.coeff(m) for m in graded_basis(p.nvars, degree))


def substitute_linear(p: Polynomial, matrix: Sequence[Sequence]) -> Polynomial:
    """p(A x): substitute x_i -> sum_j A[i][j] x_j for an invertible A."""
    from veroav.linalg import MatrixQ, determinant

    n = p.nvars
    A = MatrixQ.from_rows(matrix)
    if A.rows != n or A.cols != n:
        raise ValueError("matrix shape does not match the variable count")
    if determinant(A) == 0:
        raise SingularMatrixError("coordinate change matrix is singular")
    assignment = {
        i: Polynomial(n, {tuple(1 if k == j else 0 for k in range(n)): A.entries[i][j]
                          for j in range(n) if A.entries[i][j]})
        for i in range(n)
    }
    return p.substitute(assignment)


def resultant_univariate(p: Polynomial, q: Polynomial) -> Fraction:
    """Sylvester resultant of univariate p, q: deg(q) rows of p's coefficients
    first, then deg(p) rows of q's."""
    from veroav.linalg import MatrixQ, determinant

    if p.nvars != 1 or q.nvars != 1:
        raise ValueError("resultant requires univariate polynomials")
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    dp, dq = p.degree(), q.degree()
    pc = [p.coeff((dp - i,)) for i in range(dp + 1)]  # descending
    qc = [q.coeff((dq - i,)) for i in range(dq + 1)]
    size = dp + dq
    rows = []
    for shift in range(dq):
        rows.append([Fraction(0)] * shift + pc + [Fraction(0)] * (size - shift - dp - 1))
    for shift in range(dp):
        rows.append([Fraction(0)] * shift + qc + [Fraction(0)] * (size - shift - dq - 1))
    if not rows:  # both constants
        return Fraction(1)
    return determinant(MatrixQ.from_rows(rows))


@lru_cache(maxsize=None)
def power_linear_form_symbolic(nvars: int, degree: int) -> tuple[tuple[Monomial, int], ...]:
    """Multinomial expansion data for (a_1 x_1 + ... + a_n x_n)^degree.

    Returns, aligned with graded_basis(nvars, degree), pairs (alpha, m!/alpha!)
    so that the x^alpha coefficient of the power is the given multinomial times
    a^alpha.  Degree 0 gives the empty product, (((0,) * nvars, 1),).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    fact = math.factorial(degree)
    out = []
    for alpha in graded_basis(nvars, degree):
        denom = 1
        for e in alpha:
            denom *= math.factorial(e)
        out.append((alpha, fact // denom))
    return tuple(out)


def linear_form(coeffs: Sequence) -> Polynomial:
    """The linear form with the given coefficient vector."""
    n = len(coeffs)
    return Polynomial(n, {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coeffs)})
