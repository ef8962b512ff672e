"""Exact linear algebra over the rationals.

Elimination is fraction-free (Bareiss-style one-step Gauss-Jordan on an
integer-cleared copy, dividing by the previous pivot at every step), followed
by a single normalization pass.  This bounds intermediate entries by minors
of the input instead of letting gcd-heavy Fraction arithmetic dominate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class MatrixQ:
    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "MatrixQ":
        ent = tuple(tuple(Fraction(x) for x in row) for row in rows)
        ncols = len(ent[0]) if ent else 0
        if any(len(r) != ncols for r in ent):
            raise ValueError("ragged rows")
        return cls(len(ent), ncols, ent)


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form with pivot bookkeeping."""

    matrix: tuple[tuple[Fraction, ...], ...]
    pivots: tuple[int, ...]
    rank: int
    cols: int

    @property
    def free_columns(self) -> tuple[int, ...]:
        pivot_set = set(self.pivots)
        return tuple(j for j in range(self.cols) if j not in pivot_set)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination lost exact divisibility")
    return q


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        scale = 1
        for x in row:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        out.append([int(x * scale) for x in row])
    return out


def rref(M: MatrixQ) -> RrefResult:
    """Exact RREF via fraction-free Gauss-Jordan with final normalization."""
    nrows, ncols = M.rows, M.cols
    a = _integer_rows(M.entries)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        p = a[r][c]
        for i in range(nrows):
            if i == r:
                continue
            row_i = a[i]
            f = row_i[c]
            if f:
                row_r = a[r]
                for j in range(ncols):
                    row_i[j] = _exact_div(p * row_i[j] - f * row_r[j], prev)
            else:
                for j in range(ncols):
                    row_i[j] = _exact_div(p * row_i[j], prev)
        pivots.append(c)
        prev = p
        r += 1
    norm_rows = []
    for i, c in enumerate(pivots):
        p = a[i][c]
        norm_rows.append(tuple(Fraction(x, p) for x in a[i]))
    return RrefResult(tuple(norm_rows), tuple(pivots), len(pivots), ncols)


def rank(M: MatrixQ) -> int:
    return rref(M).rank


def kernel_basis(M: MatrixQ) -> list[tuple[Fraction, ...]]:
    """Linearly independent vectors spanning the right null space."""
    R = rref(M)
    basis = []
    pivot_of_col = {c: i for i, c in enumerate(R.pivots)}
    for free in R.free_columns:
        v = [Fraction(0)] * M.cols
        v[free] = Fraction(1)
        for c, i in pivot_of_col.items():
            v[c] = -R.matrix[i][free]
        basis.append(tuple(v))
    return basis


def determinant(M: MatrixQ) -> Fraction:
    """Exact determinant (forward Bareiss on an integer-cleared copy)."""
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    n = M.rows
    if n == 0:
        return Fraction(1)
    a = []
    scale = 1  # the product of the row denominators
    for row in M.entries:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        scale *= den
        a.append([int(x * den) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = _exact_div(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
            a[i][k] = 0
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], scale)


def quotient_coords(v: Sequence, L: RrefResult) -> tuple[Fraction, ...]:
    """Coordinates of v in the quotient by L's row space.

    Reduces v by the rref rows and reads off the residual at the free
    columns; the result vanishes exactly on the row space.
    """
    if len(v) != L.cols:
        raise ValueError("vector length does not match the matrix")
    vec = [Fraction(x) for x in v]
    for i, c in enumerate(L.pivots):
        f = vec[c]
        if f:
            row = L.matrix[i]
            for j in range(L.cols):
                if row[j]:
                    vec[j] -= f * row[j]
    return tuple(vec[j] for j in L.free_columns)


def rank_residues(rows: Sequence[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of a sparse matrix given as rows {column: residue}.

    Each row is reduced against the monic pivot rows found so far, leading
    column first, and becomes a pivot row itself if anything is left.
    Lazy residues: entries (of any size or sign) accumulate as plain ints
    and are reduced mod p only when read, that is, when their column leads
    (a leading entry that is 0 mod p is dropped then) or when their row
    becomes a pivot row.  A pivot row is stored as the (column, residue)
    list of its tail, its leading entry being 1.
    """
    pivots: dict[int, list[tuple[int, int]]] = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            v = row.pop(c) % p
            if not v:
                continue
            piv = pivots.get(c)
            if piv is None:
                inv = pow(v, -1, p)
                pivots[c] = [(j, r) for j, w in row.items() if (r := w * inv % p)]
                break
            for j, w in piv:
                row[j] = row.get(j, 0) - v * w
    return len(pivots)


def random_unimodular(n: int, rng: random.Random, steps: int = 6) -> list[list[int]]:
    """Random integer matrix of determinant +-1 built from elementary moves.

    Entries stay small, which keeps coordinate-changed polynomials at desk
    scale.
    """
    A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        move = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        if move == 0:
            c = rng.choice([-1, 1])
            for k in range(n):
                A[i][k] += c * A[j][k]
        elif move == 1:
            A[i], A[j] = A[j], A[i]
        else:
            for k in range(n):
                A[i][k] = -A[i][k]
    return A
