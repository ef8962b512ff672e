"""Exact linear algebra over the rationals.

One forward elimination, ``_echelon``, serves every exact dense question:
it is fraction-free (Bareiss, on an integer-cleared copy, dividing by the
previous pivot at every step), which bounds intermediate entries by minors
of the input instead of letting gcd-heavy Fraction arithmetic dominate.  The
rank is its pivot count, the determinant its signed last pivot, and the RREF
the same pass plus an integer back-substitution and one normalization.
Sparse Macaulay rows are ranked by ``rank_sparse`` and ``rank_residues``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence


class MatrixQ(NamedTuple):
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


class RrefResult(NamedTuple):
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


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of those
    lcms."""
    out = []
    scale = 1
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return out, scale


def _echelon(a: list[list[int]]) -> tuple[list[int], int]:
    """Forward fraction-free (Bareiss) elimination of the integer rows in
    place: the pivot columns, and the sign of the row swaps.  Each pivot
    divides the next step exactly, so the entries stay minors of the input:
    pivot row k leads with the (k+1)-st leading minor of the pivot rows and
    columns, and every entry below a pivot is 0."""
    nrows = len(a)
    pivots: list[int] = []
    sign = prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        p = a[r][c]
        tail = a[r][c + 1 :]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            row[c] = 0
            row[c + 1 :] = [_exact_div(p * x - f * y, prev) for x, y in zip(row[c + 1 :], tail)]
        pivots.append(c)
        prev = p
    return pivots, sign


def rref(M: MatrixQ) -> RrefResult:
    """Exact RREF: the forward elimination, then back-substitution.  With D
    the last pivot, D times the RREF is an integer matrix, so each pivot row
    becomes D times its RREF row, bottom up, by one exact division."""
    a, _ = _integer_rows(M.entries)
    pivots, _ = _echelon(a)
    rank = len(pivots)
    last = a[rank - 1][pivots[-1]] if pivots else 1
    for i in reversed(range(rank)):
        row, c = a[i], pivots[i]
        acc = [last * x for x in row[c:]]
        for k in range(i + 1, rank):
            f = row[pivots[k]]
            if f:
                acc = [x - f * y for x, y in zip(acc, a[k][c:])]
        a[i] = [0] * c + [_exact_div(x, row[c]) for x in acc]
    norm_rows = tuple(tuple(Fraction(x, last) for x in a[i]) for i in range(rank))
    return RrefResult(norm_rows, tuple(pivots), rank, M.cols)


def rank(M: MatrixQ) -> int:
    a, _ = _integer_rows(M.entries)
    return len(_echelon(a)[0])


def kernel_basis(M: MatrixQ) -> list[tuple[Fraction, ...]]:
    """Linearly independent vectors spanning the right null space, one per
    free column: 1 there and 0 at the other free columns.  The elimination
    runs on the columns scaled to primitive integers, which keeps its
    integers small when the columns carry very different denominators.  A
    column scaling keeps the pivot columns, and each kernel vector of the
    scaled matrix, scaled back and divided by its free entry, is the same."""
    scales = []
    for j in range(M.cols):
        col = [row[j] for row in M.entries]
        den = math.lcm(*(x.denominator for x in col))
        content = math.gcd(*(x.numerator * (den // x.denominator) for x in col))
        scales.append(Fraction(den, content or den))
    scaled = tuple(tuple(x * s for x, s in zip(row, scales)) for row in M.entries)
    R = rref(MatrixQ(M.rows, M.cols, scaled))
    basis = []
    for free in R.free_columns:
        v = [Fraction(0)] * M.cols
        v[free] = Fraction(1)
        for i, c in enumerate(R.pivots):
            v[c] = Fraction(-R.matrix[i][free] * scales[c]) / scales[free]
        basis.append(tuple(v))
    return basis


def determinant(M: MatrixQ) -> Fraction:
    """Exact determinant: that of the integer-cleared rows over the row
    scales."""
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    a, scale = _integer_rows(M.entries)
    return Fraction(integer_determinant(a), scale)


def integer_determinant(a: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, which the forward
    elimination overwrites: its signed last pivot."""
    pivots, sign = _echelon(a)
    if len(pivots) < len(a):
        return 0
    return sign * a[-1][-1] if a else 1


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


def rank_sparse(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Q of a sparse integer matrix given as rows {column: value}.

    Each row is reduced against the pivot rows found so far, least column
    first, as b * row - a * pivot (a, b its entry and the pivot's, over
    their gcd), its content divided out after every step; it becomes a
    pivot row if anything is left."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            g = math.gcd(row[c], piv[c])
            a, b = row[c] // g, piv[c] // g
            row = {j: b * v for j, v in row.items()}
            for j, w in piv.items():
                row[j] = row.get(j, 0) - a * w
            g = math.gcd(*row.values()) or 1
            row = {j: v // g for j, v in row.items() if v}
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
