"""Rational points of zero-dimensional projective varieties.

Charts are scanned by last nonzero coordinate, each giving an affine system
solved by elimination down to the first variable, rational-root extraction
on the eliminant, and back-substitution.  The eliminant is read off the
system's grevlex basis (``groebner.eliminant``).  A search is *complete*
when every chart is zero-dimensional and every eliminant encountered
splits into rational linear factors counted with multiplicity; otherwise
non-rational points exist, or a chart is positive-dimensional and adds no
points, and the flag says so.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from veroav.groebner import buchberger, eliminant, krull_dim_quotient
from veroav.introots import rational_roots
from veroav.polynomial import Polynomial


def _solve_affine(gens: list[Polynomial], k: int) -> tuple[list[tuple[Fraction, ...]], bool]:
    """Rational solutions of an affine system in k variables."""
    gens = [g for g in gens if not g.is_zero()]
    if k == 0:
        if any(not g.is_zero() for g in gens):
            return [], True
        return [()], True
    if not gens:
        # the whole affine space: not zero-dimensional
        return [], False
    if any(g.degree() == 0 for g in gens):
        return [], True  # a nonzero constant: no solutions
    gb = buchberger(gens)
    if gb.is_unit_ideal():
        return [], True
    if krull_dim_quotient(gb) > 0:
        return [], False  # positive-dimensional: no points are listed
    roots, complete = rational_roots(eliminant(gb))
    solutions: list[tuple[Fraction, ...]] = []
    for r, _mult in roots:
        substituted = [g.specialize({0: r}) for g in gens]
        if k == 1:
            if all(g.is_zero() for g in substituted):
                solutions.append((r,))
            continue
        reduced = [g.drop_vars(range(1, k)) for g in substituted if not g.is_zero()]
        sub_solutions, sub_complete = _solve_affine(reduced, k - 1)
        complete = complete and sub_complete
        for sol in sub_solutions:
            solutions.append((r,) + sol)
    return solutions, complete


def rational_projective_points(
    gens: Sequence[Polynomial],
) -> tuple[list[tuple[Fraction, ...]], bool]:
    """Rational points of V(gens) in P^{n-1}, normalized so the last nonzero
    coordinate is 1, ordered by chart (last coordinate's chart first), then
    by ascending coordinates.  Only zero-dimensional charts are solved: a
    chart whose affine zero set is positive-dimensional adds no points, not
    even its isolated ones, and sets the flag to False."""
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        raise ValueError("the zero ideal has no finite point set")
    n = polys[0].nvars
    points: list[tuple[Fraction, ...]] = []
    complete = True
    for chart in range(n - 1, -1, -1):
        fixed = {chart: Fraction(1)}
        fixed.update({j: Fraction(0) for j in range(chart + 1, n)})
        substituted = [g.specialize(fixed) for g in polys]
        if chart == 0:
            if all(g.is_zero() for g in substituted):
                points.append((Fraction(1),) + (Fraction(0),) * (n - 1))
            continue
        affine = [g.drop_vars(range(chart)) for g in substituted if not g.is_zero()]
        if not affine:
            # chart entirely contained in the variety: positive-dimensional
            complete = False
            continue
        solutions, chart_complete = _solve_affine(affine, chart)
        complete = complete and chart_complete
        for sol in solutions:
            pt = sol + (Fraction(1),) + (Fraction(0),) * (n - chart - 1)
            if pt not in points:
                points.append(pt)
    return points, complete
