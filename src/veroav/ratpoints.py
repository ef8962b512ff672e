"""Rational points of zero-dimensional projective varieties.  There are two
readers: ``singlocus.singular_points_rational`` reads a saturation off the
one chart that holds all its points, with no Buchberger run, and
``rational_projective_points`` scans any other zero set chart by chart, by
last nonzero coordinate, each chart an affine system with one grevlex basis.

On a chart (``affine_points``), every coordinate x_i has its eliminant read
off the basis (``groebner.eliminant``): the minimal polynomial of x_i on
Q[x]/I, whose roots are exactly the x_i-coordinates of the points of V(I)
over the algebraic closure.  The chart's rational points are the tuples of
rational roots, one per coordinate, at which every generator vanishes.  A
search is *complete* when every chart is zero-dimensional and every
eliminant splits into rational linear factors, that is, when every point is
rational; otherwise non-rational points exist, or a chart is
positive-dimensional and adds no points, and the flag says so.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from veroav.groebner import GroebnerBasis, buchberger, eliminant, krull_dim_quotient
from veroav.introots import rational_roots
from veroav.polynomial import Polynomial


def affine_points(
    gb: GroebnerBasis, gens: Sequence[Polynomial]
) -> tuple[list[tuple[Fraction, ...]], bool]:
    """Rational solutions, ascending, of the zero-dimensional affine system
    gens with basis gb, and whether every eliminant splits."""
    coordinates, complete = [], True
    for i in range(gb.nvars):
        roots, split = rational_roots(eliminant(gb, i))
        coordinates.append([r for r, _ in roots])
        complete = complete and split
    solutions = [
        pt for pt in itertools.product(*coordinates) if all(g.evaluate(pt) == 0 for g in gens)
    ]
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
        gb = buchberger(affine)
        if krull_dim_quotient(gb) > 0:
            complete = False  # positive-dimensional: no points are listed
            continue
        solutions, chart_complete = affine_points(gb, affine)
        complete = complete and chart_complete
        tail = (Fraction(1),) + (Fraction(0),) * (n - chart - 1)
        points += [sol + tail for sol in solutions]  # charts share no point
    return points, complete
