"""Differential tests of the singular-point reader and of the classification.

(a) ``singular_points_rational`` reads the points off the one chart of the
saturation that holds them all, in the coordinates where the saturation is
computed.  The reference built here moves the saturated basis back to the
original coordinates and scans every chart of it
(``rational_projective_points``).  The points, their order, the ``complete``
flag and the Hilbert series must agree, on coordinate changes of nodal and
cuspidal plane cubics, of ``f0_form(4, 3)`` and of a form with conjugate
nodes.

(b) The ``check_va`` verdict against ``classify``'s prediction wherever one
applies, on plane cubics and quartics with nodes planted at chosen rational
points: random combinations of the forms singular at those points.
"""

from __future__ import annotations

import random

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import moved
from veroav.groebner import buchberger, saturate_irrelevant
from veroav.linalg import MatrixQ, kernel_basis, random_unimodular
from veroav.milnor import ScopeError, gb_jacobian_saturation, validate_input
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial, iter_monomials
from veroav.polyring import substitute_linear
from veroav.ratpoints import rational_projective_points
from veroav.singlocus import ProjPoint, classify, singular_points_rational
from veroav.veronese import check_va, f0_form

X3 = lambda s: parse_poly(s, 3)  # noqa: E731

SINGULAR_FORMS = (
    X3("x*y*z + x^3 + y^3"),  # a node
    X3("z*y^2 - x^3"),  # a cusp
    f0_form(4, 3),  # four coordinate nodes
    X3("x*(x^3+y^3-z^3)"),  # a rational node and two conjugate ones
)


@st.composite
def moved_singular_forms(draw):
    f = draw(st.sampled_from(SINGULAR_FORMS))
    seed = draw(st.integers(0, 2**32 - 1))
    steps = draw(st.integers(2, 5))
    return substitute_linear(f, random_unimodular(f.nvars, random.Random(seed), steps))


def chart_scan_reference(f):
    """(points, complete, Hilbert series) of the saturated Jacobian ideal
    moved back to the coordinates of f, its points from every chart."""
    gens = f.gradient()
    sat = saturate_irrelevant(gens, buchberger(gens))
    unmoved = buchberger(moved(sat.basis.generators, sat.form, 1))
    points, complete = rational_projective_points(unmoved.generators)
    return [ProjPoint.normalize(p) for p in points], complete, unmoved.hilbert_series


@given(moved_singular_forms())
@example(X3("x*(x^3+y^3-z^3)"))  # complete is False
@example(X3("x*(x^3+y^3-z^3)").substitute({0: X3("x+z")}))  # the same, moved
@settings(max_examples=30, deadline=None)
def test_one_chart_points_match_the_chart_scan(f):
    points, complete, series = chart_scan_reference(f)
    assert singular_points_rational(f) == (points, complete)
    assert gb_jacobian_saturation(f).basis.hilbert_series == series


def _singular_at(points, d):
    """Integer forms of degree d in three variables spanning those singular
    at every point: the kernel of the conditions d f/d x_j (p) = 0."""
    monos = list(iter_monomials(3, d))
    rows = []
    for p in points:
        for j in range(3):
            row = []
            for m in monos:
                if m[j]:
                    lowered = m[:j] + (m[j] - 1,) + m[j + 1 :]
                    value = m[j]
                    for c, e in zip(p, lowered):
                        value *= c**e
                    row.append(value)
                else:
                    row.append(0)
            rows.append(row)
    return [Polynomial(3, dict(zip(monos, v))) for v in kernel_basis(MatrixQ.from_rows(rows))]


@st.composite
def planted_nodal_curves(draw):
    d = draw(st.sampled_from([3, 4]))
    coords = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)
    points = draw(
        st.lists(coords, min_size=1, max_size=3, unique_by=lambda p: ProjPoint.normalize(p))
    )
    basis = _singular_at(points, d)
    assume(basis)
    weights = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    f = sum((g.scale(w) for g, w in zip(basis, weights) if w), Polynomial.zero(3))
    assume(not f.is_zero())
    return f


@given(planted_nodal_curves())
@example(X3("x*y*z + x^3 + y^3"))  # nodal cubic: avoiding
@example(X3("z*y^2 - x^3"))  # cuspidal cubic: not avoiding
@example(X3("x*y*z^2 + x^4 + y^4"))  # one node on a quartic
@example(X3("2*x^2*y^2 + 2*x^2*z^2 + 2*y^2*z^2"))  # three coordinate nodes
@example(X3("z*(x*y*(x-y) + z*(x^2+y^2+z^2))"))  # three collinear nodes: not avoiding
@settings(max_examples=40, deadline=None)
def test_the_verdict_matches_the_classification_on_planted_nodes(f):
    try:
        validate_input(f)
    except ScopeError:
        assume(False)
    record = classify(f)
    if record.predicted_va is not None:
        assert check_va(f).verdict is record.predicted_va
