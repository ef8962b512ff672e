from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from veroav.introots import divisors, factorize, rational_roots
from veroav.parsing import parse_poly
from veroav.ratpoints import rational_projective_points

X3 = lambda s: parse_poly(s, 3)  # noqa: E731


def test_factorize_basics():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(-97) == {97: 1}
    assert factorize(1) == {}
    assert factorize(2**31 - 1) == {2147483647: 1}
    assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(-7) == [1, 7]


def _coeffs(s):
    # ascending coefficients of a univariate polynomial given as a string
    p = parse_poly(s, 1, names=["t"])
    return [p.coeff((i,)) for i in range(p.degree() + 1)]


def test_rational_roots_complete():
    roots, complete = rational_roots(_coeffs("(t - 2)*(2*t + 1)^2"))
    assert complete
    assert roots == [(Fraction(-1, 2), 2), (Fraction(2), 1)]


def test_rational_roots_zero_root_multiplicity():
    roots, complete = rational_roots(_coeffs("t^3*(t - 1)"))
    assert complete
    assert (Fraction(0), 3) in roots and (Fraction(1), 1) in roots


def test_rational_roots_incomplete():
    roots, complete = rational_roots(_coeffs("(t^2 - 2)*(t - 3)"))
    assert not complete
    assert roots == [(Fraction(3), 1)]
    roots, complete = rational_roots(_coeffs("t^2 + 1"))
    assert not complete and roots == []


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
       st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_rational_roots_find_planted(int_roots, lead):
    p = parse_poly(str(lead), 1, names=["t"])
    t = parse_poly("t", 1, names=["t"])
    for r in int_roots:
        p = p * (t - parse_poly(str(r), 1, names=["t"]))
    coeffs = [p.coeff((i,)) for i in range(p.degree() + 1)]
    roots, complete = rational_roots(coeffs)
    assert complete
    assert sorted(sum([[r] * m for r, m in roots], [])) == sorted(
        Fraction(r) for r in int_roots
    )


def test_projective_points_of_monomial_ideal():
    pts, complete = rational_projective_points([X3("x*y"), X3("x*z"), X3("y*z")])
    assert complete
    assert pts == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]


def test_projective_points_single_fat_point():
    pts, complete = rational_projective_points([X3("x^2"), X3("y")])
    assert complete
    assert pts == [(0, 0, 1)]


def test_projective_points_rational_coordinates():
    # the pencil through [1/2 : 1 : 1]... cut out by explicit linear forms
    pts, complete = rational_projective_points([X3("2*x - y"), X3("y - z")])
    assert complete
    assert pts == [(Fraction(1, 2), 1, 1)]


def test_projective_points_irrational_flagged():
    pts, complete = rational_projective_points([X3("x^2 - 2*z^2"), X3("y")])
    assert not complete
    assert pts == []


def test_projective_points_mixed():
    pts, complete = rational_projective_points([X3("(x^2 - 4*z^2)*(x^2 - 3*z^2)"), X3("y")])
    assert not complete
    assert set(pts) == {(2, 0, 1), (-2, 0, 1)}


def test_projective_points_empty():
    pts, complete = rational_projective_points([X3("x"), X3("y"), X3("z")])
    assert complete and pts == []


def test_positive_dimensional_charts_add_no_points():
    # the chart z = 1 holds the line x = 0 and the point (1, 0): neither is listed
    assert rational_projective_points([X3("x*(x-z)"), X3("x*y")]) == ([(0, 1, 0)], False)
    assert rational_projective_points([X3("x*y")]) == ([(0, 1, 0), (1, 0, 0)], False)
