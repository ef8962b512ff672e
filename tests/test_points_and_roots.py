import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from veroav.introots import _derivative, _primitive, _simple_roots_mod_p, _squarefree_part, rational_roots
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial
from veroav.ratpoints import rational_projective_points

X3 = lambda s: parse_poly(s, 3)  # noqa: E731


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


@given(
    st.lists(
        st.tuples(
            st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**40)),
            st.integers(1, 3),
        ),
        max_size=4,
    ),
    st.integers(0, 2),
    st.none() | st.tuples(st.integers(-(2**20), 2**20), st.integers(1, 2**20)),
    st.fractions(min_value=Fraction(1, 2**16), max_value=2**16, max_denominator=2**16),
)
@settings(max_examples=60, deadline=None)
def test_rational_roots_agree_with_sympy_ground_roots(planted, zero, quadratic, lead):
    """Planted rational roots with multiplicities, sometimes the root 0, and
    sometimes an irreducible quadratic factor t^2 + b*t + c, b^2 < 4c."""
    import sympy

    t = Polynomial.variable(0, 1)
    f = Polynomial.constant(1, lead)
    for r, m in planted + [(Fraction(0), zero)]:
        f = f * (t - Polynomial.constant(1, r)) ** m
    if quadratic is not None:
        b, c = quadratic
        f = f * (t * t + Polynomial.constant(1, b) * t + Polynomial.constant(1, b * b // 4 + c))
    coeffs = [f.coeff((i,)) for i in range(f.degree() + 1)]
    roots, complete = rational_roots(coeffs)
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      sympy.Symbol("t"), domain=sympy.QQ)
    expected = sorted((Fraction(int(r.p), int(r.q)), m) for r, m in poly.ground_roots().items())
    assert roots == expected
    assert complete is (quadratic is None)


def _value(f, x, m):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _simple_roots_by_scan(s, ds):
    """The reference residue scan: one Horner evaluation of s per residue."""
    for p in itertools.count(101, 2):
        if s[-1] % p == 0 or any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        residues = [u for u in range(p) if _value(s, u, p) == 0]
        if all(_value(ds, u, p) for u in residues):
            return p, residues


@given(
    st.lists(st.tuples(st.integers(-300, 300), st.integers(1, 300)), min_size=1, max_size=5),
    st.lists(st.integers(-50, 50), max_size=4),
    st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_the_residue_scan_matches_one_evaluation_per_residue(planted, cofactor, mult):
    """Planted rational roots a/b, one of them repeated, times a random
    cofactor: the squarefree part's prime and roots mod p, which a repeated
    root, a prime dividing the leading coefficient or a double root mod p
    can move."""
    f = [1]
    factors = [[-a, b] for a, b in planted] + [[-planted[0][0], planted[0][1]]] * (mult - 1)
    for g in factors + ([cofactor] if any(cofactor) else []):
        f = [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g))
             for k in range(len(f) + len(g) - 1)]
    while not f[-1]:
        f.pop()
    if len(f) > 1:
        s = _squarefree_part(_primitive(f))
        ds = _derivative(s)
        assert _simple_roots_mod_p(s, ds) == _simple_roots_by_scan(s, ds)


def test_a_prime_dividing_the_leading_coefficient_is_passed_over():
    assert _simple_roots_mod_p([-1, 101], [101]) == (103, [pow(101, -1, 103)])
    assert rational_roots(_coeffs("101*t - 1")) == ([(Fraction(1, 101), 1)], True)


def test_a_prime_with_a_double_root_is_passed_over():
    # (t - 1)*(t - 102) = (t - 1)^2 mod 101, a root where s' vanishes too
    assert _simple_roots_mod_p([102, -103, 1], [-103, 2]) == (103, [1, 102])
    roots = rational_roots(_coeffs("(t - 1)*(t - 102)"))
    assert roots == ([(Fraction(1), 1), (Fraction(102), 1)], True)


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
