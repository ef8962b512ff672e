import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import homogeneous_polynomials, is_canonical, unimodular_matrices
from veroav.parsing import parse_poly, render_poly
from veroav.orders import grlex_key
from veroav.polynomial import Polynomial, iter_monomials
from veroav.polyring import (
    SingularMatrixError,
    coefficient_vector,
    dim_graded,
    graded_basis,
    linear_form,
    power_linear_form_symbolic,
    resultant_univariate,
    substitute_linear,
)

X = lambda s, n=3: parse_poly(s, n)  # noqa: E731


def test_constructor_checks_arity_and_wraps_coefficients():
    with pytest.raises(ValueError, match="wrong arity"):
        Polynomial(3, {(1, 0): 1})
    with pytest.raises(ValueError, match="nonnegative"):
        Polynomial(-1, {})
    p = Polynomial(2, {(1, 0): 2, (0, 1): 0, (1, 1): Fraction(1, 2)})
    assert p.terms == {(1, 0): Fraction(2), (1, 1): Fraction(1, 2)}
    assert all(is_canonical(c) for c in p.terms.values())


@given(homogeneous_polynomials(nvars=st.just(3)), homogeneous_polynomials(nvars=st.just(3)))
@settings(max_examples=40, deadline=None)
def test_arithmetic_results_pass_the_constructor_checks(p, q):
    """Sums, products, scalings, partials and specializations skip the
    constructor: each must already hold nonzero canonical coefficients on
    tuples of the right arity."""
    results = [p + q, p - p, p * q, -p, p.scale(Fraction(-3, 2)), p.scale(0), p.partial(0),
               p.specialize({0: Fraction(1, 3)}), p.specialize({p.nvars - 1: 0})]
    for r in results:
        assert r == Polynomial(r.nvars, dict(r.terms))
        assert all(is_canonical(c) and c for c in r.terms.values())
        assert all(type(m) is tuple and len(m) == r.nvars for m in r.terms)


def test_partial_derivative_family_cubic():
    f = X("x*y*z + x^3 + y^3")
    assert f.partial(0) == X("y*z + 3*x^2")
    assert X("y^4", 2).partial(0).is_zero()


def test_partial_derivative_monomial():
    d = 5
    f = parse_poly(f"x*y*z^{d-2}", 3)
    assert f.partial(1) == parse_poly(f"x*z^{d-2}", 3)


def test_graded_basis_order():
    basis = graded_basis(3, 2)
    names = ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]
    assert [render_poly(Polynomial.monomial(m)) for m in basis] == names


def _recursive_monomials(nvars, degree):
    """The reference enumeration: the first exponent ascending, then the
    rest recursively."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    if nvars == 1:
        yield (degree,)
        return
    for e in range(degree + 1):
        for rest in _recursive_monomials(nvars - 1, degree - e):
            yield (e,) + rest


@given(st.integers(0, 6), st.integers(0, 10))
@settings(max_examples=80, deadline=None)
def test_monomials_enumerate_as_the_recursion_does(n, d):
    monos = list(iter_monomials(n, d))
    assert monos == list(_recursive_monomials(n, d)) == sorted(monos)
    assert graded_basis(n, d) == tuple(sorted(monos, key=grlex_key, reverse=True))


def test_no_monomial_has_a_negative_degree():
    assert [list(iter_monomials(n, -1)) for n in range(4)] == [[]] * 4
    assert list(iter_monomials(0, 0)) == [()] and list(iter_monomials(0, 2)) == []


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", range(0, 11))
def test_graded_basis_count(n, m):
    assert len(graded_basis(n, m)) == math.comb(n + m - 1, m) == dim_graded(n, m)


def test_coefficient_vector_examples():
    v = coefficient_vector(X("3*x^2 + y*z"), 2)
    assert v == (3, 0, 0, 0, 1, 0)
    assert coefficient_vector(Polynomial.zero(3), 4) == (0,) * dim_graded(3, 4)
    with pytest.raises(ValueError):
        coefficient_vector(X("x^2 + y"), 2)


@given(homogeneous_polynomials())
def test_euler_relation(f):
    d = f.homogeneous_degree()
    n = f.nvars
    lhs = sum(
        (Polynomial.variable(i, n) * f.partial(i) for i in range(n)), Polynomial.zero(n)
    )
    assert lhs == f * d


def test_substitute_identity_and_swap():
    f = X("x*y*z + x^3 + y^3")
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert substitute_linear(f, eye) == f
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert substitute_linear(X("x^2"), swap) == X("y^2")


def test_substitute_singular_rejected():
    with pytest.raises(SingularMatrixError):
        substitute_linear(X("x^2"), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


@given(homogeneous_polynomials(nvars=st.just(3)), unimodular_matrices(3))
@settings(max_examples=25)
def test_substitute_inverse_round_trip(f, A):
    from veroav.linalg import MatrixQ, rref

    g = substitute_linear(f, A)
    # invert by solving A * B = I exactly
    n = 3
    aug = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(int(i == k)) for k in range(n)]
           for i in range(n)]
    R = rref(MatrixQ.from_rows(aug))
    B = [[R.matrix[i][n + j] for j in range(n)] for i in range(n)]
    assert substitute_linear(g, B) == f


def test_resultant_values():
    t = lambda s: parse_poly(s, 1, names=["t"])  # noqa: E731
    assert resultant_univariate(t("t^2+3*t+1"), t("t^3+2*t+2")) == -25
    P = t("t^5+15*t^4-50*t^3+70*t^2-95*t+67")
    Q = t("3*t^5+5*t^4+30*t^3-50*t^2+35*t-19")
    assert resultant_univariate(P, Q) == -112990236800000


def test_resultant_linear_convention():
    # Res(t - a, t - b) = a - b under the stated row convention
    t = lambda s: parse_poly(s, 1, names=["t"])  # noqa: E731
    assert resultant_univariate(t("t - 3"), t("t - 5")) == 3 - 5
    assert resultant_univariate(t("t - 5"), t("t - 3")) == 5 - 3


def test_resultant_multiplicativity():
    rng = random.Random(7)
    for _ in range(10):
        def rand_poly():
            deg = rng.randint(1, 3)
            coeffs = {(i,): rng.randint(-4, 4) for i in range(deg)}
            coeffs[(deg,)] = rng.choice([1, 2, -1, 3])
            return Polynomial(1, coeffs)

        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert resultant_univariate(p, q * r) == resultant_univariate(
            p, q
        ) * resultant_univariate(p, r)


def test_resultant_zero_rejected():
    with pytest.raises(ValueError):
        resultant_univariate(Polynomial.zero(1), parse_poly("x", 1))


def test_power_expansion_binomial():
    exp = power_linear_form_symbolic(2, 2)
    assert exp == (((2, 0), 1), ((1, 1), 2), ((0, 2), 1))


def test_power_expansion_of_degree_zero_is_the_empty_product():
    assert power_linear_form_symbolic(3, 0) == (((0, 0, 0), 1),)
    with pytest.raises(ValueError, match="nonnegative"):
        power_linear_form_symbolic(3, -1)


def test_power_expansion_matches_direct_power():
    # plugging a = (0, 0, 1) into the expansion reproduces z^2
    exp = power_linear_form_symbolic(3, 2)
    a = (0, 0, 1)
    vec = tuple(mult * a[0] ** al[0] * a[1] ** al[1] * a[2] ** al[2] for al, mult in exp)
    assert vec == coefficient_vector(X("z^2"), 2)


@given(st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=20)
def test_power_expansion_total(n, m):
    # multinomial coefficients over a degree sum to n^m
    exp = power_linear_form_symbolic(n, m)
    assert sum(mult for _, mult in exp) == n**m


def test_primitive_normalization():
    p = X("2/3*x^2 - 4/3*y^2", 2)
    q = p.normalized_primitive()
    assert q == X("x^2 - 2*y^2", 2)
    assert (-p).normalized_primitive() == q


def test_linear_form():
    assert linear_form([1, 0, -2]) == X("x - 2*z")
