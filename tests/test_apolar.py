import math
from fractions import Fraction

import pytest

from veroav.apolar import (
    NotSmoothError,
    apolar_action,
    inverse_system,
    smoothness,
    va_via_inverse_system,
)
from veroav.groebner import hilbert_value, normal_form
from veroav.linalg import MatrixQ, rank
from veroav.milnor import gb_jacobian, validate_input
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial, iter_monomials
from veroav.polyring import coefficient_vector, dim_graded, graded_basis
from veroav.veronese import check_va

X3 = lambda s: parse_poly(s, 3)  # noqa: E731

SMOOTH_CORPUS = [
    "x^3 + y^3 + z^3",
    "x^4 + y^4 + z^4",
    "x^3+y^3+z^3-6*x*y*z",
    "x^3+y^3+z^3-9*x*y*z",
    "x^3+y^3+z^3+3*x*y*z",
    "x^3+y^3+z^3+6*x*y*z",
    "x^4+y^4+z^4+4*x*y*z*(x+y+z)",
]


def test_action_on_cubic_dual_generator():
    # one generator of the parameter-2 gradient ideal annihilates the dual form
    g = X3("x^2 - 2*y*z")
    F = X3("2*(x^3 + y^3 + z^3) + 6*x*y*z")
    assert apolar_action(g, F).is_zero()


def test_action_matching_monomial_gives_factorial():
    h = X3("x^2*y")
    assert apolar_action(h, h) == Polynomial.constant(3, 2)  # 2! * 1!
    full = X3("x^2*y^3*z")
    assert apolar_action(full, full) == Polynomial.constant(3, 2 * 6)


def test_action_annihilates_disjoint_variable():
    assert apolar_action(X3("x"), X3("y^3")).is_zero()


def test_action_composes():
    h1, h2 = X3("x*y"), X3("x^2 - z^2")
    F = X3("(x + 2*y + 3*z)^6")
    assert apolar_action(h1 * h2, F) == apolar_action(h1, apolar_action(h2, F))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6])
def test_pairing_is_diagonal_with_factorial_weights(n, e):
    basis = graded_basis(n, e)
    for alpha in basis:
        pa = Polynomial.monomial(alpha)
        for beta in basis:
            pb = Polynomial.monomial(beta)
            result = apolar_action(pa, pb)
            if alpha == beta:
                expected = 1
                for exp in alpha:
                    expected *= math.factorial(exp)
                assert result == Polynomial.constant(n, expected)
            else:
                assert result.is_zero()


def test_inverse_system_hesse():
    f = X3("x^3+y^3+z^3-6*x*y*z")  # parameter 2
    inv = inverse_system(f)
    expected = X3("2*(x^3+y^3+z^3) + 6*x*y*z").normalized_primitive()
    assert inv.F == expected


def test_inverse_system_fermat():
    assert inverse_system(X3("x^3+y^3+z^3")).F == X3("x*y*z")
    assert inverse_system(X3("x^4+y^4+z^4")).F == X3("x^2*y^2*z^2")
    f4 = parse_poly("x^3+y^3+z^3+w^3", 4)
    assert inverse_system(f4).F == parse_poly("x*y*z*w", 4)


def test_inverse_system_symmetric_quartic_against_sympy():
    """Independent expansion of the symmetric degree-6 dual form."""
    import sympy

    y1, y2, y3 = sympy.symbols("y1 y2 y3")
    s1 = y1 + y2 + y3
    s2 = y1 * y2 + y1 * y3 + y2 * y3
    s3 = y1 * y2 * y3
    F = sympy.expand(
        6 * s1**6 - 30 * s1**4 * s2 - 180 * s1**3 * s3 + 105 * s1**2 * s2**2
        + 510 * s1 * s2 * s3 - 190 * s2**3 - 165 * s3**2
    )
    poly = sympy.Poly(F, y1, y2, y3)
    expected = Polynomial(
        3,
        {
            tuple(int(e) for e in mono): Fraction(*coeff.as_numer_denom())
            for mono, coeff in poly.terms()
        },
    ).normalized_primitive()
    f = X3("x^4+y^4+z^4+4*x*y*z*(x+y+z)")
    assert inverse_system(f).F == expected


def test_inverse_system_rejects_singular():
    with pytest.raises(NotSmoothError):
        inverse_system(X3("x*y*z"))


def test_macaulay_annihilator_dimensions_agree():
    """For each degree q <= T the forms annihilating F span exactly (J_f)_q."""
    for src in ("x^3+y^3+z^3-6*x*y*z", "x^4+y^4+z^4"):
        f = X3(src)
        hi = validate_input(f)
        F = inverse_system(f).F
        gbj = gb_jacobian(f)
        for q in range(hi.T + 1):
            rows = []
            for mono in iter_monomials(3, q):
                image = apolar_action(Polynomial.monomial(mono), F)
                rows.append(coefficient_vector(image, hi.T - q))
            ann_dim = dim_graded(3, q) - rank(MatrixQ.from_rows(rows))
            jac_dim = dim_graded(3, q) - hilbert_value(gbj, q)
            assert ann_dim == jac_dim


def test_smoothness_of_duals():
    assert smoothness(X3("x^3+y^3+z^3-6*x*y*z"))
    assert not smoothness(X3("6*x*y*z"))


def test_dual_route_matches_direct_verdict():
    for src in SMOOTH_CORPUS:
        f = X3(src)
        assert va_via_inverse_system(f) == check_va(f).verdict


def test_hesse_parameter_classification():
    # avoiding iff the parameter is nonzero and its cube is not -8
    cases = {2: True, 3: True, -1: True, 0: False, -2: False}
    for lam, expected in cases.items():
        f = X3(f"x^3+y^3+z^3-3*({lam})*x*y*z")
        assert va_via_inverse_system(f) == expected
        assert check_va(f).verdict == expected


def _hessian_det(f):
    """Determinant of the 3 x 3 matrix of second partials."""
    (a, b, c), (d, e, g), (h, i, j) = [[f.partial(r).partial(s) for s in range(3)] for r in range(3)]
    return a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h)


def test_hessian_socle_check():
    assert _hessian_det(X3("x^3 + y^3 + z^3")) == X3("216*x*y*z")
    # the Hessian determinant represents a nonzero socle element of M_f
    for src in SMOOTH_CORPUS:
        f = X3(src)
        assert not normal_form(_hessian_det(f), gb_jacobian(f)).is_zero()


def test_quintic_symmetric_family_member():
    """The degree-5 symmetric family has no hand-checked dual form, so it is
    property-tested: the dual route must agree with the direct verdict and
    the annihilator must match the gradient ideal degreewise."""
    f = X3("x^5+y^5+z^5+5*x*y*z*(x+y+z)^2")
    hi = validate_input(f)
    F = inverse_system(f).F
    assert F.homogeneous_degree() == hi.T
    gbj = gb_jacobian(f)
    for q in (1, 2, 3, hi.T - 1, hi.T):
        rows = []
        for mono in iter_monomials(3, q):
            image = apolar_action(Polynomial.monomial(mono), F)
            rows.append(coefficient_vector(image, hi.T - q))
        ann_dim = dim_graded(3, q) - rank(MatrixQ.from_rows(rows))
        assert ann_dim == dim_graded(3, q) - hilbert_value(gbj, q)
    assert va_via_inverse_system(f) == check_va(f).verdict
