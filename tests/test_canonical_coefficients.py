"""Every coefficient the package hands out is canonical: an int when it is
integral, otherwise a Fraction with denominator above 1, never a float."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import coefficients, homogeneous_polynomials, is_canonical, polynomials
from veroav.apolar import inverse_system
from veroav.corpus import builtin_corpus
from veroav.groebner import MACAULAY_CHECK_PRIME, buchberger, modular_certificate
from veroav.milnor import condition_I, is_smooth
from veroav.parsing import parse_poly, render_poly
from veroav.polynomial import Polynomial, canonical, ratio
from veroav.polyring import graded_basis, linear_form
from veroav.veronese import _power_quotient_forms, check_va


def _all_canonical(p: Polynomial) -> bool:
    return all(is_canonical(c) and c for c in p.terms.values())


@st.composite
def dense_smooth_plane_forms(draw):
    """Dense integer plane cubics and quartics with a smooth zero set."""
    d = draw(st.sampled_from([3, 4]))
    basis = graded_basis(3, d)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    assume(any(coeffs))
    f = Polynomial(3, dict(zip(basis, coeffs)))
    assume(is_smooth(f))
    return f


def test_canonical_and_ratio():
    assert type(canonical(Fraction(6, 3))) is int and canonical(Fraction(6, 3)) == 2
    assert canonical(Fraction(1, 2)) == Fraction(1, 2)
    assert type(canonical(0.5)) is Fraction and canonical(0.5) == Fraction(1, 2)
    assert type(canonical(2.0)) is int
    assert type(canonical(True)) is int
    assert type(ratio(-6, 3)) is int and ratio(-6, 3) == -2
    assert ratio(4, -6) == Fraction(-2, 3) and ratio(0, 7) == 0


@given(polynomials(nvars=st.integers(1, 4)))
@settings(max_examples=60, deadline=None)
def test_parse_render_round_trip_is_canonical(p):
    assert _all_canonical(p)
    q = parse_poly(render_poly(p), p.nvars)
    assert q == p and _all_canonical(q)


@given(homogeneous_polynomials(nvars=st.just(3)), homogeneous_polynomials(nvars=st.just(3)),
       coefficients)
@settings(max_examples=60, deadline=None)
def test_arithmetic_results_are_canonical(p, q, c):
    # p.scale(2) * p.scale(1/2) makes integral Fractions out of Fraction products
    results = [
        p + q, p - q, p + p.scale(-1), p * q, p.scale(2) * p.scale(Fraction(1, 2)),
        p.scale(c), p.scale(Fraction(4, 2)), p.partial(1), p.partial(2) * 2,
        p.specialize({0: c}), p.specialize({1: Fraction(2, 1)}), p**2,
        p.substitute({0: linear_form((1, c, 2))}), p.primitive_integer(),
        p.normalized_primitive(),
    ]
    for r in results:
        assert _all_canonical(r)
    assert is_canonical(p.evaluate((c, Fraction(3, 3), 2)))
    assert is_canonical(p.coeff(next(iter(p.terms))))


@given(st.lists(st.one_of(st.integers(-5, 5), coefficients), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_linear_form_is_canonical(coeffs):
    ell = linear_form(coeffs)
    assert _all_canonical(ell)
    n = len(coeffs)
    assert [ell.coeff(tuple(int(j == i) for j in range(n))) for i in range(n)] == coeffs


@given(st.lists(homogeneous_polynomials(nvars=st.just(3), degrees=st.integers(1, 3),
                                        max_terms=4), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_groebner_generators_are_canonical(gens):
    assert all(_all_canonical(g) for g in buchberger(gens).generators)
    # pure cubes make the zero set empty, so the GF(p) certificate exists
    # unless the prime divides a denominator
    cubes = [parse_poly(s, 3) for s in ("x^3", "y^3", "z^3")]
    certificate = modular_certificate([*gens, *cubes])
    if certificate is not None:
        p = MACAULAY_CHECK_PRIME
        assert all(_all_canonical(g) for g in certificate.generators)
        assert all(0 < c < p for g in certificate.generators for c in g.terms.values())


@given(dense_smooth_plane_forms())
@settings(max_examples=20, deadline=None)
def test_condition_II_forms_and_inverse_system_are_canonical(f):
    assert _all_canonical(inverse_system(f).F)
    if condition_I(f).holds:
        m = 3 * (f.homogeneous_degree() - 2) - 1
        forms = _power_quotient_forms(f, m)
        assert forms and all(_all_canonical(g) for g in forms)


def test_corpus_witnesses_are_exact():
    witnesses = 0
    for entry in builtin_corpus():
        cond2 = check_va(parse_poly(entry.source, entry.n)).condition_ii
        if cond2.witness is not None:
            witnesses += 1
            assert all(type(c) in (int, Fraction) for c in cond2.witness), entry.name
    assert witnesses
