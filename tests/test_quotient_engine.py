"""The Jacobian Groebner basis as the single quotient engine: its coordinates
on standard monomials agree with the Macaulay-matrix reference, and the
pipeline never falls back on the Macaulay RREF."""

import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import gradient_generic_forms
from veroav.apolar import inverse_system
from veroav.corpus import builtin_corpus
from veroav.groebner import quotient_coordinates, standard_monomials
from veroav.linalg import MatrixQ, quotient_coords, rank
from veroav.milnor import gb_jacobian, is_smooth, jacobian_rref
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial, iter_monomials
from veroav.polyring import coefficient_vector, graded_basis
from veroav.singlocus import singular_report
from veroav.veronese import check_va, lefschetz_degree_one, phi_base_locus


def _form(n, degree, coeffs):
    return Polynomial(n, dict(zip(graded_basis(n, degree), coeffs)))


@given(gradient_generic_forms(), st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_coordinates_match_macaulay_reference(f, data):
    n = f.nvars
    m = n * (f.homogeneous_degree() - 2) - 1
    size = len(graded_basis(n, m))
    polys = [
        _form(n, m, data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
        for _ in range(4)
    ]
    # members of (J_f)_m: combinations of monomial multiples of the partials
    shifts = list(iter_monomials(n, m - f.homogeneous_degree() + 1))
    for _ in range(2):
        member = Polynomial.zero(n)
        for g in f.gradient():
            mono = data.draw(st.sampled_from(shifts))
            c = data.draw(st.integers(-3, 3))
            member = member + (Polynomial.monomial(mono) * g).scale(c)
        polys.append(member)
    new = quotient_coordinates(polys, gb_jacobian(f), m)
    old = [quotient_coords(coefficient_vector(p, m), jacobian_rref(f, m)) for p in polys]
    for p, a, b in zip(polys, new, old):
        assert all(c == 0 for c in a) == all(c == 0 for c in b), p
    assert len(new[0]) == len(old[0]) == n
    assert rank(MatrixQ.from_rows(new)) == rank(MatrixQ.from_rows(old))
    # one invertible map relates the two coordinate systems
    joint = [a + b for a, b in zip(new, old)]
    assert rank(MatrixQ.from_rows(joint)) == rank(MatrixQ.from_rows(new))


def test_standard_monomials_span_the_milnor_algebra():
    f = parse_poly("x^3+y^3+z^3", 3)
    gb = gb_jacobian(f)
    assert standard_monomials(gb, 3) == ((1, 1, 1),)
    assert standard_monomials(gb, 4) == ()
    (coords,) = quotient_coordinates([parse_poly("x*y*z", 3)], gb, 3)
    assert coords == (Fraction(1),)
    with pytest.raises(ValueError):
        quotient_coordinates([parse_poly("x^2", 3)], gb, 3)


def test_pipeline_never_uses_the_macaulay_rref(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Macaulay RREF was used")

    for name, module in list(sys.modules.items()):
        if name == "veroav" or name.startswith("veroav."):
            for attr in ("jacobian_rref", "quotient_coords"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    for entry in builtin_corpus():
        f = parse_poly(entry.source, entry.n)
        cert = check_va(f)
        if cert.condition_i.holds:
            lefschetz_degree_one(f, seed=0)
        if is_smooth(f):
            inverse_system(f)
            continue
        points = singular_report(f).points
        if 0 < len(points) < f.nvars and all(s.is_node for s in points):
            phi_base_locus(f, [s.point.coords for s in points])
