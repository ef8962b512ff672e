"""The Jacobian Groebner basis as the single quotient engine: its coordinates
on standard monomials agree with the Macaulay-matrix reference and, row by
row, with heap normal forms; the Lefschetz matrix read off the coordinate
table agrees with the derivatives of the condition (II) forms; and the
pipeline never falls back on the Macaulay RREF."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import gradient_generic_forms, standard_monomials, table_coordinates
from test_certificate_identity import workload_instances
from veroav.apolar import inverse_system
from veroav.corpus import builtin_corpus
from veroav.groebner import (
    buchberger,
    coordinate_table,
    modular_certificate,
    normal_form,
)
from veroav.linalg import MatrixQ, determinant, quotient_coords, rank
from veroav.milnor import condition_I, gb_jacobian, is_smooth, jacobian_rref
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial, iter_monomials
from veroav.polyring import coefficient_vector, graded_basis
from veroav.singlocus import singular_report
from veroav.veronese import (
    _lefschetz_matrix,
    _power_quotient_forms,
    check_va,
    lefschetz_degree_one,
    phi_base_locus,
)


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
    new = table_coordinates(polys, gb_jacobian(f), m)
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
    assert coordinate_table(gb, 3).basis == standard_monomials(gb, 3) == ((1, 1, 1),)
    assert coordinate_table(gb, 4).basis == standard_monomials(gb, 4) == ()
    (coords,) = table_coordinates([parse_poly("x*y*z", 3)], gb, 3)
    assert coords == (Fraction(1),)


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


# ---------------------------------------------------------------------------
# the coordinate table against one heap normal form per monomial

SINGULAR_CORPUS = [
    e for e in builtin_corpus() if not is_smooth(parse_poly(e.source, e.n))
]


def _assert_table_matches_normal_forms(gb, degree):
    table = coordinate_table(gb, degree)
    assert table.basis == standard_monomials(gb, degree)
    monos = list(iter_monomials(gb.nvars, degree))
    assert sorted(table.rows) == sorted(monos)
    for mono in monos:
        r = normal_form(Polynomial.monomial(mono), gb)
        expected = tuple(r.coeff(b) for b in table.basis)
        got = tuple(Fraction(v, table.denominator) for v in table.rows[mono])
        assert got == expected, mono
    # the memo hands back the same table
    assert coordinate_table(gb, degree) is table


@given(gradient_generic_forms(), st.data())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_table_rows_are_heap_normal_forms(f, data):
    n = f.nvars
    T = n * (f.homogeneous_degree() - 2)
    gb = gb_jacobian(f)
    for degree in (T - 1, T):
        _assert_table_matches_normal_forms(gb, degree)
        # a polynomial's coordinates are its normal form's coefficients
        size = len(graded_basis(n, degree))
        p = _form(n, degree, data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)))
        p = p.scale(Fraction(1, data.draw(st.integers(1, 6))))
        r = normal_form(p, gb)
        (coords,) = table_coordinates([p], gb, degree)
        assert coords == tuple(r.coeff(b) for b in standard_monomials(gb, degree))


def test_the_singular_corpus_has_eleven_entries():
    assert len(SINGULAR_CORPUS) == 11


@pytest.mark.parametrize("entry", SINGULAR_CORPUS, ids=lambda e: e.name)
def test_table_rows_are_heap_normal_forms_on_singular_jacobians(entry):
    f = parse_poly(entry.source, entry.n)
    T = f.nvars * (f.homogeneous_degree() - 2)
    for degree in (T - 1, T, T + 1):
        _assert_table_matches_normal_forms(gb_jacobian(f), degree)


BENCHMARK_INSTANCES = {
    **{e.name: parse_poly(e.source, e.n) for e in builtin_corpus()},
    **{name: parse_poly(text, n) for name, (text, n) in workload_instances().items()},
}


def test_the_benchmark_instances_are_the_corpus_and_the_workloads():
    assert len(BENCHMARK_INSTANCES) == 20 + 19


@pytest.mark.parametrize("name", list(BENCHMARK_INSTANCES))
def test_table_rows_are_heap_normal_forms_on_benchmark_instances(name):
    """Every table the pipeline reads, at T-1 and T, on all 20 corpus entries
    and the 19 workload instances."""
    f = BENCHMARK_INSTANCES[name]
    T = f.nvars * (f.homogeneous_degree() - 2)
    for degree in (T - 1, T):
        _assert_table_matches_normal_forms(gb_jacobian(f), degree)


def test_table_needs_a_homogeneous_basis_over_q():
    gens = parse_poly("x^3+y^3+z^3", 3).gradient()
    modular = modular_certificate(gens)
    with pytest.raises(ValueError, match="over Q"):
        coordinate_table(modular, 2)
    affine = buchberger([parse_poly("x^2 + y", 2), parse_poly("y^2 - 1", 2)])
    with pytest.raises(ValueError, match="homogeneous"):
        coordinate_table(affine, 2)


def _lefschetz_matrix_by_partials(f, m, coeffs):
    """The route the table replaces: the Jacobian matrix of the condition
    (II) forms in the parameters a_j, at the coefficients, over m times the
    table's denominator (the forms are the table's integer numerators)."""
    forms = _power_quotient_forms(f, m)
    scale = m * coordinate_table(gb_jacobian(f), m).denominator
    return MatrixQ.from_rows(
        [[Fraction(g.partial(j).evaluate(coeffs), scale) for j in range(f.nvars)] for g in forms]
    )


@pytest.mark.parametrize("entry", builtin_corpus(), ids=lambda e: e.name)
def test_lefschetz_matrix_matches_the_partials_route(entry):
    f = parse_poly(entry.source, entry.n)
    if not condition_I(f).holds:
        pytest.skip("the Lefschetz map needs condition (I)")
    m = f.nvars * (f.homogeneous_degree() - 2) - 1
    for seed in range(5):
        report = lefschetz_degree_one(f, seed=seed)
        for trial, det in enumerate(report.determinants):
            rng = random.Random(f"{seed}:{trial}")
            while True:
                coeffs = tuple(rng.randint(-50, 50) for _ in range(f.nvars))
                if any(coeffs):
                    break
            reference = _lefschetz_matrix_by_partials(f, m, coeffs)
            table = coordinate_table(gb_jacobian(f), m)
            cols = _lefschetz_matrix(table, coeffs)
            assert all(isinstance(v, int) for col in cols for v in col)
            den = table.denominator
            rows = [[Fraction(col[i], den) for col in cols] for i in range(len(table.basis))]
            assert MatrixQ.from_rows(rows) == reference
            assert det == determinant(reference)
