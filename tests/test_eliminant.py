"""Rational points read off the grevlex basis, against an independent
reference.

The eliminant of a zero-dimensional chart system, the minimal polynomial of
each x_i on Q[x]/I, is compared with the univariate element of sympy's lex
basis with x_i last.
The systems are seeded and have planted points: forms through the planted
points, from the kernel of the point-evaluation matrix, with or without a
conjugate pair of irrational points on x_0^2 - 2*x_1^2 = 0.  Square systems
(one form fewer than variables) keep the other points of their complete
intersection, and their first form is multiplied by x_0^2 - 2*x_1^2.

The eliminant stops at the first power of x_i whose normal form depends on
the earlier ones; ``kernel_eliminant`` is the reference that takes all
D + 1 normal forms, D the quotient degree, and the first kernel vector of
their matrix.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from veroav import groebner
from veroav.groebner import (
    _content,
    _normal_form_int,
    _packing,
    buchberger,
    eliminant,
    last_chart,
    quotient_degree,
    saturate_irrelevant,
)
from veroav.linalg import MatrixQ, kernel_basis
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial, iter_monomials
from veroav.ratpoints import rational_projective_points
from veroav.veronese import f0_form


def _value(point, m):
    out = Fraction(1)
    for c, e in zip(point, m):
        out *= Fraction(c) ** e
    return out


def _pair_rows(monos):
    """The conditions, rational, for a form to vanish at both of the
    conjugate points (+-sqrt(2), 1, ..., 1): its even and its odd part in
    x_0 vanish at x_0^2 = 2."""
    even = [2 ** (m[0] // 2) if m[0] % 2 == 0 else 0 for m in monos]
    odd = [2 ** (m[0] // 2) if m[0] % 2 else 0 for m in monos]
    return [even, odd]


def planted_system(n, d, count, rng, pair=False, square=False):
    """(forms, planted points) in n variables: ``count`` distinct integer
    points with last coordinate 1, and degree-d forms through them (and
    through the conjugate pair when ``pair``): the kernel vectors of the
    evaluation matrix, shuffled, or the first n - 1 of them when
    ``square``, the first of those times x_0^2 - 2*x_1^2."""
    points = set()
    while len(points) < count:
        points.add(tuple(rng.randint(-3, 3) for _ in range(n - 1)) + (1,))
    points = sorted(points)
    monos = list(iter_monomials(n, d))
    rows = [[_value(p, m) for m in monos] for p in points]
    if pair:
        rows += _pair_rows(monos)
    kernel = kernel_basis(MatrixQ.from_rows(rows))
    rng.shuffle(kernel)
    forms = [Polynomial(n, dict(zip(monos, v))) for v in kernel[: n - 1 if square else None]]
    if square:
        h = Polynomial(n, {(2,) + (0,) * (n - 1): 1, (0, 2) + (0,) * (n - 2): -2})
        forms[0] = forms[0] * h
    return forms, points


def top_chart(forms):
    """The affine system of the chart x_{n-1} = 1, in x_0, ..., x_{n-2}."""
    n = forms[0].nvars
    return [g.specialize({n - 1: 1}).drop_vars(range(n - 1)) for g in forms]


def kernel_eliminant(gb, i):
    """The minimal polynomial of x_i from the normal forms of 1, x_i, ...,
    x_i^D, D the quotient degree, as primitive integer columns times
    rational scales: the first kernel vector of their matrix, made monic."""
    pk = _packing(gb.nvars)
    columns, scales = [], []
    power, scale = {0: 1}, Fraction(1)
    for _ in range(quotient_degree(gb) + 1):
        terms, den = _normal_form_int(power, gb._reducers, pk, {})
        g = _content(terms) or 1
        columns.append({m: c // g for m, c in terms.items()})
        scale *= Fraction(den, g)
        scales.append(scale)
        power = {m + pk.units[i]: c for m, c in columns[-1].items()}
    monomials = {m for column in columns for m in column}
    rows = [[column.get(m, 0) for column in columns] for m in monomials]
    coeffs = [v * s for v, s in zip(kernel_basis(MatrixQ.from_rows(rows))[0], scales)]
    while not coeffs[-1]:
        coeffs.pop()
    return [Fraction(c, coeffs[-1]) for c in coeffs]


def saturated_chart(f):
    """The chart x_{n-1} = 1 of the saturated Jacobian ideal of f, in the
    coordinates where the saturation is computed."""
    gens = f.gradient()
    return last_chart(saturate_irrelevant(gens, buchberger(gens)).basis)


def sympy_lex_eliminant(gens, i, modulus=0):
    """Ascending coefficients of the element of sympy's reduced lex basis
    that lies in Q[x_i], or in GF(modulus)[x_i], made monic, with x_i the
    smallest variable and x_{k-1} > ... > x_0 among the others."""
    import sympy

    k = gens[0].nvars
    ts = sympy.symbols(f"t0:{k}")
    if modulus:
        options = {"modulus": modulus}
        convert = lambda c: c.numerator * pow(c.denominator, -1, modulus) % modulus  # noqa: E731
    else:
        options = {"domain": sympy.QQ}
        convert = lambda c: sympy.Rational(c.numerator, c.denominator)  # noqa: E731
    polys = [
        sympy.Poly.from_dict({m: convert(Fraction(c)) for m, c in g.terms.items()}, *ts, **options)
        for g in gens
    ]
    order = [t for t in reversed(ts) if t != ts[i]] + [ts[i]]
    basis = sympy.groebner(polys, *order, order="lex", **options)
    # the basis's generators run in that order: t_i is the last exponent
    (univariate,) = [g for g in basis.polys if not any(any(m[:-1]) for m in g.monoms())]
    t = ts[i]
    coeffs = [univariate.coeff_monomial(t**j) for j in range(univariate.degree(t) + 1)]
    if modulus:
        inverse = pow(int(coeffs[-1]), -1, modulus)
        return [int(c) * inverse % modulus for c in coeffs]
    coeffs = [Fraction(int(c.p), int(c.q)) for c in coeffs]
    return [c / coeffs[-1] for c in coeffs]


CASES = {
    "plane-3-points": dict(n=3, d=2, count=3),
    "plane-4-points-pair": dict(n=3, d=3, count=4, pair=True),
    "plane-square-quartic": dict(n=3, d=4, count=5, square=True),
    "plane-square-cubic": dict(n=3, d=3, count=4, square=True),
    "space-4-points": dict(n=4, d=2, count=4),
    "space-3-points-pair": dict(n=4, d=3, count=3, pair=True),
    "space-square-quadric": dict(n=4, d=2, count=2, square=True),
}


@pytest.mark.parametrize(
    "name, i",
    [
        # x_0 keeps the case's bare name as its id
        pytest.param(name, i, id=name if i == 0 else f"{name}-x{i}")
        for name, case in CASES.items()
        for i in range(case["n"] - 1)
    ],
)
def test_eliminant_is_the_univariate_element_of_the_lex_basis(name, i):
    forms, _ = planted_system(**CASES[name], rng=random.Random(name))
    affine = top_chart(forms)
    assert eliminant(buchberger(affine), i) == sympy_lex_eliminant(affine, i)


@pytest.mark.parametrize("name", [name for name in CASES if "square" not in name])
def test_the_planted_points_are_all_the_rational_points(name):
    case = CASES[name]
    forms, points = planted_system(**case, rng=random.Random(name))
    found, complete = rational_projective_points(forms)
    assert found == points
    assert complete is not case.get("pair", False)


@pytest.mark.parametrize("name", [name for name in CASES if "square" in name])
def test_square_systems_keep_their_planted_points(name):
    forms, points = planted_system(**CASES[name], rng=random.Random(name))
    found, complete = rational_projective_points(forms)
    assert set(points) <= set(found)
    assert all(g.evaluate(p) == 0 for g in forms for p in found)
    # the factor x_0^2 - 2*x_1^2 adds points with x_0 = +-sqrt(2) x_1
    assert not complete


def test_a_four_variable_cubic_system():
    """A square cubic system in four variables, one form times
    x_0^2 - 2*x_1^2, whose top chart's eliminant has degree 32.  A lex
    Buchberger run over Q on that chart ran past 25 s, so sympy's lex basis
    mod p is the reference here.  Its rational points need the rational
    roots of degree-32 eliminants with 88-bit coefficients."""
    forms, points = planted_system(4, 3, 5, random.Random(1), square=True)
    affine = top_chart(forms)
    start = time.perf_counter()
    elim = eliminant(buchberger(affine), 0)
    assert time.perf_counter() - start < 5
    assert all(sum(c * p[0] ** i for i, c in enumerate(elim)) == 0 for p in points)
    P = 2**31 - 1
    residues = [c.numerator * pow(c.denominator, -1, P) % P for c in elim]
    assert residues == sympy_lex_eliminant(affine, 0, P)
    start = time.perf_counter()
    found, complete = rational_projective_points(forms)
    assert time.perf_counter() - start < 5
    assert set(points) <= set(found)
    assert all(g.evaluate(p) == 0 for g in forms for p in found)
    assert not complete  # the factor x_0^2 - 2*x_1^2 adds irrational points


def _counted_normal_forms(monkeypatch):
    calls = []
    real = groebner._normal_form_int

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_normal_form_int", counting)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_eliminant_stops_at_the_first_dependency(n, monkeypatch):
    """On the chart of f0_form(n, 3), sheared by x_0 + ... + x_{n-1}, the n
    nodes have coordinates 0 and 1, and every eliminant has degree 2
    against a quotient degree of n: the normal forms of 1, x_i and x_i^2
    are all that is reduced."""
    chart = saturated_chart(f0_form(n, 3))
    assert quotient_degree(chart) == n
    calls = _counted_normal_forms(monkeypatch)
    for i in range(n - 1):
        calls.clear()
        elim = eliminant(chart, i)
        assert len(elim) == 3 and len(calls) == 3
        assert elim == kernel_eliminant(chart, i)
        assert elim == [0, -1, 1]  # x_i^2 - x_i: every node has x_i = 0 or 1 there


def test_the_eliminant_of_a_cusp_keeps_its_multiplicity():
    """The cusp y^2 z = x^3 has a non-reduced singular scheme at [0:0:1],
    of length 2: the eliminant of x is x^2, the square of the reduced one."""
    f = parse_poly("z*y^2-x^3", 3)
    chart = saturated_chart(f)
    assert quotient_degree(chart) == 2
    assert eliminant(chart, 0) == [0, 0, 1]
    assert eliminant(chart, 1) == [0, 1]
    for i in range(2):
        assert eliminant(chart, i) == kernel_eliminant(chart, i)
        assert eliminant(chart, i) == sympy_lex_eliminant(chart.generators, i)


@pytest.mark.parametrize(
    "name, i",
    [
        pytest.param(name, i, id=f"{name}-x{i}")
        for name, case in CASES.items()
        for i in range(case["n"] - 1)
    ],
)
def test_the_eliminant_matches_the_kernel_of_all_powers(name, i):
    forms, _ = planted_system(**CASES[name], rng=random.Random(name))
    gb = buchberger(top_chart(forms))
    assert eliminant(gb, i) == kernel_eliminant(gb, i)


def test_the_degree_32_eliminant_matches_the_kernel_of_all_powers():
    forms, _ = planted_system(4, 3, 5, random.Random(1), square=True)
    gb = buchberger(top_chart(forms))
    start = time.perf_counter()
    elim = eliminant(gb, 0)
    assert time.perf_counter() - start < 5
    assert len(elim) == 33
    assert elim == kernel_eliminant(gb, 0)


def test_the_eliminant_refuses_a_positive_dimensional_ideal():
    gb = buchberger([parse_poly("x*y", 2)])
    with pytest.raises(ValueError, match="zero-dimensional"):
        eliminant(gb, 0)
