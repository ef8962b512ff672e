"""The Hilbert series cached on a Groebner basis against brute force:
standard monomials counted degree by degree, and the Krull dimension by the
largest variable subset that meets no leading support."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import homogeneous_polynomials
from veroav.groebner import (
    _hilbert_numerator,
    _minimal,
    _series,
    buchberger,
    ci_numerator,
    hilbert_value,
    krull_dim_quotient,
    quotient_degree,
    series_coefficient,
)
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial, iter_monomials

MAX_DEGREE = 12


def _standard_counts(lms, n):
    """Monomials of each degree 0..MAX_DEGREE divisible by no leading
    monomial."""
    return [
        sum(
            1
            for m in iter_monomials(n, deg)
            if not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)
        )
        for deg in range(MAX_DEGREE + 1)
    ]


def _krull_dim_by_subsets(lms, n):
    """The largest set of variables containing no leading monomial's
    support; -1 for the unit ideal."""
    if any(sum(lm) == 0 for lm in lms):
        return -1
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in lms]
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            if not any(sup <= set(subset) for sup in supports):
                return size
    return 0


def _check_against_brute_force(gb, n):
    counts = _standard_counts(gb.leading_monomials, n)
    assert [hilbert_value(gb, deg) for deg in range(MAX_DEGREE + 1)] == counts
    dim = krull_dim_quotient(gb)
    assert dim == _krull_dim_by_subsets(gb.leading_monomials, n)
    if dim <= 0:
        # finitely many standard monomials, all of degree <= MAX_DEGREE here
        assert quotient_degree(gb) == sum(counts)


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=6))
    return n, gens


@given(monomial_ideals())
@settings(max_examples=80, deadline=None)
def test_series_of_monomial_ideals(ideal):
    n, gens = ideal
    gb = buchberger([Polynomial.monomial(m) for m in gens])
    _check_against_brute_force(gb, n)


@given(st.lists(homogeneous_polynomials(nvars=st.just(3), degrees=st.integers(1, 3),
                                        max_terms=4), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_series_of_homogeneous_bases(gens):
    _check_against_brute_force(buchberger(gens), 3)


def _add_shifted(a, b, shift):
    """a(t) + t^shift b(t), on coefficient lists."""
    out = a + [0] * (shift + len(b) - len(a))
    for k, c in enumerate(b):
        out[shift + k] += c
    return out


def _recursive_numerator(gens):
    """The reference pivot recursion, N(I) = N(I + (p)) + t^deg(p) N(I : p),
    one call per node, trailing zeros kept."""
    mixed = [g for g in gens if sum(map(bool, g)) > 1]
    if not mixed:
        out = [1]
        for d in map(sum, gens):
            out = _add_shifted(out, [-c for c in out], d)
        return out
    n = len(gens[0])
    i = max(range(n), key=lambda j: sum(1 for g in mixed if g[j]))
    exponents = sorted(g[i] for g in mixed if g[i])
    e = exponents[len(exponents) // 2]
    pivot = tuple(e if j == i else 0 for j in range(n))
    plus = [g for g in gens if g[i] < e] + [pivot]
    colon = _minimal(g[:i] + (max(g[i] - e, 0),) + g[i + 1 :] for g in gens)
    return _add_shifted(_recursive_numerator(plus), _recursive_numerator(colon), e)


@st.composite
def any_monomial_ideals(draw):
    """Minimal generators of random monomial ideals in 1-5 variables: the
    zero ideal, the unit ideal (a constant among them), and ideals missing
    a pure power of some variable (not Artinian)."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=8))
    return _minimal(gens)


@given(any_monomial_ideals())
@example([(0, 0, 0)])
@example([])
@example([(2, 1, 0), (0, 3, 1), (1, 0, 2)])
@settings(max_examples=150, deadline=None)
def test_the_stacked_numerator_matches_the_recursion(gens):
    expected = _recursive_numerator(gens)
    while expected and not expected[-1]:
        expected.pop()
    assert _hilbert_numerator(gens) == expected


@given(st.lists(st.integers(-5, 5), max_size=6), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_the_series_sequence_has_the_series_coefficients(numerator, n):
    series = list(itertools.islice(_series(numerator, n), 12))
    assert series == [series_coefficient(numerator, n, d) for d in range(12)]


@given(st.lists(st.integers(0, 6), max_size=5))
def test_the_complete_intersection_numerator_is_the_product(degrees):
    assert ci_numerator(degrees) == _recursive_numerator([
        tuple(d if j == i else 0 for j in range(len(degrees))) for i, d in enumerate(degrees)
    ])


def test_unit_ideal():
    gb = buchberger([Polynomial.constant(3, 5)])
    assert gb.hilbert_series.numerator == ()
    assert [hilbert_value(gb, deg) for deg in range(4)] == [0, 0, 0, 0]
    assert krull_dim_quotient(gb) == -1
    assert quotient_degree(gb) == 0


def test_zero_ideal():
    gb = buchberger([])
    with pytest.raises(ValueError):
        hilbert_value(gb, 0)
    assert hilbert_value(gb, -1) == 0


def test_negative_degree():
    gb = buchberger([parse_poly("x^2", 3), parse_poly("y^2", 3)])
    assert hilbert_value(gb, -1) == 0
    assert hilbert_value(gb, -7) == 0


def test_complete_intersection_series():
    gb = buchberger([parse_poly(s, 3) for s in ("x^2", "y^2", "z^3")])
    assert gb.hilbert_series.numerator == (1, 0, -2, -1, 1, 2, 0, -1)
    assert gb.hilbert_series.reduced == (1, 3, 4, 3, 1)
    assert gb.hilbert_series.dim == 0
    gb = buchberger([parse_poly("x*y", 3)])
    assert gb.hilbert_series.reduced == (1, 1)  # two lines: degree 2
    assert gb.hilbert_series.dim == 2


def test_truncated_non_homogeneous_ideal():
    # the cusp y^2 - x^3 with its gradient, plus m^N: Tjurina number 2 at
    # the origin, whatever the truncation order beyond it
    cusp = [parse_poly(s, 2) for s in ("y^2 - x^3", "-3*x^2", "2*y")]
    for N in range(2, 6):
        trunc = cusp + [Polynomial.monomial(m) for m in iter_monomials(2, N)]
        gb = buchberger(trunc)
        assert quotient_degree(gb) == sum(_standard_counts(gb.leading_monomials, 2)) == 2
        assert krull_dim_quotient(gb) == 0
