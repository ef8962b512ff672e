"""Shared strategies and helpers for the property suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from veroav.groebner import coordinate_table
from veroav.linalg import random_unimodular
from veroav.milnor import ScopeError, condition_I
from veroav.polynomial import Polynomial, iter_monomials
from veroav.polyring import graded_basis


def table_coordinates(polys, gb, degree) -> list[tuple[Fraction, ...]]:
    """Coordinates in (R/I)_degree of degree-``degree`` polynomials: the
    coefficient-weighted sums of their monomials' rows in
    ``coordinate_table(gb, degree)``."""
    table = coordinate_table(gb, degree)
    out = []
    for p in polys:
        acc = [Fraction(0)] * len(table.basis)
        for mono, c in p.terms.items():
            for j, v in enumerate(table.rows[mono]):
                acc[j] += c * Fraction(v, table.denominator)
        out.append(tuple(acc))
    return out


def standard_monomials(gb, degree) -> tuple[tuple[int, ...], ...]:
    """Degree-``degree`` monomials that no leading monomial of ``gb``
    divides, in ``iter_monomials`` order: a reference read off the leading
    monomials by tuple divisibility, sharing no code with ``groebner``."""
    lms = gb.leading_monomials
    return tuple(
        m
        for m in iter_monomials(gb.nvars, degree)
        if not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)
    )


def is_canonical(c) -> bool:
    """A canonical polynomial coefficient: an int when integral, otherwise a
    Fraction with denominator above 1."""
    return type(c) is int or type(c) is Fraction and c.denominator > 1


coefficients = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).filter(lambda c: c != 0)


@st.composite
def polynomials(draw, nvars=st.integers(2, 3), max_degree=4, max_terms=6):
    n = draw(nvars)
    monos = st.tuples(*([st.integers(0, max_degree)] * n))
    terms = draw(
        st.dictionaries(monos, coefficients, min_size=0, max_size=max_terms)
    )
    return Polynomial(n, {m: Fraction(c) for m, c in terms.items()})


@st.composite
def homogeneous_polynomials(draw, nvars=st.integers(2, 3), degrees=st.integers(1, 5),
                            max_terms=6):
    n = draw(nvars)
    d = draw(degrees)
    basis = list(iter_monomials(n, d))
    chosen = draw(
        st.lists(st.sampled_from(basis), min_size=1, max_size=max_terms, unique=True)
    )
    coeffs = draw(
        st.lists(coefficients, min_size=len(chosen), max_size=len(chosen))
    )
    return Polynomial(n, dict(zip(chosen, coeffs)))


@st.composite
def unimodular_matrices(draw, n: int):
    seed = draw(st.integers(0, 2**32 - 1))
    steps = draw(st.integers(3, 8))
    return random_unimodular(n, random.Random(seed), steps)


@st.composite
def gradient_generic_forms(draw):
    """Small dense integer forms (n = 3, d = 3-4; n = 4, d = 3) on which
    condition (I) holds."""
    n, d = draw(st.sampled_from([(3, 3), (3, 4), (4, 3)]))
    basis = graded_basis(n, d)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    f = Polynomial(n, dict(zip(basis, coeffs)))
    try:
        holds = condition_I(f).holds
    except ScopeError:
        holds = False
    assume(holds)
    return f
