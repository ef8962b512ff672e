"""Shared strategies and helpers for the property suite."""

from __future__ import annotations

import importlib
import math
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

import veroav
from veroav.groebner import buchberger, coordinate_table, quotient_degree
from veroav.linalg import random_unimodular
from veroav.milnor import ScopeError, condition_I
from veroav.polynomial import Polynomial, iter_monomials, mono_mul, ratio
from veroav.polyring import graded_basis
from veroav.singlocus import _LOCAL_TRUNCATION_CAP


def _package_caches() -> list:
    """Every ``functools.lru_cache`` defined in the package."""
    names = [info.name for info in pkgutil.iter_modules(veroav.__path__)]
    modules = [importlib.import_module(f"veroav.{name}") for name in names]
    return [
        value
        for mod in modules
        for value in vars(mod).values()
        if callable(getattr(value, "cache_clear", None))
        and getattr(value, "__module__", None) == mod.__name__
    ]


_PACKAGE_CACHES = _package_caches()


@pytest.fixture(autouse=True)
def cold_package_caches():
    """Every test starts with the package's memos empty, as every instance
    of the benchmark does, so that no test reads a result memoized by
    another (or under another test's monkeypatching)."""
    for cache in _PACKAGE_CACHES:
        cache.cache_clear()


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


def graded_macaulay_rows(gens, nvars, degree) -> list[dict[int, object]]:
    """Rows x^a g of a Macaulay matrix of forms g of one degree, over every
    x^a of the given degree (shifts outer, generators inner), each a map
    {column: coefficient} on the columns ``graded_basis`` of the product
    degree: built on exponent tuples, one ``mono_mul`` and one index lookup
    per term.  The tuple-built reference for ``groebner.macaulay_rows``."""
    top = degree + next(sum(m) for g in gens for m in g)
    index = {mono: j for j, mono in enumerate(graded_basis(nvars, top))}
    return [
        {index[mono_mul(mono, t)]: c for t, c in g.items()}
        for mono in iter_monomials(nvars, degree)
        for g in gens
    ]


def truncated_macaulay_rows(gens, k, N) -> tuple[list[dict[int, object]], int]:
    """Rows x^a g of the Macaulay matrix of (I + m^N)/m^N, each a map
    {column: coefficient} with every term of degree >= N dropped, and the
    number of columns, the monomials of degree < N in ascending degree.
    ``gens`` are the generators' terms {monomial: coefficient}; multiples
    lying wholly in m^N are left out.  Built on exponent tuples, generators
    outer: the tuple-built reference for ``groebner.macaulay_rows``."""
    monos = [(e, m) for e in range(N) for m in iter_monomials(k, e)]
    cols = {m: j for j, (_, m) in enumerate(monos)}
    rows = []
    for terms in gens:
        if not terms:
            continue
        graded = [(sum(m), m, c) for m, c in terms.items()]
        low = min(e for e, _, _ in graded)
        for e, a in monos:
            if e + low >= N:
                break
            rows.append({cols[mono_mul(a, m)]: c for t, m, c in graded if e + t < N})
    return rows, len(cols)


def _local_colength_groebner(gens: list[Polynomial], k: int) -> int:
    """The stabilized colength of ``singlocus._local_colength`` from a
    Groebner basis of I + m^N for each N over Q: the tests' independent
    reference for the truncated Macaulay ranks."""
    prev = None
    for N in range(2, _LOCAL_TRUNCATION_CAP + 1):
        trunc = list(gens) + [
            Polynomial.monomial(m) for m in iter_monomials(k, N)
        ]
        dim = quotient_degree(buchberger(trunc))
        if dim == prev:
            return dim
        prev = dim
    raise ScopeError(
        f"local colength did not stabilize below truncation order {_LOCAL_TRUNCATION_CAP}; "
        "the point is not an isolated zero"
    )


def _common_denominator(p: Polynomial) -> int:
    return math.lcm(*(c.denominator for c in p.terms.values()))


def shear(gens, coeffs) -> list[Polynomial]:
    """Substitute x_{n-1} -> x_{n-1} + L, L = sum_i coeffs[i] x_i, in every
    generator: x^a x_{n-1}^e becomes sum_k C(e, k) x^a L^k x_{n-1}^(e-k),
    with the powers of L, monomials in x_0..x_{n-2}, built once.  The
    Polynomial-level reference for ``groebner._moved_inputs``."""
    n = len(coeffs) + 1
    units = [tuple(int(j == i) for j in range(n - 1)) for i in range(n - 1)]
    top = max((m[-1] for g in gens for m in g.terms), default=0)
    powers = [{(0,) * (n - 1): 1}]
    for _ in range(top):
        nxt = {}
        for m, c in powers[-1].items():
            for u, cu in zip(units, coeffs):
                if cu:
                    key = mono_mul(m, u)
                    nxt[key] = nxt.get(key, 0) + c * cu
        powers.append(nxt)
    out = []
    for g in gens:
        den = _common_denominator(g)
        terms = {}
        for m, c in g.terms.items():
            e, head = m[-1], m[:-1]
            num = c.numerator * (den // c.denominator)
            for k in range(e + 1):
                b = num * math.comb(e, k)
                for u, cu in powers[k].items():
                    key = (*mono_mul(head, u), e - k)
                    terms[key] = terms.get(key, 0) + b * cu
        out.append(Polynomial._trusted(n, {m: ratio(v, den) for m, v in terms.items() if v}))
    return out


def moved(gens, form, sign) -> list[Polynomial]:
    """The gens in coordinates where the linear form is x_{n-1} (sign -1), or
    back (sign 1): the swap x_j <-> x_{n-1}, its own inverse, when the form
    is x_j, j < n-1, else the shear by the form's other coefficients.  The
    Polynomial-level reference for ``groebner._moved_inputs``, and the way
    back from a ``Saturation``'s coordinates."""
    if form[-1]:
        return shear(gens, [sign * c for c in form[:-1]])
    j = form.index(1)
    swap = lambda m: (*m[:j], m[-1], *m[j + 1 : -1], m[j])  # noqa: E731
    return [Polynomial._trusted(g.nvars, {swap(m): c for m, c in g.terms.items()}) for g in gens]


def with_pure_power_variables(forms) -> list[Polynomial]:
    """The forms plus x_j for every form that is one term c*x_j^e, e >= 1:
    the ideal whose GF(p) basis is the emptiness certificate.  A reference
    read off the forms' terms, sharing no code with ``groebner``."""
    extra = []
    for g in forms:
        if len(g.terms) == 1:
            (m,) = g.terms
            if sum(m) == max(m) > 0:
                extra.append(Polynomial.variable(m.index(max(m)), g.nvars))
    return list(forms) + extra


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
