"""Jacobian-ideal analytics: input validation, the multiplication-by-partials
matrix, the gradient-generic condition, and the Hilbert-function invariants of
the Milnor algebra (total Tjurina number, degree-one defect, coincidence
threshold, Jacobian module dimensions).

The per-polynomial Groebner bases, ``validate_input`` and ``condition_I``
are memoized, and every invariant is read off each basis's Hilbert series.
The Macaulay matrix ``jacobian_degree_matrix`` and its exact RREF
``jacobian_rref`` serve only the acceptance suite: the condition (I)
cross-check builds its own rows with ``groebner.macaulay_rows``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from veroav.groebner import (
    GroebnerBasis,
    Saturation,
    _series,
    buchberger,
    ci_numerator,
    hilbert_value,
    krull_dim_quotient,
    projective_empty,
    quotient_degree,
    saturate_irrelevant,
    series_coefficient,
)
from veroav.linalg import MatrixQ, RrefResult, rref
from veroav.polynomial import Polynomial, iter_monomials
from veroav.polyring import coefficient_vector, dim_graded


class ScopeError(ValueError):
    """Input falls outside the supported scope (CLI exit code 2)."""


class NotHomogeneousError(ScopeError):
    pass


class DegreeTooSmallError(ScopeError):
    pass


class NonIsolatedSingularitiesError(ScopeError):
    def __init__(self, projective_dim: int):
        super().__init__(
            f"singular locus has projective dimension {projective_dim}; "
            "only isolated singularities are supported"
        )
        self.projective_dim = projective_dim


class InternalDefectError(RuntimeError):
    """An internal consistency check failed (CLI exit code 3)."""


class HypersurfaceInput(NamedTuple):
    f: Polynomial
    n: int
    d: int
    T: int


class ConditionIReport(NamedTuple):
    dim_milnor_top_minus_one: int
    holds: bool


@lru_cache(maxsize=256)
def gb_jacobian(f: Polynomial) -> GroebnerBasis:
    return buchberger(f.gradient())


@lru_cache(maxsize=256)
def gb_jacobian_saturation(f: Polynomial) -> Saturation:
    """J_f^sat in the moved coordinates where it is computed; every reader
    here takes only its Hilbert series, which the move keeps."""
    return saturate_irrelevant(f.gradient(), basis=gb_jacobian(f))


def is_smooth(f: Polynomial) -> bool:
    return projective_empty(gb_jacobian(f))


@lru_cache(maxsize=256)
def validate_input(f: Polynomial) -> HypersurfaceInput:
    """Check homogeneity, degree >= 3, n >= 2 and isolated singularities.

    For n >= 3 a repeated factor forces a positive-dimensional singular
    locus, so reducedness needs no test of its own; on P^1 a binary form is
    reduced iff it is smooth, so a singular one is refused.  Memoized per f.
    """
    if f.is_zero():
        raise NotHomogeneousError("the zero polynomial does not define a hypersurface")
    if not f.is_homogeneous():
        raise NotHomogeneousError("polynomial is not homogeneous")
    d = f.homogeneous_degree()
    if d < 3:
        raise DegreeTooSmallError(f"degree {d} < 3")
    n = f.nvars
    if n < 2:
        raise ScopeError("a form in one variable defines no hypersurface; need n >= 2")
    affine_dim = krull_dim_quotient(gb_jacobian(f))
    if affine_dim > 1:
        raise NonIsolatedSingularitiesError(affine_dim - 1)
    if n == 2 and not is_smooth(f):
        raise ScopeError("a singular binary form has a repeated factor; it is not reduced")
    return HypersurfaceInput(f, n, d, n * (d - 2))


def jacobian_degree_matrix(f: Polynomial, m: int) -> MatrixQ:
    """Matrix of mu_f into degree m: rows are monomial multiples of the
    partials, columns the graded basis of R_m; the row space is (J_f)_m."""
    n = f.nvars
    d = f.homogeneous_degree()
    cols = dim_graded(n, m)
    shift = m - (d - 1)
    if shift < 0:
        return MatrixQ(0, cols, ())
    grads = f.gradient()
    rows = []
    for mono in iter_monomials(n, shift):
        mp = Polynomial.monomial(mono)
        for g in grads:
            rows.append(coefficient_vector(mp * g, m))
    return MatrixQ.from_rows(rows)


@lru_cache(maxsize=256)
def jacobian_rref(f: Polynomial, m: int) -> RrefResult:
    return rref(jacobian_degree_matrix(f, m))


@lru_cache(maxsize=256)
def condition_I(f: Polynomial) -> ConditionIReport:
    """Gradient-generic condition: dim (M_f)_{T-1} must equal n, read off
    the standard monomials of the Jacobian Groebner basis."""
    hi = validate_input(f)
    m = hi.T - 1
    dim_m = hilbert_value(gb_jacobian(f), m)
    return ConditionIReport(dim_m, dim_m == hi.n)


def smooth_numerator(n: int, d: int) -> tuple[int, ...]:
    """(1 - t^(d-1))^n: the Hilbert-series numerator over (1 - t)^n of the
    Milnor algebra of any smooth degree-d hypersurface, whose partials are a
    regular sequence of degree-(d-1) forms."""
    return tuple(ci_numerator([d - 1] * n))


def smooth_reference_hf(n: int, d: int, i: int) -> int:
    """Hilbert function of the Milnor algebra of any smooth degree-d
    hypersurface: coefficient of t^i in (1 + t + ... + t^(d-2))^n."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    return series_coefficient(smooth_numerator(n, d), n, i)


def tjurina_total(f: Polynomial) -> int:
    """Total Tjurina number: the degree of the singular scheme, reduced(1)
    of the Hilbert series of R/J^sat.  J and J^sat agree in high degrees, so
    they share a Hilbert polynomial and R/J has the same degree; the two
    cached series are compared, and a mismatch is an internal defect."""
    validate_input(f)
    if is_smooth(f):
        return 0
    tau = quotient_degree(gb_jacobian_saturation(f).basis)
    unsaturated = quotient_degree(gb_jacobian(f))
    if tau != unsaturated:
        raise InternalDefectError(
            f"the saturated Jacobian ideal has degree {tau}, the Jacobian ideal {unsaturated}"
        )
    return tau


def defect1(f: Polynomial) -> int:
    """Degree-one defect of the singular subscheme, tau(X) - n + dim (J^sat)_1
    = tau(X) - dim (R/J^sat)_1; zero for smooth input."""
    validate_input(f)
    if is_smooth(f):
        return 0
    return tjurina_total(f) - hilbert_value(gb_jacobian_saturation(f).basis, 1)


def coincidence_threshold(f: Polynomial) -> int:
    """Largest q through which the Milnor-algebra Hilbert function matches
    the smooth reference.  Smooth input returns the sentinel T + 1, meaning
    the comparison holds through T vacuously."""
    hi = validate_input(f)
    if is_smooth(f):
        return hi.T + 1
    # the Hilbert functions agree through degree q iff the numerators over
    # (1 - t)^n agree through t^q
    num, ref = gb_jacobian(f).hilbert_series.numerator, smooth_numerator(hi.n, hi.d)
    pairs = enumerate(itertools.zip_longest(num, ref, fillvalue=0))
    first = next((i for i, (a, b) in pairs if a != b), hi.T + 2)
    if first <= hi.T + 1:
        return first - 1
    raise InternalDefectError(
        "singular input matched the smooth Hilbert function beyond degree T"
    )


def jacobian_module_dims(f: Polynomial, q: int) -> int:
    """dim N(f)_q where N(f) = J^sat/J_f."""
    return jacobian_module_series(f, q)[q] if q >= 0 else 0


def jacobian_module_series(f: Polynomial, top: int) -> list[int]:
    """dim N(f)_q for q = 0..top from the two cached series at once: the
    first coefficients of (N_J - N_sat)/(1 - t)^n."""
    validate_input(f)
    if is_smooth(f):
        return [0] * (top + 1)
    num_j = gb_jacobian(f).hilbert_series.numerator
    num_sat = gb_jacobian_saturation(f).basis.hilbert_series.numerator
    diff = [a - b for a, b in itertools.zip_longest(num_j, num_sat, fillvalue=0)]
    return list(itertools.islice(_series(diff, f.nvars), top + 1))
