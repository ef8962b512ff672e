"""Apolarity: the differentiation action of R on its dual ring, Macaulay
inverse systems of smooth Milnor algebras, and the dual smoothness
criterion.

The action is plain differentiation, h(d/dy_1, ..., d/dy_n) F, so the
pairing of the degree-e monomial bases is diagonal with entries alpha!.  For
smooth f the Milnor algebra has a one-dimensional socle in degree T, and the
inverse system is read off the socle column of the degree-T coordinate
table of the Jacobian Groebner basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from veroav.groebner import coordinate_table, decide_emptiness
from veroav.milnor import InternalDefectError, gb_jacobian, is_smooth, validate_input
from veroav.polynomial import Monomial, Polynomial, mono_div


class NotSmoothError(ValueError):
    pass


def apolar_action(h: Polynomial, F: Polynomial) -> Polynomial:
    """h acting on F by differentiation: h(d/dy_1,...,d/dy_n) F."""
    if h.nvars != F.nvars:
        raise ValueError("polynomials live in different rings")
    out: dict[Monomial, int | Fraction] = {}
    for beta, c in h.terms.items():
        for gamma, e in F.terms.items():
            diff = mono_div(gamma, beta)
            if diff is None:
                continue
            factor = 1
            for g, b in zip(gamma, beta):
                if b:
                    factor *= math.factorial(g) // math.factorial(g - b)
            v = out.get(diff, 0) + c * e * factor
            if v:
                out[diff] = v
            else:
                del out[diff]
    return Polynomial(h.nvars, out)


class InverseSystem(NamedTuple):
    """Degree-T dual generator F with Ann(F) = J_f, normalized to primitive
    integer coefficients with positive leading coefficient."""

    F: Polynomial
    socle_degree: int


def inverse_system(f: Polynomial) -> InverseSystem:
    """Macaulay inverse system of the Milnor algebra of a smooth hypersurface.

    The socle (M_f)_T is one-dimensional, and F pairs every degree-T h with
    its socle coordinate: the coefficient of y^alpha is the socle coordinate
    of x^alpha over alpha!.  Then J_f annihilates F as soon as each partial
    does, which is re-verified directly.
    """
    hi = validate_input(f)
    if not is_smooth(f):
        raise NotSmoothError("the inverse system is computed for smooth hypersurfaces")
    T = hi.T
    table = coordinate_table(gb_jacobian(f), T)
    if len(table.basis) != 1:
        raise InternalDefectError(f"socle has dimension {len(table.basis)}, expected 1")
    F = Polynomial(
        hi.n,
        {alpha: Fraction(row[0], table.denominator * math.prod(map(math.factorial, alpha)))
         for alpha, row in table.rows.items()},
    ).normalized_primitive()
    for g in f.gradient():
        if not apolar_action(g, F).is_zero():
            raise InternalDefectError("a Jacobian generator fails to annihilate F")
    return InverseSystem(F, T)


def smoothness(F: Polynomial) -> bool:
    """Is V(F) smooth, i.e. is the gradient ideal projectively empty?
    Decided by ``groebner.decide_emptiness``, over GF(p) first."""
    if F.is_zero() or not F.is_homogeneous():
        raise ValueError("requires a nonzero homogeneous polynomial")
    return decide_emptiness(F.gradient())[1]


def va_via_inverse_system(f: Polynomial) -> bool:
    """Veronese avoidance through the dual: for smooth f the verdict equals
    the smoothness of the inverse system."""
    return smoothness(inverse_system(f).F)
