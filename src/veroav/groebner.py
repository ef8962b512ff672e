"""Buchberger's algorithm over Q or GF(p), with the ideal-theoretic helpers
built on top of it: normal forms, quotient coordinates on standard monomials,
projective emptiness and its modular certificate, Krull dimension, Hilbert
function values, and saturation by the irrelevant ideal (one grevlex basis,
by the Bayer-Stillman criterion).

Over Q the hot loop works on primitive integer coefficient dicts
(content-stripped after every reduction) rather than Fractions; rational
arithmetic only appears at the public boundary.  Over GF(p) the same loop
works on residues with monic reducers.  Pair management uses the
Gebauer-Moeller variant of the product and chain criteria with the normal
selection strategy (smallest lcm first, from a heap keyed once per pair).
A configurable degree cap turns runaway instances into a diagnostic instead
of silent looping.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from veroav.orders import GREVLEX, MonomialOrder
from veroav.polynomial import (
    Monomial,
    Polynomial,
    iter_monomials,
    mono_div,
    mono_lcm,
    mono_mul,
)
from veroav.polyring import linear_form

DEFAULT_DEGREE_CAP = 60

# The prime of the modular emptiness certificates and of the modular
# Macaulay rank in the condition (I) cross-check.
MACAULAY_CHECK_PRIME = 2**31 - 1


class DegreeCapExceeded(RuntimeError):
    """An S-polynomial exceeded the configured degree cap; the instance is
    beyond desk scale."""


class NonHomogeneousIdeal(ValueError):
    pass


def _degree_cap(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    return int(os.environ.get("VA_DEGREE_CAP", DEFAULT_DEGREE_CAP))


# ---------------------------------------------------------------------------
# integer engine


def _content(terms: dict[Monomial, int]) -> int:
    g = 0
    for c in terms.values():
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _strip_content(terms: dict[Monomial, int]) -> dict[Monomial, int]:
    g = _content(terms)
    if g > 1:
        return {m: c // g for m, c in terms.items()}
    return terms


def _to_int_terms(p: Polynomial) -> dict[Monomial, int]:
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    return _strip_content({m: int(c * den) for m, c in p.terms.items()})


def _to_mod_terms(p: Polynomial, modulus: int) -> dict[Monomial, int]:
    """Residues of p's coefficients; raises ValueError when the modulus
    divides a denominator."""
    out = {}
    for m, c in p.terms.items():
        r = c.numerator * pow(c.denominator, -1, modulus) % modulus
        if r:
            out[m] = r
    return out


class _IPoly:
    """Integer polynomial prepared for division: primitive with a positive
    leading coefficient over Q, monic residues modulo ``modulus``."""

    __slots__ = ("terms", "lm", "lc", "tail", "degree")

    def __init__(self, terms: dict[Monomial, int], order: MonomialOrder, modulus: int = 0):
        self.terms = terms
        self.lm = max(terms, key=order.key)
        lc = terms[self.lm]
        if modulus:
            if lc != 1:
                inv = pow(lc, -1, modulus)
                terms = {m: c * inv % modulus for m, c in terms.items()}
                self.terms = terms
                lc = 1
        elif lc < 0:
            terms = {m: -c for m, c in terms.items()}
            self.terms = terms
            lc = -lc
        self.lc = lc
        self.tail = [(m, c) for m, c in terms.items() if m != self.lm]
        self.degree = max(sum(m) for m in terms)


def _find_reducer(m: Monomial, reducers: Sequence[_IPoly]) -> _IPoly | None:
    for g in reducers:
        lm = g.lm
        for a, b in zip(m, lm):
            if a < b:
                break
        else:
            return g
    return None


def _normal_form_int(
    f: dict[Monomial, int],
    reducers: Sequence[_IPoly],
    order: MonomialOrder,
    track_scale: bool = True,
) -> tuple[dict[Monomial, int], int]:
    """Full normal form of f; returns (terms, scale) with value = terms/scale.

    With ``track_scale`` off the result is only meaningful up to a positive
    rational factor: intermediate content is stripped wholesale, which keeps
    coefficient growth down during basis building, where elements are made
    primitive anyway.
    """
    if not f:
        return {}, 1
    coeffs = dict(f)
    out: dict[Monomial, int] = {}
    scale = 1
    heap = [(order.neg_key(m), m) for m in coeffs]
    heapq.heapify(heap)
    steps = 0
    while heap:
        _, m = heapq.heappop(heap)
        c = coeffs.pop(m, 0)
        if not c:
            continue
        g = _find_reducer(m, reducers)
        if g is None:
            out[m] = c
            continue
        shift = mono_div(m, g.lm)
        q = math.gcd(c, g.lc)
        mult_all = g.lc // q
        mult_g = c // q
        if mult_all != 1:
            for k in coeffs:
                coeffs[k] *= mult_all
            for k in out:
                out[k] *= mult_all
            scale *= mult_all
        for mt, ct in g.tail:
            key = mono_mul(mt, shift)
            prev = coeffs.get(key)
            if prev is None:
                v = -mult_g * ct
                coeffs[key] = v
                heapq.heappush(heap, (order.neg_key(key), key))
            else:
                v = prev - mult_g * ct
                if v:
                    coeffs[key] = v
                else:
                    del coeffs[key]
        steps += 1
        if steps % 16 == 0 and scale > 1:
            g_all = math.gcd(_content(coeffs), _content(out))
            if not track_scale and g_all > 1:
                for k in coeffs:
                    coeffs[k] //= g_all
                for k in out:
                    out[k] //= g_all
                scale = 1
            else:
                g_all = math.gcd(scale, g_all)
                if g_all > 1:
                    for k in coeffs:
                        coeffs[k] //= g_all
                    for k in out:
                        out[k] //= g_all
                    scale //= g_all
    return out, scale


def _normal_form_mod(
    f: dict[Monomial, int],
    reducers: Sequence[_IPoly],
    order: MonomialOrder,
    modulus: int,
) -> dict[Monomial, int]:
    """Full normal form of f over GF(modulus) against monic reducers.
    Fresh coefficients are left unreduced until their monomial is popped."""
    coeffs = dict(f)
    out: dict[Monomial, int] = {}
    heap = [(order.neg_key(m), m) for m in coeffs]
    heapq.heapify(heap)
    while heap:
        _, m = heapq.heappop(heap)
        c = coeffs.pop(m, 0) % modulus
        if not c:
            continue
        g = _find_reducer(m, reducers)
        if g is None:
            out[m] = c
            continue
        shift = mono_div(m, g.lm)
        for mt, ct in g.tail:
            key = mono_mul(mt, shift)
            prev = coeffs.get(key)
            if prev is None:
                coeffs[key] = -c * ct
                heapq.heappush(heap, (order.neg_key(key), key))
            else:
                v = (prev - c * ct) % modulus
                if v:
                    coeffs[key] = v
                else:
                    del coeffs[key]
    return out


def _reduce(
    terms: dict[Monomial, int],
    reducers: Sequence[_IPoly],
    order: MonomialOrder,
    modulus: int,
) -> dict[Monomial, int]:
    """Normal form up to a unit: primitive over Q, residues over GF(p)."""
    if modulus:
        return _normal_form_mod(terms, reducers, order, modulus)
    reduced, _ = _normal_form_int(_strip_content(terms), reducers, order, track_scale=False)
    return _strip_content(reduced)


def _spoly_int(f: _IPoly, g: _IPoly) -> dict[Monomial, int]:
    L = mono_lcm(f.lm, g.lm)
    sf = mono_div(L, f.lm)
    sg = mono_div(L, g.lm)
    q = math.gcd(f.lc, g.lc)
    cf = g.lc // q
    cg = f.lc // q
    terms: dict[Monomial, int] = {}
    for m, c in f.terms.items():
        terms[mono_mul(m, sf)] = cf * c
    for m, c in g.terms.items():
        k = mono_mul(m, sg)
        v = terms.get(k, 0) - cg * c
        if v:
            terms[k] = v
        else:
            terms.pop(k, None)
    return terms


# ---------------------------------------------------------------------------
# Buchberger proper


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic generators, none of whose terms is
    divisible by another generator's leading monomial.  Over GF(p) the
    coefficients are residues in [0, p), stored as integral Fractions."""

    nvars: int
    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    leading_monomials: tuple[Monomial, ...]
    reduced: bool = True
    modulus: int = 0  # 0 over Q, else the prime p of GF(p)

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def is_unit_ideal(self) -> bool:
        return any(sum(lm) == 0 for lm in self.leading_monomials)

    def contains(self, p: Polynomial) -> bool:
        return normal_form(p, self).is_zero()

    @cached_property
    def _reducers(self) -> list[_IPoly]:
        # built once per basis and shared by every normal form against it
        return [_IPoly(_to_int_terms(g), self.order) for g in self.generators]


def _gm_update(
    basis: list[_IPoly],
    pairs: set[tuple[int, int]],
    new_index: int,
) -> set[tuple[int, int]]:
    """Gebauer-Moeller pair update: chain criterion on old pairs, then lcm
    minimalization and the product criterion on the new ones."""
    lm = [g.lm for g in basis]
    t = new_index
    lmt = lm[t]
    kept = set()
    for (i, j) in pairs:
        lcm_ij = mono_lcm(lm[i], lm[j])
        if (
            mono_div(lcm_ij, lmt) is None
            or lcm_ij == mono_lcm(lm[i], lmt)
            or lcm_ij == mono_lcm(lm[j], lmt)
        ):
            kept.add((i, j))
    by_lcm: dict[Monomial, list[int]] = {}
    for i in range(t):
        by_lcm.setdefault(mono_lcm(lm[i], lmt), []).append(i)
    minimal: list[Monomial] = []
    for L in sorted(by_lcm, key=sum):
        if all(mono_div(L, M) is None for M in minimal):
            minimal.append(L)
    for L in minimal:
        group = by_lcm[L]
        if any(mono_lcm(lm[i], lmt) == mono_mul(lm[i], lmt) for i in group):
            continue  # product criterion: coprime leading monomials
        kept.add((min(group), t))
    return kept


def buchberger(
    gens: Iterable[Polynomial],
    order: MonomialOrder = GREVLEX,
    degree_cap: int | None = None,
    modulus: int = 0,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``: over Q by
    default, over GF(modulus) when ``modulus`` is a prime (the coefficients
    are read as residues; a denominator divisible by it raises ValueError)."""
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return GroebnerBasis(0, (), order, (), modulus=modulus)
    nvars = polys[0].nvars
    if any(p.nvars != nvars for p in polys):
        raise ValueError("generators live in different rings")
    cap = _degree_cap(degree_cap)

    basis: list[_IPoly] = []
    pairs: set[tuple[int, int]] = set()
    heap: list[tuple[int, tuple[int, ...], tuple[int, int]]] = []

    def add(terms: dict[Monomial, int]) -> None:
        nonlocal pairs
        reduced = _reduce(terms, basis, order, modulus)
        if not reduced:
            return
        basis.append(_IPoly(reduced, order, modulus))
        t = len(basis) - 1
        pairs = _gm_update(basis, pairs, t)
        lmt = basis[t].lm
        for i, j in pairs:
            if j == t:
                lcm = mono_lcm(basis[i].lm, lmt)
                heapq.heappush(heap, (sum(lcm), order.key(lcm), (i, j)))

    for p in sorted(polys, key=lambda q: (q.degree(), len(q.terms))):
        add(_to_mod_terms(p, modulus) if modulus else _to_int_terms(p))

    while heap:
        lcm_deg, _, pair = heapq.heappop(heap)
        if pair not in pairs:
            continue  # dropped by a later Gebauer-Moeller update
        pairs.remove(pair)
        if lcm_deg > cap:
            raise DegreeCapExceeded(
                f"S-polynomial degree {lcm_deg} exceeds cap {cap}; "
                "set VA_DEGREE_CAP to raise the limit"
            )
        add(_spoly_int(basis[pair[0]], basis[pair[1]]))

    return _reduce_basis(basis, nvars, order, modulus)


def _reduce_basis(
    basis: list[_IPoly], nvars: int, order: MonomialOrder, modulus: int
) -> GroebnerBasis:
    # minimalize: drop generators whose lm is divisible by another's
    basis_sorted = sorted(basis, key=lambda g: order.key(g.lm))
    minimal: list[_IPoly] = []
    for g in basis_sorted:
        if all(mono_div(g.lm, h.lm) is None for h in minimal):
            minimal.append(g)
    # interreduce tails
    final: list[Polynomial] = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        terms = _reduce(dict(g.terms), others, order, modulus)
        # over GF(p) the leading term is already 1: no other lm divides it
        lc = 1 if modulus else terms[max(terms, key=order.key)]
        final.append(Polynomial(nvars, {m: Fraction(c, lc) for m, c in terms.items()}))
    final.sort(key=lambda p: order.key(p.leading_monomial(order)), reverse=True)
    lms = tuple(p.leading_monomial(order) for p in final)
    return GroebnerBasis(nvars, tuple(final), order, lms, modulus=modulus)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo the basis; zero iff p is in the ideal.
    Needs a basis over Q: a GF(p) basis says nothing about rational
    membership."""
    if gb.modulus:
        raise ValueError(f"normal forms need a basis over Q, not over GF({gb.modulus})")
    if gb.is_zero_ideal() or p.is_zero():
        return p
    if p.nvars != gb.nvars:
        raise ValueError("polynomial and basis live in different rings")
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    terms = {m: int(c * den) for m, c in p.terms.items()}
    out, scale = _normal_form_int(terms, gb._reducers, gb.order)
    total = den * scale
    return Polynomial(p.nvars, {m: Fraction(c, total) for m, c in out.items()})


def standard_monomials(gb: GroebnerBasis, degree: int) -> tuple[Monomial, ...]:
    """Degree-``degree`` monomials outside the leading-term ideal, in
    ``iter_monomials`` order: a basis of (R/I)_degree for a homogeneous
    ideal."""
    if degree < 0:
        return ()
    if gb.is_zero_ideal():
        raise ValueError("zero ideal has no ambient variable count; use dim_graded")
    reducers = gb._reducers
    return tuple(
        m for m in iter_monomials(gb.nvars, degree) if _find_reducer(m, reducers) is None
    )


def quotient_coordinates(
    polys: Iterable[Polynomial], gb: GroebnerBasis, degree: int
) -> list[tuple[Fraction, ...]]:
    """Coordinates in (R/I)_degree of homogeneous degree-``degree``
    polynomials: their normal-form coefficients on
    ``standard_monomials(gb, degree)``.  A coordinate vector vanishes
    exactly when the polynomial lies in the ideal."""
    basis = standard_monomials(gb, degree)
    out = []
    for p in polys:
        if not p.is_zero() and (not p.is_homogeneous() or p.homogeneous_degree() != degree):
            raise ValueError(f"polynomial is not homogeneous of degree {degree}")
        r = normal_form(p, gb)
        out.append(tuple(r.coeff(m) for m in basis))
    return out


# ---------------------------------------------------------------------------
# derived ideal computations


def _require_homogeneous(gb: GroebnerBasis) -> None:
    if any(not g.is_homogeneous() for g in gb.generators):
        raise NonHomogeneousIdeal("operation requires a homogeneous ideal")


def projective_empty(gb: GroebnerBasis) -> bool:
    """True iff the projective zero set is empty (over any field extension):
    every variable must have a pure power among the leading monomials."""
    _require_homogeneous(gb)
    if gb.is_zero_ideal():
        return False
    if gb.is_unit_ideal():
        return True
    for i in range(gb.nvars):
        if not any(
            lm[i] and all(e == 0 for k, e in enumerate(lm) if k != i)
            for lm in gb.leading_monomials
        ):
            return False
    return True


def modular_certificate(
    gens: Sequence[Polynomial], degree_cap: int | None = None
) -> GroebnerBasis | None:
    """A basis of the gens over GF(MACAULAY_CHECK_PRIME) with a pure power
    of every variable, or None: when the prime divides a denominator, the
    degree cap is hit, or the basis proves nothing.  Such a basis means the
    gens' Macaulay matrix has full column rank mod p in some degree, hence
    over Q (Lazard 1983), so the zero set is empty over Q too; only a
    non-empty answer needs the basis over Q."""
    p = MACAULAY_CHECK_PRIME
    if any(c.denominator % p == 0 for g in gens for c in g.terms.values()):
        return None
    try:
        certificate = buchberger(gens, degree_cap=degree_cap, modulus=p)
    except DegreeCapExceeded:
        return None
    return certificate if projective_empty(certificate) else None


def krull_dim_quotient(gb: GroebnerBasis) -> int:
    """Affine Krull dimension of R/I, computed combinatorially from the
    leading-term ideal (largest variable subset meeting no leading support).
    Unit ideal gives -1; the projective dimension is this minus one."""
    if gb.is_zero_ideal():
        return gb.nvars if gb.nvars else 0
    if gb.is_unit_ideal():
        return -1
    n = gb.nvars
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in gb.leading_monomials]
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return size
    return 0


def hilbert_value(gb: GroebnerBasis, degree: int) -> int:
    """Number of degree-``degree`` standard monomials of the leading-term
    ideal, i.e. dim_k (R/I)_degree for a homogeneous ideal."""
    return len(standard_monomials(gb, degree))


# ---------------------------------------------------------------------------
# saturation


def _shear(gens: Sequence[Polynomial], coeffs: Sequence[int]) -> list[Polynomial]:
    """Substitute x_{n-1} -> x_{n-1} + sum_i coeffs[i] x_i in every generator."""
    ell = linear_form([*coeffs, 1])
    return [g.substitute({ell.nvars - 1: ell}) for g in gens]


def _missing_linear_form(polys: Sequence[Polynomial], degree_cap: int | None) -> list[int]:
    """Coefficients c of the first l_k = x_{n-1} + sum_{i<n-1} k^(i+1) x_i,
    k = 0, 1, 2, ..., that misses the finitely many projective zeros of the
    polys.  Each zero p rules out at most n - 1 values of k, the roots of
    the nonzero polynomial l_k(p) in k, so the search ends."""
    nvars = polys[0].nvars
    for k in itertools.count():
        coeffs = [k ** (i + 1) for i in range(nvars - 1)]
        ell = linear_form([*coeffs, 1])
        if projective_empty(buchberger([*polys, ell], GREVLEX, degree_cap)):
            return coeffs


def saturate_irrelevant(
    gens: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
    degree_cap: int | None = None,
) -> GroebnerBasis:
    """Groebner basis of (I : m^infinity), m the irrelevant maximal ideal, for
    an ideal with finitely many projective zeros (ValueError otherwise).

    Bayer-Stillman: I : m^infinity = I : l^infinity for any linear form l
    that misses the zeros.  Shearing coordinates so that l becomes the last
    variable, the saturation there is the grevlex basis with every generator
    divided by its largest power of that variable; one basis in the original
    coordinates follows the inverse shear.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return GroebnerBasis(0, (), order, ())
    if any(not p.is_homogeneous() for p in polys):
        raise NonHomogeneousIdeal("saturation by the irrelevant ideal needs homogeneous input")
    nvars = polys[0].nvars
    gb = buchberger(polys, GREVLEX, degree_cap)
    if krull_dim_quotient(gb) > 1:
        raise ValueError("saturation needs finitely many projective zeros")
    coeffs = _missing_linear_form(polys, degree_cap)
    sheared = any(coeffs)
    if sheared:
        gb = buchberger(_shear(polys, [-c for c in coeffs]), GREVLEX, degree_cap)
    divided = []
    for g in gb.generators:
        e = min(m[-1] for m in g.terms)
        terms = {m[:-1] + (m[-1] - e,): c for m, c in g.terms.items()}
        divided.append(_IPoly(_to_int_terms(Polynomial(nvars, terms)), GREVLEX))
    sat = _reduce_basis(divided, nvars, GREVLEX, 0)
    if sheared:
        return buchberger(_shear(sat.generators, coeffs), order, degree_cap)
    return sat if order == GREVLEX else buchberger(sat.generators, order, degree_cap)
