"""Buchberger's algorithm, with the ideal-theoretic helpers built on top of
it: normal forms, quotient coordinates on standard monomials, projective
emptiness, the Hilbert series, and saturation by the irrelevant ideal (one
grevlex basis, by the Bayer-Stillman criterion).

There are two kinds of run, one pair loop.  ``buchberger`` computes the
reduced basis over Q, under any order and on any input.  Over GF(p) there
is one run, ``modular_certificate``: homogeneous input, grevlex, and a
minimal basis that certifies projective emptiness.  It refuses
non-homogeneous input and degrees beyond the packed field before it starts.

Quotient coordinates come from one table per basis and degree: the normal
form of every degree-D monomial on the standard monomials.  One enumeration
packs each monomial and finds its reducer once, which also yields the
standard monomials; one sweep in increasing monomial order builds each
non-standard monomial's row from the rows of smaller ones (as in FGLM).
The table is memoized on the basis object.
The table is the only reader of coordinates in (R/I)_D: its callers read
the rows of monomials and combine them themselves, and the heap normal
form is left to membership tests.  The one conversion of rational
coefficients to residues mod p, with its refusal of a denominator the
prime divides, is ``residues``.

Every counting question is read off the Hilbert series of the leading
monomials, Q(t)/(1-t)^D, computed once per basis: Hilbert values are
binomial sums, D is the Krull dimension and Q(1) the degree.

Over Q the hot loop works on primitive integer coefficient dicts
(content-stripped after every reduction) rather than Fractions; rational
arithmetic only appears at the public boundary.  Over GF(p) the same loop
works on residues with monic reducers, and lazily: a tail update leaves its
sum unreduced, and a coefficient is taken mod p only when its monomial is
popped, the one time it is read.  Pair management uses the
Gebauer-Moeller variant of the product and chain criteria with the normal
selection strategy (smallest lcm first, from a heap keyed once per pair).
Each run memoizes the reducer of every monomial it meets.  A degree cap
turns runaway instances into a diagnostic instead of silent looping; its
one setting is the VA_DEGREE_CAP environment variable (default 60), read
by ``_degree_cap`` alone.  Bases stay packed: a GroebnerBasis keeps the
loop's integer terms, and builds its Polynomial generators only when they
are read.

A homogeneous run skips the S-pairs that must reduce to zero (Traverso's
Hilbert-driven Buchberger, see ``_StandardCount``): the GF(p) run against
Froeberg's complete-intersection bound, a run over Q only when given the
exact Hilbert series, as the sheared bases of the saturation are.

Projective emptiness is decided in one place, ``decide_emptiness``: over
GF(p) first (``modular_certificate``, a minimal basis or None), over Q only
when that proves nothing.  Every pure-power test, on leading monomials or
on input terms, reads ``_pure_power_variables``; so does the saturation's
choice of linear form, on the sheared basis it builds anyway.

Inside the engine a monomial is one packed int (Bachmann-Schoenemann 1998),
X(m) = K(m) * 2^W + E(m).  E(m) holds the exponents in fields of _FIELD
bits, W bits in all, whose top bits are guard bits and stay clear.  K(m) is
the order key, whose components are linear in the exponents.  So
X(a * b) = X(a) + X(b), m / lm is X(m) - X(lm), and integer comparison of
X is the monomial order, which lets the division heap hold -X (heap division
with packed exponents as in Monagan-Pearce 2007).  lm divides m exactly
when ((E(m) | GUARD) - E(lm)) keeps every guard bit: a field keeps its
guard bit iff its exponent in m is at least that in lm, and no field
borrows from the next.  Exponents are checked against the field size when
a polynomial is packed and before every product, so a field never wraps;
an exponent beyond it raises DegreeCapExceeded.  The product checks are
skipped only in a homogeneous pair-loop run under a graded order whose cap
and input degrees are at most MAX_EXPONENT, where none can fire.  Every
GF(p) run is one, so only the work over Q checks products.
Monomials become tuples again only on the way out: leading monomials,
generators when read, normal forms and standard monomials.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from veroav.orders import GREVLEX, MonomialOrder
from veroav.polynomial import Monomial, Polynomial, iter_monomials, mono_mul, ratio

DEFAULT_DEGREE_CAP = 60

# The prime of the modular emptiness certificates and of the modular
# Macaulay rank in the condition (I) cross-check.
MACAULAY_CHECK_PRIME = 2**31 - 1


class DegreeCapExceeded(RuntimeError):
    """An S-polynomial exceeded the configured degree cap; the instance is
    beyond desk scale."""


class NonHomogeneousIdeal(ValueError):
    pass


def _degree_cap() -> int:
    raw = os.environ.get("VA_DEGREE_CAP")
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"VA_DEGREE_CAP must be an integer >= 1, not {raw!r}")
    return cap


# ---------------------------------------------------------------------------
# packed monomials

# Width of one exponent field; its top bit is the field's guard bit, so
# exponents stay below 2^(_FIELD - 1).
_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1


def _exponent_error(exponent: int) -> DegreeCapExceeded:
    return DegreeCapExceeded(
        f"exponent {exponent} exceeds the packed exponent limit {MAX_EXPONENT}"
    )


class _Packing:
    """Monomials of one (order, nvars) packed as X(m) = K(m) * 2^W + E(m).

    E(m) holds exponent i in bits [_FIELD*i, _FIELD*(i+1)) with the guard
    bit clear; K(m) holds the order key, one signed field per component.
    Every order's key is linear in the exponents, so X is the exponents'
    combination of the packed unit vectors.  A key component is at most the
    total degree in size, and its field leaves room for a sign, so integer
    comparison of K is lexicographic comparison of keys."""

    __slots__ = ("nvars", "low", "guard", "units", "shifts", "graded")

    def __init__(self, order: MonomialOrder, nvars: int):
        self.nvars = nvars
        width = _FIELD * nvars
        self.shifts = range(0, width, _FIELD)
        self.low = (1 << width) - 1
        self.guard = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(nvars))
        # |key component| <= total degree < 2^(key_field - 1)
        key_field = _FIELD + nvars.bit_length()
        self.graded = order.kind != "lex"  # the key starts with the total degree
        self.units = []
        for i in range(nvars):
            key = 0
            for component in order.key(tuple(int(j == i) for j in range(nvars))):
                key = (key << key_field) + component
            self.units.append((key << width) + (1 << (_FIELD * i)))

    def pack(self, m: Monomial) -> int:
        if max(m, default=0) > MAX_EXPONENT:
            raise _exponent_error(max(m))
        return sum(map(operator.mul, m, self.units))

    def unpack(self, x: int) -> Monomial:
        e = x & self.low
        return tuple([(e >> s) & _FIELD_MASK for s in self.shifts])

    def lift(self, e: int) -> tuple[int, int]:
        """(total degree, X) of the monomial with the exponent part e."""
        degree = x = 0
        for s, u in zip(self.shifts, self.units):
            k = (e >> s) & _FIELD_MASK
            degree += k
            x += k * u
        return degree, x

    def monomials(self, degree: int) -> Iterator[int]:
        """Every monomial of the given degree, packed, in ``iter_monomials`` order."""
        return map(self.pack, iter_monomials(self.nvars, degree))

    def check_product(self, shift: int, emax: int) -> None:
        """Raise when shift times a monomial whose exponents are bounded by
        ``emax`` has an exponent beyond MAX_EXPONENT.  Two exponents below
        2^(_FIELD-1) sum below 2^_FIELD, so the sum leaves its range exactly
        when it sets the guard bit, and never carries into the next field."""
        if (shift + emax) & self.guard:
            worst = max(map(sum, zip(self.unpack(shift), self.unpack(emax))))
            raise _exponent_error(worst)


@lru_cache(maxsize=None)
def _packing(order: MonomialOrder, nvars: int) -> _Packing:
    return _Packing(order, nvars)


# ---------------------------------------------------------------------------
# integer engine


def _content(terms: dict[int, int]) -> int:
    g = 0
    for c in terms.values():
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _strip_content(terms: dict[int, int]) -> dict[int, int]:
    g = _content(terms)
    if g > 1:
        return {m: c // g for m, c in terms.items()}
    return terms


def _common_denominator(p: Polynomial) -> int:
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    return den


def _to_int_terms(p: Polynomial, pk: _Packing) -> dict[int, int]:
    den = _common_denominator(p)
    return _strip_content({pk.pack(m): int(c * den) for m, c in p.terms.items()})


def residues(p: Polynomial, modulus: int) -> dict[Monomial, int] | None:
    """p's nonzero coefficient residues modulo a prime, by monomial; None
    when the modulus divides a denominator."""
    out = {}
    for m, c in p.terms.items():
        den = c.denominator
        if den == 1:
            r = c.numerator % modulus
        elif den % modulus:
            r = c.numerator * pow(den, -1, modulus) % modulus
        else:
            return None
        if r:
            out[m] = r
    return out


def _from_terms(terms: dict[int, int], pk: _Packing, den: int) -> Polynomial:
    return Polynomial._trusted(pk.nvars, {pk.unpack(m): ratio(c, den) for m, c in terms.items()})


class _IPoly:
    """Integer polynomial prepared for division, on packed monomials:
    primitive with a positive leading coefficient over Q, monic residues
    modulo ``modulus``.  ``e`` is the leading monomial's exponent part and
    ``emax`` the largest exponent of each variable over all terms, or 0
    without ``check``: a product with it is checked only when emax is not 0."""

    __slots__ = ("lm", "lc", "tail", "e", "emax")

    def __init__(self, terms: dict[int, int], pk: _Packing, modulus: int = 0, check: bool = True):
        lm = max(terms)
        lc = terms[lm]
        if modulus:
            if lc != 1:
                inv = pow(lc, -1, modulus)
                terms = {m: c * inv % modulus for m, c in terms.items()}
                lc = 1
        elif lc < 0:
            terms = {m: -c for m, c in terms.items()}
            lc = -lc
        self.lm = lm
        self.lc = lc
        self.tail = [(m, c) for m, c in terms.items() if m != lm]
        low, guard = pk.low, pk.guard
        self.e = lm & low
        emax = 0
        for m in terms if check else ():
            e = m & low
            ge = ((emax | guard) - e) & guard  # guard bit kept where emax_i >= e_i
            mask = ge - (ge >> (_FIELD - 1))
            emax = (emax & mask) | (e & ~mask)
        self.emax = emax


def _find_reducer(
    x: int, reducers: Sequence[_IPoly], pk: _Packing, start: int = 0
) -> _IPoly | None:
    """First reducer from ``start`` on whose leading monomial divides x:
    (E(x) | GUARD) - E(lm) keeps a field's guard bit iff its exponent in x
    is at least that in lm, and no field borrows from the next."""
    guard = pk.guard
    probe = (x & pk.low) | guard
    for g in itertools.islice(reducers, start, None):
        if (probe - g.e) & guard == guard:
            return g
    return None


def _lookup(x: int, reducers: Sequence[_IPoly], pk: _Packing, memo: dict) -> _IPoly | None:
    """``_find_reducer`` for reducers that only grow: ``memo`` maps x to its
    reducer, which stays the first divisor in list order, or to the number
    of reducers already scanned in vain, so that a miss scans only the
    newer ones."""
    hit = memo.get(x, 0)
    if hit.__class__ is not int:
        return hit
    g = _find_reducer(x, reducers, pk, hit)
    memo[x] = len(reducers) if g is None else g
    return g


def _normal_form_int(
    f: dict[int, int],
    reducers: Sequence[_IPoly],
    pk: _Packing,
    memo: dict,
    track_scale: bool = True,
) -> tuple[dict[int, int], int]:
    """Full normal form of f; returns (terms, scale) with value = terms/scale.
    ``memo`` is the reducer lookup's (see ``_lookup``).

    With ``track_scale`` off the result is only meaningful up to a positive
    rational factor: intermediate content is stripped wholesale, which keeps
    coefficient growth down during basis building, where elements are made
    primitive anyway.
    """
    if not f:
        return {}, 1
    coeffs = dict(f)
    out: dict[int, int] = {}
    scale = 1
    heap = [-m for m in coeffs]
    heapq.heapify(heap)
    steps = 0
    while heap:
        m = -heapq.heappop(heap)
        c = coeffs.pop(m, 0)
        if not c:
            continue
        g = _lookup(m, reducers, pk, memo)
        if g is None:
            out[m] = c
            continue
        shift = m - g.lm
        if g.emax:
            pk.check_product(shift, g.emax)
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
            key = mt + shift
            prev = coeffs.get(key)
            if prev is None:
                coeffs[key] = -mult_g * ct
                heapq.heappush(heap, -key)
            else:
                v = prev - mult_g * ct
                if v:
                    coeffs[key] = v
                else:
                    del coeffs[key]
        steps += 1
        if steps % 16 == 0 and scale > 1:
            g_all = math.gcd(_content(coeffs), _content(out))
            if track_scale:
                g_all = math.gcd(scale, g_all)
            if g_all > 1:
                for k in coeffs:
                    coeffs[k] //= g_all
                for k in out:
                    out[k] //= g_all
                scale = scale // g_all if track_scale else 1
    return out, scale


def _normal_form_mod(
    f: dict[int, int],
    reducers: Sequence[_IPoly],
    pk: _Packing,
    modulus: int,
    memo: dict,
) -> dict[int, int]:
    """Full normal form of f over GF(modulus) against monic reducers.

    Lazy residues: a tail update accumulates prev - c * ct as a plain int,
    and a coefficient is reduced mod p only when its monomial is popped,
    the one time it is read.  A coefficient that cancels stays in ``coeffs``
    until then, so every monomial enters the heap once.  No product is
    checked: every GF(p) run is a ``modular_certificate`` run, whose
    exponents all fit in a field."""
    coeffs = dict(f)
    out: dict[int, int] = {}
    heap = [-m for m in coeffs]
    heapq.heapify(heap)
    while heap:
        m = -heapq.heappop(heap)
        c = coeffs.pop(m) % modulus
        if not c:
            continue
        g = _lookup(m, reducers, pk, memo)
        if g is None:
            out[m] = c
            continue
        shift = m - g.lm
        for mt, ct in g.tail:
            key = mt + shift
            prev = coeffs.get(key)
            if prev is None:
                coeffs[key] = -c * ct
                heapq.heappush(heap, -key)
            else:
                coeffs[key] = prev - c * ct
    return out


def _reduce(
    terms: dict[int, int],
    reducers: Sequence[_IPoly],
    pk: _Packing,
    modulus: int,
    memo: dict,
) -> dict[int, int]:
    """Normal form up to a unit: primitive over Q, residues over GF(p)."""
    if modulus:
        return _normal_form_mod(terms, reducers, pk, modulus, memo)
    reduced, _ = _normal_form_int(_strip_content(terms), reducers, pk, memo, track_scale=False)
    return _strip_content(reduced)


def _spoly_int(f: _IPoly, g: _IPoly, lcm: int, pk: _Packing) -> dict[int, int]:
    """S-polynomial of f and g with the packed lcm of their leading
    monomials; the leading terms cancel and are left out."""
    sf = lcm - f.lm
    sg = lcm - g.lm
    if f.emax | g.emax:
        pk.check_product(sf, f.emax)
        pk.check_product(sg, g.emax)
    q = math.gcd(f.lc, g.lc)
    cf = g.lc // q
    cg = f.lc // q
    terms: dict[int, int] = {}
    for m, c in f.tail:
        terms[m + sf] = cf * c
    for m, c in g.tail:
        k = m + sg
        v = terms.get(k, 0) - cg * c
        if v:
            terms[k] = v
        else:
            terms.pop(k, None)
    return terms


# ---------------------------------------------------------------------------
# Buchberger proper


@dataclass(frozen=True, eq=False)
class GroebnerBasis:
    """Groebner basis with monic generators, sorted by decreasing leading
    monomial, no leading monomial dividing another's.  Over Q (``modulus``
    0, from ``buchberger``) it is reduced: no term of a generator is
    divisible by another generator's leading monomial.  Over GF(p) it is
    the minimal emptiness certificate of ``modular_certificate``, grevlex
    and homogeneous: the tails are not interreduced, so the generators
    depend on the run, while the leading monomials, and every count read
    off them, are those of the reduced basis.

    The basis keeps the engine's packed terms: over Q primitive integers,
    the generator being terms / (leading coefficient); over GF(p) monic
    residues.  ``generators``, the Polynomials (residues in [0, p) as ints
    over GF(p)), are built on first read; compare those for equality of
    bases.  ``homogeneous`` says whether every generator is."""

    nvars: int
    order: MonomialOrder
    packed: tuple[dict[int, int], ...] = field(repr=False)
    leading_monomials: tuple[Monomial, ...]
    homogeneous: bool
    modulus: int = 0  # 0 over Q, else the prime p of GF(p)

    @cached_property
    def generators(self) -> tuple[Polynomial, ...]:
        pk = _packing(self.order, self.nvars)
        return tuple(_from_terms(t, pk, 1 if self.modulus else t[max(t)]) for t in self.packed)

    def is_zero_ideal(self) -> bool:
        return not self.packed

    def is_unit_ideal(self) -> bool:
        return any(sum(lm) == 0 for lm in self.leading_monomials)

    def contains(self, p: Polynomial) -> bool:
        return normal_form(p, self).is_zero()

    @cached_property
    def _reducers(self) -> list[_IPoly]:
        # built once per basis and shared by every normal form against it
        pk = _packing(self.order, self.nvars)
        return [_IPoly(terms, pk) for terms in self.packed]

    @cached_property
    def _coordinate_tables(self) -> dict[int, CoordinateTable]:
        # degree -> table, filled by coordinate_table; dies with the basis
        return {}

    @cached_property
    def hilbert_series(self) -> HilbertSeries:
        """Hilbert series of R / (leading monomials); for a homogeneous
        ideal, that of R/I."""
        numerator = _hilbert_numerator(_minimal(self.leading_monomials))
        while numerator and not numerator[-1]:
            numerator.pop()
        reduced, dim = numerator, self.nvars if numerator else -1
        while reduced and not sum(reduced):  # divide by 1 - t
            reduced, dim = list(itertools.accumulate(reduced))[:-1], dim - 1
        return HilbertSeries(tuple(numerator), tuple(reduced), dim)


def _gm_update(
    lm: list[int],
    pairs: dict[tuple[int, int], int],
    t: int,
    guard: int,
) -> list[tuple[tuple[int, int], int]]:
    """Gebauer-Moeller pair update for the new basis element t: the chain
    criterion drops old pairs from ``pairs`` in place, then lcm
    minimalization and the product criterion choose the new pairs, which
    are added to ``pairs`` and returned.  ``lm`` holds the exponent parts E
    of the leading monomials, ``pairs`` maps each pair to E of its lcm, and
    ``guard`` is the packing's guard bits (see ``_find_reducer``)."""
    lmt = lm[t]
    lcm_t = []
    coprime = set()  # the lcms of leading monomials coprime to lmt
    for a in lm[:t]:  # E of lcm(a, lmt): the larger exponent in every field
        ge = ((a | guard) - lmt) & guard
        mask = ge - (ge >> (_FIELD - 1))
        L = (a & mask) | (lmt & ~mask)
        lcm_t.append(L)
        if L == a + lmt:
            coprime.add(L)
    dropped = [
        (i, j)
        for (i, j), L in pairs.items()
        if ((L | guard) - lmt) & guard == guard and L != lcm_t[i] and L != lcm_t[j]
    ]
    for pair in dropped:
        del pairs[pair]
    by_lcm: dict[int, list[int]] = {}
    for i, L in enumerate(lcm_t):
        by_lcm.setdefault(L, []).append(i)
    minimal: list[int] = []
    new = []
    for L in sorted(by_lcm):  # a proper divisor M of L has E(M) < E(L)
        probe = L | guard
        for M in minimal:
            if (probe - M) & guard == guard:
                break
        else:
            minimal.append(L)
            if L not in coprime:  # the product criterion
                new.append(((by_lcm[L][0], t), L))
    pairs.update(new)
    return new


def _sorted_inputs(gens: Iterable[Polynomial]) -> list[Polynomial]:
    """The nonzero gens in the order the pair loop adds them: by degree,
    then by number of terms."""
    polys = [g for g in gens if not g.is_zero()]
    if any(p.nvars != polys[0].nvars for p in polys):
        raise ValueError("generators live in different rings")
    return sorted(polys, key=lambda q: (q.degree(), len(q.terms)))


def buchberger(gens: Iterable[Polynomial], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis over Q of the ideal generated by ``gens``.
    The one run over GF(p) is ``modular_certificate``'s."""
    polys = _sorted_inputs(gens)
    if not polys:
        return GroebnerBasis(0, order, (), (), True)
    pk = _packing(order, polys[0].nvars)
    inputs = [_to_int_terms(p, pk) for p in polys]
    homogeneous = all(p.is_homogeneous() for p in polys)
    return _reduce_basis(_pair_loop(inputs, pk, 0, _degree_cap()), pk, order, homogeneous)


def _pair_loop(
    inputs: list[dict[int, int]],
    pk: _Packing,
    modulus: int,
    cap: int,
    numerator: Sequence[int] | None = None,
) -> list[_IPoly]:
    """Buchberger's pair loop on converted inputs (primitive integers over
    Q, residues over GF(p)) in the order they are added: every nonzero
    remainder, which together form a Groebner basis that is neither minimal
    nor reduced.  A homogeneous run skips the pairs that ``_StandardCount``
    proves to reduce to zero, once a first zero reduction arms it: over
    GF(p) against the complete-intersection bound, over Q only when the
    caller passes ``numerator``, the exact Hilbert numerator of the ideal.

    Under a graded order no monomial of a homogeneous run has a degree
    above max(cap, input degrees): a pair past the cap raises first, and no
    S-polynomial or reduction raises the degree.  When that fits in a
    field, no product can overflow, and the run skips the product checks."""
    basis: list[_IPoly] = []
    lms: list[int] = []  # E of every leading monomial, as _gm_update reads them
    pairs: dict[tuple[int, int], int] = {}
    heap: list[tuple[int, int, tuple[int, int]]] = []
    memo: dict = {}  # the reducer lookup's, valid while the basis only grows
    count: _StandardCount | None = None
    unarmed = bool(modulus) or numerator is not None  # armed at most once
    degrees = _homogeneous_degrees(inputs, pk)  # read once, also for arming
    check = not (pk.graded and degrees and max(cap, *degrees) <= MAX_EXPONENT)

    def add(terms: dict[int, int]) -> bool:
        reduced = _reduce(terms, basis, pk, modulus, memo)
        if not reduced:
            return False
        g = _IPoly(reduced, pk, modulus, check)
        basis.append(g)
        lms.append(g.e)
        if count is not None:
            count.remove(g.lm)
        for pair, L in _gm_update(lms, pairs, len(basis) - 1, pk.guard):
            heapq.heappush(heap, (*pk.lift(L), pair))
        return True

    for terms in inputs:
        add(terms)

    while heap:
        lcm_deg, lcm, pair = heapq.heappop(heap)
        if pair not in pairs:
            continue  # dropped by a later Gebauer-Moeller update
        del pairs[pair]
        if lcm_deg > cap:
            raise DegreeCapExceeded(
                f"S-polynomial degree {lcm_deg} exceeds cap {cap}; "
                "set VA_DEGREE_CAP to raise the limit"
            )
        if count is not None:
            if not count.advance(lcm_deg):
                count = None  # a finished degree is off the bound
            elif count.saturated():
                continue
        zero = not add(_spoly_int(basis[pair[0]], basis[pair[1]], lcm, pk))
        if zero and unarmed:
            # armed by the first zero reduction; the next pair's advance
            # checks every finished degree
            unarmed = False
            if degrees:
                bound = ci_numerator(degrees) if numerator is None else numerator
                count = _StandardCount(basis, degrees, bound, pk)
    return basis


def _homogeneous_degrees(inputs: list[dict[int, int]], pk: _Packing) -> list[int] | None:
    """The degrees of the nonzero inputs, or None when one is not homogeneous.
    Under a graded order the least and the greatest monomial have the
    smallest and the largest degree, so only they are read."""
    degrees = []
    for terms in inputs:
        found = {sum(pk.unpack(m)) for m in ((min(terms), max(terms)) if pk.graded else terms)}
        if len(found) > 1:
            return None
        degrees.extend(found)
    return degrees


class _StandardCount:
    """The standard monomials S of the current pair degree D in a
    homogeneous run, held against a lower bound numerator(t) / (1 - t)^n
    of the Hilbert series: the exact one, or the complete-intersection (CI)
    bound.

    For generators of degrees d_i in n variables, HS(R/I) is at least
    CI(t) = prod (1 - t^d_i) / (1 - t)^n in the lexicographic order
    (Froeberg 1985).  So while |S_e| = max(CI_e, 0) for every finished
    degree e < D, dim (R/I)_D >= max(CI_D, 0); once |S_D| is down to that,
    the leading monomials of the basis span in(I)_D, and every remaining
    degree-D pair reduces to zero (Traverso 1996).  The first finished
    degree off the bound stops the skipping for good.  S starts in the least
    input degree and steps up one degree at a time: y is standard in degree
    D + 1 iff it is no leading monomial and every y / x_i with x_i | y is."""

    __slots__ = ("pk", "numerator", "lms", "degree", "standard", "limit")

    def __init__(
        self, basis: list[_IPoly], degrees: list[int], numerator: Sequence[int], pk: _Packing
    ):
        self.pk = pk
        self.numerator = numerator
        self.lms = {g.lm for g in basis}
        self.degree = min(degrees)
        self.standard = set(pk.monomials(self.degree)) - self.lms
        self.limit = self._bound()

    def _bound(self) -> int:
        return max(series_coefficient(self.numerator, self.pk.nvars, self.degree), 0)

    def advance(self, degree: int) -> bool:
        """Step S up to ``degree``; False when a finished degree is off the
        bound."""
        low, guard, units = self.pk.low, self.pk.guard, self.pk.units
        ones = guard >> (_FIELD - 1)
        while self.degree < degree:
            if len(self.standard) != self.limit:
                return False
            hits = Counter([s + u for s in self.standard for u in units])
            # (E(y) | GUARD) - ONES keeps the guard bit of every variable in y
            self.standard = {
                y
                for y, k in hits.items()
                if k == ((((y & low) | guard) - ones) & guard).bit_count() and y not in self.lms
            }
            self.degree += 1
            self.limit = self._bound()
        return True

    def remove(self, lm: int) -> None:
        self.lms.add(lm)
        self.standard.discard(lm)

    def saturated(self) -> bool:
        return len(self.standard) <= self.limit


def _minimalize(basis: list[_IPoly], pk: _Packing) -> list[_IPoly]:
    """Drop the generators whose leading monomial another's divides."""
    minimal: list[_IPoly] = []
    for g in sorted(basis, key=lambda g: g.lm):
        if _find_reducer(g.lm, minimal, pk) is None:
            minimal.append(g)
    return minimal


def _terms(g: _IPoly) -> dict[int, int]:
    return dict([(g.lm, g.lc), *g.tail])


def _reduce_basis(
    basis: list[_IPoly], pk: _Packing, order: MonomialOrder, homogeneous: bool
) -> GroebnerBasis:
    """The reduced basis over Q: the minimal one with interreduced tails."""
    minimal = _minimalize(basis, pk)
    return _basis_of(
        [
            _reduce(_terms(g), minimal[:idx] + minimal[idx + 1 :], pk, 0, {})
            for idx, g in enumerate(minimal)
        ],
        pk,
        order,
        0,
        homogeneous,
    )


def _basis_of(
    polys: list[dict[int, int]],
    pk: _Packing,
    order: MonomialOrder,
    modulus: int,
    homogeneous: bool,
) -> GroebnerBasis:
    """The GroebnerBasis of packed generators, by decreasing leading
    monomial.  ``homogeneous`` True says that the generators come from
    homogeneous inputs, and so are homogeneous; False has them checked."""
    polys = sorted(polys, key=max, reverse=True)
    return GroebnerBasis(
        pk.nvars,
        order,
        tuple(polys),
        tuple(pk.unpack(max(terms)) for terms in polys),
        homogeneous or _homogeneous_degrees(polys, pk) is not None,
        modulus,
    )


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
    pk = _packing(gb.order, gb.nvars)
    den = _common_denominator(p)
    terms = {pk.pack(m): int(c * den) for m, c in p.terms.items()}
    out, scale = _normal_form_int(terms, gb._reducers, pk, {})
    return _from_terms(out, pk, den * scale)


class CoordinateTable(NamedTuple):
    """Coordinates in (R/I)_D, D = degree, of every degree-D monomial on
    ``basis``, the standard monomials of degree D: x^a has coordinates
    rows[a] / denominator."""

    degree: int
    basis: tuple[Monomial, ...]
    denominator: int
    rows: dict[Monomial, tuple[int, ...]]


def coordinate_table(gb: GroebnerBasis, degree: int) -> CoordinateTable:
    """The normal forms of all degree-``degree`` monomials of a homogeneous
    ideal over Q, read on the standard monomials of that degree (the
    monomials no leading monomial divides, in ``iter_monomials`` order);
    built once per basis and degree (ValueError for a GF(p) or
    non-homogeneous basis, or for the zero ideal).

    One sweep over the monomials in increasing order, as in FGLM
    (Faugere-Gianni-Lazard-Mora 1993): a standard monomial is a unit
    vector, and any other x = s * lm(g) has NF(x) = -(1/lc(g)) sum c_t
    NF(s * t) over g's tail, whose monomials s * t are smaller and of the
    same degree, so their rows are already known."""
    tables = gb._coordinate_tables
    table = tables.get(degree)
    if table is None:
        table = tables[degree] = _coordinate_sweep(gb, degree)
    return table


def _coordinate_sweep(gb: GroebnerBasis, degree: int) -> CoordinateTable:
    if gb.modulus:
        raise ValueError(f"quotient coordinates need a basis over Q, not over GF({gb.modulus})")
    if gb.is_zero_ideal() and degree >= 0:
        raise ValueError("zero ideal has no ambient variable count; use dim_graded")
    _require_homogeneous(gb)
    pk = _packing(gb.order, gb.nvars)
    reducers = gb._reducers
    # one enumeration: each monomial packed and its reducer found once
    monos = []
    for m in iter_monomials(gb.nvars, degree) if degree >= 0 else ():
        x = pk.pack(m)
        monos.append((x, m, _find_reducer(x, reducers, pk)))
    basis = tuple(m for _, m, g in monos if g is None)  # in iter_monomials order
    index = {x: i for i, x in enumerate(x for x, _, g in monos if g is None)}
    width = len(basis)
    monos.sort(key=operator.itemgetter(0))  # the sweep runs in increasing order
    # packed monomial -> (denominator, numerators), in lowest terms
    rows: dict[int, tuple[int, list[int]]] = {}
    for x, _, g in monos:
        if g is None:
            rows[x] = (1, [int(k == index[x]) for k in range(width)])
            continue
        shift = x - g.lm
        tail = [(rows[mt + shift], ct) for mt, ct in g.tail]
        den = math.lcm(*(d for (d, _), _ in tail))
        acc = [0] * width
        for (d, nums), ct in tail:
            k = ct * (den // d)
            for j, v in enumerate(nums):
                acc[j] -= k * v
        den *= g.lc
        q = math.gcd(den, *acc)
        rows[x] = (den // q, [v // q for v in acc])
    common = math.lcm(*(d for d, _ in rows.values()))
    return CoordinateTable(
        degree,
        basis,
        common,
        {
            m: tuple(v * (common // d) for v in nums)
            for x, m, _ in monos
            for d, nums in (rows[x],)
        },
    )


# ---------------------------------------------------------------------------
# derived ideal computations


def _require_homogeneous(gb: GroebnerBasis) -> None:
    if not gb.homogeneous:
        raise NonHomogeneousIdeal("operation requires a homogeneous ideal")


def projective_empty(gb: GroebnerBasis) -> bool:
    """True iff the projective zero set is empty (over any field extension):
    every variable must have a pure power among the leading monomials."""
    _require_homogeneous(gb)
    powers = _pure_power_variables(gb.leading_monomials, gb.nvars)
    return not gb.is_zero_ideal() and len(powers) == gb.nvars


def _pure_power_variables(monomials: Iterable[Monomial], nvars: int) -> set[int]:
    """The variables x_i of which some monomial is a pure power x_i^e; a
    constant counts for every variable."""
    powers = set()
    for m in monomials:
        support = [i for i, e in enumerate(m) if e]
        if len(support) <= 1:
            powers.update(support or range(nvars))
    return powers


def decide_emptiness(gens: Sequence[Polynomial]) -> tuple[GroebnerBasis, bool]:
    """Whether homogeneous gens have no common projective zero, with the
    grevlex basis that decides it: the GF(MACAULAY_CHECK_PRIME) certificate
    when it proves emptiness, else the reduced basis over Q."""
    certificate = modular_certificate(gens)
    if certificate is not None:
        return certificate, True
    basis = buchberger(gens)
    return basis, projective_empty(basis)


def modular_certificate(gens: Sequence[Polynomial]) -> GroebnerBasis | None:
    """A grevlex basis of homogeneous gens over GF(MACAULAY_CHECK_PRIME)
    with a pure power of every variable, or None: when the prime divides a
    denominator, the degree cap is hit, or the basis proves nothing.  Such a
    basis means the gens' Macaulay matrix has full column rank mod p in
    some degree, hence over Q (Lazard 1983), so the zero set is empty over Q
    too; only a non-empty answer needs the basis over Q.

    This is the package's one GF(p) Groebner run.  The basis is minimal,
    not reduced: emptiness reads only the leading monomials, which are those
    of the reduced basis, so the tails are not interreduced.

    Refused before any run: non-homogeneous gens raise NonHomogeneousIdeal,
    and None comes back when max(cap, largest input degree) exceeds
    MAX_EXPONENT, so that no product in the run can overflow a field, or
    when some variable has a pure power in none of the gens: then that
    coordinate point is a common zero, and no basis can prove emptiness."""
    p = MACAULAY_CHECK_PRIME
    polys = _sorted_inputs(gens)
    if not polys:
        return None
    if not all(g.is_homogeneous() for g in polys):
        raise NonHomogeneousIdeal("the modular certificate needs homogeneous gens")
    cap = _degree_cap()
    if max(cap, polys[-1].degree()) > MAX_EXPONENT or _coordinate_zero(polys):
        return None
    converted = [residues(g, p) for g in polys]
    if any(r is None for r in converted):
        return None
    pk = _packing(GREVLEX, polys[0].nvars)
    inputs = [{pk.pack(m): r for m, r in res.items()} for res in converted]
    try:
        basis = _pair_loop(inputs, pk, p, cap)
    except DegreeCapExceeded:
        return None
    minimal = [_terms(g) for g in _minimalize(basis, pk)]
    certificate = _basis_of(minimal, pk, GREVLEX, p, True)
    return certificate if projective_empty(certificate) else None


def _coordinate_zero(polys: Sequence[Polynomial]) -> bool:
    """Whether, for homogeneous polys, some coordinate point e_i is a
    common zero: no poly has a term in x_i alone."""
    nvars = polys[0].nvars
    return len(_pure_power_variables((m for g in polys for m in g.terms), nvars)) < nvars


# ---------------------------------------------------------------------------
# Hilbert series


class HilbertSeries(NamedTuple):
    """H(t) = numerator(t) / (1 - t)^nvars = reduced(t) / (1 - t)^dim with
    reduced(1) != 0, no trailing zeros; the unit ideal has numerator ()
    and dim -1."""

    numerator: tuple[int, ...]
    reduced: tuple[int, ...]
    dim: int


def series_coefficient(numerator: Sequence[int], nvars: int, degree: int) -> int:
    """Coefficient of t^degree, degree >= 0, in numerator(t) / (1 - t)^nvars."""
    terms = enumerate(numerator[: degree + 1])
    return sum(c * math.comb(degree - k + nvars - 1, nvars - 1) for k, c in terms)


def _minimal(monomials: Iterable[Monomial]) -> list[Monomial]:
    """The minimal generators of the monomial ideal they generate."""
    kept: list[Monomial] = []
    for m in sorted(set(monomials), key=sum):
        if not any(all(map(operator.le, k, m)) for k in kept):
            kept.append(m)
    return kept


def _add_shifted(a: list[int], b: list[int], shift: int) -> list[int]:
    """a(t) + t^shift b(t), on coefficient lists."""
    out = a + [0] * (shift + len(b) - len(a))
    for k, c in enumerate(b):
        out[shift + k] += c
    return out


def ci_numerator(degrees: Iterable[int]) -> list[int]:
    """prod (1 - t^d) over the degrees: the Hilbert-series numerator over
    (1 - t)^n of n variables modulo a complete intersection of forms of
    those degrees, pure powers x_i^d among them."""
    out = [1]
    for d in degrees:
        out = _add_shifted(out, [-c for c in out], d)
    return out


def _hilbert_numerator(gens: list[Monomial]) -> list[int]:
    """N(t) = H(t) (1 - t)^n for the monomial ideal I with minimal generators
    gens, by the pivot recursion N(I) = N(I + (p)) + t^deg(p) N(I : p)
    (Bayer-Stillman 1992, Bigatti 1997).  p = x_i^e, x_i in most mixed
    generators and e the median of its exponents there, divides a mixed
    generator and is not in I, so both ideals grow until only pure powers
    are left, where N = prod (1 - t^deg g)."""
    mixed = [g for g in gens if sum(map(bool, g)) > 1]
    if not mixed:
        return ci_numerator(map(sum, gens))
    n = len(gens[0])
    i = max(range(n), key=lambda j: sum(1 for g in mixed if g[j]))
    exponents = sorted(g[i] for g in mixed if g[i])
    e = exponents[len(exponents) // 2]
    pivot = tuple(e if j == i else 0 for j in range(n))
    plus = [g for g in gens if g[i] < e] + [pivot]
    colon = _minimal(g[:i] + (max(g[i] - e, 0),) + g[i + 1 :] for g in gens)
    return _add_shifted(_hilbert_numerator(plus), _hilbert_numerator(colon), e)


def krull_dim_quotient(gb: GroebnerBasis) -> int:
    """Affine Krull dimension of R/I, read off the Hilbert series of the
    leading-term ideal.  Unit ideal gives -1; the projective dimension is
    this minus one."""
    return gb.hilbert_series.dim


def hilbert_value(gb: GroebnerBasis, degree: int) -> int:
    """Number of degree-``degree`` standard monomials of the leading-term
    ideal, i.e. dim_k (R/I)_degree for a homogeneous ideal."""
    if degree < 0:
        return 0
    if gb.is_zero_ideal():
        raise ValueError("zero ideal has no ambient variable count; use dim_graded")
    return series_coefficient(gb.hilbert_series.numerator, gb.nvars, degree)


def quotient_degree(gb: GroebnerBasis) -> int:
    """reduced(1) of the Hilbert series: the degree of the projective
    scheme of a homogeneous ideal, and the number of standard monomials
    when there are finitely many."""
    return sum(gb.hilbert_series.reduced)


# ---------------------------------------------------------------------------
# saturation


def _shear(gens: Sequence[Polynomial], coeffs: Sequence[int]) -> list[Polynomial]:
    """Substitute x_{n-1} -> x_{n-1} + L, L = sum_i coeffs[i] x_i, in every
    generator: x^a x_{n-1}^e becomes sum_k C(e, k) x^a L^k x_{n-1}^(e-k),
    with the powers of L, monomials in x_0..x_{n-2}, built once."""
    n = len(coeffs) + 1
    units = [tuple(int(j == i) for j in range(n - 1)) for i in range(n - 1)]
    top = max((m[-1] for g in gens for m in g.terms), default=0)
    powers = [{(0,) * (n - 1): 1}]
    for _ in range(top):
        nxt: dict[Monomial, int] = {}
        for m, c in powers[-1].items():
            for u, cu in zip(units, coeffs):
                if cu:
                    key = mono_mul(m, u)
                    nxt[key] = nxt.get(key, 0) + c * cu
        powers.append(nxt)
    out = []
    for g in gens:
        den = _common_denominator(g)
        terms: dict[Monomial, int] = {}
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


def _sheared_basis(
    polys: Sequence[Polynomial], basis: GroebnerBasis
) -> tuple[list[int], Sequence[dict[int, int]]]:
    """The coefficients c of the first l_k = x_{n-1} + sum_{i<n-1} k^(i+1) x_i,
    k = 0, 1, 2, ..., that misses the finitely many projective zeros of the
    polys, and a minimal grevlex basis, packed, of the polys sheared by
    x_{n-1} -> x_{n-1} - sum c_i x_i, which takes l_k to x_{n-1} (for k = 0,
    ``basis``).  l_k misses the zeros iff I + (l_k) has none, iff the
    sheared basis has a pure power of every variable but x_{n-1} among its
    leading monomials, since in(I + (x_{n-1})) = in(I) + (x_{n-1}) under
    grevlex (Bayer-Stillman 1987).  A shear keeps the Hilbert series, so
    each sheared basis skips the pairs the exact series of I proves zero.
    Each zero p rules out at most n - 1 values of k, the roots of the
    nonzero polynomial l_k(p) in k, so the search ends."""
    nvars = basis.nvars
    pk = _packing(GREVLEX, nvars)
    for k in itertools.count():
        coeffs = [k ** (i + 1) for i in range(nvars - 1)]
        generators: Sequence[dict[int, int]] = basis.packed
        if k:
            sheared = _sorted_inputs(_shear(polys, [-c for c in coeffs]))
            inputs = [_to_int_terms(p, pk) for p in sheared]
            loop = _pair_loop(inputs, pk, 0, _degree_cap(), basis.hilbert_series.numerator)
            generators = [_terms(g) for g in _minimalize(loop, pk)]
        lms = [pk.unpack(max(terms)) for terms in generators]
        if _pure_power_variables(lms, nvars) >= set(range(nvars - 1)):
            return coeffs, generators


def saturate_irrelevant(gens: Sequence[Polynomial], basis: GroebnerBasis) -> GroebnerBasis:
    """Grevlex basis of (I : m^infinity), m the irrelevant maximal ideal, for
    an ideal with finitely many projective zeros (ValueError otherwise).
    ``basis`` is the grevlex basis of the gens over Q, which the saturation
    reuses rather than computing it again.

    Bayer-Stillman: I : m^infinity = I : l^infinity for any linear form l
    that misses the zeros.  Shearing coordinates so that l becomes the last
    variable, the saturation there is any grevlex basis with every generator
    divided by its largest power of that variable; one basis in the original
    coordinates follows the inverse shear.  The form l is read off the
    sheared basis itself (``_sheared_basis``).
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return GroebnerBasis(0, GREVLEX, (), (), True)
    if any(not p.is_homogeneous() for p in polys):
        raise NonHomogeneousIdeal("saturation by the irrelevant ideal needs homogeneous input")
    if basis.order != GREVLEX or basis.modulus:
        raise ValueError("saturation reuses only a grevlex basis over Q")
    if krull_dim_quotient(basis) > 1:
        raise ValueError("saturation needs finitely many projective zeros")
    coeffs, generators = _sheared_basis(polys, basis)
    pk = _packing(GREVLEX, basis.nvars)
    # divide by the largest power x_{n-1}^e, that is, subtract e * X(x_{n-1})
    last, top = pk.units[-1], pk.shifts[-1]
    divided = []
    for terms in generators:
        shift = last * min((m >> top) & _FIELD_MASK for m in terms)
        divided.append(_IPoly({m - shift: c for m, c in terms.items()}, pk))
    sat = _reduce_basis(divided, pk, GREVLEX, True)
    return buchberger(_shear(sat.generators, coeffs)) if any(coeffs) else sat
