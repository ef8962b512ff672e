"""Buchberger's algorithm, with the ideal-theoretic helpers built on top of
it: normal forms, quotient coordinates on standard monomials, eliminants,
projective emptiness, the Hilbert series, and saturation by the irrelevant
ideal (by the Bayer-Stillman criterion, in the sparsest coordinates found).

Every basis is grevlex, the engine's one monomial order.  There are two
kinds of run, one pair loop.  ``buchberger`` computes the reduced basis over
Q, on any input.  Over GF(p) there is one run, ``modular_certificate``:
homogeneous input, and a minimal basis that certifies projective emptiness.
It refuses non-homogeneous input and degrees beyond the packed field before
it starts.

Quotient coordinates come from one table per basis and degree: the normal
form of every degree-D monomial on the standard monomials.  One enumeration,
zipped with the packed monomials that each packing builds once per degree,
finds every monomial's reducer once, which also yields the standard
monomials; one sweep in increasing monomial order builds each
non-standard monomial's row from the rows of smaller ones (as in FGLM).
The table is memoized on the basis object, and is the only reader of
coordinates in (R/I)_D.  The heap normal form is left to membership tests
and to ``eliminant``, the minimal polynomial of a variable x_i on the
quotient by a zero-dimensional ideal (FGLM again, stopped at the first
dependency), which is how rational points are found without a lex basis.
The one conversion of rational coefficients to residues mod p, with its
refusal of a denominator the prime divides, is ``residues``.

Every counting question is read off the Hilbert series of the leading
monomials, Q(t)/(1-t)^D, computed once per basis by the pivot recursion
unrolled onto a stack: Hilbert values are binomial sums, D is the Krull
dimension and Q(1) the degree.  Emptiness reads the pure-power variables,
also cached on the basis.

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
exact Hilbert series, as the moved bases of the saturation are, which
``_moved_inputs`` builds directly as packed integer terms.  The
saturation stays in those moved coordinates (``Saturation``): its readers
take the Hilbert series, which the move keeps, or the points of its chart
x_{n-1} = 1 (``last_chart``), which holds them all.

Projective emptiness is decided in one place, ``decide_emptiness``: over
GF(p) first (``modular_certificate``, a minimal basis or None), over Q only
when that proves nothing.  Every test for a pure power of each variable,
on leading monomials or on input terms, reads ``_pure_power_variables``;
so does the saturation's choice of linear form: x_{n-1}, then each x_j by
the swap x_j <-> x_{n-1} (its own inverse) unless a common zero is a
coordinate point on x_j = 0, then dense shears, each read off the moved
basis it builds anyway.  The certificate runs on x_j in place of every
one-term gen c*x_j^e: x_j^e in I gives V(I + (x_j)) = V(I), and the first
reductions strip every x_j-term, so the run works on the system restricted
to x_j = 0.

Inside the engine a monomial is one packed int (Bachmann-Schoenemann 1998),
X(m) = K(m) * 2^W + E(m).  E(m) holds the exponents in fields of _FIELD
bits, W bits in all, whose top bits are guard bits and stay clear.  K(m) is
the grevlex key, whose components are linear in the exponents.  So
X(a * b) = X(a) + X(b), m / lm is X(m) - X(lm), and integer comparison of
X is the monomial order, which lets the division heap hold -X (heap division
with packed exponents as in Monagan-Pearce 2007).  lm divides m exactly
when ((E(m) | GUARD) - E(lm)) keeps every guard bit: a field keeps its
guard bit iff its exponent in m is at least that in lm, and no field
borrows from the next.  Under grevlex no monomial of a run or a normal
form has a degree above the inputs' or a popped lcm's, so one comparison of
those degrees with MAX_EXPONENT keeps every field from wrapping (a degree
beyond it raises DegreeCapExceeded).  Monomials become tuples again only on the way out: leading monomials,
generators when read, normal forms and standard monomials.  The rows of
every Macaulay matrix, the condition (I) cross-check's and the local
colengths', are packed here too (``macaulay_rows``): the row of x^a g is
{X(a) + X(m): c}, by integer addition, and its keys are its columns.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import os
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from veroav.orders import grevlex_key
from veroav.polynomial import Monomial, Polynomial, integer_terms, iter_monomials, ratio

DEFAULT_DEGREE_CAP = 60

# The prime of the modular emptiness certificates and of the modular
# Macaulay rank of the condition (I) cross-check.
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


def _limit_error(what: str, value: int) -> DegreeCapExceeded:
    return DegreeCapExceeded(f"{what} {value} exceeds the packed exponent limit {MAX_EXPONENT}")


class _Packing:
    """Monomials in nvars variables packed as X(m) = K(m) * 2^W + E(m).

    E(m) holds exponent i in bits [_FIELD*i, _FIELD*(i+1)) with the guard
    bit clear; K(m) holds the grevlex key, one signed field per component.
    The key is linear in the exponents, so X is the exponents' combination
    of the packed unit vectors.  A key component is at most the total degree
    in size, and its field leaves room for a sign, so integer comparison of
    K is lexicographic comparison of keys."""

    __slots__ = ("nvars", "low", "guard", "units", "shifts", "by_degree")

    def __init__(self, nvars: int):
        self.nvars = nvars
        width = _FIELD * nvars
        self.shifts = range(0, width, _FIELD)
        self.low = (1 << width) - 1
        self.guard = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(nvars))
        # |key component| <= total degree < 2^(key_field - 1)
        key_field = _FIELD + nvars.bit_length()
        self.units = []
        for i in range(nvars):
            key = 0
            for component in grevlex_key(tuple(int(j == i) for j in range(nvars))):
                key = (key << key_field) + component
            self.units.append((key << width) + (1 << (_FIELD * i)))
        self.by_degree: dict[int, tuple[int, ...]] = {}  # filled by monomials

    def pack(self, m: Monomial) -> int:
        if max(m, default=0) > MAX_EXPONENT:
            raise _limit_error("exponent", max(m))
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

    def monomials(self, degree: int) -> tuple[int, ...]:
        """Every monomial of the given degree, packed, in ``iter_monomials``
        order; built once per packing and degree."""
        packed = self.by_degree.get(degree)
        if packed is None:
            units = self.units
            monos = iter_monomials(self.nvars, degree)
            packed = tuple([sum(map(operator.mul, m, units)) for m in monos])
            self.by_degree[degree] = packed
        return packed


@lru_cache(maxsize=None)
def _packing(nvars: int) -> _Packing:
    return _Packing(nvars)


def macaulay_rows(
    gens: Sequence[dict[Monomial, object]],
    nvars: int,
    degrees: Iterable[int],
    below: int | None = None,
    descending: bool = False,
) -> list[dict[int, object]]:
    """Rows x^a g of a Macaulay matrix: for each degree, each monomial x^a
    of it in ``iter_monomials`` order, and each generator g, given by its
    terms {m: c}, the map {X(a) + X(m): c}.  The packed monomials are the
    columns, so a row's least key is its grevlex-lowest monomial, or its
    grevlex-leading one when every key is negated (``descending``).  With
    ``below``, terms of degree >= below are dropped, and a multiple with no
    term left has no row."""
    pk = _packing(nvars)
    sign = -1 if descending else 1
    packed = [[(sign * pk.pack(m), sum(m), c) for m, c in terms.items()] for terms in gens]
    rows = []
    for e in degrees:
        cut = [[(x, c) for x, t, c in g if below is None or e + t < below] for g in packed]
        cut = [g for g in cut if g]
        for a in pk.monomials(e):
            a *= sign
            rows.extend([{a + x: c for x, c in g} for g in cut])
    return rows


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


def _to_int_terms(p: Polynomial, pk: _Packing) -> dict[int, int]:
    _, terms = integer_terms(p)
    return _strip_content({pk.pack(m): c for m, c in terms.items()})


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
    modulo ``modulus``.  ``e`` is the leading monomial's exponent part."""

    __slots__ = ("lm", "lc", "tail", "e")

    def __init__(self, terms: dict[int, int], pk: _Packing, modulus: int = 0):
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
        self.e = lm & pk.low


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
    until then, so every monomial enters the heap once."""
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


def _spoly_int(f: _IPoly, g: _IPoly, lcm: int) -> dict[int, int]:
    """S-polynomial of f and g with the packed lcm of their leading
    monomials; the leading terms cancel and are left out."""
    sf = lcm - f.lm
    sg = lcm - g.lm
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


class GroebnerBasis:
    """Groebner basis with monic generators, sorted by decreasing leading
    monomial, no leading monomial dividing another's.  Over Q (``modulus``
    0, from ``buchberger``) it is reduced: no term of a generator is
    divisible by another generator's leading monomial.  Over GF(p) it is
    the minimal emptiness certificate of ``modular_certificate``, on
    homogeneous input: the tails are not interreduced, so the generators
    depend on the run, while the leading monomials, and every count read
    off them, are those of the reduced basis.

    The basis keeps the engine's packed terms: over Q primitive integers,
    the generator being terms / (leading coefficient); over GF(p) monic
    residues.  ``generators``, the Polynomials (residues in [0, p) as ints
    over GF(p)), are built on first read.  ``homogeneous`` says whether
    every generator is.  A basis is equal only to itself: compare
    ``generators`` for equality of bases."""

    def __init__(
        self,
        nvars: int,
        packed: tuple[dict[int, int], ...],
        leading_monomials: tuple[Monomial, ...],
        homogeneous: bool,
        modulus: int = 0,  # 0 over Q, else the prime p of GF(p)
    ):
        self.nvars = nvars
        self.packed = packed
        self.leading_monomials = leading_monomials
        self.homogeneous = homogeneous
        self.modulus = modulus

    @cached_property
    def generators(self) -> tuple[Polynomial, ...]:
        pk = _packing(self.nvars)
        return tuple(_from_terms(t, pk, 1 if self.modulus else t[max(t)]) for t in self.packed)

    def is_zero_ideal(self) -> bool:
        return not self.packed

    def contains(self, p: Polynomial) -> bool:
        return normal_form(p, self).is_zero()

    @cached_property
    def _pure_powers(self) -> set[int]:
        # read by projective_empty and eliminant, which is_smooth asks often
        return _pure_power_variables(self.leading_monomials, self.nvars)

    @cached_property
    def _reducers(self) -> list[_IPoly]:
        # built once per basis and shared by every normal form against it
        pk = _packing(self.nvars)
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


def buchberger(gens: Iterable[Polynomial]) -> GroebnerBasis:
    """Reduced grevlex basis over Q of the ideal generated by ``gens``.
    The one run over GF(p) is ``modular_certificate``'s."""
    polys = _sorted_inputs(gens)
    if not polys:
        return GroebnerBasis(0, (), (), True)
    pk = _packing(polys[0].nvars)
    inputs = [_to_int_terms(p, pk) for p in polys]
    homogeneous = all(p.is_homogeneous() for p in polys)
    return _reduce_basis(_pair_loop(inputs, pk, 0, _degree_cap()), pk, homogeneous)


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

    No S-polynomial or reduction raises the degree under grevlex, so no
    monomial of the run has a degree above the inputs' or a popped lcm's;
    either beyond MAX_EXPONENT raises before a field can wrap."""
    basis: list[_IPoly] = []
    lms: list[int] = []  # E of every leading monomial, as _gm_update reads them
    pairs: dict[tuple[int, int], int] = {}
    heap: list[tuple[int, int, tuple[int, int]]] = []
    memo: dict = {}  # the reducer lookup's, valid while the basis only grows
    count: _StandardCount | None = None
    unarmed = bool(modulus) or numerator is not None  # armed at most once
    degrees = _homogeneous_degrees(inputs, pk)  # read once, also for arming
    top = max((sum(pk.unpack(max(terms))) for terms in inputs), default=0)
    if top > MAX_EXPONENT:
        raise _limit_error("degree", top)

    def add(terms: dict[int, int]) -> bool:
        reduced = _reduce(terms, basis, pk, modulus, memo)
        if not reduced:
            return False
        g = _IPoly(reduced, pk, modulus)
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
        if lcm_deg > MAX_EXPONENT:
            raise _limit_error("S-polynomial degree", lcm_deg)
        if count is not None:
            if not count.advance(lcm_deg):
                count = None  # a finished degree is off the bound
            elif count.saturated():
                continue
        zero = not add(_spoly_int(basis[pair[0]], basis[pair[1]], lcm))
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
    Under grevlex the least and the greatest monomial have the smallest and
    the largest degree, so only they are read."""
    degrees = []
    for terms in inputs:
        found = {sum(pk.unpack(m)) for m in (min(terms), max(terms))}
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

    __slots__ = ("pk", "series", "lms", "degree", "standard", "limit")

    def __init__(
        self, basis: list[_IPoly], degrees: list[int], numerator: Sequence[int], pk: _Packing
    ):
        self.pk = pk
        self.lms = {g.lm for g in basis}
        self.degree = min(degrees)
        self.standard = set(pk.monomials(self.degree)) - self.lms
        # the bound's coefficients from the least input degree on
        self.series = itertools.islice(_series(numerator, pk.nvars), self.degree, None)
        self.limit = max(next(self.series), 0)

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
            self.limit = max(next(self.series), 0)
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


def _reduce_basis(basis: list[_IPoly], pk: _Packing, homogeneous: bool) -> GroebnerBasis:
    """The reduced basis over Q: the minimal one with interreduced tails.
    Each tail is reduced against the whole minimal basis with one shared
    lookup memo: under grevlex no leading monomial divides a monomial below
    it of at most its degree, so an element never reduces its own tail, and
    the normal forms are those against the other elements."""
    minimal = _minimalize(basis, pk)
    memo: dict = {}
    reduced = []
    for g in minimal:
        tail, scale = _normal_form_int(dict(g.tail), minimal, pk, memo)
        tail[g.lm] = g.lc * scale
        reduced.append(_strip_content(tail))
    return _basis_of(reduced, pk, 0, homogeneous)


def _basis_of(
    polys: list[dict[int, int]],
    pk: _Packing,
    modulus: int,
    homogeneous: bool,
) -> GroebnerBasis:
    """The GroebnerBasis of packed generators, by decreasing leading
    monomial.  ``homogeneous`` True says that the generators come from
    homogeneous inputs, and so are homogeneous; False has them checked."""
    polys = sorted(polys, key=max, reverse=True)
    return GroebnerBasis(
        pk.nvars,
        tuple(polys),
        tuple(pk.unpack(max(terms)) for terms in polys),
        homogeneous or _homogeneous_degrees(polys, pk) is not None,
        modulus,
    )


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo the basis; zero iff p is in the ideal.
    Needs a basis over Q: a GF(p) basis says nothing about rational
    membership.  No monomial of the remainder has a degree above p's, which
    must fit in MAX_EXPONENT."""
    if gb.modulus:
        raise ValueError(f"normal forms need a basis over Q, not over GF({gb.modulus})")
    if gb.is_zero_ideal() or p.is_zero():
        return p
    if p.nvars != gb.nvars:
        raise ValueError("polynomial and basis live in different rings")
    if p.degree() > MAX_EXPONENT:
        raise _limit_error("degree", p.degree())
    pk = _packing(gb.nvars)
    den, ints = integer_terms(p)
    terms = {pk.pack(m): c for m, c in ints.items()}
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
    pk = _packing(gb.nvars)
    reducers = gb._reducers
    # one enumeration: each monomial's reducer found once
    monos = [
        (x, m, _find_reducer(x, reducers, pk))
        for x, m in zip(pk.monomials(degree), iter_monomials(gb.nvars, degree))
    ]
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


def eliminant(gb: GroebnerBasis, i: int) -> list[Fraction]:
    """Ascending coefficients of the monic generator of I ∩ Q[x_i] for a
    zero-dimensional ideal I over Q with basis gb: the minimal polynomial of
    x_i on Q[x]/I, as in FGLM (ValueError unless every variable has a pure
    power among the leading monomials).  The normal forms of 1, x_i, ...,
    each primitive integers times a rational scale, are reduced fraction-free
    against the earlier ones, content stripped after every step, until one
    depends on them: its row, which carries its combination of the powers
    (x_i^k under the key ~k < 0), keeps no monomial.  The next power is x_i
    times the last primitive integers."""
    if len(gb._pure_powers) < gb.nvars:
        raise ValueError("the eliminant needs a zero-dimensional ideal")
    pk = _packing(gb.nvars)
    memo: dict = {}  # one reducer lookup for every power
    echelon: list[tuple[int, dict[int, int]]] = []  # (pivot monomial, row)
    scales = []  # the k-th normal form is kept as scales[k] * NF(x_i^k)
    power, scale = {0: 1}, Fraction(1)  # 0 is the packed monomial 1
    for k in itertools.count():
        terms, den = _normal_form_int(power, gb._reducers, pk, memo)
        g = _content(terms) or 1
        row = {m: c // g for m, c in terms.items()}
        scale *= Fraction(den, g)
        scales.append(scale)
        power = {m + pk.units[i]: c for m, c in row.items()}
        row[~k] = 1
        for pivot, other in echelon:
            a, b = row.get(pivot), other[pivot]
            if a:
                row = {m: b * row.get(m, 0) - a * other.get(m, 0) for m in row.keys() | other}
                row = _strip_content({m: c for m, c in row.items() if c})
        pivot = max(row)
        if pivot < 0:
            coeffs = [row.get(~t, 0) * s for t, s in enumerate(scales)]
            return [Fraction(c, coeffs[-1]) for c in coeffs]
        echelon.append((pivot, row))


# ---------------------------------------------------------------------------
# derived ideal computations


def _require_homogeneous(gb: GroebnerBasis) -> None:
    if not gb.homogeneous:
        raise NonHomogeneousIdeal("operation requires a homogeneous ideal")


def projective_empty(gb: GroebnerBasis) -> bool:
    """True iff the projective zero set is empty (over any field extension):
    every variable must have a pure power among the leading monomials."""
    _require_homogeneous(gb)
    return not gb.is_zero_ideal() and len(gb._pure_powers) == gb.nvars


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
    """A grevlex basis over GF(MACAULAY_CHECK_PRIME) with a pure power of
    every variable that proves homogeneous gens have no common projective
    zero, or None: when the prime divides a denominator, the degree cap is
    hit, or the basis proves nothing.

    The basis is that of I + (x_j : j in S), I the ideal of the gens' residues
    and S the variables of which some residue is a one-term pure power
    c*x_j^e (e >= 1; a constant does not count): the run has x_j in place
    of each such gen, in the input variable order.  Since x_j^e is in I,
    V(I + (x_S)) = V(I), so a pure power of every variable among its leading
    monomials means that I has no zero over the algebraic closure of GF(p):
    the Macaulay matrix of the residues has full column rank mod p in some
    degree, hence over Q (Lazard 1983), and the gens have no common zero
    over Q either.  Only a non-empty answer needs the basis over Q.  A
    re-check computes the basis of the gens plus [x_j : j in S] mod p.

    This is the package's one GF(p) Groebner run.  The basis is minimal,
    not reduced: emptiness reads only the leading monomials, which are those
    of the reduced basis, so the tails are not interreduced.

    Refused before any run: non-homogeneous gens raise NonHomogeneousIdeal,
    and None comes back when max(cap, largest input degree) exceeds
    MAX_EXPONENT, so that no product in the run can overflow a field, or
    when some variable has a pure power in none of the residues: then that
    coordinate point is a common zero mod p, and no basis can prove
    emptiness.  A gen whose residues all vanish is a zero row of the
    Macaulay matrix and is dropped."""
    p = MACAULAY_CHECK_PRIME
    polys = _sorted_inputs(gens)
    if not polys:
        return None
    if not all(g.is_homogeneous() for g in polys):
        raise NonHomogeneousIdeal("the modular certificate needs homogeneous gens")
    cap = _degree_cap()
    if max(cap, polys[-1].degree()) > MAX_EXPONENT:
        return None
    converted = [residues(g, p) for g in polys]
    if any(r is None for r in converted):
        return None
    nvars = polys[0].nvars
    converted = [r for r in converted if r]
    if _coordinate_zero(converted, nvars):
        return None
    for k, res in enumerate(converted):
        m = next(iter(res))
        if len(res) == 1 and sum(m) == max(m) > 0:  # c*x_j^e becomes x_j
            converted[k] = {tuple(int(e > 0) for e in m): 1}
    converted.sort(key=lambda res: (sum(next(iter(res))), len(res)))
    pk = _packing(nvars)
    inputs = [{pk.pack(m): r for m, r in res.items()} for res in converted]
    try:
        basis = _pair_loop(inputs, pk, p, cap)
    except DegreeCapExceeded:
        return None
    minimal = [_terms(g) for g in _minimalize(basis, pk)]
    certificate = _basis_of(minimal, pk, p, True)
    return certificate if projective_empty(certificate) else None


def _coordinate_zero(polys: Sequence[dict[Monomial, int]], nvars: int) -> bool:
    """Whether, for homogeneous polys given by their terms, some coordinate
    point e_i is a common zero: no poly has a term in x_i alone."""
    return len(_pure_power_variables((m for g in polys for m in g), nvars)) < nvars


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


def _series(numerator: Sequence[int], nvars: int) -> Iterator[int]:
    """The coefficients of numerator(t) / (1 - t)^nvars from t^0 on: one
    running prefix sum per factor 1 / (1 - t)."""
    series: Iterator[int] = itertools.chain(numerator, itertools.repeat(0))
    for _ in range(nvars):
        series = itertools.accumulate(series)
    return series


def _minimal(monomials: Iterable[Monomial]) -> list[Monomial]:
    """The minimal generators of the monomial ideal they generate."""
    kept: list[Monomial] = []
    for m in sorted(set(monomials), key=sum):
        for k in kept:
            if all(map(operator.le, k, m)):
                break
        else:
            kept.append(m)
    return kept


def _ci_terms(degrees: Iterable[int], shift: int) -> dict[int, int]:
    """t^shift prod (1 - t^d) over the degrees, sparse: exponent ->
    coefficient."""
    out = {shift: 1}
    for d in degrees:
        product = dict(out)
        for k, c in out.items():
            product[k + d] = product.get(k + d, 0) - c
        out = product
    return out


def ci_numerator(degrees: Iterable[int]) -> list[int]:
    """prod (1 - t^d) over the degrees: the Hilbert-series numerator over
    (1 - t)^n of n variables modulo a complete intersection of forms of
    those degrees, pure powers x_i^d among them."""
    terms = _ci_terms(degrees, 0)
    return [terms.get(k, 0) for k in range(max(terms) + 1)]


def _hilbert_numerator(gens: list[Monomial]) -> list[int]:
    """N(t) = H(t) (1 - t)^n, with no trailing zeros, for the monomial ideal
    I with minimal generators gens, by the pivot recursion N(I) = N(I + (p))
    + t^deg(p) N(I : p) (Bayer-Stillman 1992, Bigatti 1997), unrolled onto
    a stack of (generators, shift).  p = x_i^e, x_i in most mixed generators
    and e the median of its exponents there, divides a mixed generator and
    is not in I, so both ideals grow until at most one mixed generator m is
    left beside pure powers P.  There N(P) = prod (1 - t^deg g), and N(P +
    (m)) = N(P) - t^deg(m) N(P : m), with P : m pure powers again, since
    no x_j^a in P divides m; each such leaf adds its sparse terms, times
    t^shift, to one sum."""
    total: dict[int, int] = {}
    stack = [(gens, 0)]
    while stack:
        gens, shift = stack.pop()
        n = len(gens[0]) if gens else 0
        mixed = [g for g in gens if g.count(0) < n - 1]
        if len(mixed) <= 1:
            powers = [g for g in gens if g.count(0) >= n - 1]
            for k, c in _ci_terms(map(sum, powers), shift).items():
                total[k] = total.get(k, 0) + c
            for m in mixed:
                colon = [sum(g) - m[g.index(max(g))] for g in powers]
                for k, c in _ci_terms(colon, shift + sum(m)).items():
                    total[k] = total.get(k, 0) - c
            continue
        columns = [[x for x in column if x] for column in zip(*mixed)]
        i = max(range(n), key=lambda j: len(columns[j]))
        e = sorted(columns[i])[len(columns[i]) // 2]
        pivot = tuple(e if j == i else 0 for j in range(n))
        colon = _minimal(g[:i] + (max(g[i] - e, 0),) + g[i + 1 :] for g in gens)
        stack.append(([g for g in gens if g[i] < e] + [pivot], shift))
        stack.append((colon, shift + e))
    top = max((k for k, c in total.items() if c), default=-1)
    return [total.get(k, 0) for k in range(top + 1)]


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


def _moved_inputs(
    polys: Sequence[Polynomial], form: Sequence[int], pk: _Packing
) -> list[dict[int, int]]:
    """Nonzero polys in coordinates where the linear form is x_{n-1}, as
    the pair loop's inputs: primitive packed integer terms, by degree, then
    by number of terms (as ``_sorted_inputs`` orders them).  The move is the
    swap x_j <-> x_{n-1} when the form is x_j, j < n-1, else the shear
    x_{n-1} -> x_{n-1} + L, L = -sum_i c_i x_i over the form's other
    coefficients c_i: x^a x_{n-1}^e becomes sum_k C(e, k) x^a L^k
    x_{n-1}^(e-k), with the powers of L packed once.  A swap packs each
    monomial on the units with x_j's and x_{n-1}'s exchanged."""
    units, last = pk.units, pk.units[-1]
    powers = [{0: 1}]  # packed L^k
    if form[-1]:
        for _ in range(max(m[-1] for p in polys for m in p.terms)):
            step: dict[int, int] = {}
            for x, c in powers[-1].items():
                for u, cu in zip(units, form[:-1]):
                    if cu:
                        step[x + u] = step.get(x + u, 0) - c * cu
            powers.append(step)
    else:
        j = form.index(1)
        units = [*units[:j], last, *units[j + 1 : -1], units[j]]
    moved = []
    for p in polys:
        terms: dict[int, int] = {}
        for m, num in integer_terms(p)[1].items():
            x = sum(map(operator.mul, m, units))
            e = m[-1] if form[-1] else 0
            for k in range(e + 1):
                b = num * math.comb(e, k)
                base = x - k * last
                for u, cu in powers[k].items():
                    terms[base + u] = terms.get(base + u, 0) + b * cu
        moved.append((p.degree(), _strip_content({x: c for x, c in terms.items() if c})))
    moved.sort(key=lambda item: (item[0], len(item[1])))
    return [terms for _, terms in moved]


def _candidate_forms(polys: Sequence[Polynomial], nvars: int) -> Iterator[list[int]]:
    """Coefficient vectors of the linear forms to try, in order of sparsity:
    x_{n-1}; x_j for j = n-2 .. 0, unless a coordinate point e_i, i != j, is
    a common zero of the polys, where x_j vanishes; then the shears
    l_k = x_{n-1} + sum_{i<n-1} k^(i+1) x_i, k = 1, 2, ...  Each zero p rules
    out at most n - 1 values of k, the roots of l_k(p) in k."""
    last = nvars - 1
    zeros = set(range(nvars)) - _pure_power_variables((m for p in polys for m in p.terms), nvars)
    yield [0] * last + [1]
    swaps = [j for j in range(last - 1, -1, -1) if zeros <= {j}]
    yield from ([int(i == j) for i in range(nvars)] for j in swaps)
    yield from ([k ** (i + 1) for i in range(last)] + [1] for k in itertools.count(1))


def _sheared_basis(
    polys: Sequence[Polynomial], basis: GroebnerBasis
) -> tuple[list[int], Sequence[dict[int, int]]]:
    """The coefficient vector of the first candidate linear form l
    (``_candidate_forms``) that misses the finitely many projective zeros of
    the polys, and a minimal grevlex basis, packed, of the polys moved so
    that l is x_{n-1} (``_moved_inputs``; for l = x_{n-1}, ``basis``).  l misses
    the zeros iff the moved basis has a pure power of every variable but
    x_{n-1} among its leading monomials, as in(I + (x_{n-1})) = in(I) +
    (x_{n-1}) under grevlex (Bayer-Stillman 1987).  Moved bases keep the
    Hilbert series of I, whose exact numerator skips their zero pairs."""
    nvars = basis.nvars
    pk = _packing(nvars)
    for form in _candidate_forms(polys, nvars):
        generators: Sequence[dict[int, int]] = basis.packed
        if any(form[:-1]):
            inputs = _moved_inputs(polys, form, pk)
            loop = _pair_loop(inputs, pk, 0, _degree_cap(), basis.hilbert_series.numerator)
            generators = [_terms(g) for g in _minimalize(loop, pk)]
        lms = [pk.unpack(max(terms)) for terms in generators]
        if _pure_power_variables(lms, nvars) >= set(range(nvars - 1)):
            return form, generators


class Saturation(NamedTuple):
    """A saturated ideal's reduced grevlex basis in the coordinates where the
    linear form of coefficients ``form`` is x_{n-1} (``_moved_inputs``)."""

    form: tuple[int, ...]
    basis: GroebnerBasis

    def point(self, y: Sequence) -> tuple:
        """The point (y, 1) of the chart x_{n-1} = 1 back in the original
        coordinates: the swap x_j <-> x_{n-1}, or x_{n-1} = 1 - sum_i c_i y_i
        for the shear by the form x_{n-1} + sum_i c_i x_i."""
        if self.form[-1]:
            return (*y, 1 - sum(c * v for c, v in zip(self.form, y)))
        j = self.form.index(1)
        return (*y[:j], 1, *y[j + 1 :], y[j])


def saturate_irrelevant(gens: Sequence[Polynomial], basis: GroebnerBasis) -> Saturation:
    """(I : m^infinity), m the irrelevant maximal ideal, for an ideal with
    finitely many projective zeros (ValueError otherwise), in the moved
    coordinates where it is computed: a linear change of coordinates keeps
    the Hilbert series, all that most readers take.  ``basis`` is the
    grevlex basis of the gens over Q, which the saturation reuses.

    Bayer-Stillman: I : m^infinity = I : l^infinity for any linear form l
    that misses the zeros.  Moving coordinates, by a swap or a shear, so
    that l becomes the last variable, the saturation there is any grevlex
    basis with every generator divided by its largest power of that
    variable.  The form l is the sparsest candidate that the moved basis
    itself shows to miss the zeros (``_sheared_basis``), so the chart
    x_{n-1} = 1 (``last_chart``) holds every zero.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return Saturation((), GroebnerBasis(0, (), (), True))
    if any(not p.is_homogeneous() for p in polys):
        raise NonHomogeneousIdeal("saturation by the irrelevant ideal needs homogeneous input")
    if basis.modulus:
        raise ValueError("saturation reuses only a grevlex basis over Q")
    if krull_dim_quotient(basis) > 1:
        raise ValueError("saturation needs finitely many projective zeros")
    form, generators = _sheared_basis(polys, basis)
    pk = _packing(basis.nvars)
    # divide by the largest power x_{n-1}^e, that is, subtract e * X(x_{n-1})
    last, top = pk.units[-1], pk.shifts[-1]
    divided = []
    for terms in generators:
        shift = last * min((m >> top) & _FIELD_MASK for m in terms)
        divided.append(_IPoly({m - shift: c for m, c in terms.items()}, pk))
    return Saturation(tuple(form), _reduce_basis(divided, pk, True))


def last_chart(gb: GroebnerBasis) -> GroebnerBasis:
    """The reduced basis, in x_0..x_{n-2}, of the chart x_{n-1} = 1 of a
    homogeneous ideal saturated in x_{n-1}, from its reduced grevlex basis
    gb.  No generator is divisible by x_{n-1}, last in grevlex, so none has
    it in its leading monomial, and setting x_{n-1} = 1 keeps them all."""
    pk, chart = _packing(gb.nvars), _packing(gb.nvars - 1)
    polys = [{chart.pack(pk.unpack(m)[:-1]): c for m, c in terms.items()} for terms in gb.packed]
    return _basis_of(polys, chart, 0, False)
