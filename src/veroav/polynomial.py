"""Sparse multivariate polynomials with exact rational coefficients.

Terms map exponent tuples to nonzero canonical coefficients: an ``int``
when the value is integral, otherwise a ``Fraction`` with denominator above
1; never a float, never an integral ``Fraction``.  Both compare and hash
alike, so this is plain Q arithmetic, with the integral majority of
coefficients left to C-level ``int`` arithmetic.  Values are immutable once
built; every operation returns a fresh polynomial, so sharing across
threads is safe.  Variables are anonymous positions 0..nvars-1; names
exist only in the parser/printer.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from veroav.orders import grlex_key

Monomial = tuple[int, ...]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    q = []
    for x, y in zip(a, b):
        if x < y:
            return None
        q.append(x - y)
    return tuple(q)


def mono_deg(a: Monomial) -> int:
    return sum(a)


def canonical(c) -> int | Fraction:
    """The rational c (an int, a Fraction or anything ``Fraction`` accepts)
    as a canonical coefficient."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def ratio(num: int, den: int) -> int | Fraction:
    """num / den as a canonical coefficient."""
    return Fraction(num, den) if num % den else num // den


def _demote(terms: dict) -> dict:
    """Replace integral Fraction values by ints, in place: a sum or product
    involving a Fraction may be integral."""
    for m, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[m] = c.numerator
    return terms


def integer_terms(p: Polynomial) -> tuple[int, dict[Monomial, int]]:
    """(den, {m: den * c}): p's coefficients cleared to integers by den,
    the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}


def iter_monomials(nvars: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples of the given total degree, in ascending
    lexicographic order: first exponent ascending, then the rest likewise.
    Built level by level, with no recursion: the tails in the last k
    variables, by degree, give those in the last k + 1."""
    if degree < 0 or nvars == 0:
        return iter([()] if (nvars, degree) == (0, 0) else [])
    tails = [[(j,)] for j in range(degree + 1)]  # in the last variable, by degree
    if nvars == 1:
        return iter(tails[degree])
    for _ in range(nvars - 2):
        tails = [[(e,) + t for e in range(j + 1) for t in tails[j - e]] for j in range(degree + 1)]
    return iter([(e,) + t for e in range(degree + 1) for t in tails[degree - e]])


class Polynomial:
    """Immutable sparse polynomial over Q."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction | int] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[Monomial, int | Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong arity for nvars={nvars}")
                c = canonical(coeff)
                if c:
                    clean[tuple(mono)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover - guards immutability
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Monomial, int | Fraction]) -> "Polynomial":
        """Adopt ``terms`` without the constructor's checks: the caller
        guarantees nonzero canonical values (ints when integral, Fractions
        with denominator above 1) on exponent tuples of length nvars, and
        hands the dict over."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: 1})

    @classmethod
    def monomial(cls, exps: Monomial) -> "Polynomial":
        return cls(len(exps), {tuple(exps): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((mono_deg(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a nonzero homogeneous polynomial."""
        degs = {mono_deg(m) for m in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return degs.pop()

    def coeff(self, mono: Monomial) -> int | Fraction:
        return self.terms.get(tuple(mono), 0)

    def leading_monomial(self) -> Monomial:
        """The grlex-largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def sorted_terms(self):
        """The terms in descending grlex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if not s:
                del terms[m]
            elif type(s) is int or s.denominator != 1:
                terms[m] = s
            else:
                terms[m] = s.numerator
        return Polynomial._trusted(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        terms: dict[Monomial, int | Fraction] = {}
        for m2, c2 in small.items():
            for m1, c1 in big.items():
                m = mono_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Polynomial._trusted(self.nvars, _demote(terms))

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = canonical(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial._trusted(self.nvars, _demote({m: v * c for m, v in self.terms.items()}))

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        from veroav.parsing import render_poly

        return f"Polynomial({self.nvars}, {render_poly(self)!r})"

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    # -- calculus and substitution ----------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Exact formal partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        terms: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:  # distinct terms have distinct derivatives
                terms[m[:i] + (e - 1,) + m[i + 1 :]] = c * e
        return Polynomial._trusted(self.nvars, _demote(terms))

    def gradient(self) -> list["Polynomial"]:
        return [self.partial(i) for i in range(self.nvars)]

    def evaluate(self, point: Sequence) -> int | Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        vals = [canonical(v) for v in point]
        total = 0
        for m, c in self.terms.items():
            prod = c
            for v, e in zip(vals, m):
                if e:
                    prod *= v**e
            total += prod
        return canonical(total)

    def substitute(self, assignment: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials (all in the same ring)."""
        result = Polynomial.zero(self.nvars)
        power_cache: dict[tuple[int, int], Polynomial] = {}
        for m, c in self.terms.items():
            term = Polynomial.constant(self.nvars, c)
            for i, e in enumerate(m):
                if not e:
                    continue
                if i in assignment:
                    key = (i, e)
                    if key not in power_cache:
                        power_cache[key] = assignment[i] ** e
                    term = term * power_cache[key]
                else:
                    term = term * Polynomial.monomial(
                        tuple(e if j == i else 0 for j in range(self.nvars))
                    )
            result = result + term
        return result

    def specialize(self, values: Mapping[int, Fraction | int]) -> "Polynomial":
        """Plug constants into some variables; the arity does not change."""
        values = {i: canonical(v) for i, v in values.items()}
        terms: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            coeff = c
            new = list(m)
            for i, v in values.items():
                e = m[i]
                if e:
                    coeff *= v**e
                new[i] = 0
            if coeff:
                key = tuple(new)
                s = terms.get(key, 0) + coeff
                if s:
                    terms[key] = s
                else:
                    del terms[key]
        return Polynomial._trusted(self.nvars, _demote(terms))

    def drop_vars(self, keep: Sequence[int]) -> "Polynomial":
        """Project onto the listed variables; all others must be absent."""
        keep = list(keep)
        keep_set = set(keep)
        terms: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            if any(e and i not in keep_set for i, e in enumerate(m)):
                raise ValueError("polynomial involves a dropped variable")
            terms[tuple(m[i] for i in keep)] = c
        return Polynomial(len(keep), terms)

    # -- integer normal forms ---------------------------------------------

    def primitive_integer(self) -> "Polynomial":
        """Scale by a positive rational so coefficients are coprime integers."""
        if not self.terms:
            return self
        den, ints = integer_terms(self)
        return self.scale(ratio(den, math.gcd(*ints.values())))

    def normalized_primitive(self) -> "Polynomial":
        """Primitive integer form with positive grlex-leading coefficient."""
        p = self.primitive_integer()
        if p.terms and p.terms[p.leading_monomial()] < 0:
            p = -p
        return p
