"""Rational roots of univariate polynomials over Q, by p-adic lifting.

A rational root a/b of the squarefree part s of the input has |a|, |b| <=
B = max(|lead s|, |trail s|).  The roots of s mod a small prime are lifted
by Newton's iteration until p^k > 2B^2, and each is turned into the one a/b
with |a|, |b| <= B it can stand for (rational reconstruction) and kept when
s(a/b) = 0 exactly.  Multiplicities come from deflating the input.  See
Loos, SIAM J. Comput. 12 (1983), and von zur Gathen and Gerhard, *Modern
Computer Algebra*, section 5.10 and chapter 15.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def rational_roots(coeffs: list[Fraction]) -> tuple[list[tuple[Fraction, int]], bool]:
    """Rational roots with multiplicities of a univariate polynomial.

    ``coeffs`` are ascending (constant first).  Returns (roots, complete)
    where complete means the polynomial splits into rational linear factors,
    i.e. multiplicities sum to the degree.
    """
    # clear denominators and content
    den = math.lcm(*(c.denominator for c in coeffs))
    ic = [c.numerator * (den // c.denominator) for c in coeffs]
    while ic and ic[-1] == 0:
        ic.pop()
    if not ic:
        raise ValueError("zero polynomial has every rational number as a root")
    deg = len(ic) - 1

    # strip x^k factor: root 0 with multiplicity k
    k = 0
    while ic[k] == 0:
        k += 1
    roots: list[tuple[Fraction, int]] = []
    if k:
        roots.append((Fraction(0), k))
        ic = ic[k:]

    if len(ic) > 1:
        s = _squarefree_part(_primitive(ic))
        ds = _derivative(s)
        p, residues = _simple_roots_mod_p(s, ds)
        bound = max(abs(s[0]), abs(s[-1]))
        for u in residues:
            r = _reconstruct(*_lift(s, ds, u, p, 2 * bound * bound), bound)
            if r is None:
                continue
            # r = a/b is a root exactly when b*x - a divides, with no remainder
            linear, mult = [-r.numerator, r.denominator], 0
            q, rest = _pseudo_divide(ic, linear)
            while not rest:
                ic, mult = _primitive(q), mult + 1
                q, rest = _pseudo_divide(ic, linear)
            if mult:
                roots.append((r, mult))
    total = sum(m for _, m in roots)
    return sorted(roots), total == deg


def _primitive(f: list[int]) -> list[int]:
    """f over its content, with a positive leading coefficient."""
    g = math.gcd(*f)
    return [c // g for c in f] if f[-1] > 0 else [-c // g for c in f]


def _derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with lead(b)^k * a = q*b + r and deg r < deg b."""
    q, r = [0] * max(len(a) - len(b) + 1, 0), a
    while len(r) >= len(b):
        lead, shift = r[-1], len(r) - len(b)
        q = [b[-1] * c for c in q]
        q[shift] += lead
        r = [b[-1] * c for c in r]
        for j, c in enumerate(b):
            r[shift + j] -= lead * c
        while r and not r[-1]:
            r.pop()
    return q, r


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a primitive f of positive degree with a positive
    leading coefficient.  The gcd is the last entry of the primitive
    remainder sequence of f and f'."""
    a, b = f, _primitive(_derivative(f))
    while True:
        r = _pseudo_divide(a, b)[1]
        if not r:
            return _primitive(_pseudo_divide(f, b)[0])
        a, b = b, _primitive(r)


def _value(f: list[int], x: int, m: int) -> int:
    """f(x) mod m."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _simple_roots_mod_p(s: list[int], ds: list[int]) -> tuple[int, list[int]]:
    """(p, the roots of s mod p, ascending) for the first prime p >= 101
    that divides neither lead(s) nor s' at any of those roots; only the
    divisors of lead(s) times the discriminant fail.  A linear s has the one
    root -s_0/s_1; otherwise s is evaluated at every residue at once, one
    Horner step per coefficient over the list of values."""
    for p in itertools.count(101, 2):
        if s[-1] % p == 0 or any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        if len(s) == 2:
            return p, [-s[0] * pow(s[1], -1, p) % p]
        values = [s[-1]] * p
        for c in reversed(s[:-1]):
            values = [(v * u + c) % p for u, v in enumerate(values)]
        residues = [u for u, v in enumerate(values) if not v]
        if all(_value(ds, u, p) for u in residues):
            return p, residues


def _lift(s: list[int], ds: list[int], u: int, p: int, bound: int) -> tuple[int, int]:
    """(root, modulus): the simple root u of s mod p lifted by Newton's
    iteration, squaring the modulus until it exceeds ``bound``."""
    m = p
    while m <= bound:
        m *= m
        u = (u - _value(s, u, m) * pow(_value(ds, u, m), -1, m)) % m
    return u, m


def _reconstruct(u: int, m: int, bound: int) -> Fraction | None:
    """The a/b with |a|, |b| <= bound and a = b*u mod m, unique when m >
    2*bound^2, or None: the extended Euclidean algorithm on (m, u), stopped
    at the first remainder at most ``bound``."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if abs(t1) <= bound else None
