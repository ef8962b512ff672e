"""Monomial orders as flat integer sort keys.

A monomial is a tuple of exponents.  Each key turns a monomial into a flat
tuple of ints such that ``key(a) < key(b)`` iff ``a`` precedes ``b`` in the
order; max() over keys therefore picks the leading monomial.  Grevlex is the
Groebner engine's one order, and its key is linear in the exponents
(``key(a * b) = key(a) + key(b)`` componentwise), which the engine's packed
monomials rely on.  Grlex orders printing; the graded bases are in its
order by construction (``polyring.graded_basis``).
"""

from __future__ import annotations


def grevlex_key(m: tuple[int, ...]) -> tuple[int, ...]:
    return (sum(m), *(-e for e in reversed(m)))


def grlex_key(m: tuple[int, ...]) -> tuple[int, ...]:
    return (sum(m), *m)
