"""Monomial orders as flat integer sort keys.

A monomial is a tuple of exponents.  Each order turns a monomial into a flat
tuple of ints such that ``key(a) < key(b)`` iff ``a`` precedes ``b`` in the
order; max() over keys therefore picks the leading monomial.  Every key is
linear in the exponents (``key(a * b) = key(a) + key(b)`` componentwise),
which the Groebner engine's packed monomials rely on.
"""

from __future__ import annotations

from dataclasses import dataclass


def _grevlex_key(m: tuple[int, ...]) -> tuple[int, ...]:
    return (sum(m), *(-e for e in reversed(m)))


def _grlex_key(m: tuple[int, ...]) -> tuple[int, ...]:
    return (sum(m), *m)


@dataclass(frozen=True)
class MonomialOrder:
    """A well-order on monomials compatible with multiplication.

    kind: "grevlex", "grlex" or "lex".  ``priority`` optionally permutes
    variables before comparison; it lists variable indices from most
    significant to least.
    """

    kind: str = "grevlex"
    priority: tuple[int, ...] | None = None

    def key(self, m: tuple[int, ...]) -> tuple[int, ...]:
        if self.priority is not None:
            m = tuple(m[i] for i in self.priority)
        if self.kind == "grevlex":
            return _grevlex_key(m)
        if self.kind == "grlex":
            return _grlex_key(m)
        if self.kind == "lex":
            return m
        raise ValueError(f"unknown monomial order kind: {self.kind!r}")

    def leading(self, monomials) -> tuple[int, ...]:
        return max(monomials, key=self.key)


GREVLEX = MonomialOrder("grevlex")
GRLEX = MonomialOrder("grlex")
LEX = MonomialOrder("lex")


def lex_eliminating_down_to_first(nvars: int) -> MonomialOrder:
    """Lex order with x_n > ... > x_1, so eliminants end up in x_1."""
    return MonomialOrder("lex", priority=tuple(range(nvars - 1, -1, -1)))
