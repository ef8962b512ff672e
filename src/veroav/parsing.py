"""Parser and canonical printer for the polynomial expression grammar.

Grammar (the wire format used by the CLI and corpus files):

    expr   := [sign] term ((`+`|`-`) term)*
    term   := factor (`*` factor)*
    factor := atom [`^` INT]
    atom   := NUMBER | VAR | `(` expr `)`
    NUMBER := INT [`/` INT]          (rational literal, e.g. 3/2)
    VAR    := x1..xN, or aliases x,y,z when N <= 3 and x,y,z,w when N = 4

Multiplication must be explicit (`x*y`, never `xy`); exponents are
nonnegative integers; floating literals are rejected.  An integer literal
longer than the interpreter converts (4300 digits by default) is an error
too.  Errors carry the byte offset into the source text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from veroav.polynomial import Monomial, Polynomial, mono_mul, ratio
from veroav.polyring import linear_form

# One match per token, leading whitespace skipped; the last group catches
# any other character, so the matches cover the text up to trailing space.
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*^()/])|(\S))")
_KINDS = (None, "INT", "NAME", "OP")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def default_names(nvars: int) -> list[str]:
    if nvars <= 4:
        return ["x", "y", "z", "w"][:nvars]
    return [f"x{i + 1}" for i in range(nvars)]


def _variable_table(nvars: int, names: Sequence[str] | None) -> dict[str, int]:
    table = {f"x{i + 1}": i for i in range(nvars)}
    if nvars <= 4:
        for i, alias in enumerate(["x", "y", "z", "w"][:nvars]):
            table[alias] = i
    if names is not None:
        if len(names) != nvars:
            raise ValueError("names length must equal nvars")
        for i, name in enumerate(names):
            table[name] = i
    return table


class _Lexer:
    """The (kind, value, offset) tokens of the whole text, ending in END
    with value ""; a bad character is reported before any grammar error.
    An operator's value alone tells it from every other token."""

    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            group = m.lastindex
            if group == 4:
                raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
            self.tokens.append((_KINDS[group], m.group(group), m.start(group)))
        self.tokens.append(("END", "", len(text)))
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok


def _add_term(terms: dict[Monomial, int | Fraction], m: Monomial, c) -> None:
    """terms[m] += c, keeping the values nonzero and canonical."""
    s = terms.get(m, 0) + c
    if not s:
        del terms[m]
    else:
        terms[m] = s if type(s) is int or s.denominator != 1 else s.numerator


class _Parser:
    """Recursive descent that collects each term as a coefficient and an
    exponent vector and sums the terms of an expression in one dict, in the
    order polynomial addition would; only parenthesized groups and their
    powers use ``Polynomial`` arithmetic."""

    def __init__(self, text: str, nvars: int, names: Sequence[str] | None):
        self.lex = _Lexer(text)
        self.nvars = nvars
        self.vars = _variable_table(nvars, names)

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, value, pos = self.lex.peek()
        if kind != "END":
            raise ParseError(f"unexpected {value!r}", pos)
        return p

    def expr(self) -> Polynomial:
        terms: dict[Monomial, int | Fraction] = {}
        value = self.lex.peek()[1]
        negate = value == "-"
        if value in ("+", "-"):
            self.lex.next()
        while True:
            self.term(terms, negate)
            value = self.lex.peek()[1]
            if value not in ("+", "-"):
                return Polynomial._trusted(self.nvars, terms)
            self.lex.next()
            negate = value == "-"

    def term(self, terms: dict[Monomial, int | Fraction], negate: bool) -> None:
        """Parse a product of factors and add it, negated if ``negate``,
        into ``terms``: nonzero canonical coefficients by exponent tuple."""
        coeff = -1 if negate else 1
        exps = [0] * self.nvars
        group = None  # the product of the parenthesized factors
        while True:
            kind, value, pos = self.lex.next()
            if kind == "INT":
                coeff *= self.number(value, pos) ** self.exponent()
            elif kind == "NAME":
                if value not in self.vars:
                    raise ParseError(f"unknown variable {value!r}", pos)
                exps[self.vars[value]] += self.exponent()
            elif value == "(":
                inner = self.expr()
                _, value, pos = self.lex.next()
                if value != ")":
                    raise ParseError("expected ')'", pos)
                inner **= self.exponent()
                group = inner if group is None else group * inner
            else:
                raise ParseError(
                    f"unexpected {value!r}" if value else "unexpected end of input", pos
                )
            if self.lex.peek()[1] != "*":
                break
            self.lex.next()
        if not coeff:
            return
        if group is None:
            _add_term(terms, tuple(exps), coeff)
        else:
            for m, c in group.terms.items():
                _add_term(terms, mono_mul(m, exps), c * coeff)

    def number(self, value: str, pos: int) -> int | Fraction:
        """An integer literal, or the rational literal it starts."""
        numerator = _integer(value, pos)
        if self.lex.peek()[1] != "/":
            return numerator
        self.lex.next()
        dkind, dvalue, dpos = self.lex.next()
        if dkind != "INT":
            raise ParseError("denominator must be an integer literal", dpos)
        denominator = _integer(dvalue, dpos)
        if denominator == 0:
            raise ParseError("zero denominator", dpos)
        return ratio(numerator, denominator)

    def exponent(self) -> int:
        """The exponent of a `^`, or 1 when none follows."""
        if self.lex.peek()[1] != "^":
            return 1
        self.lex.next()
        kind, value, pos = self.lex.next()
        if kind != "INT":
            raise ParseError("exponent is not a nonnegative integer", pos)
        return _integer(value, pos)


def _integer(digits: str, pos: int) -> int:
    """The value of an INT token; CPython refuses to convert one longer than
    its int-string limit, which stays as the interpreter has it."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None


def parse_poly(text: str, nvars: int, names: Sequence[str] | None = None) -> Polynomial:
    """Parse an expression into the expanded, collected sparse polynomial."""
    if nvars < 1:
        raise ValueError("nvars must be positive")
    return _Parser(text, nvars, names).parse()


def _render_monomial(mono, names: Sequence[str]) -> str:
    factors = []
    for i, e in enumerate(mono):
        if e == 1:
            factors.append(names[i])
        elif e > 1:
            factors.append(f"{names[i]}^{e}")
    return "*".join(factors)


def _render_coeff(c: int | Fraction) -> str:
    return str(c)  # p for an int, p/q for a Fraction


def render_poly(p: Polynomial, names: Sequence[str] | None = None) -> str:
    """Canonical form: graded-lex descending, minus signs absorbed,
    coefficient 1 suppressed; parse(render(p)) == p."""
    if names is None:
        names = default_names(p.nvars)
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for mono, coeff in p.sorted_terms():
        mono_str = _render_monomial(mono, names)
        mag = abs(coeff)
        if not mono_str:
            body = _render_coeff(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{_render_coeff(mag)}*{mono_str}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)


def render_witness(witness: Sequence | None) -> str | None:
    """The linear form with coefficient vector ``witness``, rendered; None
    stays None."""
    if witness is None:
        return None
    return render_poly(linear_form(witness))
