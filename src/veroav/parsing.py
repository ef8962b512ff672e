"""Parser and canonical printer for the polynomial expression grammar.

Grammar (the wire format used by the CLI and corpus files):

    expr   := [sign] term ((`+`|`-`) term)*
    term   := factor (`*` factor)*
    factor := atom [`^` INT]
    atom   := NUMBER | VAR | `(` expr `)`
    NUMBER := INT [`/` INT]          (rational literal, e.g. 3/2)
    VAR    := x1..xN, or aliases x,y,z when N <= 3 and x,y,z,w when N = 4

Multiplication must be explicit (`x*y`, never `xy`); exponents are
nonnegative integers; floating literals are rejected.  Errors carry the byte
offset into the source text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from veroav.polynomial import Polynomial
from veroav.polyring import linear_form

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*^()/]))")


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
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            if text[self.pos].isspace():
                self.pos += 1
                continue
            m = _TOKEN.match(text, self.pos)
            if not m:
                raise ParseError(f"unexpected character {text[self.pos]!r}", self.pos)
            if m.group(1):
                self.tokens.append(("INT", m.group(1), m.start(1)))
            elif m.group(2):
                self.tokens.append(("NAME", m.group(2), m.start(2)))
            else:
                self.tokens.append(("OP", m.group(3), m.start(3)))
            self.pos = m.end()
        self.tokens.append(("END", "", len(text)))
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok


class _Parser:
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
        kind, value, _ = self.lex.peek()
        sign = 1
        if kind == "OP" and value in "+-":
            self.lex.next()
            sign = -1 if value == "-" else 1
        total = self.term() * sign
        while True:
            kind, value, _ = self.lex.peek()
            if kind == "OP" and value in "+-":
                self.lex.next()
                t = self.term()
                total = total + (t if value == "+" else -t)
            else:
                return total

    def term(self) -> Polynomial:
        total = self.factor()
        while True:
            kind, value, _ = self.lex.peek()
            if kind == "OP" and value == "*":
                self.lex.next()
                total = total * self.factor()
            else:
                return total

    def factor(self) -> Polynomial:
        base = self.atom()
        kind, value, _ = self.lex.peek()
        if kind == "OP" and value == "^":
            self.lex.next()
            kind, value, pos = self.lex.next()
            if kind != "INT":
                raise ParseError("exponent is not a nonnegative integer", pos)
            return base ** int(value)
        return base

    def atom(self) -> Polynomial:
        kind, value, pos = self.lex.next()
        if kind == "INT":
            peek_kind, peek_value, _ = self.lex.peek()
            if peek_kind == "OP" and peek_value == "/":
                self.lex.next()
                dkind, dvalue, dpos = self.lex.next()
                if dkind != "INT":
                    raise ParseError("denominator must be an integer literal", dpos)
                if int(dvalue) == 0:
                    raise ParseError("zero denominator", dpos)
                return Polynomial.constant(self.nvars, Fraction(int(value), int(dvalue)))
            return Polynomial.constant(self.nvars, int(value))
        if kind == "NAME":
            if value not in self.vars:
                raise ParseError(f"unknown variable {value!r}", pos)
            return Polynomial.variable(self.vars[value], self.nvars)
        if kind == "OP" and value == "(":
            inner = self.expr()
            kind, value, pos = self.lex.next()
            if not (kind == "OP" and value == ")"):
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


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
