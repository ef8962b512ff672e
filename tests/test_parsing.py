from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import is_canonical, polynomials
from veroav.parsing import ParseError, parse_poly, render_poly
from veroav.polynomial import Polynomial


def test_family_cubic():
    f = parse_poly("x*y*z + x^3 + y^3", 3)
    assert f.terms == {
        (1, 1, 1): Fraction(1),
        (3, 0, 0): Fraction(1),
        (0, 3, 0): Fraction(1),
    }


def test_zero():
    assert parse_poly("0", 3).is_zero()
    assert render_poly(Polynomial.zero(3)) == "0"


def test_algebraic_identity():
    assert parse_poly("(x+y)^2 - x^2 - 2*x*y", 2) == parse_poly("y^2", 2)


def test_render_examples():
    assert render_poly(parse_poly("y^2", 2)) == "y^2"
    f = parse_poly("x^3 + y^3 + x*y*z", 3)
    assert render_poly(f) == "x^3 + x*y*z + y^3"


def test_rational_literals():
    f = parse_poly("3/2*x + 1/3", 2)
    assert f.coeff((1, 0)) == Fraction(3, 2)
    assert f.coeff((0, 0)) == Fraction(1, 3)
    assert render_poly(f) == "3/2*x + 1/3"


def test_numbered_variables_and_aliases():
    assert parse_poly("x1*x2", 2) == parse_poly("x*y", 2)
    assert parse_poly("x*y*z*w", 4) == parse_poly("x1*x2*x3*x4", 4)
    f = parse_poly("x5^2", 5)
    assert f.terms == {(0, 0, 0, 0, 2): Fraction(1)}


def test_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly("x4", 3)
    with pytest.raises(ParseError, match="unknown variable 'xy'"):
        parse_poly("xy", 3)  # implicit multiplication is forbidden


def test_negative_exponent_rejected():
    with pytest.raises(ParseError, match="exponent"):
        parse_poly("x^-2", 2)


def test_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly("1/0", 2)


def test_error_offsets():
    with pytest.raises(ParseError) as info:
        parse_poly("x + $", 2)
    assert info.value.position == 4


@pytest.mark.parametrize(
    "text,message,offset",
    [
        ("x + \t $", "unexpected character '$'", 6),
        ("x*y +  \n%", "unexpected character '%'", 8),
        ("x^y", "exponent is not a nonnegative integer", 2),
        ("x ^ (2)", "exponent is not a nonnegative integer", 4),
        ("(x+y", "expected ')'", 4),
        ("(x + y  ", "expected ')'", 8),
        ("1/0", "zero denominator", 2),
        ("3*x + 1 / 0", "zero denominator", 10),
        ("1/x", "denominator must be an integer literal", 2),
        ("x*", "unexpected end of input", 2),
        ("x + -y", "unexpected '-'", 4),
        ("2x", "unexpected 'x'", 1),
        ("x^2 $ y^", "unexpected character '$'", 4),  # scanned before any grammar error
    ],
)
def test_error_messages_and_offsets(text, message, offset):
    with pytest.raises(ParseError) as info:
        parse_poly(text, 3)
    assert info.value.position == offset
    assert str(info.value) == f"{message} (at offset {offset})"


def test_unary_minus():
    assert parse_poly("-x^2 + x^2", 2).is_zero()
    assert parse_poly("-(x+y) + x", 2) == parse_poly("-y", 2)


def test_slash_outside_literal_rejected():
    with pytest.raises(ParseError):
        parse_poly("x/2", 2)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("x^2 + " + "1" * 5000, 6),  # a coefficient
        ("3*x + 1/" + "7" * 5000, 8),  # a denominator
        ("x^" + "1" * 5000, 2),  # an exponent
    ],
)
def test_over_long_literals_are_parse_errors(text, offset):
    # CPython converts at most 4300 digits by default; the limit is left alone
    with pytest.raises(ParseError) as info:
        parse_poly(text, 2)
    assert info.value.position == offset
    assert str(info.value) == f"integer literal of 5000 digits is too long (at offset {offset})"
    assert parse_poly("1" * 4300 + "*x", 2).coeff((1, 0)) == int("1" * 4300)


@given(polynomials())
def test_render_parse_round_trip(p):
    assert parse_poly(render_poly(p), p.nvars) == p


@given(polynomials())
def test_render_is_canonical(p):
    q = parse_poly(render_poly(p), p.nvars)
    assert render_poly(q) == render_poly(p)


# Expression trees of the grammar, drawn with their value computed by
# Polynomial arithmetic alone, which shares no code with the parser.

_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n "])


def _spellings(nvars: int, i: int) -> list[str]:
    names = [f"x{i + 1}"]
    if nvars <= 4:
        names.append("xyzw"[i])
    return names


@st.composite
def _expressions(draw, nvars: int, depth: int):
    """An ``expr`` of the grammar, as (text, value)."""
    text, value = "", Polynomial.zero(nvars)
    for k in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["", "+", "-"] if k == 0 else ["+", "-"]))
        term_text, term_value = draw(_terms(nvars, depth))
        text += sign + draw(_SPACE) + term_text + draw(_SPACE)
        value = value - term_value if sign == "-" else value + term_value
    return text, value


@st.composite
def _terms(draw, nvars: int, depth: int):
    texts, value = [], Polynomial.constant(nvars, 1)
    for _ in range(draw(st.integers(1, 3))):
        factor_text, factor_value = draw(_factors(nvars, depth))
        texts.append(factor_text)
        value = value * factor_value
    return (draw(_SPACE) + "*" + draw(_SPACE)).join(texts), value


@st.composite
def _factors(draw, nvars: int, depth: int):
    kinds = ["number", "variable", "group"] if depth else ["number", "variable"]
    kind = draw(st.sampled_from(kinds))
    if kind == "number":
        num = draw(st.integers(0, 30))
        den = draw(st.one_of(st.none(), st.integers(1, 12)))
        text = str(num) if den is None else f"{num}{draw(_SPACE)}/{draw(_SPACE)}{den}"
        value = Polynomial.constant(nvars, Fraction(num, den or 1))
    elif kind == "variable":
        i = draw(st.integers(0, nvars - 1))
        text = draw(st.sampled_from(_spellings(nvars, i)))
        value = Polynomial.variable(i, nvars)
    else:
        inner_text, value = draw(_expressions(nvars, depth - 1))
        text = f"({draw(_SPACE)}{inner_text})"
    if draw(st.booleans()):
        e = draw(st.integers(0, 3))
        text += f"{draw(_SPACE)}^{draw(_SPACE)}{e}"
        value = value**e
    return text, value


@st.composite
def expression_trees(draw):
    nvars = draw(st.integers(1, 5))
    text, value = draw(_expressions(nvars, 2))
    return nvars, draw(_SPACE) + text, value


@given(expression_trees())
def test_parse_matches_polynomial_arithmetic(tree):
    nvars, text, value = tree
    parsed = parse_poly(text, nvars)
    assert parsed == value
    assert all(is_canonical(c) for c in parsed.terms.values())
