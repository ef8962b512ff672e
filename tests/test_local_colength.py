"""Local Milnor and Tjurina numbers from truncated Macaulay matrices mod p,
against the Groebner route they replace, on random and explicit local
ideals, on inputs built to defeat the prime, and pinned on the corpus and
the singular benchmark inputs."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coefficients, homogeneous_polynomials
from veroav import cli, singlocus
from veroav.corpus import builtin_corpus
from veroav.groebner import MACAULAY_CHECK_PRIME
from veroav.milnor import InternalDefectError, ScopeError
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial
from veroav.singlocus import (
    ProjPoint,
    _local_colength,
    _local_colength_groebner,
    classify,
    local_invariants,
    singular_report,
)
from veroav.veronese import f0_form

P = MACAULAY_CHECK_PRIME


def _ideals(G):
    """The Milnor and Tjurina ideals of a local equation G."""
    grads = G.gradient()
    return grads, [G] + grads


@st.composite
def semi_quasihomogeneous(draw):
    """x_1^a_1 + ... + x_k^a_k plus random terms of weighted degree above 1
    in the weights 1/a_i: an isolated singularity at the origin with Milnor
    number prod(a_i - 1), in k = 2 (a plane curve) or k = 3 (a surface)."""
    k = draw(st.sampled_from([2, 3]))
    exps = draw(st.lists(st.integers(2, 6 if k == 2 else 4), min_size=k, max_size=k))
    above = [
        m
        for m in itertools.product(range(max(exps) + 1), repeat=k)
        if sum(Fraction(e, a) for e, a in zip(m, exps)) > 1 and sum(m) <= max(exps) + 1
    ]
    extra = draw(st.lists(st.sampled_from(above), max_size=4, unique=True))
    terms = {tuple(a if j == i else 0 for j in range(k)): 1 for i, a in enumerate(exps)}
    for m in extra:
        terms[m] = draw(coefficients)
    return Polynomial(k, terms), math.prod(a - 1 for a in exps)


def _counting_fallback():
    calls = []

    def fallback(gens, k):
        calls.append(k)
        return _local_colength_groebner(gens, k)

    return calls, mock.patch.object(singlocus, "_local_colength_groebner", fallback)


@settings(max_examples=40, deadline=None)
@given(semi_quasihomogeneous())
def test_matrix_colength_matches_groebner(case):
    G, mu = case
    milnor_ideal, tjurina_ideal = _ideals(G)
    k = G.nvars
    milnor = _local_colength(milnor_ideal, k)
    tjurina = _local_colength(tjurina_ideal, k)
    assert milnor == _local_colength_groebner(milnor_ideal, k) == mu
    assert tjurina == _local_colength_groebner(tjurina_ideal, k) <= milnor


@settings(max_examples=40, deadline=None)
@given(
    homogeneous_polynomials(nvars=st.just(3), degrees=st.integers(2, 5)),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any),
)
def test_local_equation_matches_full_substitution(f, coords):
    # the chart variable is set to 1 and only the nonzero coordinates are
    # translated; the reference substitutes every variable
    p = ProjPoint.normalize(coords)
    c = p.chart()
    full = f.substitute({
        i: Polynomial.constant(3, 1) if i == c
        else Polynomial.variable(i, 3) + Polynomial.constant(3, v)
        for i, v in enumerate(p.coords)
    })
    G, chart = singlocus._dehomogenize_at(f, p)
    assert chart == c
    assert G == full.drop_vars([i for i in range(3) if i != c])


@pytest.mark.parametrize("k", range(1, 8))
def test_a_k_singularities(k):
    # y^2 - x^(k+1) at the origin: mu = tau = k
    f = Polynomial(3, {(0, 2, k - 1): 1, (k + 1, 0, 0): -1})
    s = local_invariants(f, ProjPoint.normalize((0, 0, 1)))
    assert (s.tjurina, s.milnor) == (k, k)
    assert s.is_node == (k == 1)


def test_milnor_exceeds_tjurina():
    # not quasihomogeneous: tau = 10 < mu = 11
    f = parse_poly("x^5 + y^5 + x^2*y^2*z", 3)
    s = local_invariants(f, ProjPoint.normalize((0, 0, 1)))
    assert (s.tjurina, s.milnor, s.is_node, s.quadratic_rank) == (10, 11, False, 0)
    G, _ = singlocus._dehomogenize_at(f, s.point)
    milnor_ideal, tjurina_ideal = _ideals(G)
    assert _local_colength_groebner(tjurina_ideal, 2) == 10
    assert _local_colength_groebner(milnor_ideal, 2) == 11


def test_denominator_divisible_by_p_takes_the_fallback():
    # a node at [1/p : 0 : 1], where the local equation is
    # y^2 - x^2*(x + 1 + 1/p)
    f = parse_poly(f"y^2*z - (x - 1/{P}*z)^2*(x + z)", 3)
    calls, patch = _counting_fallback()
    with patch:
        s = local_invariants(f, ProjPoint.normalize((1, 0, P)))
    assert s.point.coords == (Fraction(1, P), 0, 1)
    assert (s.tjurina, s.milnor, s.is_node) == (1, 1, True)
    assert len(calls) == 2


def test_coefficient_vanishing_mod_p_fails_the_confirmation():
    # mod p the ideal is (x^2, y^2), colength 4; over Q the linear parts
    # p*y and p*x span m, colength 1
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    gens = [x * x + P * y, y * y + P * x]
    calls, patch = _counting_fallback()
    with patch:
        assert _local_colength(gens, 2) == 1
    assert calls == [2]


def test_non_isolated_zero_raises_the_same_scope_error():
    x = Polynomial.variable(0, 2)
    with pytest.raises(ScopeError, match="did not stabilize below truncation order 40; "
                       "the point is not an isolated zero"):
        _local_colength([x * x], 2)


def test_tjurina_sum_mismatch_is_an_internal_defect(capsys):
    f = parse_poly("x*y*z", 3)
    with mock.patch.object(singlocus, "tjurina_total", lambda f: 4):
        with pytest.raises(InternalDefectError, match="sum to 3, the singular scheme has degree 4"):
            singular_report(f)
        assert cli.main(["singular", "-n", "3", "-f", "x*y*z"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("internal defect: local Tjurina")


NODE = {3: 2, 4: 3, 5: 4}  # quadratic rank of a node in n variables


def _coordinate_nodes(n):
    pts = ["[" + ":".join("1" if i == j else "0" for i in range(n)) + "]" for j in reversed(range(n))]
    return tuple((p, 1, 1, True, NODE[n]) for p in pts)


ORIGIN_NODE = (("[0:0:1]", 1, 1, True, 2),)
PINNED = {
    # name: (points as (point, tau, mu, node, quadratic rank), applicable, predicted)
    "conic-plus-line": (
        (("[0:1:0]", 1, 1, True, 2), ("[1:0:0]", 1, 1, True, 2)),
        ("nodal-cubic", "few-nodes"), True,
    ),
    "coordinate-nodes-3-4": (_coordinate_nodes(3), ("n-points",), True),
    "coordinate-nodes-4-3": (_coordinate_nodes(4), ("n-points",), True),
    "cuspidal-cubic": ((("[0:0:1]", 2, 2, False, 1),), ("nodal-cubic",), False),
    "one-node-cubic": (ORIGIN_NODE, ("nodal-cubic", "few-nodes"), True),
    "one-node-quartic-a": (ORIGIN_NODE, ("few-nodes",), False),
    "one-node-quartic-b": (ORIGIN_NODE, ("few-nodes",), True),
    "one-node-quintic-a": (ORIGIN_NODE, ("few-nodes",), False),
    "one-node-quintic-b": (ORIGIN_NODE, ("few-nodes",), True),
    "one-node-sextic-a": (ORIGIN_NODE, ("few-nodes",), False),
    "three-lines": (_coordinate_nodes(3), ("nodal-cubic", "n-points"), True),
    "f0-4-3": (_coordinate_nodes(4), ("n-points",), True),
    "f0-5-3": (_coordinate_nodes(5), ("n-points",), True),
    "f0-4-4": (_coordinate_nodes(4), ("n-points",), True),
    "f0-3-5": (_coordinate_nodes(3), ("n-points",), True),
    "f0-3-6": (_coordinate_nodes(3), ("n-points",), True),
    "x*y*z^4+x^6+y^6": (ORIGIN_NODE, ("few-nodes",), False),
    "x*y*z^5+x^7+y^7+x^6*z": (ORIGIN_NODE, ("few-nodes",), True),
}


def _pinned_input(name):
    if name.startswith("f0-"):
        n, d = map(int, name[3:].split("-"))
        return f0_form(n, d)
    if name.startswith("x*y*z"):
        return parse_poly(name, 3)
    entry = next(e for e in builtin_corpus() if e.name == name)
    return parse_poly(entry.source, entry.n)


def test_pinned_names_cover_every_singular_corpus_entry():
    corpus_names = {name for name in PINNED if not name.startswith(("f0-", "x*y*z"))}
    singular = {e.name for e in builtin_corpus() if singular_report(parse_poly(e.source, e.n)).points}
    assert corpus_names == singular and len(singular) == 11


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_singular_data(name):
    points, applicable, predicted = PINNED[name]
    f = _pinned_input(name)
    report = singular_report(f)
    got = tuple(
        (str(s.point), s.tjurina, s.milnor, s.is_node, s.quadratic_rank) for s in report.points
    )
    assert got == points
    assert report.complete and report.total_tjurina_local == sum(p[1] for p in points)
    record = classify(f, report)
    assert (record.applicable, record.predicted_va) == (applicable, predicted)
    assert record.reason == "predicted from singular data"
