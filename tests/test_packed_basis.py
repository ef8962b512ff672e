"""Groebner bases kept in packed form: the lean Gebauer-Moeller update and
the memoized reducer lookup agree with their plain versions, generators are
built only when read and equal the eagerly built ones, and the sheared
saturation skips pairs with the exact Hilbert series of the ideal."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import moved
from veroav import cli, groebner
from veroav.groebner import (
    _FIELD,
    MACAULAY_CHECK_PRIME,
    _find_reducer,
    _gm_update,
    _IPoly,
    _lookup,
    _packing,
    buchberger,
    modular_certificate,
    saturate_irrelevant,
)
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial, iter_monomials
from veroav.veronese import check_va, f0_form

P = MACAULAY_CHECK_PRIME


def _divides_reference(pk, a, x):
    probe = ((x & pk.low) | pk.guard) - (a & pk.low)
    return probe & pk.guard == pk.guard


def _exponent_max_reference(pk, a, b):
    a &= pk.low
    b &= pk.low
    ge = ((a | pk.guard) - b) & pk.guard
    mask = ge - (ge >> (_FIELD - 1))
    return (a & mask) | (b & ~mask)


def _gm_update_reference(lm, pairs, t, pk):
    """The Gebauer-Moeller update with separate divisibility and lcm
    helpers, returning a fresh dict of the kept old pairs and the new ones."""
    lmt = lm[t]
    lcm_t = [_exponent_max_reference(pk, a, lmt) for a in lm[:t]]
    kept = {}
    for (i, j), L in pairs.items():
        if not _divides_reference(pk, lmt, L) or L == lcm_t[i] or L == lcm_t[j]:
            kept[(i, j)] = L
    by_lcm = {}
    for i, L in enumerate(lcm_t):
        by_lcm.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(by_lcm):
        if not any(_divides_reference(pk, M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        group = by_lcm[L]
        if any(L == lm[i] + lmt for i in group):
            continue
        kept[(min(group), t)] = L
    return kept


@st.composite
def monomial_sequences(draw):
    n = draw(st.integers(1, 4))
    exponent = st.integers(0, 4)
    size = draw(st.integers(1, 14))
    return n, [tuple(draw(exponent) for _ in range(n)) for _ in range(size)]


@given(monomial_sequences())
@settings(max_examples=150, deadline=None)
def test_gm_update_matches_the_reference(case):
    n, monomials = case
    pk = _packing(n)
    lms, mine, reference = [], {}, {}
    for t, m in enumerate(monomials):
        lms.append(pk.pack(m) & pk.low)
        reference = _gm_update_reference(lms, reference, t, pk)
        new = _gm_update(lms, mine, t, pk.guard)
        assert list(mine.items()) == list(reference.items())  # same pairs, same order
        assert new == [(pair, L) for pair, L in reference.items() if pair[1] == t]


@st.composite
def growing_reducers(draw):
    """Leading monomials added one by one, with lookups in between."""
    n = draw(st.integers(1, 4))
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    steps = draw(st.lists(st.tuples(st.booleans(), monomial), min_size=1, max_size=40))
    return n, steps


@given(growing_reducers())
@settings(max_examples=100, deadline=None)
def test_memoized_lookup_finds_the_first_reducer(case):
    n, steps = case
    pk = _packing(n)
    reducers, memo = [], {}
    for add, m in steps:
        x = pk.pack(m)
        if add:
            reducers.append(_IPoly({x: 1}, pk))
        assert _lookup(x, reducers, pk, memo) is _find_reducer(x, reducers, pk)


def _eager(gb):
    """The generators built straight from the packed terms by the checking
    constructor: monic, over Q by the leading coefficient."""
    pk = _packing(gb.nvars)
    out = []
    for terms in gb.packed:
        den = 1 if gb.modulus else terms[max(terms)]
        out.append(Polynomial(gb.nvars, {pk.unpack(m): Fraction(c, den) for m, c in terms.items()}))
    return tuple(out)


X3 = lambda s: parse_poly(s, 3)  # noqa: E731


def test_lazy_generators_equal_the_eager_ones():
    fifth, third = Fraction(1, 5), Fraction(1, 3)
    forms = [
        X3("2*x^2 - 3*y*z") + X3("z^2").scale(fifth),
        X3("y^2 - 7*x*z"),
        X3("x*y - x^2") + X3("z^2").scale(third),
    ]
    gb = buchberger(forms)
    assert "generators" not in vars(gb)
    assert gb.generators == _eager(gb)
    assert gb.homogeneous
    assert all(g.terms[lm] == 1 for g, lm in zip(gb.generators, gb.leading_monomials))
    certificate = modular_certificate([X3("x^3 - y*z^2"), X3("y^3"), X3("z^3 + x^2*y")])
    assert certificate is not None and "generators" not in vars(certificate)
    assert certificate.generators == _eager(certificate)


def test_non_homogeneous_inputs_are_checked_on_the_basis():
    assert not buchberger([X3("x^2 - y"), X3("y*z - 1")]).homogeneous
    # (x, x + y^2) is the homogeneous ideal (x, y^2)
    assert buchberger([X3("x"), X3("x + y^2")]).homogeneous


def test_check_va_leaves_the_certificate_generators_unbuilt():
    rng = random.Random(0)
    f = Polynomial(3, {m: Fraction(rng.randint(-9, 9)) for m in iter_monomials(3, 4)})
    cert = check_va(f)
    certificate = cert.condition_ii.certificate
    assert cert.verdict is True and certificate.modulus == P
    payload = cli._certificate_json(cert, None, False, 0)
    assert payload["condition_II"]["certificate_size"] == len(certificate.leading_monomials)
    assert "generators" not in vars(certificate)


@pytest.mark.parametrize("n,d", [(4, 3), (5, 3), (4, 4), (3, 5), (3, 6)])
def test_sheared_saturation_skips_pairs_and_matches_the_unskipped_one(n, d, monkeypatch):
    grads = f0_form(n, d).gradient()
    gb = buchberger(grads)
    verdicts = []
    real_saturated = groebner._StandardCount.saturated

    def saturated(self):
        verdicts.append(real_saturated(self))
        return verdicts[-1]

    monkeypatch.setattr(groebner._StandardCount, "saturated", saturated)
    skipped = saturate_irrelevant(grads, basis=gb)
    assert any(verdicts)  # at least one pair skipped
    real_loop = groebner._pair_loop
    monkeypatch.setattr(
        groebner,
        "_pair_loop",
        lambda inputs, pk, modulus, cap, numerator=None: real_loop(inputs, pk, modulus, cap),
    )
    verdicts.clear()
    plain = saturate_irrelevant(grads, basis=gb)
    assert not verdicts  # a run over Q without the series never arms
    assert skipped.form == plain.form
    assert skipped.basis.generators == plain.basis.generators
    assert skipped.basis.leading_monomials == plain.basis.leading_monomials
    moved_back = [
        buchberger(moved(sat.basis.generators, sat.form, 1)) for sat in (skipped, plain)
    ]
    assert moved_back[0].generators == moved_back[1].generators

