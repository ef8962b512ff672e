"""Condition (II) emptiness decided over GF(2^31-1) first: the modular
certificate agrees with the rational basis, bad primes and the degree cap
fall back to Q, and every non-empty answer still comes from Q."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import gradient_generic_forms, with_pure_power_variables
from veroav import groebner
from veroav.groebner import (
    MAX_EXPONENT,
    DegreeCapExceeded,
    NonHomogeneousIdeal,
    buchberger,
    decide_emptiness,
    krull_dim_quotient,
    modular_certificate,
    projective_empty,
)
from veroav.orders import grevlex_key
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial, iter_monomials
from veroav.veronese import (
    MACAULAY_CHECK_PRIME,
    _power_quotient_forms,
    _rational_zeros,
    check_va,
    condition_II,
)

P = MACAULAY_CHECK_PRIME
X3 = lambda s: parse_poly(s, 3)  # noqa: E731


@given(gradient_generic_forms())
@example(X3("x^3 + y^3 + z^3"))
@example(X3("x*y*z^2 + x^4 + y^4"))
@example(X3("x*y*z + z^3"))  # a form is a pure power of z
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_modular_verdict_matches_rational_basis(f):
    """A GF(p) certificate has the leading monomials of the rational basis
    of the forms plus x_j for each one-term form c*x_j^e; a certificate over
    Q is the rational basis of the forms."""
    forms = _power_quotient_forms(f, f.nvars * (f.homogeneous_degree() - 2) - 1)
    rational = buchberger(forms)
    report = condition_II(f)
    assert report.empty == projective_empty(rational)
    if modular_certificate(forms) is not None:
        assert projective_empty(rational)
    if report.empty:
        assert report.certificate.modulus in (0, P)
        if report.certificate.modulus:
            rational = buchberger(with_pure_power_variables(forms))
        assert report.certificate.leading_monomials == rational.leading_monomials
    else:
        assert report.certificate.modulus == 0  # non-empty answers come from Q


def _zeros(forms):
    certificate, empty = decide_emptiness(forms)
    return certificate, empty, [] if empty else _rational_zeros(forms, True)


def test_bad_prime_falls_back_to_rational_basis():
    # modulo p the third form is x, so the forms share the point (0:0:1)
    forms = [X3("x"), X3("y"), X3(f"{P}*z + x")]
    assert modular_certificate(forms) is None
    certificate, empty, zeros = _zeros(forms)
    assert certificate.modulus == 0
    assert empty and zeros == []


def test_prime_in_a_denominator_skips_the_modular_pass(monkeypatch):
    forms = [X3("x"), X3("y"), X3("z").scale(Fraction(1, P))]
    assert modular_certificate(forms) is None
    calls = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda *a, **k: calls.append(k) or real(*a, **k))
    certificate, empty, _ = _zeros(forms)
    assert certificate.modulus == 0 and empty
    assert all(not k.get("modulus") for k in calls)


def test_modular_degree_cap_falls_back_to_rational_basis(monkeypatch):
    real = groebner._pair_loop

    def capped(inputs, pk, modulus, cap):
        if modulus:
            raise DegreeCapExceeded("S-polynomial degree 9 exceeds cap 8")
        return real(inputs, pk, modulus, cap)

    monkeypatch.setattr(groebner, "_pair_loop", capped)
    report = condition_II(X3("x*y*z + x^3 + y^3"))
    assert report.empty and report.certificate.modulus == 0


def test_sextic_twin_is_avoiding_with_a_modular_certificate():
    # the y<->z twin of x*y*z^4+x^6+y^6 took about a minute with the
    # rational condition (II) basis
    cert = check_va(X3("x*z*y^4+x^6+z^6+x^5*y"))
    assert cert.verdict is True
    assert all(ok for _, ok in cert.cross_checks)
    assert cert.condition_ii.certificate.modulus == P


def test_degree_cap_names_the_stage(monkeypatch):
    monkeypatch.setenv("VA_DEGREE_CAP", "8")
    with pytest.raises(DegreeCapExceeded, match=r"^condition \(II\): S-polynomial degree"):
        check_va(X3("x^4+y^4+z^4+4*x*y*z*(x+y+z)"))
    monkeypatch.setenv("VA_DEGREE_CAP", "4")
    with pytest.raises(DegreeCapExceeded, match=r"^validate: "):
        check_va(X3("x^4+y^4+z^4+4*x*y*z*(x+y+z)+x^3*y"))


# ---------------------------------------------------------------------------
# the certificate is minimal, and the pair loop skips what must reduce to zero


def _dense(rng, n, d, point=None):
    """A dense integer form of degree d; through ``point`` when given, by
    subtracting the right multiple of x_k^d for a nonzero coordinate x_k."""
    f = Polynomial(n, {m: Fraction(rng.randint(-9, 9)) for m in iter_monomials(n, d)})
    if point is not None:
        k = next(i for i, c in enumerate(point) if c)
        pure = tuple(d * (i == k) for i in range(n))
        f = f.scale(point[k] ** d) - Polynomial(n, {pure: f.evaluate(point)})
    return f


@st.composite
def square_systems(draw):
    """n = 3-4 dense forms of degree 2-4 in n variables (a fourth form in 4
    variables has degree at most 3, which keeps sympy quick), through a
    chosen rational point or not, plus at most one extra form."""
    n = draw(st.sampled_from([3, 4]))
    degrees = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    if n == 4:
        degrees = [degrees[0]] + [min(d, 3) for d in degrees[1:]]
    degrees.extend(draw(st.lists(st.integers(2, 3), max_size=1)))
    point = draw(st.none() | st.tuples(*[st.integers(-2, 2)] * n).filter(any))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return [_dense(rng, n, d, point) for d in degrees]


def _sympy_basis(forms):
    """sympy's reduced grevlex basis of the forms mod P, as residue dicts."""
    import sympy

    xs = sympy.symbols(f"x0:{forms[0].nvars}")
    polys = [
        sympy.Poly.from_dict(groebner.residues(g, P), *xs, modulus=P).as_expr() for g in forms
    ]
    basis = sympy.groebner(polys, *xs, order="grevlex", modulus=P)
    return [
        {tuple(map(int, m)): int(c) % P for m, c in g.terms(order="grevlex")}
        for g in basis.polys
    ]


def _sympy_leading_monomials(forms):
    return sorted(max(g, key=grevlex_key) for g in _sympy_basis(forms))


@given(square_systems())
@example([X3("x^2 - y*z"), X3("y^2 - x*z"), X3("z^2 - x*y")])  # (1:1:1) and two more points
@example([X3("x^2"), X3("y^2"), X3("z^2"), X3("x*y*z")])
@example([X3("y^3"), X3("x^3 - y*z^2"), X3("z^3 + x^2*y")])  # the certificate has y
@example([X3("x^2"), X3("y^3"), X3("5*z^2")])  # every form a pure power: x, y, z
@example([X3("x*y"), X3("3"), X3("z^2")])  # a constant: the unit ideal, not linearized
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_certificate_has_the_leading_monomials_of_sympys_basis(forms):
    """A certificate exists iff sympy's basis of the forms has a pure power
    of every variable (a constant counts for each), and its leading
    monomials are those of sympy's basis of the forms plus x_j for each
    one-term form c*x_j^e."""
    certificate = modular_certificate(forms)
    n = forms[0].nvars
    lms = _sympy_leading_monomials(forms)
    assert (certificate is not None) == all(any(m[i] == sum(m) for m in lms) for i in range(n))
    if certificate is None:
        return
    reference = _sympy_leading_monomials(with_pure_power_variables(forms))
    assert sorted(certificate.leading_monomials) == reference
    assert certificate.modulus == P
    for g, lm in zip(certificate.generators, certificate.leading_monomials):
        assert g.is_homogeneous()
        assert g.terms[lm] == 1


# ---------------------------------------------------------------------------
# one-term forms become linear


def _twin_orders() -> list[str]:
    """The six variable orders of the twins x*y*z^k + x^(k+2) + y^(k+2) +
    x^(k+1)*z, k = 3, 4, 5.  The y<->z twins of the sextic and the septic
    are two of these orders."""
    twins = [f"x*y*z^{k}+x^{k + 2}+y^{k + 2}+x^{k + 1}*z" for k in (3, 4, 5)]
    return [
        twin.translate(str.maketrans("xyz", "".join(perm)))
        for twin in twins
        for perm in itertools.permutations("xyz")
    ]


@pytest.mark.parametrize("text", _twin_orders())
def test_every_twin_order_gets_a_small_certificate(text):
    # a condition-(II) form of every twin is a pure power a_j^e; with a_j
    # in its place, the septic twin's certificates have 12 to 15 generators,
    # where the forms alone gave up to 161
    f = X3(text)
    cert = check_va(f)
    assert cert.verdict is True
    assert all(ok for _, ok in cert.cross_checks)
    certificate = cert.condition_ii.certificate
    assert certificate.modulus == P
    assert len(certificate.leading_monomials) <= 15
    forms = _power_quotient_forms(f, f.nvars * (f.homogeneous_degree() - 2) - 1)
    reference = _sympy_leading_monomials(with_pure_power_variables(forms))
    assert sorted(certificate.leading_monomials) == reference


def _dense_quartics_and_cubic_surfaces():
    rng = random.Random(0)
    return [_dense(rng, 3, 4) for _ in range(3)] + [_dense(rng, 4, 3) for _ in range(2)]


def _count_zero_reductions(monkeypatch):
    zeros = []
    real = groebner._reduce

    def counting(terms, reducers, pk, modulus, memo):
        out = real(terms, reducers, pk, modulus, memo)
        if modulus and not out:
            zeros.append(1)
        return out

    monkeypatch.setattr(groebner, "_reduce", counting)
    return zeros


@pytest.mark.parametrize("f", _dense_quartics_and_cubic_surfaces())
def test_one_zero_reduction_arms_the_bound(f, monkeypatch):
    forms = _power_quotient_forms(f, f.nvars * (f.homogeneous_degree() - 2) - 1)
    zeros = _count_zero_reductions(monkeypatch)
    certificate = modular_certificate(forms)
    assert certificate is not None
    assert len(zeros) <= 1
    monkeypatch.undo()
    assert sorted(certificate.leading_monomials) == _sympy_leading_monomials(forms)


def test_a_non_empty_square_system_disarms_the_bound(monkeypatch):
    # the common factor x + y leaves (R/I)_3 one dimension above the CI
    # bound, and the degree-4 pairs still to come must not be skipped
    forms = [X3("(x + y)*(x - 2*z)"), X3("(x + y)*(y + 3*z)"), X3("y^3 + z^3 + x*y*z")]
    verdicts = []
    real = groebner._StandardCount.advance

    def advance(self, degree):
        verdicts.append(real(self, degree))
        return verdicts[-1]

    monkeypatch.setattr(groebner._StandardCount, "advance", advance)
    runs = []
    real_loop = groebner._pair_loop

    def recording(*args):
        runs.append(real_loop(*args))
        return runs[-1]

    monkeypatch.setattr(groebner, "_pair_loop", recording)
    assert modular_certificate(forms) is None
    assert verdicts[-1] is False
    # the pairs after the disarming were reduced: the run's leading
    # monomials are those of sympy's basis
    pk = groebner._packing(3)
    mine = [pk.unpack(g.lm) for g in groebner._minimalize(runs[0], pk)]
    assert sorted(mine) == _sympy_leading_monomials(forms)


def _cap_threshold(forms, monkeypatch):
    """The least VA_DEGREE_CAP at which the modular certificate exists."""
    for cap in range(1, 61):
        monkeypatch.setenv("VA_DEGREE_CAP", str(cap))
        if modular_certificate(forms) is not None:
            return cap
    return None


def test_the_degree_cap_comes_before_the_skip(monkeypatch):
    f = _dense_quartics_and_cubic_surfaces()[0]
    forms = _power_quotient_forms(f, f.nvars * (f.homogeneous_degree() - 2) - 1)
    threshold = _cap_threshold(forms, monkeypatch)
    assert threshold is not None and threshold > forms[0].homogeneous_degree()
    monkeypatch.setenv("VA_DEGREE_CAP", str(threshold - 1))
    assert modular_certificate(forms) is None
    # without the skip, as in a plain Buchberger run, the same cap applies
    monkeypatch.setattr(groebner, "_homogeneous_degrees", lambda inputs, pk: None)
    assert _cap_threshold(forms, monkeypatch) == threshold


# ---------------------------------------------------------------------------
# a coordinate point that is visibly a common zero skips the GF(p) run


def _watch_pair_loop(monkeypatch, allowed: bool):
    """Replace ``_pair_loop`` by one that raises when not ``allowed``, and
    otherwise counts its runs."""
    runs = []
    real = groebner._pair_loop

    def watched(*args, **kwargs):
        if not allowed:
            raise AssertionError("the GF(p) pair loop ran")
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_pair_loop", watched)
    return runs


@pytest.mark.parametrize(
    "sources",
    [
        ["x^2 + y*z", "y^2 + x*z", "x*y + y*z"],  # no pure power of z: (0:0:1)
        ["x*y", "x*z", "y*z"],  # all three coordinate points
        ["x^3 + x*y*z", "y^3 - x*z^2", "x*y^2"],  # z^k in no form
    ],
)
def test_a_common_coordinate_zero_returns_none_without_a_run(sources, monkeypatch):
    forms = [X3(s) for s in sources]
    assert not projective_empty(buchberger(forms))
    _watch_pair_loop(monkeypatch, allowed=False)
    assert modular_certificate(forms) is None
    monkeypatch.undo()  # the rational basis decides, with its own pair loop
    certificate, empty, _ = _zeros(forms)
    assert not empty and certificate.modulus == 0


def test_a_pure_power_of_every_variable_still_runs_and_certifies(monkeypatch):
    runs = _watch_pair_loop(monkeypatch, allowed=True)
    certificate = modular_certificate([X3("x^2 + y*z"), X3("y^2"), X3("z^2 + x*y")])
    assert certificate is not None and certificate.modulus == P
    assert projective_empty(certificate)
    # (1:1:1) is a common zero off the coordinate points: the run proves nothing
    assert modular_certificate([X3("x^2 - y*z"), X3("y^2 - x*z"), X3("z^2 - x*y")]) is None
    # a nonzero constant is a pure power of every variable: the unit ideal
    assert krull_dim_quotient(modular_certificate([X3("x*y"), X3("3")])) == -1
    assert len(runs) == 3


def test_a_gen_that_vanishes_mod_p_is_dropped(monkeypatch):
    # modulo p the first form is zero, so (1:0:0) is a common zero of the
    # residues: no run can prove the emptiness, which Q proves
    forms = [X3(f"{P}*x^2"), X3("y^2"), X3("z^2")]
    _watch_pair_loop(monkeypatch, allowed=False)
    assert modular_certificate(forms) is None
    monkeypatch.undo()
    basis, empty = decide_emptiness(forms)
    assert empty and basis.modulus == 0
    # the other residues still certify without it
    certificate = modular_certificate([X3(f"{P}*x*y"), X3("x^2"), X3("y^2"), X3("z^2")])
    assert certificate.leading_monomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_the_coordinate_check_leaves_non_homogeneous_input_alone(monkeypatch):
    # e_1 = (0:1:0) is a zero of every form, but x*y - x is not homogeneous:
    # the certificate refuses it before the coordinate check, and before a run
    _watch_pair_loop(monkeypatch, allowed=False)
    with pytest.raises(NonHomogeneousIdeal):
        modular_certificate([X3("x*y - x"), X3("x*y"), X3("z^2")])
    # the same without a visible coordinate zero
    with pytest.raises(NonHomogeneousIdeal):
        modular_certificate([X3("x^2 - y"), X3("y^2 - z"), X3("z^3 - 1")])


def test_degrees_beyond_the_packed_field_return_none_without_a_run(monkeypatch):
    _watch_pair_loop(monkeypatch, allowed=False)
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    # an input degree beyond MAX_EXPONENT, on a system with no projective zero
    top = MAX_EXPONENT + 1
    assert modular_certificate([x - y, x**top + y**top, z]) is None
    # a degree cap beyond it, on a system the certificate proves empty
    forms = [X3("x^2"), X3("y^2"), X3("z^2")]
    monkeypatch.setenv("VA_DEGREE_CAP", str(MAX_EXPONENT + 1))
    assert modular_certificate(forms) is None
    monkeypatch.undo()
    monkeypatch.setenv("VA_DEGREE_CAP", str(MAX_EXPONENT))  # the largest cap that fits
    assert modular_certificate(forms) is not None


def test_decide_emptiness_returns_the_basis_that_decides():
    certificate, empty = decide_emptiness([X3("x^2 + y*z"), X3("y^2"), X3("z^2 + x*y")])
    assert empty and certificate.modulus == P
    # (1:1:1) is a common zero: the GF(p) run proves nothing, Q decides
    forms = [X3("x^2 - y*z"), X3("y^2 - x*z"), X3("z^2 - x*y")]
    basis, empty = decide_emptiness(forms)
    assert not empty and basis.generators == buchberger(forms).generators
    # the prime in a denominator: Q proves the emptiness
    basis, empty = decide_emptiness([X3("x"), X3("y"), X3("z").scale(Fraction(1, P))])
    assert empty and basis.modulus == 0
