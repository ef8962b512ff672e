"""Condition (II) emptiness decided over GF(2^31-1) first: the modular
certificate agrees with the rational basis, bad primes and the degree cap
fall back to Q, and every non-empty answer still comes from Q."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings

from conftest import gradient_generic_forms
from veroav import groebner, veronese
from veroav.groebner import DegreeCapExceeded, buchberger, modular_certificate, projective_empty
from veroav.parsing import parse_poly
from veroav.veronese import (
    MACAULAY_CHECK_PRIME,
    _normalize_projective,
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
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_modular_verdict_matches_rational_basis(f):
    forms = _power_quotient_forms(f, f.nvars * (f.homogeneous_degree() - 2) - 1)
    rational = buchberger(forms)
    report = condition_II(f)
    assert report.empty == projective_empty(rational)
    if projective_empty(buchberger(forms, modulus=P)):
        assert projective_empty(rational)
    if report.empty:
        assert report.certificate.modulus in (0, P)
        assert report.certificate.leading_monomials == rational.leading_monomials
    else:
        assert report.certificate.modulus == 0  # non-empty answers come from Q


def _zeros(forms):
    return _rational_zeros(forms, _normalize_projective, lambda ell: True, None, True)


def test_bad_prime_falls_back_to_rational_basis():
    # modulo p the third form is x, so the forms share the point (0:0:1)
    forms = [X3("x"), X3("y"), X3(f"{P}*z + x")]
    assert not projective_empty(buchberger(forms, modulus=P))
    certificate, empty, zeros = _zeros(forms)
    assert certificate.modulus == 0
    assert empty and zeros == []


def test_prime_in_a_denominator_skips_the_modular_pass(monkeypatch):
    forms = [X3("x"), X3("y"), X3("z").scale(Fraction(1, P))]
    assert modular_certificate(forms, None) is None
    calls = []
    real = groebner.buchberger
    for module in (groebner, veronese):
        monkeypatch.setattr(module, "buchberger", lambda *a, **k: calls.append(k) or real(*a, **k))
    certificate, empty, _ = _zeros(forms)
    assert certificate.modulus == 0 and empty
    assert all(not k.get("modulus") for k in calls)


def test_modular_degree_cap_falls_back_to_rational_basis(monkeypatch):
    real = veronese.buchberger

    def capped(*args, **kwargs):
        if kwargs.get("modulus"):
            raise DegreeCapExceeded("S-polynomial degree 9 exceeds cap 8")
        return real(*args, **kwargs)

    for module in (groebner, veronese):
        monkeypatch.setattr(module, "buchberger", capped)
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
