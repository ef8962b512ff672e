"""Per-instance memos: each result is computed once per polynomial and is the
same as when computed cold, and an error is raised again on every call."""

from __future__ import annotations

import pytest

from veroav.milnor import NonIsolatedSingularitiesError, gb_jacobian, validate_input
from veroav.parsing import parse_poly
from veroav.singlocus import _local_numbers, local_invariants, singular_report
from veroav.veronese import (
    _condition_II_decision,
    _power_quotient_forms,
    condition_II,
    f0_form,
    phi_base_locus,
)


def test_the_nodes_of_f0_share_one_local_computation():
    f = f0_form(5, 3)
    _local_numbers.cache_clear()
    report = singular_report(f)
    assert len(report.points) == 5
    assert _local_numbers.cache_info().misses == 1
    for s in report.points:
        _local_numbers.cache_clear()
        assert local_invariants(f, s.point) == s


def _base_locus_fields(report):
    cert = report.certificate
    return (
        report.vanishing_linear_forms,
        report.dim_linear_system,
        report.dim_jacobian_module_top,
        report.empty,
        report.base_points,
        cert.modulus,
        cert.leading_monomials,
        cert.packed,
    )


def _cold_base_locus(f, points):
    for memo in (_condition_II_decision, _power_quotient_forms, gb_jacobian):
        memo.cache_clear()
    return phi_base_locus(f, points)


def test_the_base_locus_reuses_an_empty_condition_II_report():
    f = parse_poly("x*y*z^5+x^7+y^7+x^6*z", 3)
    points = [s.point.coords for s in singular_report(f).points]
    assert points == [(0, 0, 1)]
    report = condition_II(f)
    warm = phi_base_locus(f, points)
    assert _condition_II_decision.cache_info().hits == 1
    info = _power_quotient_forms.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    assert warm.empty and warm.base_points == ()
    assert warm.certificate is report.certificate
    assert _base_locus_fields(warm) == _base_locus_fields(_cold_base_locus(f, points))


def test_the_base_locus_reuses_the_condition_II_forms():
    f = parse_poly("x*y*z^4+x^6+y^6", 3)
    points = [s.point.coords for s in singular_report(f).points]
    assert points == [(0, 0, 1)]
    assert condition_II(f).empty is False
    warm = phi_base_locus(f, points)
    # built once: read by the decision, the witness search and the base locus
    info = _power_quotient_forms.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert _condition_II_decision.cache_info().hits == 1
    assert not warm.empty and (0, 1, 0) in warm.base_points
    assert _base_locus_fields(warm) == _base_locus_fields(_cold_base_locus(f, points))


def test_a_scope_error_is_raised_on_every_call():
    f = parse_poly("(x+y)^3", 3)
    errors = []
    for _ in range(2):
        with pytest.raises(NonIsolatedSingularitiesError) as info:
            validate_input(f)
        errors.append((str(info.value), info.value.projective_dim))
    assert errors[0] == errors[1] == (
        "singular locus has projective dimension 1; only isolated singularities are supported",
        1,
    )
