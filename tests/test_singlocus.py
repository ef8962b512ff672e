from fractions import Fraction

import pytest

from veroav import groebner, milnor, ratpoints
from veroav.milnor import tjurina_total
from veroav.parsing import parse_poly
from veroav.singlocus import (
    NotSingularAtPointError,
    ProjPoint,
    classify,
    general_linear_position,
    local_invariants,
    singular_points_rational,
    singular_report,
)
from veroav.veronese import check_va, f0_form

X3 = lambda s: parse_poly(s, 3)  # noqa: E731


def P(*coords):
    return ProjPoint.normalize(coords)


def test_projpoint_normalization():
    assert P(2, 4, 6).coords == (Fraction(1, 3), Fraction(2, 3), 1)
    assert P(3, 0, 0).coords == (1, 0, 0)
    with pytest.raises(ValueError):
        ProjPoint.normalize((0, 0, 0))


def test_points_of_family_cubic():
    pts, complete = singular_points_rational(X3("x*y*z + x^3 + y^3"))
    assert complete
    assert [p.coords for p in pts] == [(0, 0, 1)]


def test_points_of_three_lines():
    pts, complete = singular_points_rational(X3("x*y*z"))
    assert complete
    assert [p.coords for p in pts] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_points_of_coordinate_cubic_four_vars():
    f = f0_form(4, 3)
    pts, complete = singular_points_rational(f)
    assert complete
    assert len(pts) == 4
    assert all(sum(1 for c in p.coords if c) == 1 for p in pts)


def test_smooth_has_no_points():
    pts, complete = singular_points_rational(X3("x^3 + y^3 + z^3"))
    assert pts == [] and complete


def test_irrational_points_flagged_incomplete():
    # nodes at [±sqrt(2) : 0 : 1]: the eliminant has no rational linear factors
    f = X3("(x^2 - 2*z^2)^2 + y^4")
    pts, complete = singular_points_rational(f)
    assert not complete
    assert pts == []
    record = classify(f)
    assert record.predicted_va is None
    assert "irrational" in record.reason


def test_local_invariants_one_node_quartic():
    g4 = X3("x*y*z^2 + x^4 + y^4 + x^3*z")
    s = local_invariants(g4, P(0, 0, 1))
    assert s.is_node and s.tjurina == 1 and s.milnor == 1
    assert s.quadratic_rank == 2


def test_local_invariants_cusp():
    s = local_invariants(X3("z*y^2 - x^3"), P(0, 0, 1))
    assert not s.is_node
    assert s.tjurina == 2 and s.milnor == 2
    assert s.quadratic_rank == 1


def test_local_invariants_three_lines_off_origin_chart():
    s = local_invariants(X3("x*y*z"), P(1, 0, 0))
    assert s.is_node and s.tjurina == 1


def test_local_invariants_reject_smooth_point():
    with pytest.raises(NotSingularAtPointError):
        local_invariants(X3("x*y*z"), P(1, 1, 1))


def test_tacnode_invariants():
    # tangential conics: tau = 3, mu = 3 at each irrational-free point
    f = X3("(x^2 - z^2)^2 + y^4")
    rep = singular_report(f)
    assert rep.complete and len(rep.points) == 2
    for s in rep.points:
        assert not s.is_node
        assert s.tjurina == 3
        assert s.milnor == 3


def test_general_linear_position():
    coords = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    independent, defect = general_linear_position(coords)
    assert independent and defect == 0
    collinear = [P(1, 0, 0), P(0, 1, 0), P(1, 1, 0)]
    independent, defect = general_linear_position(collinear)
    assert not independent and defect == 1


def test_total_tjurina_matches_global_route():
    for src in ("x*y*z", "z*(x*y - z^2)", "z*y^2 - x^3",
                "x*y*z^2 + x^4 + y^4 + x^3*z", "(x^2 - z^2)^2 + y^4"):
        f = X3(src)
        rep = singular_report(f)
        if rep.complete:
            assert rep.total_tjurina_local == tjurina_total(f)


def test_tjurina_bounded_by_milnor_with_quasihomogeneous_equality():
    # tau <= mu always; every singularity in this corpus happens to be
    # quasihomogeneous, so equality is asserted as data, not as a theorem
    for src in ("x*y*z", "z*(x*y - z^2)", "z*y^2 - x^3",
                "x*y*z^2 + x^4 + y^4 + x^3*z", "x*y*z^2 + x^4 + y^4",
                "(x^2 - z^2)^2 + y^4"):
        rep = singular_report(X3(src))
        for s in rep.points:
            assert s.tjurina <= s.milnor
            assert s.tjurina == s.milnor


def test_classification_dispatch():
    cases = {
        "x*y*z": ("nodal-cubic", "n-points"),
        "z*(x*y - z^2)": ("nodal-cubic", "few-nodes"),
        "x*y*z + x^3 + y^3": ("nodal-cubic", "few-nodes"),
        "z*y^2 - x^3": ("nodal-cubic",),
        "x*y*z^2 + x^4 + y^4": ("few-nodes",),
    }
    for src, applicable in cases.items():
        f = X3(src)
        record = classify(f)
        assert record.applicable == applicable
        assert record.predicted_va == check_va(f).verdict


def test_classification_n_points_case():
    for n, d in ((3, 4), (4, 3)):
        f = f0_form(n, d)
        record = classify(f)
        assert "n-points" in record.applicable
        assert record.predicted_va is True


def test_classification_smooth_abstains():
    record = classify(X3("x^3 + y^3 + z^3"))
    assert record.predicted_va is None
    assert record.applicable == ()


def test_classification_outside_range():
    # tacnodal points are not nodes and n = 3, d = 4: no theorem applies
    record = classify(X3("(x^2 - z^2)^2 + y^4"))
    assert record.predicted_va is None
    assert record.reason == "outside classified range"


@pytest.mark.parametrize("src, n, complete", [
    ("x*y*z + x^3 + y^3", 3, True),  # one node, the chart of x_{n-1}
    ("x*y*z + x*y*w + x*z*w + y*z*w", 4, True),  # coordinate nodes, a shear
    ("x*z*y^3+x^5+z^5+x^4*y", 3, True),  # a node on z = 0, a swap
    ("x*(x^3+y^3-z^3)", 3, False),  # two conjugate nodes besides [0:1:1]
])
def test_singular_points_run_no_buchberger(src, n, complete, monkeypatch):
    """Once the Jacobian basis is known, the saturation and its points run
    one pair loop at most, the sheared basis's, and no Buchberger run."""
    f = parse_poly(src, n)
    milnor.validate_input(f)
    calls = []
    for module in (groebner, milnor, ratpoints):
        counted = lambda *a, real=module.buchberger: calls.append(a) or real(*a)  # noqa: E731
        monkeypatch.setattr(module, "buchberger", counted)
    real_loop = groebner._pair_loop
    loops = []
    monkeypatch.setattr(
        groebner, "_pair_loop", lambda *a, **k: loops.append(a) or real_loop(*a, **k)
    )
    points, found_all = singular_points_rational(f)
    assert points and calls == [] and len(loops) <= 1
    assert found_all is complete
