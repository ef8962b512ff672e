import pytest

from test_certificate_identity import workload_instances
from veroav import cli, milnor
from veroav.corpus import builtin_corpus
from veroav.groebner import hilbert_value, quotient_degree
from veroav.linalg import rank
from veroav.milnor import (
    DegreeTooSmallError,
    InternalDefectError,
    NonIsolatedSingularitiesError,
    NotHomogeneousError,
    coincidence_threshold,
    condition_I,
    defect1,
    gb_jacobian,
    gb_jacobian_saturation,
    is_smooth,
    jacobian_degree_matrix,
    jacobian_module_dims,
    jacobian_module_series,
    smooth_reference_hf,
    tjurina_total,
    validate_input,
)
from veroav.parsing import parse_poly
from veroav.polyring import dim_graded
from veroav.singlocus import general_linear_position, singular_report

X3 = lambda s: parse_poly(s, 3)  # noqa: E731

FAMILY_CUBIC = X3("x*y*z + x^3 + y^3")
G4 = X3("x*y*z^2 + x^4 + y^4 + x^3*z")
XYZ = X3("x*y*z")


def test_validate_accepts_smooth():
    hi = validate_input(X3("x^3 + y^3 + z^3"))
    assert (hi.n, hi.d, hi.T) == (3, 3, 3)
    assert is_smooth(hi.f)


def test_validate_rejects_positive_dimensional_singular_locus():
    with pytest.raises(NonIsolatedSingularitiesError) as info:
        validate_input(X3("x^2*y*z"))
    assert info.value.projective_dim == 1


def test_validate_rejects_low_degree_and_inhomogeneous():
    with pytest.raises(DegreeTooSmallError):
        validate_input(parse_poly("x*y", 2))
    with pytest.raises(NotHomogeneousError):
        validate_input(X3("x^3 + y^2"))
    with pytest.raises(NotHomogeneousError):
        validate_input(X3("0"))


def test_jacobian_matrix_family_cubic_matches_span():
    M = jacobian_degree_matrix(FAMILY_CUBIC, 2)
    # rows span the same space as the explicit coefficient matrix
    assert M.rows == 3 and M.cols == 6
    assert rank(M) == 3


def test_jacobian_matrix_fermat():
    f = X3("x^3 + y^3 + z^3")
    M = jacobian_degree_matrix(f, 2)
    assert rank(M) == 3


def test_jacobian_matrix_below_generation_degree():
    M = jacobian_degree_matrix(G4, 2)  # generators live in degree 3
    assert M.rows == 0 and M.cols == dim_graded(3, 2)


def test_condition_I_examples():
    fermat4 = X3("x^4 + y^4 + z^4")
    rep = condition_I(fermat4)
    assert rep.dim_milnor_top_minus_one == 3 and rep.holds

    rep = condition_I(FAMILY_CUBIC)
    assert rep.dim_milnor_top_minus_one == 3 and rep.holds

    rep = condition_I(G4)
    assert rep.dim_milnor_top_minus_one == 3 and rep.holds


def test_condition_I_rank_equals_hilbert_route():
    for f in (FAMILY_CUBIC, G4, XYZ, X3("x^4+y^4+z^4")):
        hi = validate_input(f)
        rep = condition_I(f)
        assert rep.dim_milnor_top_minus_one == hilbert_value(gb_jacobian(f), hi.T - 1)


def test_tjurina_and_defect():
    assert tjurina_total(G4) == 1
    assert defect1(G4) == 0
    assert tjurina_total(XYZ) == 3
    assert defect1(XYZ) == 0
    assert tjurina_total(X3("x^3+y^3+z^3")) == 0


def _singular_instances():
    """The singular corpus entries and benchmark instances."""
    named = {e.name: (e.source, e.n) for e in builtin_corpus()} | workload_instances()
    forms = {name: parse_poly(text, n) for name, (text, n) in named.items()}
    return [pytest.param(f, id=name) for name, f in forms.items() if not is_smooth(f)]


@pytest.mark.parametrize("f", _singular_instances())
def test_scheme_degree_agrees_with_the_unsaturated_ideal(f):
    assert tjurina_total(f) == quotient_degree(gb_jacobian(f)) > 0


def test_general_position_of_a_reduced_scheme_is_its_hilbert_value_in_degree_one():
    """On a complete report of a reduced singular scheme (every local
    Tjurina number 1), the r points impose independent conditions on linear
    forms (their matrix has rank r) iff HF(R/J_f^sat)(1) = r.  Four general
    lines add six nodes in the plane, which cannot be independent."""
    four_lines = pytest.param(X3("x*y*z*(x+y+z)"), id="four-lines")
    checked = {True: [], False: []}
    for param in [*_singular_instances(), four_lines]:
        (f,) = param.values
        report = singular_report(f)
        if not report.complete or any(s.tjurina != 1 for s in report.points):
            continue
        points = [s.point for s in report.points]
        independent, _ = general_linear_position(points)
        scheme = hilbert_value(gb_jacobian_saturation(f).basis, 1) == len(points)
        assert independent == scheme, param.id
        checked[independent].append(param.id)
    assert len(checked[True]) == 21 and checked[False] == ["four-lines"]


def test_scheme_degree_mismatch_is_an_internal_defect(monkeypatch, capsys):
    real = milnor.quotient_degree
    monkeypatch.setattr(
        milnor, "quotient_degree", lambda gb: real(gb) + (gb is not milnor.gb_jacobian(XYZ))
    )
    with pytest.raises(InternalDefectError, match="has degree 4, the Jacobian ideal 3"):
        tjurina_total(XYZ)
    assert cli.main(["check", "-n", "3", "-f", "x*y*z"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("internal defect: the saturated Jacobian")


def test_coincidence_threshold():
    # tau = 1: coincidence holds through T itself
    assert coincidence_threshold(G4) == 6
    # tau = 3: the degree-zero defect shifts degree T, so the threshold is T-1
    assert coincidence_threshold(XYZ) == 2
    # smooth sentinel: T + 1 means "holds vacuously"
    assert coincidence_threshold(X3("x^3+y^3+z^3")) == 4


def test_jacobian_module_dims_one_node_quartic():
    assert jacobian_module_dims(G4, 1) == 2
    assert jacobian_module_dims(G4, 5) == 2
    assert jacobian_module_dims(X3("x^3+y^3+z^3"), 1) == 0


def test_self_duality_on_singular_entries():
    for f in (G4, XYZ, X3("z*y^2 - x^3"), X3("x*y*z^2 + x^4 + y^4")):
        hi = validate_input(f)
        for q in range(hi.T + 1):
            assert jacobian_module_dims(f, q) == jacobian_module_dims(f, hi.T - q)


def test_jacobian_module_series_matches_degree_by_degree_dims():
    # one series against two Hilbert values per degree, past T as well;
    # the quintic is not quasihomogeneous and the quartic has two tacnodes
    for f in (G4, XYZ, X3("z*y^2 - x^3"), X3("x*y*z^2 + x^4 + y^4"),
              X3("x^5 + y^5 + x^2*y^2*z"), X3("(x^2 - z^2)^2 + y^4"),
              parse_poly("x*y*z + x*y*w + x*z*w + y*z*w", 4), X3("x^3+y^3+z^3")):
        top = validate_input(f).T + 3
        assert jacobian_module_series(f, top) == [
            jacobian_module_dims(f, q) for q in range(top + 1)
        ]
    assert jacobian_module_series(G4, 0) == [jacobian_module_dims(G4, 0)]


def test_smooth_reference_profile():
    assert smooth_reference_hf(3, 3, 1) == 3
    assert [smooth_reference_hf(3, 4, i) for i in range(7)] == [1, 3, 6, 7, 6, 3, 1]
    assert smooth_reference_hf(3, 4, 5) == 3
    assert smooth_reference_hf(3, 4, 7) == 0


@pytest.mark.parametrize("n,d", [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4)])
def test_smooth_reference_symmetry_and_socle(n, d):
    T = n * (d - 2)
    assert smooth_reference_hf(n, d, T) == 1
    for i in range(T + 1):
        assert smooth_reference_hf(n, d, i) == smooth_reference_hf(n, d, T - i)
    assert smooth_reference_hf(n, d, T + 1) == 0


def test_smooth_hilbert_matches_reference():
    for src, n in (("x^3+y^3+z^3", 3), ("x^4+y^4+z^4", 3),
                   ("x^4+y^4+z^4+4*x*y*z*(x+y+z)", 3)):
        f = parse_poly(src, n)
        hi = validate_input(f)
        gbj = gb_jacobian(f)
        for i in range(hi.T + 2):
            assert hilbert_value(gbj, i) == smooth_reference_hf(n, hi.d, i)


def test_hilbert_stabilizes_at_tjurina():
    for f in (XYZ, G4, X3("z*y^2 - x^3"), X3("x*y*z^3 + x^5 + y^5")):
        hi = validate_input(f)
        gbj = gb_jacobian(f)
        tau = tjurina_total(f)
        values = [hilbert_value(gbj, i) for i in range(hi.T, 3 * hi.T + 1)]
        assert values[-1] == tau
        assert values[-2] == tau
