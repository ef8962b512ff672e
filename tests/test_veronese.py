import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import standard_monomials, table_coordinates, unimodular_matrices
from test_canonical_coefficients import dense_smooth_plane_forms
from veroav.corpus import builtin_corpus
from veroav.groebner import coordinate_table, decide_emptiness, normal_form, projective_empty
from veroav.linalg import (
    MatrixQ,
    determinant,
    kernel_basis,
    quotient_coords,
    random_unimodular,
    rank,
    rank_residues,
    rank_sparse,
)
from veroav.milnor import (
    ScopeError,
    condition_I,
    gb_jacobian,
    jacobian_degree_matrix,
    jacobian_rref,
    validate_input,
)
from veroav.parsing import parse_poly, render_poly
from veroav.polynomial import Polynomial, iter_monomials
from veroav.polyring import (
    coefficient_vector,
    linear_form,
    power_linear_form_symbolic,
    substitute_linear,
)
from veroav.singlocus import ProjPoint, general_linear_position, singular_report
from veroav import cli, veronese
from veroav.veronese import (
    MACAULAY_CHECK_PRIME,
    ConditionIIPreconditionError,
    _macaulay_rank_agrees,
    _power_quotient_forms,
    _rational_zeros,
    _verify_witness,
    check_va,
    condition_II,
    f0_form,
    lefschetz_degree_one,
    phi_base_locus,
    stratum_dims,
)

X3 = lambda s: parse_poly(s, 3)  # noqa: E731


def _assert_integer_table_numerators(f):
    """The forms are the quotient coordinates of each product of powers
    x_j^beta_j, times its multinomial and the table's denominator, read as
    polynomials in a: integer numerators, with only int coefficients."""
    n = f.nvars
    m = validate_input(f).T - 1
    expansion = power_linear_form_symbolic(n, m)
    products = [Polynomial.monomial(beta) for beta, _ in expansion]
    coords = table_coordinates(products, gb_jacobian(f), m)
    den = coordinate_table(gb_jacobian(f), m).denominator
    expected = tuple(
        Polynomial(n, {beta: den * mult * c[i] for (beta, mult), c in zip(expansion, coords)})
        for i in range(len(coords[0]))
    )
    forms = _power_quotient_forms(f, m)
    assert forms == expected
    assert all(type(c) is int for g in forms for c in g.terms.values())


@pytest.mark.parametrize("src", ["x*y*z + x^3 + y^3", "x*y*z^2 + x^4 + y^4"])
def test_power_quotient_forms_match_products_of_powers(src):
    _assert_integer_table_numerators(X3(src))


@pytest.mark.parametrize("entry", builtin_corpus(), ids=lambda e: e.name)
def test_corpus_power_quotient_forms_are_integer_numerators(entry):
    _assert_integer_table_numerators(parse_poly(entry.source, entry.n))


@given(dense_smooth_plane_forms())
@settings(max_examples=20, deadline=None)
def test_plane_power_quotient_forms_are_integer_numerators(f):
    _assert_integer_table_numerators(f)


def test_condition_II_fermat_witness():
    rep = condition_II(X3("x^3 + y^3 + z^3"))
    assert rep.evaluated and rep.empty is False
    assert rep.witness == (0, 0, 1)  # coordinate directions probed z, y, x


def test_condition_II_family_cubic_empty():
    rep = condition_II(X3("x*y*z + x^3 + y^3"))
    assert rep.empty is True
    assert projective_empty(rep.certificate)
    # certificate leading monomials include a pure power of every parameter
    for i in range(3):
        assert any(
            lm[i] and sum(lm) == lm[i] for lm in rep.certificate.leading_monomials
        )


def test_condition_II_one_node_quartic_witness_y():
    rep = condition_II(X3("x*y*z^2 + x^4 + y^4"))
    assert rep.empty is False
    assert rep.witness == (0, 1, 0)


def test_condition_II_requires_condition_I():
    # three concurrent lines: the gradient-generic condition fails
    f = X3("x*y*(x+y)")
    assert not condition_I(f).holds
    with pytest.raises(ConditionIIPreconditionError):
        condition_II(f)


def test_check_va_condition_I_failure_short_circuits():
    cert = check_va(X3("x*y*(x+y)"))
    assert cert.verdict is False
    assert cert.condition_ii.evaluated is False
    assert cert.condition_ii.note == "not evaluated"


def test_condition_II_elimination_witness_fallback():
    """A coordinate change pushes every witness of the diagonal cubic out of
    the 0/1 search box, forcing the lex-elimination extraction; the first
    chart and smallest eliminant root give a deterministic witness."""
    f = X3("x^3 + y^3 + z^3")
    g = substitute_linear(f, [[1, 2, 3], [2, 1, 4], [3, 5, 1]])
    rep = condition_II(g)
    assert rep.empty is False
    assert rep.witness == (Fraction(1, 3), Fraction(2, 3), 1)
    assert check_va(g).verdict is False


def test_check_va_verdicts():
    assert check_va(X3("x*y*z + x^3 + y^3")).verdict is True
    assert check_va(X3("x*y*z^2 + x^4 + y^4 + x^3*z")).verdict is True
    assert check_va(X3("x*y*z^3 + x^5 + y^5 + x^4*z")).verdict is True
    assert check_va(X3("z*(x*y - z^2)")).verdict is True
    assert check_va(X3("x*y*z")).verdict is True
    assert check_va(X3("x^3 + y^3 + z^3")).verdict is False
    assert check_va(X3("x^4 + y^4 + z^4")).verdict is False


def test_check_va_cross_checks_all_pass():
    for src in ("x*y*z + x^3 + y^3", "x^3 + y^3 + z^3", "x*y*z",
                "x*y*z^2 + x^4 + y^4", "z*y^2 - x^3"):
        cert = check_va(X3(src))
        assert all(ok for _, ok in cert.cross_checks), cert.cross_checks


def test_rank_cross_check_survives_a_bad_prime():
    f = X3("(x+y)^3 + 2147483647*x^3 + z^3")
    M = jacobian_degree_matrix(f, 2)
    p = MACAULAY_CHECK_PRIME
    assert rank_residues([{j: int(x) % p for j, x in enumerate(row)} for row in M.entries], p) == 2
    assert rank(M) == 3
    cert = check_va(f)
    assert cert.condition_i.dim_milnor_top_minus_one == 3
    assert all(ok for _, ok in cert.cross_checks), cert.cross_checks
    assert not cert.verdict
    assert cert.condition_ii.witness == (0, 0, 1)


def _watch_ranks(monkeypatch):
    """Record which rank the cross-check computes: "mod p" or "exact"."""
    calls = []
    monkeypatch.setattr(
        veronese, "rank_residues", lambda *a: calls.append("mod p") or rank_residues(*a)
    )
    monkeypatch.setattr(
        veronese, "rank_sparse", lambda rows: calls.append("exact") or rank_sparse(rows)
    )
    return calls


def test_rank_cross_check_goes_exact_on_a_denominator_the_prime_divides(monkeypatch):
    f = X3(f"x^3 + y^3 + z^3 + 1/{MACAULAY_CHECK_PRIME}*x*y*z")
    dim_m = condition_I(f).dim_milnor_top_minus_one
    assert dim_m == 3
    calls = _watch_ranks(monkeypatch)
    assert _macaulay_rank_agrees(f, 2, dim_m)
    assert not _macaulay_rank_agrees(f, 2, dim_m + 1)
    assert calls == ["exact", "exact"]  # no residues exist, so no rank mod p


def test_rank_cross_check_fallback_rejects_a_wrong_dimension(monkeypatch):
    f = X3("x^3 + y^3 + z^3")
    calls = _watch_ranks(monkeypatch)
    assert _macaulay_rank_agrees(f, 2, 3)
    assert calls == ["mod p"]
    calls.clear()
    for wrong in (2, 4):
        assert not _macaulay_rank_agrees(f, 2, wrong)
    assert calls == ["mod p", "exact"] * 2
    # on the bad prime the rank mod p drops from 3 to 2, and the exact rank
    # decides both a right and a too small dimension
    bad = X3("(x+y)^3 + 2147483647*x^3 + z^3")
    calls.clear()
    assert _macaulay_rank_agrees(bad, 2, 3)
    assert not _macaulay_rank_agrees(bad, 2, 2)
    assert calls == ["mod p", "exact"] * 2


def test_witness_soundness_exact():
    cert = check_va(X3("x^4 + y^4 + z^4"))
    w = cert.condition_ii.witness
    assert w is not None
    hi = validate_input(X3("x^4 + y^4 + z^4"))
    m = hi.T - 1
    ell = linear_form(w)
    L = jacobian_rref(X3("x^4 + y^4 + z^4"), m)
    assert all(
        c == 0 for c in quotient_coords(coefficient_vector(ell**m, m), L)
    )


def test_a_false_witness_fails_the_single_witness_check(monkeypatch, capsys):
    """The witness search takes the first rational zero of the forms as it
    is; only the ``witness_soundness`` cross-check tests it against J_f.
    Forms whose first zero (1:1:0) is not a witness of the Fermat cubic make
    that check fail, and ``check`` exit 3."""
    forms = (X3("x - y"), X3("z"))
    monkeypatch.setattr(veronese, "_power_quotient_forms", lambda f, m: forms)
    cert = check_va(X3("x^3 + y^3 + z^3"))
    assert cert.condition_ii.witness == (1, 1, 0)
    assert dict(cert.cross_checks)["witness_soundness"] is False
    assert cli.main(["check", "-n", "3", "-f", "x^3+y^3+z^3"]) == cli.EXIT_INTERNAL_DEFECT
    err = capsys.readouterr().err
    assert err == "internal defect: a cross-check failed\n"


def test_phi_base_locus_one_node_quartics():
    g4 = X3("x*y*z^2 + x^4 + y^4 + x^3*z")
    from veroav.singlocus import singular_report

    rep = singular_report(g4)
    base = phi_base_locus(g4, [s.point.coords for s in rep.points])
    assert base.empty
    assert base.dim_linear_system == 2 and base.dim_jacobian_module_top == 2
    i1 = {render_poly(linear_form(b)) for b in base.vanishing_linear_forms}
    assert i1 == {"x", "y"}

    f4 = X3("x*y*z^2 + x^4 + y^4")
    rep4 = singular_report(f4)
    base4 = phi_base_locus(f4, [s.point.coords for s in rep4.points])
    assert not base4.empty
    found = {render_poly(linear_form(b)) for b in base4.base_points}
    assert found == {"x", "y"}


def test_phi_base_locus_hyperplane_collapse():
    # r = n - 1 nodes: the criterion reduces to one membership test for the
    # unique hyperplane through the nodes
    f = X3("z*(x*y - z^2)")
    from veroav.singlocus import singular_report

    rep = singular_report(f)
    assert len(rep.points) == 2
    base = phi_base_locus(f, [s.point.coords for s in rep.points])
    assert base.dim_linear_system == 1
    assert base.empty  # z^2 is not in the degree-2 gradient piece


def test_phi_base_locus_rejects_dependent_points():
    from veroav.veronese import DependentConditionsError

    f = X3("x*y*z^2 + x^4 + y^4 + x^3*z")
    with pytest.raises(DependentConditionsError):
        phi_base_locus(f, [(0, 0, 1), (0, 0, 1)])


# ---------------------------------------------------------------------------
# the base locus against the route restricted to the linear forms through
# the nodes


def _base_locus_in_kernel_parameters(f, points):
    """An independent route to the base locus: a kernel basis l_1..l_k of
    the linear forms through the points, the heap normal forms of the
    products of powers of the l_j read on the standard monomials, the common
    zeros in the k parameters s of the quotient coordinates of
    (s_1 l_1 + ... + s_k l_k)^(T-1), each lifted to a normalized linear form
    and kept only if its power lies in J_f.  Returns the emptiness verdict
    and the set of base points."""
    n = f.nvars
    m = validate_input(f).T - 1
    gb = gb_jacobian(f)
    basis = kernel_basis(MatrixQ.from_rows([list(p) for p in points]))
    lins = [linear_form(b) for b in basis]
    expansion = power_linear_form_symbolic(len(lins), m)
    standard = standard_monomials(gb, m)
    coords = []
    for beta, _ in expansion:
        prod = Polynomial.constant(n, 1)
        for lin, e in zip(lins, beta):
            prod = prod * lin**e
        r = normal_form(prod, gb)
        coords.append([r.coeff(b) for b in standard])
    forms = [
        Polynomial(len(lins), {beta: mult * c[i] for (beta, mult), c in zip(expansion, coords)})
        for i in range(len(standard))
    ]

    def lift(s):
        return ProjPoint.normalize(
            [sum(Fraction(sj) * b[i] for sj, b in zip(s, basis)) for i in range(n)]
        ).coords

    _, empty = decide_emptiness(forms)
    zeros = [] if empty else _rational_zeros(forms, first_only=False)
    return empty, {lift(s) for s in zeros if _verify_witness(f, m, lift(s))}


def _few_nodes(f):
    """The nodes on which ``classify`` asks for the base locus, else None."""
    rep = singular_report(f)
    pts = [s.point for s in rep.points]
    if (
        rep.complete
        and 0 < len(pts) < f.nvars
        and all(s.is_node for s in rep.points)
        and general_linear_position(pts)[0]
    ):
        return [p.coords for p in pts]
    return None


def _assert_base_locus_matches_the_restricted_route(f, points):
    base = phi_base_locus(f, points)
    empty, base_points = _base_locus_in_kernel_parameters(f, points)
    assert base.empty == empty
    assert set(base.base_points) == base_points
    assert len(base.base_points) == len(base_points)
    if base.empty:
        assert projective_empty(base.certificate)
        assert base.certificate.nvars == f.nvars
    for ell in base.base_points:
        assert all(linear_form(ell).evaluate(p) == 0 for p in points)


def test_base_locus_matches_the_restricted_route_on_the_corpus():
    calls = 0
    for entry in builtin_corpus():
        f = parse_poly(entry.source, entry.n)
        points = _few_nodes(f)
        if points is not None:
            calls += 1
            _assert_base_locus_matches_the_restricted_route(f, points)
    assert calls == 7


ONE_NODE_QUARTICS = ("x*y*z^2 + x^4 + y^4 + x^3*z", "x*y*z^2 + x^4 + y^4")


def _moved(src, seed):
    return substitute_linear(X3(src), random_unimodular(3, random.Random(seed)))


FEW_NODES_CASES = [
    ("septic-twin", X3("x*y*z^5+x^7+y^7+x^6*z")),
    ("sextic-twin", X3("x*y*z^4+x^6+y^6")),
    *((src, X3(src)) for src in ONE_NODE_QUARTICS),
    # nodes off the coordinate points: linear conditions other than a_i = 0
    *((f"{src} moved {seed}", _moved(src, seed)) for src in ONE_NODE_QUARTICS for seed in (0, 1)),
]


@pytest.mark.parametrize("f", [f for _, f in FEW_NODES_CASES], ids=[n for n, _ in FEW_NODES_CASES])
def test_base_locus_matches_the_restricted_route(f):
    points = _few_nodes(f)
    assert points is not None
    _assert_base_locus_matches_the_restricted_route(f, points)


def test_base_locus_refuses_a_point_that_is_not_singular():
    """The base locus is the condition (II) zero set only through singular
    points, so a point at which a partial is nonzero is refused, before the
    points' rank is looked at."""
    f = X3("x*y*z^2 + x^4 + y^4")
    for points in ([(1, 0, 0)], [(1, 0, 0), (1, 0, 0)]):
        with pytest.raises(ValueError, match="singular point") as info:
            phi_base_locus(f, points)
        assert type(info.value) is ValueError  # not DependentConditionsError


def test_moved_quartics_have_their_node_off_the_coordinate_points():
    for src in ONE_NODE_QUARTICS:
        for seed in (0, 1):
            (point,) = _few_nodes(_moved(src, seed))
            assert sum(1 for c in point if c) > 1


def test_lefschetz_nodal_cubic():
    rep = lefschetz_degree_one(X3("x*y*z"), seed=0)
    assert rep.success
    assert rep.determinants[-1] != 0


def test_lefschetz_fermat_coordinate_form_fails():
    """The map for l = x on the diagonal cubic is singular: an individual
    trial may fail even though a general form succeeds."""
    f = X3("x^3 + y^3 + z^3")
    hi = validate_input(f)
    m = hi.T - 1
    L = jacobian_rref(f, m)
    ell = linear_form([1, 0, 0])
    power = ell ** (hi.T - 2)
    cols = [
        quotient_coords(coefficient_vector(power * Polynomial.variable(i, 3), m), L)
        for i in range(3)
    ]
    M = MatrixQ.from_rows([[cols[j][i] for j in range(3)] for i in range(3)])
    assert determinant(M) == 0


def test_lefschetz_deterministic_per_seed():
    a = lefschetz_degree_one(X3("x*y*z"), seed=123)
    b = lefschetz_degree_one(X3("x*y*z"), seed=123)
    assert a == b


def test_f0_forms():
    assert f0_form(3, 3) == X3("x*y*z")
    assert f0_form(3, 4) == X3("2*x^2*y^2 + 2*x^2*z^2 + 2*y^2*z^2")
    f043 = f0_form(4, 3)
    assert f043 == parse_poly("x*y*z + x*y*w + x*z*w + y*z*w", 4)


def test_f0_forms_are_avoiding():
    for n, d in ((3, 3), (3, 4), (4, 3)):
        assert check_va(f0_form(n, d)).verdict is True


def test_stratum_dims():
    assert stratum_dims(3, 3) == {"N_d": 9, "nodal_dim": 6, "linear_system_dim": 0}
    for n, d in ((3, 3), (3, 4), (4, 3), (4, 4)):
        dims = stratum_dims(n, d)
        nd = math.comb(n + d - 1, d) - 1
        assert dims["N_d"] == nd
        assert dims["nodal_dim"] == nd - n
        assert dims["linear_system_dim"] == nd - n * n


@pytest.mark.parametrize(
    "src,n",
    [
        ("x*y*z + x^3 + y^3", 3),
        ("x^3 + y^3 + z^3", 3),
        ("x*y*z", 3),
        ("x*y*z^2 + x^4 + y^4", 3),
    ],
)
@given(A=st.data())
@settings(max_examples=5, deadline=None)
def test_pgl_invariance(src, n, A):
    f = parse_poly(src, n)
    matrix = A.draw(unimodular_matrices(n))
    g = substitute_linear(f, matrix)
    assert check_va(g).verdict == check_va(f).verdict


@st.composite
def small_forms(draw):
    """n = 3 with d = 3-4, or n = 4 with d = 3, on a random support of small
    integer coefficients: smooth, singular and non-isolated forms all occur."""
    n, d = draw(st.sampled_from([(3, 3), (3, 4), (4, 3)]))
    basis = list(iter_monomials(n, d))
    support = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=10, unique=True))
    coeffs = draw(
        st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=len(support),
                 max_size=len(support))
    )
    return Polynomial(n, dict(zip(support, coeffs)))


def _outcome(f):
    """The verdict, or the kind of scope error, which a coordinate change
    keeps too."""
    try:
        return check_va(f).verdict
    except ScopeError as exc:
        return type(exc).__name__


@given(small_forms(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_verdict_is_invariant_under_random_coordinate_change(f, seed):
    g = substitute_linear(f, random_unimodular(f.nvars, random.Random(seed)))
    assert _outcome(g) == _outcome(f)
