"""The packed Macaulay rows of ``groebner.macaulay_rows`` against the
tuple-built rows they replace, on the condition-(I) cross-check and on the
truncated local matrices; the local colengths they give against the
Groebner route, and what a node costs."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _local_colength_groebner,
    graded_macaulay_rows,
    homogeneous_polynomials,
    polynomials,
    truncated_macaulay_rows,
)
from test_certificate_identity import workload_instances
from veroav import singlocus, veronese
from veroav.corpus import builtin_corpus
from veroav.groebner import MACAULAY_CHECK_PRIME, _packing, macaulay_rows, residues
from veroav.linalg import MatrixQ, rank, rank_residues, rank_sparse
from veroav.milnor import condition_I, jacobian_degree_matrix, validate_input
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial, integer_terms, iter_monomials
from veroav.polyring import graded_basis
from veroav.singlocus import (
    _dehomogenize_at,
    _local_colength,
    _local_numbers,
    singular_points_rational,
)
from veroav.veronese import _macaulay_rank_agrees

P = MACAULAY_CHECK_PRIME


def _inputs() -> dict[str, Polynomial]:
    """Every corpus entry, every ``cond2-heavy`` instance at seed 0 and
    every ``singular-high-degree`` instance."""
    out = {e.name: parse_poly(e.source, e.n) for e in builtin_corpus()}
    out.update({name: parse_poly(text, n) for name, (text, n) in workload_instances().items()})
    return out


INPUTS = _inputs()


def _by_monomial(rows, nvars, sign=1):
    """Packed rows as maps {monomial: coefficient}."""
    pk = _packing(nvars)
    return [{pk.unpack(sign * x): c for x, c in row.items()} for row in rows]


def _by_column(rows, columns):
    """Index-keyed rows as maps {monomial: coefficient}."""
    return [{columns[j]: c for j, c in row.items()} for row in rows]


def _graded_agree(gens, nvars, degree):
    """The packed rows are the reference's, row for row, and have its rank
    mod p."""
    packed = macaulay_rows(gens, nvars, [degree], descending=True)
    reference = graded_macaulay_rows(gens, nvars, degree)
    top = degree + next(sum(m) for g in gens for m in g)
    assert _by_monomial(packed, nvars, -1) == _by_column(reference, graded_basis(nvars, top))
    assert rank_residues(packed, P) == rank_residues(reference, P)


def _truncated_agree(gens, k, N):
    """The packed truncated rows are the reference's up to their order, and
    have its rank mod p."""
    packed = macaulay_rows(gens, k, range(N), below=N)
    reference, ncols = truncated_macaulay_rows(gens, k, N)
    columns = [m for e in range(N) for m in iter_monomials(k, e)]
    assert ncols == len(columns)
    key = lambda row: sorted(row.items())  # noqa: E731
    got = sorted(_by_monomial(packed, k), key=key)
    assert got == sorted(_by_column(reference, columns), key=key)
    assert rank_residues(packed, P) == rank_residues(reference, P)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_the_packed_cross_check_rows_match_the_tuple_rows(name):
    f = INPUTS[name]
    m = validate_input(f).T - 1
    grads = [residues(g, P) for g in f.gradient()]
    _graded_agree(grads, f.nvars, m - f.homogeneous_degree() + 1)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_the_packed_local_rows_match_the_tuple_rows(name):
    f = INPUTS[name]
    points, _ = singular_points_rational(f)
    for p in points:
        G, _ = _dehomogenize_at(f, p)
        grads = G.gradient()
        for gens in (grads, [G] + grads):
            modular = [residues(g, P) for g in gens]
            for N in range(2, 6):
                _truncated_agree(modular, G.nvars, N)
                _truncated_agree([g.terms for g in gens], G.nvars, N)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_the_exact_cross_check_rows_are_the_dense_matrix(name, monkeypatch):
    # a rank mod p that never agrees sends the cross-check to its exact rank
    f = INPUTS[name]
    m = validate_input(f).T - 1
    dim_m = condition_I(f).dim_milnor_top_minus_one
    exact = []
    monkeypatch.setattr(veronese, "rank_residues", lambda rows, p: -1)
    monkeypatch.setattr(veronese, "rank_sparse", lambda rows: exact.append(rows) or rank_sparse(rows))
    assert _macaulay_rank_agrees(f, m, dim_m)
    assert not _macaulay_rank_agrees(f, m, dim_m + 1)
    rows = exact[0]
    # row for row, the dense matrix's rows times their partial's denominator
    dense = jacobian_degree_matrix(f, m)
    dens = [integer_terms(g)[0] for g in f.gradient()] * (dense.rows // f.nvars)
    columns = graded_basis(f.nvars, m)
    expected = [
        {columns[j]: x * den for j, x in enumerate(row) if x} for row, den in zip(dense.entries, dens)
    ]
    assert _by_monomial(rows, f.nvars, -1) == [row for row in expected if row]
    assert rank_sparse(rows) == rank(dense)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(2, 4), st.integers(1, 3)).flatmap(
        lambda nd: st.lists(
            homogeneous_polynomials(nvars=st.just(nd[0]), degrees=st.just(nd[1])),
            min_size=1,
            max_size=4,
        )
    ),
    st.integers(0, 3),
)
def test_graded_rows_match_on_random_forms(forms, degree):
    gens = [residues(g, P) for g in forms]
    _graded_agree(gens, forms[0].nvars, degree)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.lists(polynomials(nvars=st.just(n), max_degree=3), min_size=1, max_size=4)
    ),
    st.integers(1, 5),
)
def test_truncated_rows_match_on_random_polynomials(polys, N):
    k = polys[0].nvars
    _truncated_agree([residues(g, P) for g in polys], k, N)
    packed = macaulay_rows([g.terms for g in polys], k, range(N), below=N)
    reference, ncols = truncated_macaulay_rows([g.terms for g in polys], k, N)
    cols = sorted(set().union(*packed))
    dense = [[row.get(x, 0) for x in cols] for row in packed]
    full = [[row.get(j, 0) for j in range(ncols)] for row in reference]
    assert rank(MatrixQ.from_rows(dense)) == rank(MatrixQ.from_rows(full))


@pytest.mark.parametrize("constant", [1, P])
def test_a_unit_generator_has_colength_zero(constant):
    # the loop starts from corank 1 at N = 1 only when every generator
    # vanishes at the origin: with the unit p + x, whose residue x does
    # vanish there, the corank mod p is 1 at N = 2 although the colength is 0
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    gens = [x + Polynomial.constant(2, constant), y]
    assert _local_colength(gens, 2) == _local_colength_groebner(gens, 2) == 0


def _singular_germs():
    """(x, y) and (x, y, z) germs of the simple singularities A1-A5, D4,
    D5 and E6, and A2 with a quadratic part that is not diagonal, with their
    Milnor numbers; quasihomogeneous up to a linear change of coordinates,
    so the Tjurina number is the same."""
    two = {
        **{f"A{k}": (f"x^{k + 1} + y^2", k) for k in range(1, 6)},
        "A2-mixed": ("(x + y)^2 + x^3", 2),
        "D4": ("x^2*y + y^3", 4),
        "D5": ("x^2*y + y^4", 5),
        "E6": ("x^3 + y^4", 6),
    }
    for name, (text, mu) in two.items():
        yield f"{name}-2", parse_poly(text, 2), mu
        yield f"{name}-3", parse_poly(text + " + z^2", 3), mu


GERMS = list(_singular_germs())


@pytest.mark.parametrize("G, mu", [(G, mu) for _, G, mu in GERMS], ids=[g[0] for g in GERMS])
def test_colength_matches_groebner_on_simple_germs(G, mu):
    k = G.nvars
    grads = G.gradient()
    for gens in (grads, [G] + grads):
        assert _local_colength(gens, k) == _local_colength_groebner(gens, k) == mu
    # the quadratic rank read off G's quadratic part is that of the Hessian
    # of second partials at the origin
    origin = (0,) * k
    hessian = [[g.partial(j).coeff(origin) for j in range(k)] for g in grads]
    assert _local_numbers(G) == (mu, mu, rank(MatrixQ.from_rows(hessian)))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_colength_matches_groebner_at_every_rational_singular_point(name):
    f = INPUTS[name]
    points, _ = singular_points_rational(f)
    for p in points:
        G, _ = _dehomogenize_at(f, p)
        grads = G.gradient()
        for gens in (grads, [G] + grads):
            assert _local_colength(gens, G.nvars) == _local_colength_groebner(gens, G.nvars)


@pytest.mark.parametrize(
    "text, n", [("x^2 + y^2 + x^3*y", 2), ("x*y + y^3", 2), ("x^2 + y*z + x*y*z + z^5", 3)]
)
def test_a_node_costs_one_rank_per_colength(text, n):
    G = parse_poly(text, n)
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return rank_sparse(rows)

    dense = []
    with mock.patch.object(singlocus, "rank_sparse", counting), mock.patch.object(
        singlocus, "rank", lambda M: dense.append(M) or rank(M)
    ):
        tjurina, milnor, qrank = _local_numbers(G)
    assert (tjurina, milnor, qrank) == (1, 1, n)
    assert len(calls) == 2  # one sparse exact rank for each colength
    assert len(dense) == 1  # the quadratic rank
