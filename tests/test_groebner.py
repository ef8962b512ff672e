import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    homogeneous_polynomials,
    moved,
    polynomials,
    table_coordinates,
    with_pure_power_variables,
)
from veroav import groebner
from veroav.corpus import builtin_corpus
from veroav.groebner import (
    MAX_EXPONENT,
    DegreeCapExceeded,
    _find_reducer,
    _homogeneous_degrees,
    _coordinate_zero,
    _IPoly,
    _moved_inputs,
    _packing,
    _sheared_basis,
    _sorted_inputs,
    _to_int_terms,
    buchberger,
    hilbert_value,
    krull_dim_quotient,
    modular_certificate,
    normal_form,
    projective_empty,
    residues,
    saturate_irrelevant,
)
from veroav.linalg import MatrixQ, kernel_basis, random_unimodular
from veroav.milnor import gb_jacobian, is_smooth
from veroav.orders import grevlex_key
from veroav.parsing import parse_poly
from veroav.polynomial import Polynomial, iter_monomials, mono_div, mono_mul
from veroav.polyring import dim_graded, linear_form, substitute_linear
from veroav.veronese import f0_form

X3 = lambda s: parse_poly(s, 3)  # noqa: E731


def test_principal_ideal():
    gb = buchberger([parse_poly("x", 2)])
    assert [g for g in gb.generators] == [parse_poly("x", 2)]
    assert normal_form(parse_poly("y", 2), gb) == parse_poly("y", 2)


def test_euler_membership():
    for src in ("x*y*z + x^3 + y^3", "x^4 + y^4 + z^4", "x*y*z^2 + x^4 + y^4 + x^3*z"):
        f = X3(src)
        gb = buchberger(f.gradient())
        assert normal_form(f, gb).is_zero()


def test_monomial_complete_intersection_hilbert():
    gb = buchberger([X3("x^2"), X3("y^2"), X3("z^2")])
    assert [hilbert_value(gb, i) for i in range(4)] == [1, 3, 3, 1]
    assert hilbert_value(gb, 4) == 0


def test_projective_empty_cases():
    assert projective_empty(buchberger([X3("x"), X3("y"), X3("z")]))
    hesse0 = X3("6*x*y*z")
    assert not projective_empty(buchberger(hesse0.gradient()))
    assert not projective_empty(buchberger([X3("x"), X3("y")]))


def test_cubic_avoidance_certificate_in_ambient_coordinates():
    """The linear-space equations plus the symmetric-matrix minors cut out
    nothing: the explicit certificate for the one-node cubic."""
    n = 6
    z = [Polynomial.variable(i, n) for i in range(6)]
    linear = [z[0] - 3 * z[4], z[3] - 3 * z[2], z[5]]
    sym = [[z[0], z[1], z[2]], [z[1], z[3], z[4]], [z[2], z[4], z[5]]]
    minors = []
    for r1, r2 in itertools.combinations(range(3), 2):
        for c1, c2 in itertools.combinations(range(3), 2):
            minors.append(sym[r1][c1] * sym[r2][c2] - sym[r1][c2] * sym[r2][c1])
    gb = buchberger(linear + minors)
    assert projective_empty(gb)


def test_restricted_minors_generate_square_of_three_variables():
    """After eliminating the three linear equations the minors generate the
    square of the ideal of the three surviving coordinates."""
    n = 6
    z = [Polynomial.variable(i, n) for i in range(6)]
    # substitute z1 = 3 z5, z4 = 3 z3, z6 = 0 into the symmetric matrix
    m = [
        [3 * z[4], z[1], z[2]],
        [z[1], 3 * z[2], z[4]],
        [z[2], z[4], Polynomial.zero(n)],
    ]
    minors = []
    for r1, r2 in itertools.combinations(range(3), 2):
        for c1, c2 in itertools.combinations(range(3), 2):
            minors.append(m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1])
    gb_minors = buchberger([p for p in minors if not p.is_zero()])
    square = [a * b for a, b in itertools.combinations_with_replacement(
        [z[1], z[2], z[4]], 2)]
    gb_square = buchberger(square)
    assert gb_minors.generators == gb_square.generators


def test_krull_dimensions():
    assert krull_dim_quotient(buchberger([X3("x"), X3("y"), X3("z")])) == 0
    gb = buchberger(X3("x^2*y*z").gradient())
    assert krull_dim_quotient(gb) == 2  # a line in the projective plane
    assert krull_dim_quotient(buchberger([X3("x")])) == 2
    assert krull_dim_quotient(buchberger([Polynomial.constant(3, 5)])) == -1


def test_hilbert_family_cubic():
    gb = buchberger(X3("x*y*z + x^3 + y^3").gradient())
    assert hilbert_value(gb, 2) == 3


def test_normal_form_idempotent_and_linear():
    gb = buchberger(X3("x*y*z + x^3 + y^3").gradient())
    for src in ("x^4 + y*z^3", "x^2*y^2 - z^4", "x^5"):
        p = X3(src)
        r = normal_form(p, gb)
        assert normal_form(r, gb) == r
        # remainder differs from the input by an ideal element
        assert normal_form(p - r, gb).is_zero()


def _unmoved(sat):
    """The basis of a saturation moved back to the original coordinates."""
    return buchberger(moved(sat.basis.generators, sat.form, 1))


def _saturate(gens):
    return _unmoved(saturate_irrelevant(gens, basis=buchberger(gens)))


def test_saturation_classics():
    sat = _saturate([parse_poly("x^2", 2), parse_poly("x*y", 2)])
    assert [str(g.terms) for g in sat.generators] == [str({(1, 0): 1})]

    sat = _saturate(X3("x*y*z").gradient())
    expected = buchberger([X3("x*y"), X3("x*z"), X3("y*z")])
    assert sat.generators == expected.generators

    g4 = X3("x*y*z^2 + x^4 + y^4 + x^3*z")
    sat = _saturate(g4.gradient())
    expected = buchberger([X3("x"), X3("y")])
    assert sat.generators == expected.generators


def test_saturation_of_smooth_jacobian_is_unit():
    sat = _saturate(X3("x^3 + y^3 + z^3").gradient())
    assert krull_dim_quotient(sat) == -1  # the unit ideal


def test_saturation_contains_ideal_and_is_idempotent():
    for src in ("x*y*z", "z*y^2 - x^3", "x*y*z^2 + x^4 + y^4 + x^3*z"):
        gens = X3(src).gradient()
        sat = _saturate(gens)
        for g in gens:
            assert normal_form(g, sat).is_zero()
        again = _saturate(list(sat.generators))
        assert sat.generators == again.generators


@pytest.mark.parametrize("n, src, form, expected", [
    # the only singular point is [0:0:1], where z does not vanish
    (3, "x*y*z^2 + x^4 + y^4 + x^3*z", [0, 0, 1], ["x", "y"]),
    # the zeros are the coordinate points, two on each x_j = 0; x + y + z
    # misses them
    (3, "x*y*z", [1, 1, 1], ["x*y", "x*z", "y*z"]),
    # the coordinate points are zeros, x + y + z vanishes at [0:1:-1];
    # 2x + 4y + z misses all six
    (3, "x*y*z*(x+y+z)", [2, 4, 1], ["x*y*z", "x*y*(x+y+z)", "x*z*(x+y+z)", "y*z*(x+y+z)"]),
    # (x^2*y, x^3) = x^2 * (x, y) with one zero [0:1], where y does not vanish
    (2, "x^2*y, x^3", [0, 1], ["x^2"]),
    # (x^2*y, x*y^2) = x*y * (x, y); its saturation is (x) meet (y)
    (2, "x^2*y, x*y^2", [1, 1], ["x*y"]),
    # the one node [0:1:0] is on z = 0; y misses it
    (3, "x*z*y^3+x^5+z^5+x^4*y", [0, 1, 0], ["x", "z"]),
    # z and x vanish at the zero [0:1:0]; y misses it, [0:1:-1] and [1:-1:0]
    (3, "x*z*(x+y+z)", [0, 1, 0], ["x*z", "x*(x+y+z)", "z*(x+y+z)"]),
    # the nodes [1:1:0], [1:0:1], [1:1:1] are on z = 0 and y = 0, not x = 0
    (3, "(x-y-z)*(x-y)*(x-z)", [1, 0, 0],
     ["(x-y-z)*(x-y)", "(x-y-z)*(x-z)", "(x-y)*(x-z)"]),
], ids=["k0", "k1", "k2", "binary-k0", "binary-k1", "swap-y", "swap-y-lines", "swap-x"])
def test_saturation_for_each_linear_form(n, src, form, expected):
    # a single form stands for its gradient ideal
    polys = [parse_poly(s, n) for s in src.split(", ")]
    gens = polys[0].gradient() if len(polys) == 1 else polys
    assert _sheared_basis(gens, buchberger(gens))[0] == form
    sat = _saturate(gens)
    assert sat.generators == buchberger([parse_poly(e, n) for e in expected]).generators


def _first_missing_linear_form(gens):
    """The reference choice of linear form: the first of x_{n-1}, x_{n-2},
    ..., x_0, then l_k = x_{n-1} + sum_{i<n-1} k^(i+1) x_i for k = 1, 2, ...,
    with I + (l) projectively empty, decided on a basis of the sum itself."""
    n = gens[0].nvars
    units = ([int(i == j) for i in range(n)] for j in range(n - 1, -1, -1))
    shears = ([k ** (i + 1) for i in range(n - 1)] + [1] for k in itertools.count(1))
    for form in itertools.chain(units, shears):
        if projective_empty(buchberger([*gens, linear_form(form)])):
            return form


def _line_arrangement(seed):
    """A product of 3-4 integer linear forms in x, y, z, two of which meet
    on z = 0, so that l_0 = z does not miss the singular points."""
    rng = random.Random(seed)
    a, b = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])
    forms = [[a, b, c] for c in rng.sample(range(-3, 4), 2)]
    size = rng.choice((3, 4))
    while len(forms) < size:
        v = [rng.randint(-3, 3) for _ in range(3)]
        if any(v):
            forms.append(v)
    return math.prod((linear_form(v) for v in forms), start=Polynomial.constant(3, 1))


def test_the_linear_form_read_off_the_sheared_basis_is_the_first_that_misses_the_zeros():
    chosen = set()
    for seed in range(48):
        gens = _line_arrangement(seed).gradient()
        basis = buchberger(gens)
        if krull_dim_quotient(basis) > 1:  # a repeated line
            continue
        form = _sheared_basis(gens, basis)[0]
        assert form == _first_missing_linear_form(gens), seed
        chosen.add(tuple(form))
    assert chosen == {(0, 1, 0), (1, 0, 0), (1, 1, 1), (2, 4, 1), (3, 9, 1)}


@pytest.mark.parametrize("n, d", [(3, 3), (3, 4), (4, 3), (3, 5), (4, 4), (5, 3)])
def test_saturating_a_coordinate_node_form_builds_at_most_the_unshearing_basis(
    n, d, monkeypatch
):
    # the coordinate points are the zeros, so l_0 = x_{n-1} fails and l_1
    # is taken: one sheared basis, read for the choice and saturated, and
    # no unshearing basis, since the saturation stays in moved coordinates
    gens = f0_form(n, d).gradient()
    basis = buchberger(gens)
    expected = _unmoved(saturate_irrelevant(gens, basis))
    calls = []

    def counted(name):
        real = getattr(groebner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counting

    for name in ("buchberger", "_pair_loop"):
        monkeypatch.setattr(groebner, name, counted(name))
    sat = saturate_irrelevant(gens, basis)
    assert calls.count("buchberger") == 0
    assert calls.count("_pair_loop") == 1
    monkeypatch.undo()
    assert _unmoved(sat).generators == expected.generators


def test_a_constant_counts_as_a_pure_power_of_every_variable(monkeypatch):
    gens = [X3("x*y"), X3("x*z^2"), Polynomial.constant(3, 5)]
    assert projective_empty(buchberger(gens))
    assert _coordinate_zero([X3("x*y").terms, X3("z^2").terms], 3)
    assert not _coordinate_zero([X3("x*y").terms, X3("z^2").terms, {(0, 0, 0): 5}], 3)

    def no_move(*args):
        raise AssertionError("the saturation went past x_{n-1}")

    monkeypatch.setattr(groebner, "_moved_inputs", no_move)
    basis = buchberger(gens)
    assert _sheared_basis(gens, basis)[0] == [0, 0, 1]
    assert krull_dim_quotient(saturate_irrelevant(gens, basis).basis) == -1  # the unit ideal


def _without_swaps(monkeypatch):
    """Drop the coordinate swaps from the candidate linear forms."""
    real = groebner._candidate_forms
    monkeypatch.setattr(
        groebner, "_candidate_forms", lambda *a: (form for form in real(*a) if form[-1])
    )


SWAP_FORMS = (
    "x*y*z^3+x^5+y^5+x^4*z",
    "x*y*z^4+x^6+y^6+x^5*z",
    "x*y*z^5+x^7+y^7+x^6*z",
    "z*(x*y-z^2)",
    "x*(x^3+y^3-z^3)",
)


@pytest.mark.parametrize("perm", ["".join(p) for p in itertools.permutations("xyz")])
@pytest.mark.parametrize("src", SWAP_FORMS)
def test_a_swap_saturates_to_the_basis_of_a_shear(src, perm, monkeypatch):
    gens = X3(src.translate(str.maketrans("xyz", perm))).gradient()
    basis = buchberger(gens)
    swapped = saturate_irrelevant(gens, basis)
    _without_swaps(monkeypatch)
    assert _unmoved(swapped).generators == _unmoved(saturate_irrelevant(gens, basis)).generators


@pytest.mark.parametrize("perm", ["xzy", "yzx"])
def test_the_quintic_twin_saturates_without_a_shear(perm, monkeypatch):
    # the one node is a coordinate point on the last variable's zero set,
    # and a swap moves a variable that misses it to the end
    gens = X3(SWAP_FORMS[0].translate(str.maketrans("xyz", perm))).gradient()
    basis = buchberger(gens)
    _without_swaps(monkeypatch)
    expected = _unmoved(saturate_irrelevant(gens, basis))
    monkeypatch.undo()

    real = groebner._moved_inputs

    def no_shear(polys, form, pk):
        if form[-1]:
            raise AssertionError("the saturation went past the swaps")
        return real(polys, form, pk)

    monkeypatch.setattr(groebner, "_moved_inputs", no_shear)
    assert _unmoved(saturate_irrelevant(gens, basis)).generators == expected.generators


def test_a_swap_that_meets_a_zero_falls_through_to_the_next(monkeypatch):
    # the nodes (1:1:0), (1:0:1), (1:1:1) are no coordinate points, so every
    # swap passes the coordinate check; z and y vanish at a node, x at none
    gens = X3("(x-y-z)*(x-y)*(x-z)").gradient()
    basis = buchberger(gens)
    assert list(itertools.islice(groebner._candidate_forms(gens, 3), 4)) == [
        [0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]
    ]
    moves = []
    real = groebner._moved_inputs

    def recording(polys, form, pk):
        moves.append(form)
        return real(polys, form, pk)

    monkeypatch.setattr(groebner, "_moved_inputs", recording)
    swapped = saturate_irrelevant(gens, basis)
    assert moves == [[0, 1, 0], [1, 0, 0]]  # no move back
    assert swapped.form == (1, 0, 0)
    monkeypatch.undo()
    _without_swaps(monkeypatch)
    assert _unmoved(swapped).generators == _unmoved(saturate_irrelevant(gens, basis)).generators


def test_saturation_reuses_a_given_grevlex_basis(monkeypatch):
    gens = X3("x*z*(x+y+z)").gradient()
    gb = buchberger(gens)
    expected = _saturate(gens)
    inputs = []

    def recording(polys, *args, **kwargs):
        inputs.append(list(polys))
        return buchberger(polys, *args, **kwargs)

    monkeypatch.setattr("veroav.groebner.buchberger", recording)
    sat = saturate_irrelevant(gens, basis=gb)
    assert not inputs  # the basis of the gens is not rebuilt, nor any other
    assert _unmoved(sat).generators == expected.generators
    with pytest.raises(ValueError, match="grevlex basis over Q"):
        saturate_irrelevant(gens, basis=modular_certificate(X3("x^3+y^3+z^3").gradient()))


def test_saturation_refuses_positive_dimensional_zero_sets():
    with pytest.raises(ValueError, match="finitely many projective zeros"):
        _saturate(X3("x^2*y*z").gradient())
    with pytest.raises(ValueError, match="finitely many projective zeros"):
        _saturate([X3("x")])


def _oracle_saturation_pieces(f):
    """(J^sat)_q for q = 0..T+1 by linear algebra alone: the kernel of
    R_q -> (R/J)_(T+2)^(monomials of degree N), h -> (x^a h mod J)_a with
    N = T+2-q, which is exact because N(f) = J^sat/J vanishes from degree
    T+1 on.  Yields (q, kernel as polynomials)."""
    n = f.nvars
    T = n * (f.homogeneous_degree() - 2)
    top = list(iter_monomials(n, T + 2))
    top_coords = table_coordinates(map(Polynomial.monomial, top), gb_jacobian(f), T + 2)
    coords = dict(zip(top, top_coords))
    width = len(top_coords[0])
    for q in range(T + 2):
        monos = list(iter_monomials(n, q))
        rows = [
            [coords[mono_mul(a, b)][s] for b in monos]
            for a in iter_monomials(n, T + 2 - q)
            for s in range(width)
        ]
        kernel = kernel_basis(MatrixQ.from_rows(rows))
        yield q, [Polynomial(n, dict(zip(monos, v))) for v in kernel]


def _saturation_cases():
    """The singular corpus entries, coordinate-node forms, and coordinate-node
    forms after a unimodular change of coordinates."""
    cases = [(e.name, parse_poly(e.source, e.n)) for e in builtin_corpus()]
    cases = [(name, f) for name, f in cases if not is_smooth(f)]
    cases += [(f"f0-{n}-{d}", f0_form(n, d)) for n, d in ((3, 3), (3, 4), (4, 3), (3, 5), (4, 4))]
    for seed, (n, d) in enumerate(((3, 3), (3, 4), (4, 3))):
        A = random_unimodular(n, random.Random(seed), steps=4)
        cases.append((f"f0-{n}-{d}-moved{seed}", substitute_linear(f0_form(n, d), A)))
    return cases


SATURATION_CASES = _saturation_cases()


@pytest.mark.parametrize("f", [f for _, f in SATURATION_CASES], ids=[n for n, _ in SATURATION_CASES])
def test_saturation_matches_linear_algebra_oracle(f):
    # the Hilbert function is read off the basis in moved coordinates,
    # membership off the basis moved back
    sat = saturate_irrelevant(f.gradient(), buchberger(f.gradient()))
    unmoved = _unmoved(sat)
    for q, kernel in _oracle_saturation_pieces(f):
        assert hilbert_value(sat.basis, q) == dim_graded(f.nvars, q) - len(kernel)
        assert hilbert_value(unmoved, q) == hilbert_value(sat.basis, q)
        assert all(normal_form(h, unmoved).is_zero() for h in kernel)


def test_degree_cap(monkeypatch):
    # leading monomials share x^20, so the pair survives the product
    # criterion and its lcm degree 22 trips the cap
    monkeypatch.setenv("VA_DEGREE_CAP", "21")
    with pytest.raises(DegreeCapExceeded):
        buchberger([X3("x^20*y + y^21"), X3("x^20*z + z^21")])


def test_degree_cap_env(monkeypatch):
    monkeypatch.setenv("VA_DEGREE_CAP", "5")
    with pytest.raises(DegreeCapExceeded):
        buchberger([X3("x^4*y + y^5"), X3("x^4*z + z^5")])


@given(homogeneous_polynomials(nvars=st.just(3), degrees=st.integers(1, 3),
                               max_terms=4),
       homogeneous_polynomials(nvars=st.just(3), degrees=st.integers(1, 3),
                               max_terms=4))
@settings(max_examples=30, deadline=None)
def test_buchberger_spoly_certificate(p, q):
    gb = buchberger([p, q])
    gens = gb.generators
    for f, g in itertools.combinations(gens, 2):
        lmf = max(f.terms, key=grevlex_key)
        lmg = max(g.terms, key=grevlex_key)
        L = tuple(map(max, lmf, lmg))
        s = Polynomial.monomial(mono_div(L, lmf)) * f - Polynomial.monomial(
            mono_div(L, lmg)
        ) * g
        assert normal_form(s, gb).is_zero()
    # the inputs belong to the ideal they generate
    assert normal_form(p, gb).is_zero()
    assert normal_form(q, gb).is_zero()


def _sympy_reference(gens, p=None):
    """sympy's reduced grevlex basis of gens over Q, as Polynomials, and the
    remainder of p on division by it (None without p)."""
    import sympy

    xs = sympy.symbols("x1 x2 x3")
    names = dict(zip(["x1", "x2", "x3"], xs))
    exprs = [sympy.sympify(_to_sympy_str(g), names) for g in gens]
    reference = sympy.groebner(exprs, *xs, order="grevlex", domain=sympy.QQ)

    def convert(poly):
        terms = {
            tuple(map(int, mono)): Fraction(*coeff.as_numer_denom())
            for mono, coeff in poly.terms()
        }
        return Polynomial(3, terms)

    basis = {convert(poly) for poly in reference.polys}
    if p is None:
        return basis, None
    expr = sympy.sympify(_to_sympy_str(p), names)
    _, remainder = sympy.reduced(expr, reference.exprs, *xs, order="grevlex")
    return basis, convert(sympy.Poly(remainder, *xs, domain=sympy.QQ))


@given(homogeneous_polynomials(nvars=st.just(3), degrees=st.integers(1, 3),
                               max_terms=4))
@settings(max_examples=25, deadline=None)
def test_groebner_matches_sympy(p):
    q = parse_poly("x1^2*x2 - x3^3", 3)
    reference, _ = _sympy_reference([p, q])
    assert set(buchberger([p, q]).generators) == reference


@given(polynomials(nvars=st.just(3), max_degree=2, max_terms=3),
       polynomials(nvars=st.just(3), max_degree=3, max_terms=4))
@settings(max_examples=15, deadline=None)
def test_non_homogeneous_groebner_and_normal_form_match_sympy(p, r):
    """Non-homogeneous generators, as in the affine charts of ratpoints and
    the local truncations of singlocus, and normal forms against the basis
    compared with sympy's remainder."""
    q = parse_poly("x1*x2 - x3^2 + 2*x1 - 1", 3)
    gens = [g for g in (p, q) if not g.is_zero()]
    reference, remainder = _sympy_reference(gens, r)
    gb = buchberger(gens)
    assert set(gb.generators) == reference
    assert normal_form(r, gb) == remainder


P31 = 2**31 - 1


def _residues(p, modulus):
    return Polynomial(p.nvars, {
        m: c.numerator * pow(c.denominator, -1, modulus) % modulus for m, c in p.terms.items()
    })


def _sympy_modular_basis(gens):
    """sympy's reduced grevlex basis over GF(P31) of the gens, as Polynomials
    with residues in [0, P31)."""
    import sympy

    xs = sympy.symbols("x1 x2 x3")
    names = dict(zip(["x1", "x2", "x3"], xs))
    exprs = [sympy.sympify(_to_sympy_str(_residues(g, P31)), names) for g in gens]
    reference = sympy.groebner(exprs, *xs, order="grevlex", modulus=P31)
    return {
        Polynomial(3, {tuple(int(e) for e in mono): int(c) % P31 for mono, c in poly.terms()})
        for poly in reference.polys
    }


@given(homogeneous_polynomials(nvars=st.just(3), degrees=st.integers(1, 3),
                               max_terms=4))
@example(parse_poly("x2^2", 3))  # a pure power of x2: the certificate has x2
@settings(max_examples=25, deadline=None)
def test_modular_groebner_matches_sympy(p):
    """A certificate exists iff sympy's basis of the gens mod p has a pure
    power of every variable.  It generates the ideal of the gens plus x_j
    for each one-term gen c*x_j^e, mod p: sympy reduces both to the same
    basis, whose leading monomials it shares."""
    gens = [p, parse_poly("x1^2*x2 - 3*x3^3", 3), parse_poly("x1^3 + x2^2*x3 - x3^3", 3)]
    certificate = modular_certificate(gens)
    lms = {max(g.terms, key=grevlex_key) for g in _sympy_modular_basis(gens)}
    assert (certificate is not None) == all(any(m[i] == sum(m) for m in lms) for i in range(3))
    if certificate is None:
        return
    reference = _sympy_modular_basis(with_pure_power_variables(gens))
    assert certificate.modulus == P31
    assert set(certificate.leading_monomials) == {max(g.terms, key=grevlex_key) for g in reference}
    assert _sympy_modular_basis(certificate.generators) == reference


def test_modular_basis_is_the_rational_basis_mod_p():
    gens = [X3("x^2 - 3*y*z"), X3("5*x*y^2 + z^3").scale(Fraction(1, 5)), X3("y^3 - 7*x*z^2")]
    rational = buchberger(gens)
    modular = modular_certificate(gens)
    assert modular.leading_monomials == rational.leading_monomials
    # reduced mod p, the certificate is the rational basis mod p
    assert _sympy_modular_basis(modular.generators) == {
        _residues(g, P31) for g in rational.generators
    }


def test_modular_basis_refuses_normal_forms():
    gb = modular_certificate([X3("x^2"), X3("y^2"), X3("z^2")])
    assert projective_empty(gb)
    with pytest.raises(ValueError):
        normal_form(X3("x*y"), gb)
    with pytest.raises(ValueError):
        gb.contains(X3("x^2"))


def test_modular_input_with_the_prime_in_a_denominator(monkeypatch):
    runs = []
    real_loop = groebner._pair_loop
    monkeypatch.setattr(groebner, "_pair_loop", lambda *a: runs.append(1) or real_loop(*a))
    gens = [X3(f"x + {P31}*y").scale(Fraction(1, P31)), X3("y"), X3("z")]
    assert modular_certificate(gens) is None
    assert not runs


@given(polynomials(nvars=st.integers(1, 4), max_terms=5))
@settings(max_examples=60, deadline=None)
def test_residues_match_the_field_inverse(p):
    res = residues(p, P31)
    assert res == {m: r for m, r in _residues(p, P31).terms.items()}
    assert all(0 < r < P31 for r in res.values())


def test_residues_refuse_the_prime_in_a_denominator():
    assert residues(X3("x + 3*y").scale(Fraction(1, P31)), P31) is None
    assert residues(X3(f"{P31}*x + y"), P31) == {(0, 1, 0): 1}
    assert residues(Polynomial.zero(3), P31) == {}


def _substituted_inputs(gens, form):
    """The pair loop's inputs for the gens with x_{n-1} -> x_{n-1} - sum_i
    c_i x_i, by ``Polynomial.substitute``: where the form x_{n-1} + sum_i
    c_i x_i becomes x_{n-1}."""
    n = gens[0].nvars
    ell = linear_form([*(-c for c in form[:-1]), 1])
    pk = _packing(n)
    return [_to_int_terms(p, pk) for p in _sorted_inputs(g.substitute({n - 1: ell}) for g in gens)]


def _is_primitive(terms):
    return all(c for c in terms.values()) and math.gcd(*terms.values()) == 1


@given(st.lists(polynomials(nvars=st.just(3), max_terms=5), min_size=1, max_size=3),
       st.lists(st.integers(-4, 4), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_shear_matches_substitution(gens, coeffs):
    gens = [g for g in gens if not g.is_zero()]
    if gens:
        form = [*coeffs, 1]
        assert _moved_inputs(gens, form, _packing(3)) == _substituted_inputs(gens, form)


@given(polynomials(nvars=st.integers(1, 4), max_terms=5),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_shear_matches_substitution_in_any_arity(p, coeffs):
    if not p.is_zero():
        form = [*coeffs[: p.nvars - 1], 1]
        (sheared,) = _moved_inputs([p], form, _packing(p.nvars))
        assert [sheared] == _substituted_inputs([p], form)
        assert _is_primitive(sheared)


def _reference_inputs(gens, form):
    """The pair loop's inputs for the gens moved by the Polynomial-level
    reference mover, converted as ``buchberger`` converts its input."""
    pk = _packing(gens[0].nvars)
    return [_to_int_terms(p, pk) for p in _sorted_inputs(moved(gens, form, -1))]


@given(st.lists(homogeneous_polynomials(nvars=st.just(4), degrees=st.integers(1, 4)),
                min_size=1, max_size=4),
       st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_the_packed_mover_matches_the_polynomial_mover(gens, j, k):
    # the swap x_j <-> x_3 (x_3 itself is no move) and the shear l_k
    swap = [int(i == j) for i in range(4)]
    shear = [k ** (i + 1) for i in range(3)] + [1]
    for form in ([swap] if j < 3 else []) + [shear]:
        packed = _moved_inputs(gens, form, _packing(4))
        assert packed == _reference_inputs(gens, form)
        assert all(_is_primitive(terms) for terms in packed)


@pytest.mark.parametrize("f", [
    X3("x*y*z^3+x^5+y^5+x^4*z"), X3("x*y*z*(x+y+z)"), X3("(x-y-z)*(x-y)*(x-z)"),
    X3("x*z*(x+y+z)").scale(Fraction(1, 6)), f0_form(4, 3), f0_form(5, 3),
], ids=["twin5", "four-lines", "three-nodes", "lines-over-6", "f0-4-3", "f0-5-3"])
def test_the_packed_mover_matches_on_every_candidate_form(f):
    # the swaps and the first shears, the forms the saturation tries in turn
    gens = f.gradient()
    forms = itertools.islice(groebner._candidate_forms(gens, f.nvars), 2 * f.nvars)
    for form in (form for form in forms if any(form[:-1])):
        assert _moved_inputs(gens, form, _packing(f.nvars)) == _reference_inputs(gens, form)


def _to_sympy_str(p):
    from veroav.parsing import render_poly

    return render_poly(p, names=["x1", "x2", "x3"]).replace("^", "**")


def test_projective_empty_mod3_fuzz_alarm():
    """Ideals empty over Q must not have lifted points from F_3 hits: any
    projective F_3 point where all generators vanish mod 3 must fail over Q
    (a fuzz alarm, not an equivalence)."""
    import random

    rng = random.Random(11)
    basis2 = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    reps = [
        p for p in itertools.product((0, 1, 2), repeat=3)
        if any(p) and next(x for x in p if x) == 1
    ]
    for _ in range(40):
        gens = []
        for _ in range(3):
            terms = {m: rng.randint(-3, 3) for m in rng.sample(basis2, 3)}
            p = Polynomial(3, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        gb = buchberger(gens)
        if not projective_empty(gb):
            continue
        for pt in reps:
            if all(int(g.evaluate(pt)) % 3 == 0 for g in gens):
                # the lift cannot actually be a common zero over Q
                assert any(g.evaluate(pt) != 0 for g in gens)


def test_symmetric_sextic_critical_ideal():
    """The critical ideal of the symmetric degree-6 dual form, written in the
    elementary symmetric coordinates, contains the three reported elements
    and is zero-dimensional, so its only common zero is the origin."""
    s = lambda t: parse_poly(t, 3, names=["s1", "s2", "s3"])  # noqa: E731
    H = s(
        "6*s1^6 - 30*s1^4*s2 - 180*s1^3*s3 + 105*s1^2*s2^2"
        " + 510*s1*s2*s3 - 190*s2^3 - 165*s3^2"
    )
    gb = buchberger(H.gradient())
    reported = [
        s("s3^3"),
        s("100586*s2^3 - 404547*s3^2"),
        s("6*s1^3 - 17*s1*s2 + 11*s3"),
    ]
    for g in reported:
        assert normal_form(g, gb).is_zero()
    assert krull_dim_quotient(gb) == 0


@st.composite
def monomial_pairs(draw):
    n = draw(st.integers(1, 5))
    exponent = st.one_of(st.integers(0, 4), st.integers(0, MAX_EXPONENT // 2))
    return tuple(tuple(draw(exponent) for _ in range(n)) for _ in range(2))


@given(monomial_pairs())
@settings(max_examples=100, deadline=None)
def test_packing_agrees_with_tuple_monomials(pair):
    a, b = pair
    pk = _packing(len(a))
    xa, xb = pk.pack(a), pk.pack(b)
    assert pk.unpack(xa) == a and pk.unpack(xb) == b
    assert xa + xb == pk.pack(mono_mul(a, b))
    assert (xa < xb) == (grevlex_key(a) < grevlex_key(b))
    assert (xa == xb) == (a == b)
    for lm, m in ((a, b), (b, a), (a, mono_mul(a, b))):
        divides = mono_div(m, lm) is not None
        reducer = _IPoly({pk.pack(lm): 1}, pk)
        assert (_find_reducer(pk.pack(m), [reducer], pk) is reducer) == divides


@given(monomial_pairs())
@settings(max_examples=100, deadline=None)
def test_pair_heap_key_and_graded_shortcuts(pair):
    a, b = pair
    pk = _packing(len(a))
    lcm = pk.pack(tuple(map(max, a, b))) & pk.low  # E(lcm), as _gm_update makes it
    assert pk.lift(lcm) == (sum(pk.unpack(lcm)), pk.pack(pk.unpack(lcm)))
    xa, xb = pk.pack(a), pk.pack(b)
    # grevlex compares total degrees first
    assert sum(a) == sum(b) or (xa < xb) == (sum(a) < sum(b))
    # so the first and last term decide homogeneity
    terms = {xa: 1, xb: 2, pk.pack(mono_mul(a, b)): 3}
    degrees = {sum(pk.unpack(m)) for m in terms}
    expected = list(degrees) if len(degrees) == 1 else None
    assert _homogeneous_degrees([terms], pk) == expected


def test_packed_monomials_enumerate_in_iter_monomials_order():
    for n in range(0, 5):
        pk = _packing(n)
        for d in range(4):
            assert [pk.unpack(x) for x in pk.monomials(d)] == list(iter_monomials(n, d))
            assert pk.monomials(d) is pk.monomials(d)  # built once


def test_exponent_beyond_the_packed_field_raises(monkeypatch):
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    # on the way in
    with pytest.raises(DegreeCapExceeded, match="packed exponent limit"):
        buchberger([x ** (MAX_EXPONENT + 1) - y])
    with pytest.raises(DegreeCapExceeded, match="packed exponent limit"):
        normal_form(x ** (MAX_EXPONENT + 1), buchberger([y]))
    # a normal form: x^20000 y^20000 packs, but its degree is beyond the
    # limit, so it raises before reducing towards y^40000 modulo x - y
    gb = buchberger([x - y])
    reductions = []
    real_normal_form = groebner._normal_form_int
    monkeypatch.setattr(
        groebner, "_normal_form_int", lambda *a: reductions.append(1) or real_normal_form(*a)
    )
    with pytest.raises(DegreeCapExceeded, match="packed exponent limit"):
        normal_form(x**20000 * y**20000, gb)
    assert not reductions
    # the largest degree that fits is exact
    assert normal_form(x**MAX_EXPONENT, gb) == y**MAX_EXPONENT


def test_the_exponent_check_stays_where_a_field_can_overflow(monkeypatch):
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    # an input degree beyond MAX_EXPONENT keeps the check under grevlex:
    # reducing x^20000 y^20000 by x - y reaches y^40000
    with pytest.raises(DegreeCapExceeded, match="exceeds the packed exponent limit"):
        buchberger([x - y, x**20000 * y**20000])
    # (x - y, x^20000 y^20000, z) has no projective zero, but a GF(p) run
    # could overflow a field, so the certificate is None without one
    runs = []
    real_loop = groebner._pair_loop
    monkeypatch.setattr(groebner, "_pair_loop", lambda *a: runs.append(1) or real_loop(*a))
    assert modular_certificate([x - y, x**20000 * y**20000, z]) is None
    assert not runs
    monkeypatch.undo()
    # a degree cap beyond MAX_EXPONENT keeps it too: every input has a degree
    # below the limit, but the S-polynomial of the pair, of degree
    # 2^15 <= cap, is -y^32768
    monkeypatch.setenv("VA_DEGREE_CAP", str(MAX_EXPONENT + 1))
    with pytest.raises(DegreeCapExceeded, match="exceeds the packed exponent limit"):
        buchberger([x**16384 - y**16384, x * y**16384])
