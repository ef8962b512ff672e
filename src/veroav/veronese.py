"""The degree-(T-1) Veronese avoidance machinery and the top-level verdict.

Condition (II) is decided in the n coefficient parameters of a symbolic
linear form: the normal-form coefficients of l^(T-1) on the standard
monomials of the Jacobian Groebner basis are n forms whose common projective
zero locus is exactly the set of offending linear forms.  Their coefficients
are the integer rows of the degree-(T-1) coordinate table of that basis, one
per monomial x^beta, times multinomials: the forms are kept as these integer
numerators, the normal-form coefficients times the table's one common
denominator, which changes neither their zeros nor their ideal, so no
Fraction stands between the table and the GF(p) certificate.  The Lefschetz
matrix of x -> l^(T-2) x is read off the same table.  Emptiness is
certified by a Groebner basis with a pure-power leading monomial in every
parameter, from ``groebner.decide_emptiness`` (over GF(p) first, over Q
when that fails).
Non-emptiness is decided over Q and witnessed, when a rational witness
exists, by the first exact rational zero of the forms.  The witness is
checked once, by the ``witness_soundness`` cross-check, an exact membership
test that takes the heap normal form and so shares no code with the table.

The criterion for r < n nodes reads the same decision on the same forms,
built once per (f, T-1): every partial of f vanishes at a node p, so
l^(T-1) in J_f already forces l(p) = 0.  The base locus of l -> l^(T-1) on
the linear forms through the nodes is therefore the condition (II) zero set
itself, empty with the condition (II) certificate exactly when condition
(II) holds, and otherwise made of its rational zeros.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from veroav.groebner import (
    MACAULAY_CHECK_PRIME,
    CoordinateTable,
    DegreeCapExceeded,
    GroebnerBasis,
    coordinate_table,
    decide_emptiness,
    projective_empty,
    residues,
)
from veroav.linalg import MatrixQ, determinant, kernel_basis, rank, rank_residues
from veroav.milnor import (
    ConditionIReport,
    HypersurfaceInput,
    InternalDefectError,
    condition_I,
    gb_jacobian,
    is_smooth,
    jacobian_degree_matrix,
    jacobian_module_dims,
    jacobian_module_series,
    coincidence_threshold,
    defect1,
    smooth_numerator,
    validate_input,
)
from veroav.polynomial import Polynomial, iter_monomials, mono_mul
from veroav.polyring import graded_basis, linear_form, power_linear_form_symbolic
from veroav.ratpoints import rational_projective_points
from veroav.singlocus import ProjPoint


# ---------------------------------------------------------------------------
# condition (II)


class ConditionIIReport(NamedTuple):
    evaluated: bool
    empty: bool | None
    witness: tuple[Fraction, ...] | None
    certificate: GroebnerBasis | None
    note: str = ""


class ConditionIIPreconditionError(ValueError):
    """Condition (II) is only defined once condition (I) holds."""


@lru_cache(maxsize=256)
def _power_quotient_forms(f: Polynomial, m: int) -> tuple[Polynomial, ...]:
    """Quotient coordinates of the symbolic power (a_1 x_1 + ... + a_n x_n)^m
    as polynomials in the coefficient parameters a_1..a_n, times the
    coordinate table's common denominator: each product of powers is a
    monomial x^beta, whose integer row of the table is read and weighted by
    its multinomial.  Only the forms' common zeros and their ideal are
    used, and the one scale leaves both alone, so no coefficient is divided.
    Built once per (f, m), so that ``phi_base_locus`` reuses the forms of
    ``condition_II``."""
    n = f.nvars
    table = coordinate_table(gb_jacobian(f), m)
    rows = [(beta, mult, table.rows[beta]) for beta, mult in power_linear_form_symbolic(n, m)]
    return tuple(
        Polynomial._trusted(n, {beta: mult * row[i] for beta, mult, row in rows if row[i]})
        for i in range(len(table.basis))
    )


def _projective_candidates(n: int) -> list[tuple[int, ...]]:
    """Deterministic finite search order: coordinate directions last-variable
    first, then the remaining sign patterns of 0/1 vectors."""
    candidates = []
    for i in range(n - 1, -1, -1):
        candidates.append(tuple(1 if j == i else 0 for j in range(n)))
    seen = set(candidates)
    for pattern in itertools.product((0, 1, -1), repeat=n):
        if not any(pattern):
            continue
        first = next(x for x in pattern if x)
        if first < 0:
            continue  # projective duplicate of its negative
        if pattern not in seen:
            seen.add(pattern)
            candidates.append(pattern)
    return candidates


def _verify_witness(f: Polynomial, m: int, coeffs: Sequence[Fraction]) -> bool:
    ell = linear_form([Fraction(c) for c in coeffs])
    if ell.is_zero():
        return False
    return gb_jacobian(f).contains(ell**m)


def _rational_zeros(forms: Sequence[Polynomial], first_only: bool) -> list[tuple[Fraction, ...]]:
    """The distinct exact rational zeros, normalized, of forms in the
    coefficients a_1..a_n of a linear form that have a common projective
    zero: the condition (II) forms, whose zero set is also the base locus of
    ``phi_base_locus``.  The finite candidate list comes first, the rational
    points of the zero set only if no candidate is a zero.  Nothing here
    checks a zero against J_f; the ``witness_soundness`` cross-check tests
    condition (II)'s witness, by the heap normal form."""
    found: list[tuple[Fraction, ...]] = []

    def collect(points) -> None:
        for pt in points:
            ell = ProjPoint.normalize(pt).coords
            if ell not in found:
                found.append(ell)
                if first_only:
                    return

    k = forms[0].nvars
    collect(c for c in _projective_candidates(k) if all(g.evaluate(c) == 0 for g in forms))
    if not found:
        collect(rational_projective_points(forms)[0])
    return found


@lru_cache(maxsize=256)
def _condition_II_decision(f: Polynomial) -> tuple[GroebnerBasis, bool]:
    """Whether the condition (II) forms of f have no common zero, with the
    basis that decides it (``groebner.decide_emptiness``): memoized per f,
    so that ``condition_II`` and ``phi_base_locus`` share one decision."""
    return decide_emptiness(_power_quotient_forms(f, validate_input(f).T - 1))


def condition_II(f: Polynomial) -> ConditionIIReport:
    """Veronese-avoidance condition: no nonzero linear form l has
    l^(T-1) in (J_f)_{T-1}: the emptiness decision, then, when the forms
    have zeros, the search for a rational witness."""
    hi = validate_input(f)
    cond1 = condition_I(f)
    if not cond1.holds:
        raise ConditionIIPreconditionError(
            "condition (II) is evaluated only when condition (I) holds"
        )
    certificate, empty = _condition_II_decision(f)
    if empty:
        return ConditionIIReport(True, True, None, certificate)
    witnesses = _rational_zeros(_power_quotient_forms(f, hi.T - 1), first_only=True)
    if witnesses:
        return ConditionIIReport(True, False, witnesses[0], certificate)
    return ConditionIIReport(
        True, False, None, certificate, note="nonempty, no rational witness found"
    )


# ---------------------------------------------------------------------------
# the verdict


class VACertificate(NamedTuple):
    n: int
    d: int
    T: int
    reduced_scope: bool
    condition_i: ConditionIReport
    condition_ii: ConditionIIReport
    verdict: bool
    cross_checks: tuple[tuple[str, bool], ...]
    timings_ms: dict[str, float]


@contextmanager
def _stage(timings: dict[str, float], key: str, label: str):
    """Time one stage of ``check_va`` and name it in a degree-cap error."""
    t0 = time.perf_counter()
    try:
        yield
    except DegreeCapExceeded as exc:
        raise DegreeCapExceeded(f"{label}: {exc}") from exc
    timings[key] = (time.perf_counter() - t0) * 1000


def check_va(f: Polynomial) -> VACertificate:
    """Full Veronese-avoidance verdict with cross-checks."""
    timings: dict[str, float] = {}
    with _stage(timings, "validate", "validate"):
        hi = validate_input(f)

    with _stage(timings, "condition_I", "condition (I)"):
        cond1 = condition_I(f)

    if cond1.holds:
        with _stage(timings, "condition_II", "condition (II)"):
            cond2 = condition_II(f)
    else:
        cond2 = ConditionIIReport(False, None, None, None, note="not evaluated")

    with _stage(timings, "cross_checks", "cross-checks"):
        checks = list(_cross_checks(f, hi, cond1, cond2))

    verdict = cond1.holds and cond2.empty is True
    return VACertificate(
        hi.n,
        hi.d,
        hi.T,
        True,
        cond1,
        cond2,
        verdict,
        tuple(checks),
        timings,
    )


def _cross_checks(f, hi: HypersurfaceInput, cond1, cond2):
    smooth = is_smooth(f)
    yield (
        "rank_hilbert_agreement",
        _macaulay_rank_agrees(f, hi.T - 1, cond1.dim_milnor_top_minus_one),
    )
    # condition (I) <=> zero degree-one defect <=> coincidence through T-1.
    # The threshold is T-1, not T: the degree-zero defect tau - 1 shifts the
    # Milnor Hilbert function away from the smooth reference at degree T
    # whenever tau >= 2, while degrees <= T-1 are governed by the degree-one
    # defect alone.
    d1 = defect1(f)
    ct = coincidence_threshold(f)
    yield (
        "threeway_equivalence",
        (cond1.holds == (d1 == 0)) and (cond1.holds == (ct >= hi.T - 1)),
    )
    if smooth:
        profile_ok = gb_jacobian(f).hilbert_series.numerator == smooth_numerator(hi.n, hi.d)
        yield ("smooth_hilbert_profile", profile_ok)
    else:
        dims = jacobian_module_series(f, hi.T)
        yield ("jacobian_module_self_duality", dims == dims[::-1])
    if cond2.evaluated and cond2.witness is not None:
        yield ("witness_soundness", _verify_witness(f, hi.T - 1, cond2.witness))
    if cond2.evaluated and cond2.empty:
        yield ("emptiness_certificate", projective_empty(cond2.certificate))


def _macaulay_rank_agrees(f: Polynomial, m: int, dim_m: int) -> bool:
    """Macaulay route to dim (M_f)_m, independent of the Groebner basis: the
    rank of the degree-m multiplication-by-partials matrix modulo a fixed
    prime, built as residues straight from the partials' terms and
    recomputed exactly only on disagreement, since a rank mod p can only
    drop and a bad prime must not read as a defect.  So agreement mod p shows
    only dim (M_f)_m <= dim_m: a dim_m overstated by a bad prime's rank drop
    passes."""
    p = MACAULAY_CHECK_PRIME
    index = {mono: j for j, mono in enumerate(graded_basis(f.nvars, m))}
    expected = len(index) - dim_m
    grads = [residues(g, p) for g in f.gradient()]
    if None not in grads:
        rows = [
            {index[mono_mul(mono, t)]: c for t, c in g.items()}
            for mono in iter_monomials(f.nvars, m - f.homogeneous_degree() + 1)
            for g in grads
        ]
        if rank_residues(rows, p) == expected:
            return True
    return rank(jacobian_degree_matrix(f, m)) == expected


# ---------------------------------------------------------------------------
# the base-locus criterion for r < n nodes


class DependentConditionsError(ValueError):
    pass


class PhiBaseLocusReport(NamedTuple):
    vanishing_linear_forms: tuple[tuple[Fraction, ...], ...]  # basis of I(Gamma)_1
    dim_linear_system: int
    dim_jacobian_module_top: int
    empty: bool
    base_points: tuple[tuple[Fraction, ...], ...]  # offending linear forms
    certificate: GroebnerBasis


def phi_base_locus(f: Polynomial, points: Sequence[Sequence[Fraction]]) -> PhiBaseLocusReport:
    """Base locus of [l] -> [l^(T-1) mod (J_f)_{T-1}] restricted to the
    linear forms vanishing on the given singular points.

    Every partial of f vanishes at a singular point p, so l^(T-1) in
    (J_f)_{T-1} already forces l(p) = 0: the base locus is the condition
    (II) zero set itself.  Its certificate is condition (II)'s basis in the
    n coefficient parameters, and its base points are the rational zeros of
    the condition (II) forms, linear forms through the points.  A point at
    which some partial of f does not vanish is refused."""
    hi = validate_input(f)
    n, m = hi.n, hi.T - 1
    grads = f.gradient()
    if any(g.evaluate(p) for p in points for g in grads):
        raise ValueError("every point must be a singular point of f")
    r = len(points)
    if r == 0 or r >= n:
        raise ValueError("requires 0 < r < n singular points")
    point_matrix = MatrixQ.from_rows([list(p) for p in points])
    if rank(point_matrix) != r:
        raise DependentConditionsError(
            "singular points do not impose independent linear conditions"
        )
    i1_basis = kernel_basis(point_matrix)  # coefficient vectors of I(Gamma)_1
    k = len(i1_basis)
    dim_n_top = jacobian_module_dims(f, m)
    if k != n - r or dim_n_top != n - r:
        raise InternalDefectError(
            f"expected dim I_1 = dim N(f)_{m} = {n - r}, got {k} and {dim_n_top}"
        )
    cond1 = condition_I(f)
    if not cond1.holds:
        raise ConditionIIPreconditionError("gradient-generic condition fails")
    certificate, empty = _condition_II_decision(f)
    base_points = [] if empty else _rational_zeros(_power_quotient_forms(f, m), first_only=False)
    return PhiBaseLocusReport(
        tuple(i1_basis), k, dim_n_top, empty, tuple(base_points), certificate
    )


# ---------------------------------------------------------------------------
# the Lefschetz rank check


class LefschetzReport(NamedTuple):
    seed: int
    trials: int
    coeff_bound: int
    success: bool
    witness: tuple[int, ...] | None
    determinants: tuple[Fraction, ...]


def lefschetz_degree_one(
    f: Polynomial, seed: int = 0, trials: int = 5, coeff_bound: int = 50
) -> LefschetzReport:
    """Seeded search for a linear form l with l^(T-2): (M_f)_1 -> (M_f)_{T-1}
    an isomorphism; each trial draws integer coefficients independently (the
    generator is split per trial index, so results are order-independent).
    ``trials`` and ``coeff_bound`` must be at least 1."""
    for name, value in (("trials", trials), ("coeff_bound", coeff_bound)):
        if value < 1:
            raise ValueError(f"{name} must be an integer >= 1, not {value}")
    hi = validate_input(f)
    cond1 = condition_I(f)
    if not cond1.holds:
        raise ConditionIIPreconditionError(
            "the Lefschetz rank check needs both spaces of dimension n"
        )
    n = hi.n
    table = coordinate_table(gb_jacobian(f), hi.T - 1)
    dets: list[Fraction] = []
    witness = None
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        while True:
            coeffs = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(n))
            if any(coeffs):
                break
        M = _lefschetz_matrix(table, coeffs)
        det = determinant(M)
        dets.append(det)
        if det != 0:
            witness = coeffs
            break
    return LefschetzReport(seed, trials, coeff_bound, witness is not None, witness, tuple(dets))


def _lefschetz_matrix(table: CoordinateTable, coeffs: Sequence[int]) -> MatrixQ:
    """Matrix of multiplication by l^(m-1): (M_f)_1 -> (M_f)_m, l = sum
    coeffs_j x_j, from the degree-m coordinate table.  Column j holds the
    coordinates of x_j l^(m-1), the sum over |gamma| = m-1 of mult_gamma
    c^gamma x^(gamma + e_j); it is the a_j-derivative of the condition (II)
    forms at c, over m times the table's denominator."""
    n = len(coeffs)
    cols = [[0] * len(table.basis) for _ in range(n)]
    for gamma, mult in power_linear_form_symbolic(n, table.degree - 1):
        w = mult * math.prod(c**e for c, e in zip(coeffs, gamma))
        if not w:
            continue
        for j, col in enumerate(cols):
            row = table.rows[gamma[:j] + (gamma[j] + 1,) + gamma[j + 1 :]]
            for i, v in enumerate(row):
                col[i] += w * v
    den = table.denominator
    return MatrixQ.from_rows(
        [[Fraction(col[i], den) for col in cols] for i in range(len(table.basis))]
    )


# ---------------------------------------------------------------------------
# the distinguished nodal forms and dimension formulas


def f0_form(n: int, d: int) -> Polynomial:
    """The auxiliary form with the n coordinate points as its only (nodal)
    singularities: sum of squarefree cubic monomials for d = 3, else
    sum over i < j of x_i^(d-2) x_j^2 + x_i^2 x_j^(d-2)."""
    if n < 3 or d < 3:
        raise ValueError("requires n >= 3 and d >= 3")
    total = Polynomial.zero(n)
    if d == 3:
        for combo in itertools.combinations(range(n), 3):
            mono = tuple(1 if i in combo else 0 for i in range(n))
            total = total + Polynomial.monomial(mono)
    else:
        for i, j in itertools.combinations(range(n), 2):
            a = tuple((d - 2) if t == i else (2 if t == j else 0) for t in range(n))
            b = tuple(2 if t == i else ((d - 2) if t == j else 0) for t in range(n))
            total = total + Polynomial.monomial(a) + Polynomial.monomial(b)
    return total


def stratum_dims(n: int, d: int) -> dict[str, int]:
    """Dimension bookkeeping for the space of degree-d hypersurfaces:
    N_d = C(n+d-1, d) - 1, the nodal stratum N_d - n, and the linear system
    through n general double points N_d - n^2."""
    if n < 3 or d < 3:
        raise ValueError("requires n >= 3 and d >= 3")
    nd = math.comb(n + d - 1, d) - 1
    return {"N_d": nd, "nodal_dim": nd - n, "linear_system_dim": nd - n * n}
