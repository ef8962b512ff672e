"""Singular-point analysis: rational singular points, local Milnor and
Tjurina numbers by truncation stabilization, node detection, general linear
position, and the classification dispatch that predicts the avoidance
verdict from singularity data alone where a theorem applies.

The rational singular points are read off the one chart of J_f^sat that
holds them all, y_{n-1} = 1 in its moved coordinates (``groebner.last_chart``,
no Buchberger run); other zero sets take ``ratpoints``' chart scan.

A local colength dim A/(I + m^N) is the corank of the truncated Macaulay
matrix of I, whose rows are the multiples x^a g cut below degree N (the
dual-space view of Mourrain and of Dayton-Zeng).  The coranks are ranked
mod p until they repeat, and one exact rank confirms the repeated value;
a Groebner basis of I + m^N per order is only the fallback.  They are
memoized per local equation, which the nodes of ``f0_form`` share.  The
local Tjurina numbers of a complete report must sum to the global total
read off the saturated Jacobian ideal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from veroav.groebner import MACAULAY_CHECK_PRIME, buchberger, last_chart, quotient_degree, residues
from veroav.linalg import MatrixQ, rank, rank_residues
from veroav.milnor import (
    InternalDefectError,
    ScopeError,
    gb_jacobian_saturation,
    is_smooth,
    tjurina_total,
    validate_input,
)
from veroav.polynomial import Polynomial, iter_monomials, mono_mul
from veroav.ratpoints import affine_points

_LOCAL_TRUNCATION_CAP = 40


class ProjPoint(NamedTuple):
    """Point of P^{n-1}, normalized so the last nonzero coordinate is 1."""

    coords: tuple[Fraction, ...]

    @classmethod
    def normalize(cls, coords: Sequence) -> "ProjPoint":
        vals = [Fraction(c) for c in coords]
        nonzero = [i for i, v in enumerate(vals) if v]
        if not nonzero:
            raise ValueError("projective point needs a nonzero coordinate")
        scale = vals[nonzero[-1]]
        return cls(tuple(Fraction(v, scale) for v in vals))

    def chart(self) -> int:
        return max(i for i, v in enumerate(self.coords) if v)

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"


class LocalSingularity(NamedTuple):
    point: ProjPoint
    tjurina: int
    milnor: int
    is_node: bool
    quadratic_rank: int


class SingularReport(NamedTuple):
    points: tuple[LocalSingularity, ...]
    complete: bool
    total_tjurina_local: int


class NotSingularAtPointError(ValueError):
    pass


def singular_points_rational(f: Polynomial) -> tuple[list[ProjPoint], bool]:
    """Rational points of the singular locus V(J_f^sat), in the order of
    ``ratpoints.rational_projective_points``; the flag is False when an
    eliminant failed to split rationally (irrational points exist)."""
    validate_input(f)
    if is_smooth(f):
        return [], True
    sat = gb_jacobian_saturation(f)
    chart = last_chart(sat.basis)
    solutions, complete = affine_points(chart, chart.generators)
    points = [ProjPoint.normalize(sat.point(y)) for y in solutions]
    return sorted(points, key=lambda p: (-p.chart(), p.coords)), complete


def _dehomogenize_at(f: Polynomial, p: ProjPoint) -> tuple[Polynomial, int]:
    """Affine local equation at p: chart of the last nonzero coordinate,
    translated so p sits at the origin.  Returns (G, chart index); G lives
    in n-1 variables."""
    n = f.nvars
    c = p.chart()
    g = f.specialize({c: 1})
    shift = {
        i: Polynomial.variable(i, n) + Polynomial.constant(n, v)
        for i, v in enumerate(p.coords)
        if v and i != c
    }
    if shift:
        g = g.substitute(shift)
    keep = [i for i in range(n) if i != c]
    return g.drop_vars(keep), c


def _truncated_macaulay_rows(gens: list[list[tuple]], k: int, N: int) -> tuple[list[dict], int]:
    """Rows x^a g of the Macaulay matrix of (I + m^N)/m^N, each a map
    {column: coefficient} with every term of degree >= N dropped, and the
    number of columns, the monomials of degree < N.  ``gens`` are the
    generators' term lists; multiples lying wholly in m^N are left out."""
    monos = [(e, m) for e in range(N) for m in iter_monomials(k, e)]
    cols = {m: j for j, (_, m) in enumerate(monos)}
    rows = []
    for terms in gens:
        graded = [(sum(m), m, c) for m, c in terms]
        low = min(e for e, _, _ in graded)
        for e, a in monos:
            if e + low >= N:
                break
            rows.append({cols[mono_mul(a, m)]: c for t, m, c in graded if e + t < N})
    return rows, len(cols)


def _local_colength(gens: list[Polynomial], k: int) -> int:
    """dim_k A/(I + m^N) stabilized over N: the colength of I at the origin
    when the origin is an isolated point of V(I).

    Each dimension is the corank of the truncated Macaulay matrix, ranked
    mod p; the first N whose corank c repeats that of N-1 stops the loop.
    A corank mod p is never below the corank over Q, which never decreases
    in N, so one exact rank at N-1 equal to c makes both exact coranks c,
    and then m^(N-1) lies in I locally (Nakayama): the colength is c.  A
    denominator divisible by p, a failed confirmation or no repeat below
    the cap leaves the answer to the Groebner loop."""
    p = MACAULAY_CHECK_PRIME
    exact = [list(g.terms.items()) for g in gens if g.terms]
    modular = [residues(g, p) for g in gens]
    if None not in modular:
        modular = [list(terms.items()) for terms in modular if terms]
        prev = None
        for N in range(2, _LOCAL_TRUNCATION_CAP + 1):
            rows, ncols = _truncated_macaulay_rows(modular, k, N)
            corank = ncols - rank_residues(rows, p)
            if corank == prev:
                rows, ncols = _truncated_macaulay_rows(exact, k, N - 1)
                dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
                if ncols - rank(MatrixQ.from_rows(dense)) == corank:
                    return corank
                break
            prev = corank
    return _local_colength_groebner(gens, k)


def _local_colength_groebner(gens: list[Polynomial], k: int) -> int:
    """The same stabilized colength from a Groebner basis of I + m^N for
    each N over Q."""
    prev = None
    for N in range(2, _LOCAL_TRUNCATION_CAP + 1):
        trunc = list(gens) + [
            Polynomial.monomial(m) for m in iter_monomials(k, N)
        ]
        dim = quotient_degree(buchberger(trunc))
        if dim == prev:
            return dim
        prev = dim
    raise ScopeError(
        f"local colength did not stabilize below truncation order {_LOCAL_TRUNCATION_CAP}; "
        "the point is not an isolated zero"
    )


def local_invariants(f: Polynomial, p: ProjPoint) -> LocalSingularity:
    """Local data at a singular point: Tjurina and Milnor numbers by
    truncation stabilization, quadratic rank, and the node flag (the two
    node characterizations are cross-checked)."""
    G, _ = _dehomogenize_at(f, p)
    tjurina, milnor, qrank = _local_numbers(G)
    return LocalSingularity(p, tjurina, milnor, tjurina == 1, qrank)


@lru_cache(maxsize=256)
def _local_numbers(G: Polynomial) -> tuple[int, int, int]:
    """(Tjurina number, Milnor number, quadratic rank) of the local equation
    G at the origin.  They depend on G alone, so points with the same local
    equation, such as the n nodes of ``f0_form``, share one computation."""
    k = G.nvars
    origin = (0,) * k
    if G.coeff(origin) != 0:
        raise NotSingularAtPointError("point does not lie on the hypersurface")
    grads = G.gradient()
    if any(g.coeff(origin) for g in grads):
        raise NotSingularAtPointError("point is not singular (linear part nonzero)")
    hessian = [[g.partial(j).coeff(origin) for j in range(k)] for g in grads]
    qrank = rank(MatrixQ.from_rows(hessian))
    tjurina = _local_colength([G] + grads, k)
    milnor = _local_colength(grads, k)
    if (tjurina == 1) != (qrank == k):
        raise InternalDefectError("node characterizations disagree (tjurina vs quadratic rank)")
    return tjurina, milnor, qrank


def singular_report(f: Polynomial) -> SingularReport:
    """Local invariants at every rational singular point.  A complete report
    is cross-checked against the global route: the local Tjurina numbers
    must sum to the degree of the singular scheme."""
    points, complete = singular_points_rational(f)
    locals_ = tuple(local_invariants(f, p) for p in points)
    total = sum(s.tjurina for s in locals_)
    if complete and total != (degree := tjurina_total(f)):
        raise InternalDefectError(
            f"local Tjurina numbers sum to {total}, the singular scheme has degree {degree}"
        )
    return SingularReport(locals_, complete, total)


def general_linear_position(points: Sequence[ProjPoint]) -> tuple[bool, int]:
    """(independent, defect): r points impose independent linear conditions
    iff the coordinate matrix has rank r; the defect is |Gamma| - rank."""
    if not points:
        raise ValueError("needs a nonempty point list")
    M = MatrixQ.from_rows([list(p.coords) for p in points])
    r = rank(M)
    count = len(points)
    n = len(points[0].coords)
    return r == count, count - n + (n - r)


class ClassifyRecord(NamedTuple):
    applicable: tuple[str, ...]
    predicted_va: bool | None
    reason: str


def classify(f: Polynomial, report: SingularReport | None = None) -> ClassifyRecord:
    """Predict the avoidance verdict from singular data where a theorem
    applies: (nodal-cubic) reduced singular plane cubics are avoiding iff
    nodal; (n-points) exactly n singular points are avoiding iff n nodes in
    general position; (few-nodes) r < n independent nodes are avoiding iff
    the power map on their linear system is base-point free.  The few-nodes
    prediction shares its premise with condition (II): every partial
    vanishes at a node p, so l^(T-1) in J_f already gives <a, p> = 0, and
    its base locus is the condition-(II) zero set, not an independent check."""
    hi = validate_input(f)
    if report is None:
        report = singular_report(f)
    if not report.points and report.complete:
        return ClassifyRecord((), None, "smooth: no singular classification applies")
    if not report.complete:
        return ClassifyRecord((), None, "no prediction: irrational singular points")
    predictions: list[tuple[str, bool]] = []
    n = hi.n
    all_nodes = all(s.is_node for s in report.points)
    pts = [s.point for s in report.points]
    if hi.n == 3 and hi.d == 3:
        predictions.append(("nodal-cubic", all_nodes))
    if len(pts) == n:
        independent, _ = general_linear_position(pts)
        predictions.append(("n-points", all_nodes and independent))
    elif 0 < len(pts) < n and all_nodes:
        independent, _ = general_linear_position(pts)
        if independent:
            from veroav.veronese import phi_base_locus

            base = phi_base_locus(f, [p.coords for p in pts])
            predictions.append(("few-nodes", base.empty))
    if not predictions:
        return ClassifyRecord((), None, "outside classified range")
    values = {v for _, v in predictions}
    if len(values) > 1:
        raise InternalDefectError("applicable classifications disagree")
    return ClassifyRecord(
        tuple(name for name, _ in predictions),
        values.pop(),
        "predicted from singular data",
    )
