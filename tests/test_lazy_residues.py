"""Both GF(p) kernels reduce lazily, an entry mod p only when it is read.
Each is compared here with a reference that reduces on every update and
shares no code with it: the heap normal form ``groebner._normal_form_mod``
with a plain division loop on exponent tuples, and ``linalg.rank_residues``
with a dense Gaussian elimination."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from veroav.groebner import _IPoly, _normal_form_mod, _packing
from veroav.linalg import rank_residues

# small primes make cancellations to zero common
PRIMES = (2, 3, 7, 2**31 - 1)


def _grevlex(m):
    return sum(m), tuple(-e for e in reversed(m))


def _monomials(n, d):
    return [
        tuple(c.count(i) for i in range(n))
        for c in itertools.combinations_with_replacement(range(n), d)
    ]


def _reference_normal_form(f, reducers, p):
    """Divide f by the reducers, leading term first, each by the first
    reducer whose leading monomial divides it, every coefficient reduced
    mod p as soon as it changes."""
    f = {m: c % p for m, c in f.items() if c % p}
    out = {}
    while f:
        m = max(f, key=_grevlex)
        c = f.pop(m)
        for g in reducers:
            lm = max(g, key=_grevlex)
            if all(a >= b for a, b in zip(m, lm)):
                break
        else:
            out[m] = c
            continue
        q = c * pow(g[lm], -1, p) % p
        for t, ct in g.items():
            if t != lm:
                key = tuple(a + b - e for a, b, e in zip(t, m, lm))
                v = (f.get(key, 0) - q * ct) % p
                if v:
                    f[key] = v
                else:
                    f.pop(key, None)
    return out


@st.composite
def division_problems(draw):
    """A prime, a homogeneous degree-D form with coefficients of any size and
    sign, and homogeneous reducers of degrees 1..D with residue
    coefficients, in n = 2..4 variables."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(2, 4))
    D = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    monos = _monomials(n, D)
    f = {m: rng.randint(-3 * p, 3 * p) for m in rng.sample(monos, rng.randint(1, len(monos)))}
    reducers = []
    for _ in range(draw(st.integers(1, 4))):
        terms = _monomials(n, rng.randint(1, D))
        chosen = rng.sample(terms, rng.randint(1, min(len(terms), 6)))
        reducers.append({m: rng.randrange(1, p) for m in chosen})
    return p, n, f, reducers


@given(division_problems())
@settings(max_examples=200, deadline=None)
def test_lazy_normal_form_matches_an_eager_reference(problem):
    p, n, f, reducers = problem
    pk = _packing(n)
    packed = [_IPoly({pk.pack(m): c for m, c in g.items()}, pk, p) for g in reducers]
    out = _normal_form_mod({pk.pack(m): c for m, c in f.items()}, packed, pk, p, {})
    assert {pk.unpack(x): c for x, c in out.items()} == _reference_normal_form(f, reducers, p)


def _dense_rank(rows, ncols, p):
    """Rank mod p by Gaussian elimination on dense lists."""
    m = [[row.get(j, 0) % p for j in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                m[i] = [(x - m[i][c] * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def sparse_matrices(draw):
    """Sparse rows {column: entry}, entries anywhere in [-3p, 3p], and rows
    dependent on them mod p, inserted anywhere: a combination of up to two
    of them plus multiples of p (multiples of p alone when there are none),
    so that some row cancels to zero mod p."""
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entry():
        return rng.randint(-3 * p, 3 * p)

    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cols = rng.sample(range(ncols), rng.randint(0, ncols))
        rows.append({j: entry() for j in cols})
    for _ in range(draw(st.integers(0, 4))):
        row = {j: p * rng.randint(-2, 2) for j in rng.sample(range(ncols), rng.randint(0, ncols))}
        for r in rng.sample(rows, min(len(rows), 2)):
            a = entry()
            for j, v in r.items():
                row[j] = row.get(j, 0) + a * v
        rows.insert(rng.randint(0, len(rows)), row)
    return p, ncols, rows


@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_lazy_rank_matches_dense_elimination(problem):
    p, ncols, rows = problem
    copies = [dict(row) for row in rows]
    assert rank_residues(rows, p) == _dense_rank(rows, ncols, p)
    assert rows == copies  # the input rows are left as they were


def test_rows_that_cancel_mod_p_add_no_rank():
    p = 7
    rows = [{0: 1, 1: 2}, {0: 8, 1: 9}, {0: 14, 2: -21}, {1: 3, 2: 5}, {0: 1, 1: 5, 2: 5}]
    # row 1 is row 0 mod 7, row 2 is zero mod 7, row 4 is row 0 + row 3
    assert rank_residues(rows, p) == _dense_rank(rows, 3, p) == 2
