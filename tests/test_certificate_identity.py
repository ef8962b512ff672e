"""The condition-(II) certificates of the built-in corpus and of the benchmark
instances, term for term.

``tests/data/corpus_condition_II_certificates.json`` holds, per corpus
entry, the certificate's prime (0 over Q) and packed terms: one list of
[packed monomial, coefficient] pairs per generator.  It pins the
certificates beyond the JSON output, which prints only their size.
``tests/data/workload_condition_II_certificates.json`` does the same for the
12 ``cond2-heavy`` instances at seed 0 and the 7 ``singular-high-degree``
instances of ``perfbench``, whose text is rebuilt here by the same seeded
generator.  Regenerate both with
``PYTHONPATH=src python tests/test_certificate_identity.py``.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from veroav.corpus import builtin_corpus
from veroav.parsing import parse_poly
from veroav.veronese import check_va

DATA = Path(__file__).resolve().parent / "data"
RECORD = DATA / "corpus_condition_II_certificates.json"
WORKLOAD_RECORD = DATA / "workload_condition_II_certificates.json"


def _certificate(f) -> dict | None:
    gb = check_va(f).condition_ii.certificate
    return None if gb is None else {
        "modulus": gb.modulus,
        "packed": [[[m, c] for m, c in sorted(terms.items())] for terms in gb.packed],
    }


def certificate_record() -> dict:
    return {e.name: _certificate(parse_poly(e.source, e.n)) for e in builtin_corpus()}


# ---------------------------------------------------------------------------
# the benchmark instances: dense seeded forms, the quintic twin's orbit, and
# the coordinate-node forms with two singular twins


def _render(n: int, terms) -> str:
    parts = []
    for c, mono in terms:
        if c:
            factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e]
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


def _dense_text(n: int, d: int, rng: random.Random) -> str:
    """Integer coefficients in [-9, 9] on every degree-d monomial, the
    monomials in descending lexicographic order."""
    combos = itertools.combinations_with_replacement(range(n), d)
    monos = sorted((tuple(c.count(i) for i in range(n)) for c in combos), reverse=True)
    return _render(n, [(rng.randint(-9, 9), m) for m in monos])


def _f0_text(n: int, d: int) -> str:
    if d == 3:
        combos = itertools.combinations(range(n), 3)
        terms = [(1, tuple(int(i in c) for i in range(n))) for c in combos]
    else:
        terms = [
            (1, tuple(a if t == i else b if t == j else 0 for t in range(n)))
            for i, j in itertools.combinations(range(n), 2)
            for a, b in ((d - 2, 2), (2, d - 2))
        ]
    return _render(n, terms)


def workload_instances() -> dict[str, tuple[str, int]]:
    """Name -> (text, number of variables) of the 12 ``cond2-heavy``
    instances at seed 0 and the 7 ``singular-high-degree`` instances."""
    rng = random.Random(0)
    out = {}
    for n, d, count in ((3, 4, 5), (4, 3, 3)):
        for k in range(count):
            out[f"dense-{n}-{d}-{k}"] = (_dense_text(n, d, rng), n)
    for perm in ("xyz", "xzy", "yxz", "yzx"):
        out[f"twin5-{perm}"] = ("x*y*z^3+x^5+y^5+x^4*z".translate(str.maketrans("xyz", perm)), 3)
    for n, d in ((4, 3), (5, 3), (4, 4), (3, 5), (3, 6)):
        out[f"f0-{n}-{d}"] = (_f0_text(n, d), n)
    for text in ("x*y*z^4+x^6+y^6", "x*y*z^5+x^7+y^7+x^6*z"):
        out[text] = (text, 3)
    return out


def workload_record() -> dict:
    return {
        name: _certificate(parse_poly(text, n)) for name, (text, n) in workload_instances().items()
    }


def test_condition_II_certificates_match_the_record():
    assert certificate_record() == json.loads(RECORD.read_text())


@pytest.fixture(scope="module")
def recorded_workload():
    return json.loads(WORKLOAD_RECORD.read_text())


def test_the_workload_record_covers_nineteen_instances(recorded_workload):
    assert list(recorded_workload) == list(workload_instances())
    assert len(recorded_workload) == 19


@pytest.mark.parametrize("name", list(workload_instances()))
def test_workload_certificate_matches_the_record(name, recorded_workload):
    text, n = workload_instances()[name]
    assert _certificate(parse_poly(text, n)) == recorded_workload[name]


if __name__ == "__main__":
    RECORD.write_text(json.dumps(certificate_record(), indent=0) + "\n")
    WORKLOAD_RECORD.write_text(json.dumps(workload_record(), indent=0) + "\n")
