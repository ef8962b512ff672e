"""Built-in corpus of worked examples with expected results, a line-oriented
corpus file format, and the runner that checks every expectation.

Each expectation carries a provenance tag: "reference" for values worked out
in the literature on these families, "derived" for values recomputed here by
an independent route, "trivial" for definitional identities.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from veroav.apolar import inverse_system, smoothness
from veroav.milnor import ScopeError, tjurina_total
from veroav.parsing import parse_poly, render_witness
from veroav.singlocus import classify, general_linear_position, singular_report
from veroav.veronese import check_va, lefschetz_degree_one


class CorpusEntry(NamedTuple):
    name: str
    n: int
    source: str
    expect_va: bool
    expect_cond1_dim: int | None = None
    expect_empty: bool | None = None
    expect_witness: str | None = None
    expect_singular_count: int | None = None
    expect_all_nodes: bool | None = None
    expect_independent: bool | None = None
    expect_tjurina_total: int | None = None
    expect_inverse_system: str | None = None
    provenance: str = "reference"
    note: str = ""


def _hesse(lam: int) -> str:
    return f"x^3+y^3+z^3-3*({lam})*x*y*z"


_SYM_QUARTIC_F = (
    "6*(y1+y2+y3)^6"
    " - 30*(y1+y2+y3)^4*(y1*y2+y1*y3+y2*y3)"
    " - 180*(y1+y2+y3)^3*(y1*y2*y3)"
    " + 105*(y1+y2+y3)^2*(y1*y2+y1*y3+y2*y3)^2"
    " + 510*(y1+y2+y3)*(y1*y2+y1*y3+y2*y3)*(y1*y2*y3)"
    " - 190*(y1*y2+y1*y3+y2*y3)^3"
    " - 165*(y1*y2*y3)^2"
)


def builtin_corpus() -> list[CorpusEntry]:
    entries = [
        CorpusEntry(
            "fermat-3-3", 3, "x^3+y^3+z^3", False,
            expect_cond1_dim=3, expect_empty=False, expect_witness="z",
            expect_singular_count=0, expect_inverse_system="y1*y2*y3",
            note="diagonal cubic: gradient-generic but every coordinate power lies in the gradient ideal",
        ),
        CorpusEntry(
            "fermat-3-4", 3, "x^4+y^4+z^4", False,
            expect_cond1_dim=3, expect_empty=False, expect_witness="z",
            expect_singular_count=0, expect_inverse_system="y1^2*y2^2*y3^2",
            note="diagonal quartic",
        ),
        CorpusEntry(
            "fermat-4-3", 4, "x^3+y^3+z^3+w^3", False,
            expect_cond1_dim=4, expect_empty=False, expect_witness="w",
            expect_singular_count=0, expect_inverse_system="y1*y2*y3*y4",
            note="diagonal cubic surface",
        ),
        CorpusEntry(
            "one-node-cubic", 3, "x*y*z + x^3 + y^3", True,
            expect_cond1_dim=3, expect_empty=True,
            expect_singular_count=1, expect_all_nodes=True, expect_tjurina_total=1,
            note="irreducible nodal cubic; the d = 3 member of the x*y*z^(d-2) + x^d + y^d family",
        ),
        CorpusEntry(
            "one-node-quartic-a", 3, "x*y*z^2 + x^4 + y^4", False,
            expect_cond1_dim=3, expect_empty=False, expect_witness="y",
            expect_singular_count=1, expect_all_nodes=True, expect_tjurina_total=1,
            note="same local type as its avoiding twin, yet pure powers of x and y fall into the gradient ideal",
        ),
        CorpusEntry(
            "one-node-quintic-a", 3, "x*y*z^3 + x^5 + y^5", False,
            expect_cond1_dim=3, expect_empty=False, expect_witness="y",
            expect_singular_count=1, expect_all_nodes=True, expect_tjurina_total=1,
        ),
        CorpusEntry(
            "one-node-sextic-a", 3, "x*y*z^4 + x^6 + y^6", False,
            expect_cond1_dim=3, expect_empty=False, expect_witness="y",
            expect_singular_count=1, expect_all_nodes=True, expect_tjurina_total=1,
        ),
        CorpusEntry(
            "one-node-quartic-b", 3, "x*y*z^2 + x^4 + y^4 + x^3*z", True,
            expect_cond1_dim=3, expect_empty=True,
            expect_singular_count=1, expect_all_nodes=True, expect_tjurina_total=1,
            note="the extra x^3*z term restores avoidance without changing the singularity",
        ),
        CorpusEntry(
            "one-node-quintic-b", 3, "x*y*z^3 + x^5 + y^5 + x^4*z", True,
            expect_cond1_dim=3, expect_empty=True,
            expect_singular_count=1, expect_all_nodes=True, expect_tjurina_total=1,
        ),
        CorpusEntry(
            "hesse-2", 3, _hesse(2), True,
            expect_cond1_dim=3, expect_empty=True, expect_singular_count=0,
            expect_inverse_system="2*(y1^3+y2^3+y3^3)+6*y1*y2*y3",
            note="smooth Hesse cubic, parameter 2: avoiding (parameter nonzero, cube differs from -8)",
        ),
        CorpusEntry(
            "hesse-3", 3, _hesse(3), True,
            expect_cond1_dim=3, expect_empty=True, expect_singular_count=0,
            expect_inverse_system="3*(y1^3+y2^3+y3^3)+6*y1*y2*y3",
        ),
        CorpusEntry(
            "hesse-neg1", 3, _hesse(-1), True,
            expect_cond1_dim=3, expect_empty=True, expect_singular_count=0,
            expect_inverse_system="-(y1^3+y2^3+y3^3)+6*y1*y2*y3",
        ),
        CorpusEntry(
            "hesse-0", 3, _hesse(0), False,
            expect_cond1_dim=3, expect_empty=False, expect_witness="z",
            expect_singular_count=0, expect_inverse_system="y1*y2*y3",
            note="parameter 0 degenerates to the diagonal cubic",
        ),
        CorpusEntry(
            "hesse-neg2", 3, _hesse(-2), False,
            expect_cond1_dim=3, expect_empty=False, expect_witness="x + y + z",
            expect_singular_count=0,
            expect_inverse_system="-2*(y1^3+y2^3+y3^3)+6*y1*y2*y3",
            note="cube of the parameter is -8: the dual curve degenerates",
        ),
        CorpusEntry(
            "symmetric-quartic", 3, "x^4+y^4+z^4+4*x*y*z*(x+y+z)", True,
            expect_cond1_dim=3, expect_empty=True, expect_singular_count=0,
            expect_inverse_system=_SYM_QUARTIC_F,
            note="symmetric smooth quartic; inverse system is symmetric of degree 6",
        ),
        CorpusEntry(
            "three-lines", 3, "x*y*z", True,
            expect_cond1_dim=3, expect_empty=True,
            expect_singular_count=3, expect_all_nodes=True,
            expect_independent=True, expect_tjurina_total=3,
            note="three general lines; also the n = d = 3 coordinate-node form",
        ),
        CorpusEntry(
            "conic-plus-line", 3, "z*(x*y-z^2)", True,
            expect_cond1_dim=3, expect_empty=True,
            expect_singular_count=2, expect_all_nodes=True,
            expect_independent=True, expect_tjurina_total=2,
            note="smooth conic with a transverse line",
        ),
        CorpusEntry(
            "cuspidal-cubic", 3, "z*y^2-x^3", False,
            expect_cond1_dim=3, expect_empty=False, expect_witness="y",
            expect_singular_count=1, expect_all_nodes=False, expect_tjurina_total=2,
            provenance="derived",
            note="cuspidal cubic: the square factor of the z-partial is itself the witness",
        ),
        CorpusEntry(
            "coordinate-nodes-3-4", 3, "2*x^2*y^2 + 2*x^2*z^2 + 2*y^2*z^2", True,
            expect_cond1_dim=3, expect_empty=True,
            expect_singular_count=3, expect_all_nodes=True,
            expect_independent=True, expect_tjurina_total=3,
            note="the degree-4 coordinate-node form in three variables",
        ),
        CorpusEntry(
            "coordinate-nodes-4-3", 4, "x*y*z + x*y*w + x*z*w + y*z*w", True,
            expect_cond1_dim=4, expect_empty=True,
            expect_singular_count=4, expect_all_nodes=True,
            expect_independent=True, expect_tjurina_total=4,
            note="the cubic coordinate-node form in four variables",
        ),
    ]
    return entries


class EntryResult(NamedTuple):
    name: str
    passed: bool
    failures: list[str]
    verdict: bool | None
    elapsed_ms: float


def run_entry(entry: CorpusEntry, lefschetz_seed: int = 0) -> EntryResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    verdict = None
    try:
        f = parse_poly(entry.source, entry.n)
        cert = check_va(f)
        verdict = cert.verdict
        if cert.verdict != entry.expect_va:
            failures.append(f"verdict: expected {entry.expect_va}, got {cert.verdict}")
        for name, ok in cert.cross_checks:
            if not ok:
                failures.append(f"cross-check failed: {name}")
        if entry.expect_cond1_dim is not None:
            got = cert.condition_i.dim_milnor_top_minus_one
            if got != entry.expect_cond1_dim:
                failures.append(f"condition I dim: expected {entry.expect_cond1_dim}, got {got}")
        if entry.expect_empty is not None and cert.condition_ii.empty != entry.expect_empty:
            failures.append(
                f"condition II empty: expected {entry.expect_empty}, got {cert.condition_ii.empty}"
            )
        if entry.expect_witness is not None:
            got = render_witness(cert.condition_ii.witness)
            if got != entry.expect_witness:
                failures.append(f"witness: expected {entry.expect_witness!r}, got {got!r}")
        points_expected = any(
            e is not None
            for e in (entry.expect_singular_count, entry.expect_all_nodes, entry.expect_independent)
        )
        if points_expected or entry.expect_tjurina_total is not None:
            rep = singular_report(f)
            if points_expected and not rep.complete:
                failures.append("singular report incomplete")
            if (
                entry.expect_singular_count is not None
                and len(rep.points) != entry.expect_singular_count
            ):
                failures.append(
                    f"singular points: expected {entry.expect_singular_count}, got {len(rep.points)}"
                )
            if entry.expect_all_nodes is not None:
                nodes = all(s.is_node for s in rep.points)
                if nodes != entry.expect_all_nodes:
                    failures.append(f"all nodes: expected {entry.expect_all_nodes}, got {nodes}")
            if entry.expect_independent is not None and rep.points:
                indep, _ = general_linear_position([s.point for s in rep.points])
                if indep != entry.expect_independent:
                    failures.append(f"general position: expected {entry.expect_independent}, got {indep}")
            if entry.expect_tjurina_total is not None:
                got = tjurina_total(f)  # the degree of the singular scheme
                if got != entry.expect_tjurina_total:
                    failures.append(
                        f"total tjurina: expected {entry.expect_tjurina_total}, got {got}"
                    )
            if rep.points:
                record = classify(f, rep)
                if record.predicted_va is not None and record.predicted_va != cert.verdict:
                    failures.append(
                        f"classification predicts {record.predicted_va}, verdict is {cert.verdict}"
                    )
        if entry.expect_inverse_system is not None:
            inv = inverse_system(f)
            expected = parse_poly(
                entry.expect_inverse_system, entry.n,
                names=[f"y{i + 1}" for i in range(entry.n)],
            ).normalized_primitive()
            if inv.F != expected:
                failures.append("inverse system does not match the expected dual form")
            dual_verdict = smoothness(inv.F)  # the dual route: smooth F iff avoiding
            if dual_verdict != cert.verdict:
                failures.append(
                    f"dual-smoothness route gives {dual_verdict}, verdict is {cert.verdict}"
                )
        if cert.verdict:
            lef = lefschetz_degree_one(f, seed=lefschetz_seed)
            if not lef.success:
                failures.append("no Lefschetz witness within the trial budget")
    except ScopeError as exc:
        failures.append(f"scope error: {exc}")
    except Exception as exc:  # noqa: BLE001 - the runner reports, not crashes
        failures.append(f"{type(exc).__name__}: {exc}")
    return EntryResult(
        entry.name,
        not failures,
        failures,
        verdict,
        (time.perf_counter() - t0) * 1000,
    )


def run_corpus(
    entries: list[CorpusEntry] | None = None, name_filter: str | None = None
) -> list[EntryResult]:
    entries = builtin_corpus() if entries is None else entries
    return [run_entry(e) for e in entries if not name_filter or name_filter in e.name]


# ---------------------------------------------------------------------------
# corpus file format: blank-line separated blocks of `key: value` lines


_BOOL = {"true": True, "false": False}

_FIELDS = {
    "name": str,
    "n": int,
    "f": str,
    "expect_va": "bool",
    "expect_cond1_dim": int,
    "expect_empty": "bool",
    "expect_witness": str,
    "expect_singular_count": int,
    "expect_all_nodes": "bool",
    "expect_independent": "bool",
    "expect_tjurina_total": int,
    "expect_inverse_system": str,
    "provenance": str,
    "note": str,
}


def parse_corpus_file(text: str) -> list[CorpusEntry]:
    entries = []
    block: dict[str, str] = {}
    lines = text.splitlines() + [""]
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if block:
                entries.append(_entry_from_block(block))
                block = {}
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        block[key] = value.strip()
    return entries


def _entry_from_block(block: dict[str, str]) -> CorpusEntry:
    for required in ("name", "n", "f", "expect_va"):
        if required not in block:
            raise ValueError(f"corpus entry missing required key {required!r}")
    kwargs = {}
    for key, value in block.items():
        kind = _FIELDS[key]
        attr = {"f": "source"}.get(key, key)
        if kind == "bool":
            if value.lower() not in _BOOL:
                raise ValueError(f"{key}: expected true/false, got {value!r}")
            kwargs[attr] = _BOOL[value.lower()]
        elif kind is int:
            kwargs[attr] = int(value)
        else:
            kwargs[attr] = value
    return CorpusEntry(**kwargs)
