"""Command-line interface.

Exit codes for ``check``: 0 the hypersurface is Veronese-avoiding, 1 it is
not, 2 input, scope or resource-limit error (such as the Buchberger degree
cap), 3 internal defect (a cross-check or internal consistency invariant
failed, or any unexpected exception).  Exits 2 and 3 print one diagnostic
line and no traceback.  JSON goes to stdout, diagnostics to stderr.
JSON mode requires an explicit --seed so randomized trials are reproducible;
identical inputs and seed produce byte-identical JSON (timings are omitted
unless --timings is given, since wall-clock values are not reproducible).
"""

from __future__ import annotations

import argparse
import sys

from veroav.apolar import inverse_system
from veroav.corpus import builtin_corpus, parse_corpus_file, run_corpus
from veroav.groebner import DegreeCapExceeded
from veroav.milnor import InternalDefectError, tjurina_total
from veroav.parsing import parse_poly, render_poly, render_witness
from veroav.singlocus import classify, general_linear_position, singular_report
from veroav.veronese import (
    check_va,
    f0_form,
    lefschetz_degree_one,
    stratum_dims,
)

EXIT_VA_TRUE = 0
EXIT_VA_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_DEFECT = 3


def _certificate_json(cert, lef, timings_enabled: bool, seed: int) -> dict:
    cond2 = cert.condition_ii
    return {
        "n": cert.n,
        "d": cert.d,
        "T": cert.T,
        "reduced_scope": cert.reduced_scope,
        "condition_I": {
            "dim": cert.condition_i.dim_milnor_top_minus_one,
            "holds": cert.condition_i.holds,
        },
        "condition_II": {
            "evaluated": cond2.evaluated,
            "empty": cond2.empty,
            "witness": render_witness(cond2.witness),
            "certificate_size": (
                len(cond2.certificate.leading_monomials) if cond2.certificate else None
            ),
            "certificate_prime": (
                (cond2.certificate.modulus or None) if cond2.certificate else None
            ),
        },
        "verdict": cert.verdict,
        "lefschetz": (
            {
                "seed": seed,
                "trials": lef.trials,
                "success": lef.success,
                "witness": render_witness(lef.witness),
            }
            if lef is not None
            else None
        ),
        "cross_checks": [{"name": name, "pass": ok} for name, ok in cert.cross_checks],
        "timings_ms": (
            {k: round(v, 3) for k, v in cert.timings_ms.items()}
            if timings_enabled
            else None
        ),
    }


def _print_json(payload: dict) -> None:
    # imported here: it would add about 2 ms to every CLI start
    import json

    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _trial_seed(args) -> int | None:
    """The seed of the Lefschetz trials, 0 by default; None, after the
    diagnostic, when --json comes without an explicit --seed."""
    if args.json and args.seed is None:
        print("--json requires an explicit --seed", file=sys.stderr)
        return None
    return args.seed or 0


def cmd_check(args) -> int:
    seed = _trial_seed(args)
    if seed is None:
        return EXIT_INPUT_ERROR
    f = parse_poly(args.f, args.n)
    cert = check_va(f)
    lef = None
    if not args.skip_lefschetz and cert.condition_i.holds:
        lef = lefschetz_degree_one(f, seed=seed, trials=args.trials, coeff_bound=args.coeff_bound)
    defect = not all(ok for _, ok in cert.cross_checks)
    if args.json:
        _print_json(_certificate_json(cert, lef, args.timings, seed))
    else:
        _print_human(cert, lef)
    if defect:
        print("internal defect: a cross-check failed", file=sys.stderr)
        return EXIT_INTERNAL_DEFECT
    return EXIT_VA_TRUE if cert.verdict else EXIT_VA_FALSE


def _print_human(cert, lef) -> None:
    print(f"n = {cert.n}, d = {cert.d}, T = n(d-2) = {cert.T}")
    c1 = cert.condition_i
    print(
        f"condition (I):  dim (M_f)_(T-1) = {c1.dim_milnor_top_minus_one} "
        f"(need {cert.n}) -> {'holds' if c1.holds else 'fails'}"
    )
    c2 = cert.condition_ii
    if not c2.evaluated:
        print("condition (II): not evaluated (condition (I) fails)")
    elif c2.empty:
        cert2 = c2.certificate
        field_name = f"GF({cert2.modulus})" if cert2.modulus else "Q"
        print(
            "condition (II): holds -- no power of a linear form lies in the "
            f"top gradient piece (certificate basis size {len(cert2.leading_monomials)} "
            f"over {field_name})"
        )
    else:
        w = render_witness(c2.witness)
        detail = f"witness {w}" if w else c2.note
        print(f"condition (II): fails -- {detail}")
    print(f"verdict: {'Veronese-avoiding' if cert.verdict else 'NOT Veronese-avoiding'}")
    if lef is not None:
        if lef.success:
            print(
                f"lefschetz: multiplication by ({render_witness(lef.witness)})^(T-2) "
                "is an isomorphism in degree 1"
            )
        else:
            print(f"lefschetz: no witness in {lef.trials} trials")
    for name, ok in cert.cross_checks:
        print(f"cross-check {name}: {'pass' if ok else 'FAIL'}")
    for k, v in cert.timings_ms.items():
        print(f"time {k}: {v:.1f} ms")


def cmd_inverse_system(args) -> int:
    f = parse_poly(args.f, args.n)
    inv = inverse_system(f)
    names = [f"y{i + 1}" for i in range(f.nvars)]
    if args.json:
        _print_json({"socle_degree": inv.socle_degree, "F": render_poly(inv.F, names)})
    else:
        print(render_poly(inv.F, names))
    return 0


def cmd_singular(args) -> int:
    f = parse_poly(args.f, args.n)
    rep = singular_report(f)
    record = classify(f, rep)
    points = [
        {
            "point": str(s.point),
            "tjurina": s.tjurina,
            "milnor": s.milnor,
            "is_node": s.is_node,
            "quadratic_rank": s.quadratic_rank,
        }
        for s in rep.points
    ]
    # the singular scheme's degree and, when every point is rational, its position
    total = tjurina_total(f)
    independent = None
    if rep.points and rep.complete:
        independent, _ = general_linear_position([s.point for s in rep.points])
    payload = {
        "points": points,
        "complete": rep.complete,
        "total_tjurina": total,
        "general_position": independent,
        "classification": {
            "applicable": list(record.applicable),
            "predicted_va": record.predicted_va,
            "reason": record.reason,
        },
    }
    if args.json:
        _print_json(payload)
    else:
        if not points:
            print("smooth: no singular points" if rep.complete
                  else "singular: no singular point is rational")
        for p in points:
            kind = "node" if p["is_node"] else f"non-node (quadratic rank {p['quadratic_rank']})"
            print(f"{p['point']}: {kind}, tjurina = {p['tjurina']}, milnor = {p['milnor']}")
        if points:
            print(f"complete: {rep.complete}; total tjurina = {total}; "
                  f"general position: {independent}")
        if record.predicted_va is not None:
            print(f"classification ({', '.join(record.applicable)}): predicted verdict "
                  f"{record.predicted_va}")
        else:
            print(f"classification: {record.reason}")
    return 0


def cmd_lefschetz(args) -> int:
    seed = _trial_seed(args)
    if seed is None:
        return EXIT_INPUT_ERROR
    f = parse_poly(args.f, args.n)
    lef = lefschetz_degree_one(f, seed=seed, trials=args.trials, coeff_bound=args.coeff_bound)
    payload = {
        "seed": seed,
        "trials": lef.trials,
        "coeff_bound": lef.coeff_bound,
        "success": lef.success,
        "witness": render_witness(lef.witness),
        "determinants": [str(d) for d in lef.determinants],
    }
    if args.json:
        _print_json(payload)
    else:
        if lef.success:
            print(f"witness after {len(lef.determinants)} trial(s): "
                  f"{render_witness(lef.witness)}")
        else:
            print(f"no witness in {lef.trials} trials")
    return 0 if lef.success else 1


def cmd_f0(args) -> int:
    print(render_poly(f0_form(args.n, args.d)))
    return 0


def cmd_dims(args) -> int:
    dims = stratum_dims(args.n, args.d)
    if args.json:
        _print_json(dims)
    else:
        print(f"{dims['N_d']}, {dims['nodal_dim']}, {dims['linear_system_dim']}")
    return 0


def cmd_corpus(args) -> int:
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:  # missing, unreadable or a directory: an input error
            raise ValueError(f"cannot read corpus file: {exc}") from None
        entries = parse_corpus_file(text)
        if args.with_builtin:
            entries = builtin_corpus() + entries
    else:
        entries = builtin_corpus()
    results = run_corpus(entries, name_filter=args.filter)
    width = max((len(r.name) for r in results), default=4)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  verdict={str(r.verdict):<5}  {status}  {r.elapsed_ms:9.1f} ms")
        for failure in r.failures:
            print(f"    {failure}")
    print(f"{sum(r.passed for r in results)}/{len(results)} entries passed")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veroav",
        description="Exact decision procedure for Veronese-avoiding hypersurfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_args(p):
        p.add_argument("-n", type=int, required=True, help="number of variables")
        p.add_argument("-f", type=str, required=True, help="polynomial in the expression grammar")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_trial_args(p):
        p.add_argument("--seed", type=int, default=None, help="seed for the Lefschetz trials")
        p.add_argument("--trials", type=int, default=5)
        p.add_argument("--coeff-bound", type=int, default=50)

    check = sub.add_parser("check", help="decide the Veronese-avoiding property")
    add_poly_args(check)
    add_trial_args(check)
    check.add_argument("--skip-lefschetz", action="store_true")
    check.add_argument("--timings", action="store_true", help="include timings in JSON output")
    check.set_defaults(func=cmd_check)

    inv = sub.add_parser("inverse-system", help="Macaulay inverse system of a smooth hypersurface")
    add_poly_args(inv)
    inv.set_defaults(func=cmd_inverse_system)

    sing = sub.add_parser("singular", help="rational singular points with local invariants")
    add_poly_args(sing)
    sing.set_defaults(func=cmd_singular)

    lef = sub.add_parser("lefschetz", help="seeded degree-one Lefschetz rank check")
    add_poly_args(lef)
    add_trial_args(lef)
    lef.set_defaults(func=cmd_lefschetz)

    f0 = sub.add_parser("f0", help="print the coordinate-node auxiliary form")
    f0.add_argument("-n", type=int, required=True)
    f0.add_argument("-d", type=int, required=True)
    f0.set_defaults(func=cmd_f0)

    dims = sub.add_parser("dims", help="hypersurface space, nodal stratum and linear system dimensions")
    dims.add_argument("-n", type=int, required=True)
    dims.add_argument("-d", type=int, required=True)
    dims.add_argument("--json", action="store_true")
    dims.set_defaults(func=cmd_dims)

    corpus = sub.add_parser("corpus", help="run the built-in corpus of worked examples")
    corpus.add_argument("--filter", type=str, default=None, help="substring filter on entry names")
    corpus.add_argument("--file", type=str, default=None, help="corpus file to run")
    corpus.add_argument("--with-builtin", action="store_true",
                        help="run the built-in corpus in addition to --file")
    corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, DegreeCapExceeded) as exc:
        # parse, scope and precondition errors, and the Buchberger degree cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InternalDefectError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_DEFECT
    except Exception as exc:  # an unexpected failure is a defect, never a verdict
        print(f"internal defect: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_DEFECT


if __name__ == "__main__":
    sys.exit(main())
