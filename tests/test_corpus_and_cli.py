import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from veroav import cli
from veroav.corpus import (
    CorpusEntry,
    builtin_corpus,
    parse_corpus_file,
    run_corpus,
    run_entry,
)

CLI = [sys.executable, "-m", "veroav.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, **kwargs
    )


def test_cli_start_loads_no_record_or_json_machinery():
    """A fresh ``import veroav.cli`` loads neither ``dataclasses`` nor
    ``inspect``, and ``json`` only once a command prints JSON.  Modules are
    compared before and after the import, since ``site`` may preload some."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import veroav.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    loaded = set(out.stdout.split())
    assert "veroav.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json"}


def test_builtin_corpus_passes():
    results = run_corpus()
    failures = {r.name: r.failures for r in results if not r.passed}
    assert not failures, failures


def test_corpus_filter():
    results = run_corpus(name_filter="hesse")
    assert len(results) == 5
    assert all(r.name.startswith("hesse") for r in results)


def test_wrong_expectation_reported():
    entry = CorpusEntry("bogus", 3, "x^3+y^3+z^3", expect_va=True)
    result = run_entry(entry)
    assert not result.passed
    assert any("verdict" in f for f in result.failures)


def test_scope_error_reported_not_raised():
    entry = CorpusEntry("bad-scope", 3, "x^2*y*z", expect_va=False)
    result = run_entry(entry)
    assert not result.passed
    assert any("scope" in f for f in result.failures)


def test_corpus_file_round_trip(tmp_path):
    text = """\
# a comment
name: my-cubic
n: 3
f: x*y*z + x^3 + y^3
expect_va: true
expect_cond1_dim: 3
expect_empty: true
expect_singular_count: 1
expect_all_nodes: true
note: irreducible nodal cubic

name: my-fermat
n: 3
f: x^3 + y^3 + z^3
expect_va: false
expect_witness: z
"""
    entries = parse_corpus_file(text)
    assert [e.name for e in entries] == ["my-cubic", "my-fermat"]
    assert entries[0].expect_all_nodes is True
    assert entries[1].expect_witness == "z"
    results = run_corpus(entries)
    assert all(r.passed for r in results)


def test_singular_expectations_without_a_point_count_are_checked():
    (entry,) = parse_corpus_file(
        "name: xyz\nn: 3\nf: x*y*z\nexpect_va: true\n"
        "expect_tjurina_total: 99\nexpect_all_nodes: false\n"
    )
    result = run_entry(entry)
    assert not result.passed
    assert "total tjurina: expected 99, got 3" in result.failures
    assert "all nodes: expected False, got True" in result.failures


def test_expected_tjurina_total_is_the_scheme_degree():
    # three nodes on x = 0, only [0:1:1] rational: the local sum over the
    # rational points is 1, the singular scheme has degree 3
    (entry,) = parse_corpus_file(
        "name: cubic-and-line\nn: 3\nf: x*(x^3+y^3-z^3)\nexpect_va: false\n"
        "expect_tjurina_total: 3\n"
    )
    assert run_entry(entry).failures == []
    failures = run_entry(entry._replace(expect_singular_count=1)).failures
    assert failures == ["singular report incomplete"]


def test_corpus_file_errors():
    with pytest.raises(ValueError, match="unknown key"):
        parse_corpus_file("name: a\nn: 3\nf: x^3\nexpect_va: true\nwhatever: 1\n")
    with pytest.raises(ValueError, match="missing required key"):
        parse_corpus_file("name: a\nn: 3\nf: x^3\n")


# ---------------------------------------------------------------------------
# CLI


def test_cli_check_true():
    proc = run_cli("check", "-n", "3", "-f", "x*y*z + x^3 + y^3")
    assert proc.returncode == 0
    assert "Veronese-avoiding" in proc.stdout


def test_cli_check_false_with_witness():
    proc = run_cli("check", "-n", "3", "-f", "x^3+y^3+z^3", "--json", "--seed", "1")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["verdict"] is False
    assert payload["condition_II"]["witness"] == "z"


def test_cli_check_scope_error():
    proc = run_cli("check", "-n", "3", "-f", "x^2*y*z")
    assert proc.returncode == 2
    assert "isolated" in proc.stderr


def test_cli_check_parse_error():
    proc = run_cli("check", "-n", "3", "-f", "x +")
    assert proc.returncode == 2


def test_cli_check_over_long_literal_is_a_parse_error():
    proc = run_cli("check", "-n", "3", "-f", "x^3 + y^3 + " + "1" * 5000 + "*z^3")
    assert proc.returncode == 2
    assert proc.stderr == "error: integer literal of 5000 digits is too long (at offset 12)\n"


def test_cli_json_schema():
    proc = run_cli("check", "-n", "3", "-f", "x*y*z", "--json", "--seed", "0")
    payload = json.loads(proc.stdout)
    assert set(payload) == {
        "n", "d", "T", "reduced_scope", "condition_I", "condition_II",
        "verdict", "lefschetz", "cross_checks", "timings_ms",
    }
    assert set(payload["condition_I"]) == {"dim", "holds"}
    assert set(payload["condition_II"]) == {
        "evaluated", "empty", "witness", "certificate_size", "certificate_prime",
    }
    assert set(payload["lefschetz"]) == {"seed", "trials", "success", "witness"}
    assert all(set(c) == {"name", "pass"} for c in payload["cross_checks"])
    assert payload["timings_ms"] is None  # deterministic unless --timings


def test_cli_json_determinism():
    a = run_cli("check", "-n", "3", "-f", "x*y*z", "--json", "--seed", "5")
    b = run_cli("check", "-n", "3", "-f", "x*y*z", "--json", "--seed", "5")
    assert a.stdout == b.stdout


def test_cli_json_independent_of_hash_seed():
    names = ("fermat-4-3", "one-node-quintic-b", "hesse-2")
    for entry in [e for e in builtin_corpus() if e.name in names]:
        a, b = (
            run_cli(
                "check", "-n", str(entry.n), "-f", entry.source, "--json", "--seed", "0",
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            )
            for hash_seed in ("0", "1")
        )
        assert a.returncode == b.returncode == (0 if entry.expect_va else 1)
        assert a.stdout == b.stdout, entry.name


def test_cli_degree_cap_is_a_resource_error():
    proc = run_cli(
        "check", "-n", "3", "-f", "x^4+y^4+z^4+4*x*y*z*(x+y+z)",
        env=dict(os.environ, VA_DEGREE_CAP="4"),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: validate: S-polynomial degree")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_cli_degree_cap_names_condition_II():
    proc = run_cli(
        "check", "-n", "3", "-f", "x^4+y^4+z^4+4*x*y*z*(x+y+z)",
        env=dict(os.environ, VA_DEGREE_CAP="8"),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: condition (II): S-polynomial degree 9 exceeds cap 8")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("cap", ["abc", "0", "-5"])
def test_cli_invalid_degree_cap_is_refused(cap):
    proc = run_cli(
        "check", "-n", "3", "-f", "x^3+y^3+z^3", env=dict(os.environ, VA_DEGREE_CAP=cap)
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: VA_DEGREE_CAP must be an integer >= 1, not {cap!r}\n"


def test_cli_certificate_prime():
    avoiding = run_cli("check", "-n", "3", "-f", "x*y*z + x^3 + y^3", "--json", "--seed", "0")
    assert avoiding.returncode == 0
    cond2 = json.loads(avoiding.stdout)["condition_II"]
    assert cond2["empty"] is True and cond2["certificate_prime"] == 2147483647
    failing = run_cli("check", "-n", "3", "-f", "x^3+y^3+z^3", "--json", "--seed", "0")
    assert failing.returncode == 1
    assert json.loads(failing.stdout)["condition_II"]["certificate_prime"] is None
    human = run_cli("check", "-n", "3", "-f", "x*y*z + x^3 + y^3")
    assert "over GF(2147483647)" in human.stdout


def test_cli_unexpected_exception_is_a_defect(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ArithmeticError("fraction-free elimination lost exact divisibility")

    monkeypatch.setattr(cli, "check_va", broken)
    assert cli.main(["check", "-n", "3", "-f", "x^3+y^3+z^3"]) == cli.EXIT_INTERNAL_DEFECT
    err = capsys.readouterr().err
    assert err.startswith("internal defect: ArithmeticError")
    assert len(err.splitlines()) == 1


def test_cli_bad_prime_cross_check_falls_back_to_exact_rank():
    # the Macaulay matrix has rank 2 modulo 2^31 - 1 but rank 3 over Q
    proc = run_cli(
        "check", "-n", "3", "-f", "(x+y)^3 + 2147483647*x^3 + z^3", "--json", "--seed", "0"
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert all(c["pass"] for c in payload["cross_checks"])
    assert payload["condition_II"]["witness"] == "z"


def test_cli_json_requires_seed():
    proc = run_cli("check", "-n", "3", "-f", "x*y*z", "--json")
    assert proc.returncode == 2


def test_cli_skip_lefschetz():
    proc = run_cli(
        "check", "-n", "3", "-f", "x*y*z", "--json", "--seed", "0", "--skip-lefschetz"
    )
    payload = json.loads(proc.stdout)
    assert payload["lefschetz"] is None


def test_cli_inverse_system():
    proc = run_cli("inverse-system", "-n", "3", "-f", "x^3+y^3+z^3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "y1*y2*y3"


def test_cli_inverse_system_rejects_singular():
    proc = run_cli("inverse-system", "-n", "3", "-f", "x*y*z")
    assert proc.returncode == 2


def test_cli_singular():
    proc = run_cli("singular", "-n", "3", "-f", "x*y*z", "--json")
    payload = json.loads(proc.stdout)
    assert payload["total_tjurina"] == 3
    assert payload["general_position"] is True
    assert len(payload["points"]) == 3
    assert all(p["is_node"] for p in payload["points"])


def test_cli_singular_text_says_smooth_only_for_a_complete_empty_report():
    smooth = run_cli("singular", "-n", "3", "-f", "x^3+y^3+z^3")
    assert smooth.stdout.splitlines()[0] == "smooth: no singular points"
    # three collinear nodes, none of them rational: the report is incomplete
    conjugate = run_cli("singular", "-n", "3", "-f", "x*(x^3+y^3-2*z^3)")
    assert conjugate.returncode == 0
    assert conjugate.stdout.splitlines() == [
        "singular: no singular point is rational",
        "classification: no prediction: irrational singular points",
    ]


def test_cli_lefschetz():
    proc = run_cli("lefschetz", "-n", "3", "-f", "x*y*z", "--json", "--seed", "0")
    payload = json.loads(proc.stdout)
    assert payload["success"] is True


@pytest.mark.parametrize("option, value, message", [
    ("--coeff-bound", "0", "coeff_bound must be an integer >= 1, not 0"),
    ("--coeff-bound", "-1", "coeff_bound must be an integer >= 1, not -1"),
    ("--trials", "0", "trials must be an integer >= 1, not 0"),
])
def test_cli_lefschetz_refuses_an_empty_search(option, value, message):
    # a bound of 0 can draw only the zero form, so the redraw loop never ended
    proc = run_cli("lefschetz", "-n", "3", "-f", "x*y*z", option, value, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


def test_cli_binary_cubic_is_decided(capsys):
    # T - 2 = 0: the Lefschetz map is multiplication by l^0, the identity
    assert cli.main(["check", "-n", "2", "-f", "x^3+y^3"]) == cli.EXIT_VA_TRUE
    out = capsys.readouterr()
    assert "verdict: Veronese-avoiding" in out.out
    assert "lefschetz: multiplication by" in out.out
    assert out.out.count("cross-check") == out.out.count(": pass") == 4
    assert out.err == ""


@pytest.mark.parametrize("argv, message", [
    (["check", "-n", "2", "-f", "x^2*y^2"],
     "a singular binary form has a repeated factor; it is not reduced"),
    (["check", "-n", "2", "-f", "x^2*y", "--skip-lefschetz"],
     "a singular binary form has a repeated factor; it is not reduced"),
    (["singular", "-n", "2", "-f", "x^2*y^2"],
     "a singular binary form has a repeated factor; it is not reduced"),
    (["check", "-n", "1", "-f", "x^3"],
     "a form in one variable defines no hypersurface; need n >= 2"),
])
def test_cli_refuses_non_reduced_forms_on_a_line_or_a_point(argv, message, capsys):
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n"
    assert out.out == ""


def test_cli_f0_and_dims():
    proc = run_cli("f0", "-n", "3", "-d", "4")
    assert proc.stdout.strip() == "2*x^2*y^2 + 2*x^2*z^2 + 2*y^2*z^2"
    proc = run_cli("dims", "-n", "3", "-d", "3")
    assert proc.stdout.strip() == "9, 6, 0"


def test_cli_corpus_filter_and_failure(tmp_path):
    proc = run_cli("corpus", "--filter", "hesse")
    assert proc.returncode == 0
    assert proc.stdout.count("pass") >= 5

    bad = tmp_path / "bad.corpus"
    bad.write_text(
        "name: wrong\nn: 3\nf: x^3 + y^3 + z^3\nexpect_va: true\n", encoding="utf-8"
    )
    proc = run_cli("corpus", "--file", str(bad))
    assert proc.returncode == 1
    assert "verdict" in proc.stdout


@pytest.mark.parametrize("target", ["missing.corpus", "."])
def test_cli_unreadable_corpus_file_is_an_input_error(tmp_path, target):
    # a missing file, and a directory where a file should be
    proc = run_cli("corpus", "--file", str(tmp_path / target))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read corpus file: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


GOLDEN_JSON = Path(__file__).resolve().parent / "data" / "corpus_check_json_seed0.txt"


def test_seeded_json_of_the_corpus_is_byte_identical(capsys):
    """``check --json --seed 0`` on every built-in entry, against the output
    recorded in tests/data: one header line with the entry and exit code,
    then the JSON exactly as printed."""
    out = []
    for entry in builtin_corpus():
        code = cli.main(["check", "-n", str(entry.n), "-f", entry.source, "--json", "--seed", "0"])
        out.append(f"=== {entry.name}: exit {code}\n" + capsys.readouterr().out)
    assert "".join(out).encode() == GOLDEN_JSON.read_bytes()
