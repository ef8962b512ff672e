"""``veroav singular --json`` output, byte for byte.

``tests/data/singular_json.txt`` holds, for the 20 built-in corpus entries,
the 7 ``singular-high-degree`` instances of ``perfbench`` (their text
rebuilt by ``test_certificate_identity.workload_instances``) and four forms
whose singular points are Galois-conjugate, one header line with the input
and exit code, then what the command printed.  It pins the points, their
order, ``complete``, the local invariants and the classification.
Regenerate it with ``PYTHONPATH=src python tests/test_singular_json.py``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from test_certificate_identity import workload_instances
from veroav import cli
from veroav.corpus import builtin_corpus

RECORD = Path(__file__).resolve().parent / "data" / "singular_json.txt"

# three conjugate nodes in general position; four conjugate nodes; three
# collinear conjugate nodes; one rational and two conjugate nodes
CONJUGATE_POINT_FORMS = (
    ("8*x^4 - 6*x^2*y*z - 2*x*y^3 - x*z^3 + 3*y^2*z^2", 3),
    ("w^2*z - 4*w*x*y + 4*x^3 - 2*x*z^2 + 2*y^2*z", 4),
    ("x*(x^3+y^3-2*z^3)", 3),
    ("x*(x^3+y^3-z^3)", 3),
)


def singular_inputs() -> list[tuple[str, str, int]]:
    """(name, text, number of variables) of every pinned input."""
    singular_workload = list(workload_instances().items())[-7:]
    return [
        *((e.name, e.source, e.n) for e in builtin_corpus()),
        *((name, text, n) for name, (text, n) in singular_workload),
        *((text, text, n) for text, n in CONJUGATE_POINT_FORMS),
    ]


def singular_json_record() -> str:
    out = []
    for name, text, n in singular_inputs():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["singular", "-n", str(n), "-f", text, "--json"])
        out.append(f"=== {name}: exit {code}\n" + buffer.getvalue())
    return "".join(out)


def test_the_record_covers_thirty_one_inputs():
    names = [name for name, _, _ in singular_inputs()]
    assert len(names) == len(set(names)) == 31
    assert names[20:27] == [
        "f0-4-3", "f0-5-3", "f0-4-4", "f0-3-5", "f0-3-6",
        "x*y*z^4+x^6+y^6", "x*y*z^5+x^7+y^7+x^6*z",
    ]


def test_singular_json_is_byte_identical():
    assert singular_json_record().encode() == RECORD.read_bytes()


if __name__ == "__main__":
    RECORD.write_bytes(singular_json_record().encode())
