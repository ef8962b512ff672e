"""The condition-(II) certificates of the built-in corpus, term for term.

``tests/data/corpus_condition_II_certificates.json`` holds, per corpus
entry, the certificate's prime (0 over Q), monomial order and packed terms:
one list of [packed monomial, coefficient] pairs per generator.  It pins the
certificates beyond the JSON output, which prints only their size.
Regenerate it with ``PYTHONPATH=src python tests/test_certificate_identity.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from veroav.corpus import builtin_corpus
from veroav.parsing import parse_poly
from veroav.veronese import check_va

RECORD = Path(__file__).resolve().parent / "data" / "corpus_condition_II_certificates.json"


def certificate_record() -> dict:
    out = {}
    for entry in builtin_corpus():
        gb = check_va(parse_poly(entry.source, entry.n)).condition_ii.certificate
        out[entry.name] = None if gb is None else {
            "modulus": gb.modulus,
            "order": repr(gb.order),
            "packed": [[[m, c] for m, c in sorted(terms.items())] for terms in gb.packed],
        }
    return out


def test_condition_II_certificates_match_the_record():
    assert certificate_record() == json.loads(RECORD.read_text())


if __name__ == "__main__":
    RECORD.write_text(json.dumps(certificate_record(), indent=0) + "\n")
