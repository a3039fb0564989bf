"""Golden outputs: cell decompositions of the fragment corpus, byte for byte.

``tests/data/golden_decompositions.json`` holds the exact ``to_json``
string of ``decompose_fragment`` for every condition of
``FRAGMENT_CORPUS`` in the variable t, on the grid {2,3}x{1,2}.  A change
that claims to keep decompositions byte-identical must keep this test
passing unchanged.

Re-record only for a deliberate change of output, and list it in
``CHANGES.md``:

    PYTHONPATH=src python tests/test_golden_decompositions.py --record
"""

import json
import sys
from pathlib import Path

from motint import formula as F
from motint.errors import MotintError
from motint.padic import PContext
from motint.vfint import decompose_fragment

from test_acceptance import FRAGMENT_CORPUS

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_decompositions.json"
GRID = [(2, 1), (2, 2), (3, 1), (3, 2)]


def _decomposition(text, ctx):
    cond = F.parse_formula(text, {"t": F.VF})
    try:
        dec = decompose_fragment(cond, "t", ctx)
    except MotintError as exc:
        return f"error {type(exc).__name__}"
    return json.dumps(dec.to_json())


def compute() -> list:
    """Every (case, output string) pair of the corpus, in a fixed order."""
    return [[f"{text} | p={p} d={d}", _decomposition(text, PContext(p, d))]
            for p, d in GRID for text in FRAGMENT_CORPUS]


def test_decompositions_match_golden_strings():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute()
    assert [case for case, _ in got] == [case for case, _ in want]
    for (case, out), (_, golden) in zip(got, want):
        assert out == golden, case


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_decompositions.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n",
                      encoding="utf-8")
