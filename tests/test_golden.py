"""Golden outputs: closed-form integrals and monomial series, byte for byte.

``tests/data/golden_integrals.json`` holds the exact output strings of
``integrate_iterated`` (its ``to_json``) and of ``zmot_monomial`` (its
``str`` and ``to_json``) on a fixed corpus.  A change that claims to
keep outputs byte-identical must keep this test passing unchanged.

Re-record only for a deliberate change of output, and list it in
``CHANGES.md``:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from motint import formula as F
from motint.errors import MotintError
from motint.padic import PContext
from motint.vfint import integrate_iterated
from motint.zeta import parse_poly, zmot_monomial

from test_acceptance import FRAGMENT_CORPUS

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_integrals.json"
GRID = [(2, 1), (2, 2), (3, 1), (3, 2)]

# one-variable conditions next to the corpus: bounded versions of its
# divergent entries, and families of two to four ball cells
ONE_VARIABLE = [
    "ac_2(t - 1) = 3 && ord(t - 1) <= 4 && ord(t - 1) >= 0",
    "ord(t - 1) = ord(t - 2) && ord(t) >= 0",
    "(exists s : res(1) . s*s = ac_1(t)) && ord(t) >= 0",
    "ord(t) >= 1 || ord(t - 1) >= 2 || ord(t + 1) >= 3",
    "ord(t - 1/3) >= 1 && ac_1(t - 1/3) != 1",
    "ord(t) >= 0 && ord(t - 1) <= 1 && ord(t - 2) <= 1 && ord(t - 3) <= 1",
]

# two-variable conditions over x, y with (multiplicity, variable, center)
# weights; each is integrated in both orders
TWO_VARIABLE = [
    ("ord(x) >= 1 && ord(y) >= ord(x)", ()),
    ("ord(x) >= 0 && ord(y) >= 0 && ord(x) + ord(y) = 3", ()),
    ("ord(x) = 1 && ord(y) >= 0", ((2, "y", 0),)),
    ("ord(x) >= 0 && ord(y - 2) >= 1", ((1, "y", 2),)),
    ("ac_1(x) = 1 && ord(x) = 0 && ord(y) >= ord(x)", ()),
]

MONOMIALS = ["x", "x^2*y", "x*y*z", "x^3*y^2", "-x^2*y*z"]


def _integral(text, order, ctx, weight=()):
    names = {"t", "x", "y"}
    cond = F.parse_formula(text, {n: F.VF for n in names})
    weight = tuple((m, v, Fraction(c)) for m, v, c in weight)
    try:
        out = integrate_iterated(cond, order, ctx, weight=weight)
    except MotintError as exc:
        return f"error {type(exc).__name__}"
    return json.dumps(out.to_json())


def compute() -> list:
    """Every (case, output string) pair of the corpus, in a fixed order."""
    rows = []
    for p, d in GRID:
        ctx = PContext(p, d)
        for text in FRAGMENT_CORPUS + ONE_VARIABLE:
            rows.append([f"{text} | t | p={p} d={d}",
                         _integral(text, ("t",), ctx)])
        for text, weight in TWO_VARIABLE:
            for order in (("x", "y"), ("y", "x")):
                rows.append([f"{text} | {','.join(order)} | w={weight} "
                             f"| p={p} d={d}",
                             _integral(text, order, ctx, weight)])
    for text in MONOMIALS:
        series = zmot_monomial(parse_poly(text))
        rows.append([f"zmot {text} | str", str(series)])
        rows.append([f"zmot {text} | json", json.dumps(series.to_json())])
    return rows


def test_outputs_match_golden_strings():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute()
    assert [case for case, _ in got] == [case for case, _ in want]
    for (case, out), (_, golden) in zip(got, want):
        assert out == golden, case


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n",
                      encoding="utf-8")
