"""Golden outputs: parsed formulas and terms, as exact repr strings.

``tests/data/golden_parses.json`` holds, for every case, the ``repr`` of
the parsed AST (sorts included) or ``error <Type>: <message>``.  Formula
rows parse every condition of ``FRAGMENT_CORPUS`` and a list of edge
cases under three sort settings; term rows parse valued-field
polynomials.  A change that claims to keep parsing unchanged must keep
this test passing unchanged.

Re-record only for a deliberate change of output, and list it in
``CHANGES.md``:

    PYTHONPATH=src python tests/test_golden_parses.py --record
"""

import json
import sys
from pathlib import Path

from motint import formula as F
from motint.errors import MotintError

from test_acceptance import FRAGMENT_CORPUS

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_parses.json"

EDGE_FORMULAS = [
    "x < 3", "3 < x", "x > y", "x >= y + 1", "-1 < x",
    "(x + 1) = y", "((ord(x) >= 0))",
    "ac_0(x) = 1", "ord(ord(x)) = 0", "proj_2_3(x) = 0", "1/0 = x",
    "x = 1 mod 0", "x = y",
    "exists n : vg in [-inf, +inf] . n = 0",
    "exists r : res(2) . proj_2_1(r) = r",
    "!(x = 1) || y != 2 mod 3", "ac_2(t) = xi && ord(t) = z", "z * w = 0",
    "pi*x = 1",
    "forall r : res(1) . (r = 0 || exists s : res(1) . s*s = r)",
]

# (label, defaults, default_sort)
SETTINGS = [
    ("{}", None, None),
    ("default_sort=vf", None, F.VF),
    ("x,y:res(1)", {"x": F.RES(1), "y": F.RES(1)}, None),
]

VF_TERMS = [
    "x", "-x", "x - (y + 1)*z", "x^2*y^3", "(x + y)^2 - 3/2*x*y",
    "x**3 - x^2", "pi*x + 1", "-(x - 1)^2", "2*x*y - 7/3", "x - y - z",
]


def _show(parse, *args):
    try:
        return repr(parse(*args))
    except MotintError as exc:
        return f"error {type(exc).__name__}: {exc}"


def compute() -> list:
    """Every (case, output string) pair, in a fixed order."""
    rows = [[f"formula {text} | {label}",
             _show(F.parse_formula, text, defaults, default_sort)]
            for label, defaults, default_sort in SETTINGS
            for text in FRAGMENT_CORPUS + EDGE_FORMULAS]
    rows += [[f"term {text} | default_sort=vf",
              _show(F.parse_term, text, None, F.VF)] for text in VF_TERMS]
    return rows


def test_parses_match_golden_strings():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute()
    assert [case for case, _ in got] == [case for case, _ in want]
    for (case, out), (_, golden) in zip(got, want):
        assert out == golden, case


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_parses.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n",
                      encoding="utf-8")
