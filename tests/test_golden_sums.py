"""Golden outputs: fiber sums of constructible functions, byte for byte.

``tests/data/golden_sums.json`` holds seeded functions on two or three
variables (bounded and decaying unbounded pieces, moduli 1 and 2, bounds
with slopes in the earlier variables, factors with slopes over 1, 2 and
3) as ``motint.pfun/1`` JSON, and for each the exact ``to_json`` string
of its sum over the innermost variable and of its total.  The test reads
its inputs from that file.  A change that claims to keep sums
byte-identical must keep this test passing unchanged.

Re-record only for a deliberate change of output, and list it in
``CHANGES.md``:

    PYTHONPATH=src python tests/test_golden_sums.py --record
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from motint import presburger
from motint import ring_a as R
from motint.cells import AffineForm, PCell, VarCell
from motint.presburger import PFun, PTerm, sum_fibers

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_sums.json"
CASES = 32
COEFS = ["1", "1 - L^-1", "L - 1", "L", "1/L", "(1 - L^-1)*(1 - L^-2)",
         "L + 1", "(L - 1)/(1 - L^-2)"]
BOUND_SLOPES = (-1, 0, 0, 1, Fraction(1, 2))


def _factors(rng, names) -> tuple:
    """No factor, or w/den for an integer form w together with the
    constant den, so that the product stays integral at every point."""
    if rng.random() < 0.5:
        return ()
    den = rng.choice((1, 2, 3))
    w = AffineForm.make({n: rng.randrange(0, 3) for n in names},
                        rng.randrange(0, 4))
    if den == 1:
        return (w,)
    return (w.scale(Fraction(1, den)), AffineForm.const_form(den))


def _input(index: int) -> PFun:
    """A seeded function; every piece sums to a finite total."""
    rng = random.Random(index)
    nvars = 2 + index % 2
    names = ("x", "y", "z")[:nvars]
    bounded = index % 4 < 2
    pieces = []
    for _ in range(rng.randrange(1, 5 - nvars)):
        open_var = None if bounded else rng.choice(names)
        tower = []
        for i, v in enumerate(names):
            # bounds move with earlier bounded variables only, so an open
            # direction never widens a later fiber; a fiber of width 0 has
            # an integral bound and a fiber of width below 2 one class
            width = None if v == open_var else rng.randrange(0, 4)
            earlier = [n for n in names[:i] if n != open_var]
            slopes = BOUND_SLOPES if width else (-1, 0, 1)
            lo = AffineForm.make({n: rng.choice(slopes) for n in earlier},
                                 rng.randrange(-2, 2))
            hi = None if width is None else lo.shift(width)
            mod = 2 if (width is None or width >= 2) and rng.random() < 0.4 \
                else 1
            tower.append(VarCell(lo, hi, mod, rng.randrange(mod)))
        terms = []
        for _ in range(rng.randrange(1, 5 - nvars)):
            coef = R.parse_ratfunc(rng.choice(COEFS)) \
                * R.from_int(rng.choice((1, 2, -1, -3)))
            slope = {v: (rng.choice((-1, -2)) if v == open_var
                         else rng.randrange(-1, 2)) for v in names}
            terms.append(PTerm(coef, AffineForm.make(slope, rng.randrange(-2, 3)),
                               _factors(rng, names)))
        pieces.append((PCell(names, tuple(tower)), tuple(terms)))
    return PFun(names, tuple(pieces))


def outputs(pf: PFun) -> tuple:
    """The to_json strings of the innermost sum and of the total."""
    inner = sum_fibers(pf)
    total = inner
    while total.vars:
        total = sum_fibers(total)
    return json.dumps(inner.to_json()), json.dumps(total.to_json())


def load() -> list:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_sums_match_golden_strings():
    rows = load()
    assert len(rows) == CASES
    for row in rows:
        got = outputs(PFun.from_json(row["input"]))
        assert got == (row["inner"], row["total"]), row["case"]


def test_sums_agree_cold_warm_and_cleared():
    # the summation memos only skip recomputation: a cold cache per input,
    # caches warmed by every input, and caches cleared once give one output
    memos = [v for v in vars(presburger).values()
             if callable(getattr(v, "cache_clear", None))]
    funs = [PFun.from_json(row["input"]) for row in load()]

    def run(clear_each: bool) -> list:
        out = []
        for pf in funs:
            if clear_each:
                for memo in memos:
                    memo.cache_clear()
            out.append(outputs(pf))
        return out

    cold = run(clear_each=True)
    for memo in memos:
        memo.cache_clear()
    cleared = run(clear_each=False)
    warm = run(clear_each=False)
    assert cold == cleared == warm


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_sums.py --record")
    rows = []
    for i in range(CASES):
        pf = _input(i)
        inner, total = outputs(pf)
        rows.append({"case": i, "input": pf.to_json(),
                     "inner": inner, "total": total})
    GOLDEN.parent.mkdir(exist_ok=True)
    # one case a line
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n",
                      encoding="utf-8")
