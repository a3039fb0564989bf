"""Record the expected values of the counting workload.

Run from the repository root:

    python3 bench/record.py

It rewrites ``bench/data/counting.json``.  Monomials are recorded from
their closed form (``zmot_monomial`` specialized by ``expand_counts``),
non-monomials by full enumeration (``zprime_count(method="enumerate")``),
and residue formulas by enumerating assignments through
``padic.eval_formula``; every recorded residue count is cross-checked
against ``qplus.count_class``.  The benchmark itself only compares
against the recorded numbers, so it never recomputes an expected value.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from motint import formula as F                      # noqa: E402
from motint.padic import PContext, eval_formula       # noqa: E402
from motint.qplus import count_class, from_formula   # noqa: E402
from motint.zeta import parse_poly, zmot_monomial, zprime_count  # noqa: E402

from workloads import DATA, GRID, assignments        # noqa: E402

# (polynomial over x, y, z; p; d; i_max), sized so that each cylinder
# count takes well under a second on one core
CYLINDER = [
    ("x*y", 2, 1, 4), ("x*y", 3, 1, 3), ("x*y", 2, 2, 3), ("x*y", 3, 2, 1),
    ("x^2*y", 2, 1, 4), ("x^2*y", 3, 1, 3), ("x^2*y", 2, 2, 2),
    ("x^2*y", 3, 2, 1),
    ("x^2*y^2", 2, 1, 4), ("x^2*y^2", 3, 1, 3), ("x^2*y^2", 2, 2, 2),
    ("x*y*z", 2, 1, 3), ("x*y*z", 2, 2, 1),
    ("x*y - z^2", 2, 1, 4), ("x*y - z^2", 2, 2, 1),
    ("x^2 - y^3", 2, 1, 4), ("x^2 - y^3", 3, 1, 3), ("x^2 - y^3", 2, 2, 3),
    ("x^2 - y^3", 3, 2, 1),
    ("x^2 + y^2", 3, 1, 3), ("x^2 + y^2", 2, 2, 3), ("x^2 + y^2", 3, 2, 1),
    ("x*y - 1", 2, 2, 3), ("x*y - 1", 3, 2, 2),
    ("x^2 - y", 2, 2, 3), ("x^2 - y", 3, 2, 2),
    ("x*y - z", 2, 1, 4),
]

# residue-sorted formulas in two free variables x, y
RESIDUE = [
    "x*y = 1",
    "x*x = y",
    "x*x + y*y = 1",
    "x*y = 0",
    "x != 0 && y*y = x",
    "x*x*x = y*y",
    "x + y = 1 && x*y != 0",
    "x*x = x && y != 1",
]


def cylinder_entry(text, p, d, i_max):
    h = parse_poly(text)
    if h.as_monomial() is not None:
        vals = zmot_monomial(h).expand_counts(PContext(p, d), i_max)
        shells = zprime_count(h, p, d, i_max, method="shells").values
        if list(vals) != list(shells):
            raise SystemExit(f"{text} p={p} d={d}: closed form {vals} vs "
                             f"shell count {shells}")
    else:
        vals = zprime_count(h, p, d, i_max, method="enumerate").values
    return {"h": text, "p": p, "d": d, "i_max": i_max,
            "values": [str(v) for v in vals]}


def residue_entry(text, p, d, level):
    sorts = {"x": F.RES(level), "y": F.RES(level)}
    f = F.parse_formula(text, sorts)
    free = F.free_vars(f)
    ctx = PContext(p, d)
    rings = [ctx.residue_ring(v.var_sort.depth) for v in free]
    count = sum(1 for values in assignments(rings)
                if eval_formula(f, {v.name: x for v, x in zip(free, values)},
                                ctx))
    names = tuple((v.name, v.var_sort.depth) for v in free)
    other = count_class(from_formula(names, f), ctx)
    if other != count:
        raise SystemExit(f"{text} p={p} d={d}: {count} vs count_class {other}")
    return {"formula": text, "vars": [v.name for v in free], "p": p, "d": d,
            "level": level, "count": count}


def main() -> int:
    out = {"cylinder": [cylinder_entry(*e) for e in CYLINDER],
           "residue": [residue_entry(t, p, d, level)
                       for t in RESIDUE for p, d in GRID for level in (1, 2)]}
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {DATA.name}: {len(out['cylinder'])} cylinder counts, "
          f"{len(out['residue'])} residue counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
