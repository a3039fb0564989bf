"""Seeded job generators for the three benchmark workloads.

Each generator turns a seed into a fixed list of jobs.  A job calls the
library's public functions, checks the answer against a
representation-independent value (an exact count, a specialization, the
agreement of two integration or summation orders) and returns the sizes
it can read off its results.  A wrong answer raises ``Mismatch``; any
other exception is a failure unless the job lists it in ``expect``.

The seed draws variable names (keeping their relative order), signs,
random points, the values of the summed functions and the job order.  The
mix of job kinds and every parameter that sets a job's cost (exponents,
condition constants, (p, d), box shapes, the recorded entries used) are
fixed per job index, so that two seeds give different inputs of the same
cost.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from motint import formula as F
from motint import ring_a as R
from motint.cells import AffineForm, PCell, VarCell
from motint.cplus import is_equal, specialize
from motint.padic import PadicElem, PContext, eval_formula
from motint.presburger import PFun, PTerm, sum_fibers
from motint.vfint import cell_contains, decompose_fragment, integrate_iterated
from motint.zeta import parse_poly, zmot_monomial, zprime_count

DATA = Path(__file__).resolve().parent / "data" / "counting.json"

WORKLOADS = ("closed-form", "counting", "sums")
GRID = ((2, 1), (3, 1), (2, 2), (3, 2))
NAMES = ("a", "b", "c", "u", "v", "w", "x", "y", "z")


class Mismatch(Exception):
    """A job's answer differs from its checked value."""


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], dict]
    expect: tuple = ()          # exception types that are a correct outcome


def _rename(text: str, mapping: dict) -> str:
    """Rename single-letter variables in formula or polynomial text."""
    return re.sub(r"\b[a-z]\b", lambda m: mapping.get(m[0], m[0]), text)


# ---------------------------------------------------------------------------
# closed-form: zeta.zmot_monomial and vfint.integrate_iterated

# exponent vectors of the zmot jobs, one job each per pass
ZMOT_EXPONENTS = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (3, 3),
                  (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1),
                  (1, 1, 1, 1), (2, 1, 1, 1)]
ZMOT_IMAX = 6

# two-variable integration templates: condition text over x, y with
# {placeholders}, and weight (multiplicity, variable, center) triples
INTEGRALS = [
    ("ord(x) >= {a} && ord(y) >= {b}", ()),
    ("ord(x) >= {a} && ord(y) >= {b}", ((1, "x", 0), (1, "y", 0))),
    ("ord(x) >= {a} && ord(y) >= ord(x)", ()),
    ("ord(x) >= 0 && ord(y) >= 0 && ord(x) + ord(y) = {s}", ()),
    ("ord(x) >= 0 && ord(y) >= 0 && ord(x) <= ord(y) + {c}", ()),
    ("ord(x) = {a} && ord(y) >= {b}", ((2, "y", 0),)),
    ("ord(x) >= 0 && ord(y - {k}) >= {b}", ((1, "y", "{k}"),)),
    ("ord(x) >= {a} && ord(y) >= {a} && ord(x) = ord(y)", ()),
    ("ord(x) >= 0 && ord(y) >= 0 && 2*ord(x) + ord(y) <= {s}", ()),
    ("ac_1(x) = 1 && ord(x) = {a} && ord(y) >= ord(x)", ()),
    ("ord(x) >= 0 && ord(y) >= 0", ((1, "x", 0), (3, "y", 0))),
    ("ord(x) = {c} mod 2 && ord(x) >= 0 && ord(y) >= ord(x)", ()),
]
INTEGRAL_JOBS = 132


def _zmot_job(exps, rng) -> Job:
    # the cost depends on which exponent the first variable (in name order)
    # carries, so exponents follow the sorted names in the order given
    names = sorted(rng.sample(NAMES, len(exps)))
    sign = rng.choice(("", "-"))
    h = parse_poly(sign + "*".join(f"{v}^{e}" if e > 1 else v
                                   for v, e in zip(names, exps)))
    ctxs = [PContext(p, d) for p, d in GRID]

    def run() -> dict:
        rs = zmot_monomial(h)
        for ctx in ctxs:
            got = rs.expand_counts(ctx, ZMOT_IMAX)
            want = zprime_count(h, ctx.p, ctx.d, ZMOT_IMAX,
                                method="shells").values
            if list(got) != list(want):
                raise Mismatch(f"{h} at q={ctx.q}: {got} != {want}")
        deg = 0
        for _, coeff in rs.numerator:
            for t in coeff.terms:
                for _, terms in t.pf.pieces:
                    deg = max(deg, *(len(x.coef.denom) - 1 for x in terms))
        return {"numer_terms": len(rs.numerator),
                "denom_factors": len(rs.denominator),
                "denom_deg_max": deg}

    return Job("zmot", str(h), run)


def _integral_job(template, shape_rng, rng) -> Job:
    text, weight = template
    params = {"a": shape_rng.randrange(0, 3), "b": shape_rng.randrange(0, 3),
              "c": shape_rng.randrange(0, 2), "s": shape_rng.randrange(1, 5),
              "k": shape_rng.choice((1, 2, 3))}
    x, y = sorted(rng.sample(NAMES, 2))
    cond_text = _rename(text.format(**params), {"x": x, "y": y})
    cond = F.parse_formula(cond_text, {x: F.VF, y: F.VF})
    weight = tuple((m, {"x": x, "y": y}[v], Fraction(str(c).format(**params)))
                   for m, v, c in weight)
    p, d = shape_rng.choice(GRID[:2])
    ctx = PContext(p, d)

    def run() -> dict:
        one = integrate_iterated(cond, (x, y), ctx, weight=weight)
        two = integrate_iterated(cond, (y, x), ctx, weight=weight)
        if not (one.integrable and two.integrable):
            raise Mismatch(f"{cond_text}: reported not integrable")
        if specialize(one.value, ctx) != specialize(two.value, ctx):
            raise Mismatch(f"{cond_text}: orders specialize differently")
        if is_equal(one.value, two.value) != "equal":
            raise Mismatch(f"{cond_text}: orders not identified as equal")
        return {"terms_out": len(one.value.terms),
                "discarded": len(one.discarded) + len(two.discarded)}

    return Job("integrate", f"{cond_text} w={weight} p={p}", run)


def closed_form(seed: int) -> list:
    rng = random.Random(seed)
    jobs = [_zmot_job(e, rng) for e in ZMOT_EXPONENTS]
    for i in range(INTEGRAL_JOBS):
        jobs.append(_integral_job(INTEGRALS[i % len(INTEGRALS)],
                                  random.Random(i), rng))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# counting: zeta.zprime_count(method="cylinder"), residue counts through
# padic.eval_formula, and membership at random points


def load_catalogue(path: Path = DATA) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _count_job(entry, rng) -> Job:
    old = sorted({ch for ch in entry["h"] if ch.isalpha()})
    # new names keep the order of the old ones, so seeds differ in names only
    mapping = dict(zip(old, sorted(rng.sample(NAMES, len(old)))))
    h = parse_poly(_rename(entry["h"], mapping))
    p, d, i_max = entry["p"], entry["d"], entry["i_max"]
    want = [Fraction(v) for v in entry["values"]]

    def run() -> dict:
        got = zprime_count(h, p, d, i_max, method="cylinder").values
        if list(got) != want:
            raise Mismatch(f"{h} at p={p} d={d}: {got} != {want}")
        return {"coefficients": len(got)}

    return Job("cylinder", f"{h} p={p} d={d} i_max={i_max}", run)


def assignments(rings):
    """Every tuple of ring elements, as ``motint count`` enumerates them."""
    return itertools.product(*[list(r.elements()) for r in rings])


def _residue_job(entry, rng) -> Job:
    old = entry["vars"]
    mapping = dict(zip(sorted(old), sorted(rng.sample(NAMES, len(old)))))
    new = [mapping[v] for v in old]
    level = entry["level"]
    text = _rename(entry["formula"], mapping)
    f = F.parse_formula(text, {n: F.RES(level) for n in new})
    free = F.free_vars(f)
    p, d = entry["p"], entry["d"]
    ctx = PContext(p, d)
    want = entry["count"]

    def run() -> dict:
        rings = [ctx.residue_ring(v.var_sort.depth) for v in free]
        count = 0
        points = 0
        for values in assignments(rings):
            points += 1
            if eval_formula(f, {v.name: x for v, x in zip(free, values)},
                            ctx):
                count += 1
        if count != want:
            raise Mismatch(f"{text} at p={p} d={d}: {count} != {want}")
        return {"points": points}

    return Job("residue", f"{text} p={p} d={d}", run)


# one-variable fragment templates for membership checks
MEMBERSHIP = [
    "ord(t) >= {a}",
    "ord(t) = {b}",
    "ord(t) >= {a} && ord(t) <= {b}",
    "ord(t) = {c} mod 2 && ord(t) >= {a}",
    "ord(t - {k}) >= 1 && ord(t) = 0",
    "ord(t) >= 0 && ord(t - {k}) = 0",
    "ord(t - 1) >= {b} || ord(t + 1) >= {b}",
    "!(ord(t) >= {b}) && ord(t) >= -3",
    "ac_1(t) = 1 && ord(t) = {a}",
    "ac_2(t - {k}) = 3 && ord(t - {k}) <= 4",
    "ord(2*t - 1) >= {a}",
    "ord(t - 1/2) = {a}",
    "ac_1(t) != 2 && ord(t) >= 0 && ord(t) <= {b}",
    "ord(t - 1) = ord(t - 2)",
    "exists s : res(1) . s*s = ac_1(t)",
]
MEMBERSHIP_POINTS = 60


def _random_points(rng, ctx, count):
    """Exact field elements over orders in [-6, 6], precision 12."""
    pts = []
    for _ in range(count):
        e = rng.randrange(-6, 7)
        coeffs = [Fraction(rng.randrange(1, ctx.p ** 12), ctx.p ** max(0, -e))
                  if rng.random() < 0.9 else Fraction(0)
                  for _ in range(ctx.d)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        pts.append(PadicElem.exact(ctx.p, ctx.d,
                                   [c * ctx.p ** max(0, e) for c in coeffs]))
    return pts


def _membership_job(template, shape_rng, rng) -> Job:
    params = {"a": shape_rng.randrange(0, 3), "b": shape_rng.randrange(1, 5),
              "c": shape_rng.randrange(0, 2), "k": shape_rng.choice((1, 2, 3))}
    text = template.format(**params)
    cond = F.parse_formula(text, {"t": F.VF})
    p, d = shape_rng.choice(GRID[:2])
    ctx = PContext(p, d)
    pts = _random_points(rng, ctx, MEMBERSHIP_POINTS)

    def run() -> dict:
        dec = decompose_fragment(cond, "t", ctx)
        for t in pts:
            inside = eval_formula(cond, {"t": t}, ctx)
            holders = sum(cell_contains(c, t, ctx) for c in dec.cells)
            if holders != (1 if inside else 0):
                raise Mismatch(f"{text} p={p}: {holders} cells hold a point "
                               f"{'inside' if inside else 'outside'}")
        return {"cells": len(dec.cells), "points": len(pts)}

    return Job("membership", f"{text} p={p}", run)


MEMBERSHIP_JOBS = 45


def counting(seed: int, catalogue: dict | None = None) -> list:
    cat = load_catalogue() if catalogue is None else catalogue
    rng = random.Random(seed)
    jobs = [_count_job(e, rng) for e in cat["cylinder"]]
    jobs += [_residue_job(e, rng) for e in cat["residue"]]
    for i in range(MEMBERSHIP_JOBS):
        jobs.append(_membership_job(MEMBERSHIP[i % len(MEMBERSHIP)],
                                    random.Random(i), rng))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# sums: presburger.PFun summed in two orders, evaluated at many points

COEFS = ["1", "1 - L^-1", "L - 1", "L", "1/L", "(1 - L^-1)*(1 - L^-2)",
         "L + 1"]
SCALES = (1, 2, 3, -1, -2)
SUM_JOBS = 100
# (variables, pieces, bounded), one job each in turn
SUM_SHAPES = [(2, 2, True), (2, 2, False), (2, 3, True), (2, 3, False),
              (2, 2, True), (2, 4, True), (3, 2, True), (3, 2, False)]
MODULI = (1, 1, 1, 2)
FACTOR_SHARE = 0.2
READ_POINTS = 8


def _random_pfun(nvars, npieces, bounded, shape_rng, rng):
    """Pieces as boxes with congruences.  When the function is not bounded,
    one variable of each piece is unbounded above, with a decaying L-power
    so that every sum converges.

    ``shape_rng`` fixes the structure that sets the cost (box lengths and
    relative offsets, moduli, open directions, terms, which L-power slopes
    vanish and how fast open directions decay, factors and their
    constants); ``rng`` draws the values (names, a translation, scalar
    multiples of the coefficients, signs of the bounded slopes, constant
    shifts of exponents)."""
    names = tuple(rng.sample(NAMES, nvars))
    shift = {v: rng.randrange(-1, 2) for v in names}
    spec = []
    for _ in range(npieces):
        open_var = None if bounded else names[shape_rng.randrange(nvars)]
        cells, box = {}, {}
        for v in names:
            lo = shape_rng.randrange(-1, 2) + shift[v]
            hi = None if v == open_var else lo + shape_rng.randrange(0, 3)
            mod = shape_rng.choice(MODULI)
            res = (shape_rng.randrange(mod) + shift[v]) % mod
            cells[v] = VarCell(AffineForm.const_form(lo),
                               None if hi is None else AffineForm.const_form(hi),
                               mod, res)
            box[v] = (lo, hi)
        terms = []
        for _ in range(shape_rng.randrange(1, 3)):
            coef = R.parse_ratfunc(shape_rng.choice(COEFS)) \
                * R.from_int(rng.choice(SCALES))
            slope = {v: (shape_rng.choice((-1, -2)) if v == open_var
                         else rng.choice((-1, 1)) * shape_rng.randrange(0, 2))
                     for v in names}
            lpow = AffineForm.make(slope, rng.randrange(-2, 3))
            factors = ()
            if shape_rng.random() < FACTOR_SHARE:
                factors = (AffineForm.make(
                    {v: shape_rng.randrange(0, 2) for v in names},
                    shape_rng.randrange(1, 6)),)
            terms.append(PTerm(coef, lpow, factors))
        spec.append((cells, tuple(terms), box))
    return names, spec


def _assemble(spec, order) -> PFun:
    return PFun(tuple(order), tuple(
        (PCell(tuple(order), tuple(cells[v] for v in order)), terms)
        for cells, terms, _ in spec))


def _full_sum(pf: PFun):
    """The total, the piece count at each level, and the first partial sum."""
    pieces = [len(pf.pieces)]
    partials = []
    while pf.vars:
        pf = sum_fibers(pf)
        pieces.append(len(pf.pieces))
        partials.append(pf)
    return pf.eval_arat({}), pieces, partials[0]


def _sum_job(index, rng) -> Job:
    nvars, npieces, bounded = SUM_SHAPES[index % len(SUM_SHAPES)]
    shape_rng = random.Random(index)
    names, spec = _random_pfun(nvars, npieces, bounded, shape_rng, rng)
    fwd = _assemble(spec, names)
    rev = _assemble(spec, names[::-1])
    reads = [{v: rng.randrange(-3, 6) for v in names}
             for _ in range(READ_POINTS)]

    def run() -> dict:
        one, pieces_fwd, inner = _full_sum(fwd)
        two, pieces_rev, _ = _full_sum(rev)
        if one != two:
            raise Mismatch(f"orders disagree: {one} != {two}")
        # reads: point values of the input and of the first partial sum
        for env in reads:
            for q in (2, 3):
                if R.theta(fwd.eval_arat(env), q) != fwd.eval_theta(q, env):
                    raise Mismatch(f"eval_arat and eval_theta differ at {env}")
            outer = {v: env[v] for v in inner.vars}
            if bounded:
                last = names[-1]
                lo, hi = _span(spec, last)
                for q in (2, 3):
                    direct = sum(fwd.eval_theta(q, {**outer, last: k})
                                 for k in range(lo, hi + 1))
                    if inner.eval_theta(q, outer) != direct:
                        raise Mismatch(f"fiber sum differs at {outer}")
        if bounded:
            box_pts = set()
            for _, _, box in spec:
                box_pts.update(itertools.product(
                    *[range(box[v][0], box[v][1] + 1) for v in names]))
            for q in (2, 3):
                direct = sum(fwd.eval_theta(q, dict(zip(names, pt)))
                             for pt in box_pts)
                if R.theta(one, q) != direct:
                    raise Mismatch(f"theta_{q} of the sum != point sum")
        return {"pieces_fwd": max(pieces_fwd), "pieces_rev": max(pieces_rev),
                "denom_deg": len(one.denom) - 1}

    return Job("sum", f"{nvars} vars {npieces} pieces "
               f"{'bounded' if bounded else 'unbounded'}", run)


def _span(spec, var):
    return (min(box[var][0] for _, _, box in spec),
            max(box[var][1] for _, _, box in spec))


def sums(seed: int) -> list:
    rng = random.Random(seed)
    jobs = [_sum_job(i, rng) for i in range(SUM_JOBS)]
    rng.shuffle(jobs)
    return jobs


def make_jobs(workload: str, seed: int) -> list:
    if workload == "closed-form":
        return closed_form(seed)
    if workload == "counting":
        return counting(seed)
    if workload == "sums":
        return sums(seed)
    raise ValueError(f"unknown workload {workload!r}")
