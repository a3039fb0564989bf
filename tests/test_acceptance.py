"""End-to-end acceptance checks.

Eight criteria, one test each; every test ends by printing a single
PASS line with its headline numbers (visible with ``pytest -rP`` or
``-s``; the pytest verdict line itself is the pass/fail record).
"""

import random
from fractions import Fraction

from motint import formula as F
from motint import qplus
from motint import ring_a as R
from motint.cells import AffineForm, PCell, VarCell
from motint.cplus import is_equal, normal_form, specialize
from motint.errors import points_cap
from motint.padic import PadicElem, PContext, eval_formula
from motint.presburger import PFun, PTerm, sum_fibers
from motint.qplus import (ResClass, ResGen, RewriteLog, count_class,
                          from_formula)
from motint.vfint import (cell_contains, change_of_variables_1d,
                          decompose_fragment, integrate_iterated)
from motint.zeta import parse_poly, verify_meuser, zmot_monomial

from haar import haar_sum

GRID4 = [PContext(2, 1), PContext(3, 1), PContext(2, 2), PContext(3, 2)]


def vf(text, **extra):
    defaults = {"t": F.VF, "x": F.VF, "y": F.VF}
    defaults.update(extra)
    return F.parse_formula(text, defaults)


def full_sum(pf: PFun) -> R.ARat:
    while pf.vars:
        pf = sum_fibers(pf)
    return pf.eval_arat({})


def integral(cond, order, ctx, weight=()):
    out = integrate_iterated(cond, order, ctx, weight=weight)
    assert out.integrable
    return out.value


def random_points(rng, ctx, count):
    """Exact field elements spread over orders in [-6, 6], precision 12."""
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


FRAGMENT_CORPUS = [
    "ord(t) >= 0",
    "ord(t) = 3",
    "ord(t) >= 2 && ord(t) <= 5",
    "ord(t) = 0 mod 2 && ord(t) >= 0",
    "ord(t - 1) >= 1 && ord(t) = 0",
    "ord(t) >= 0 && ord(t - 1) = 0",
    "ord(t - 1) >= 2 || ord(t + 1) >= 2",
    "!(ord(t) >= 1) && ord(t) >= -3",
    "ac_1(t) = 1 && ord(t) = 0",
    "ac_2(t - 1) = 3 && ord(t - 1) <= 4",
    "ord(2*t - 1) >= 1",
    "ord(t - 1/2) = 1",
    "ac_1(t) != 2 && ord(t) >= 0 && ord(t) <= 6",
    "ord(t - 1) = ord(t - 2)",
    "exists s : res(1) . s*s = ac_1(t)",
]


# ---------------------------------------------------------------------------
# criterion 1: interpolation between the closed form and p-adic counting


def test_criterion_1_interpolation_exact_on_grid():
    checked = 0
    for text in ("x", "x^2", "x^3", "x*y", "x^2*y^3"):
        h = parse_poly(text)
        i_max = 6 if len(h.variables()) == 1 else 4
        series = zmot_monomial(h)      # one closed form per H
        for p in (2, 3, 5):
            for d in (1, 2):
                with points_cap(5 * 10 ** 7):
                    rep = verify_meuser(h, p, d, i_max, series=series)
                assert rep["all_match"], (text, p, d, rep["rows"])
                checked += len(rep["rows"])
    print(f"criterion 1 PASS: {checked} series coefficients match exactly "
          f"over 5 polynomials x grid {{2,3,5}}x{{1,2}}")


# ---------------------------------------------------------------------------
# criterion 2: symbolic summation against a numeric oracle

COEF_POOL = ["1", "2", "-1", "3", "1 - L^-1", "L - 1", "2*L", "1/L",
             "(1 - L^-1)*(1 - L^-2)", "L + 1"]


def _random_cell_1d(rng, var):
    lo = rng.randrange(-3, 4)
    hi = None if rng.random() < 0.5 else lo + rng.randrange(0, 7)
    mod = rng.choice([1, 1, 2, 3])
    res = rng.randrange(mod)
    return VarCell(AffineForm.const_form(lo),
                   None if hi is None else AffineForm.const_form(hi),
                   mod, res), lo, hi


def _random_terms(rng, bounded):
    """Terms over the variables of `bounded`; unbounded directions get
    decaying exponents so every sum converges geometrically."""
    terms = []
    for _ in range(rng.randrange(1, 3)):
        coef = R.parse_ratfunc(rng.choice(COEF_POOL))
        lpow = {}
        for var in sorted(bounded):
            slope = rng.choice([-1, -2])
            lpow[var] = slope if not bounded[var] else rng.randrange(-2, 2)
        form = AffineForm.make({v: Fraction(s) for v, s in lpow.items()},
                               Fraction(rng.randrange(-2, 3)))
        factors = ()
        if rng.random() < 0.4:
            factors = (AffineForm.make(
                {v: Fraction(rng.randrange(0, 2)) for v in sorted(bounded)},
                Fraction(rng.randrange(1, 9))),)
        terms.append(PTerm(coef, form, factors))
    return tuple(terms)


def _random_pfun_1d(rng):
    pieces = []
    info = []
    for _ in range(rng.randrange(1, 3)):
        vc, lo, hi = _random_cell_1d(rng, "n")
        terms = _random_terms(rng, {"n": hi is not None})
        pieces.append((PCell(("n",), (vc,)), terms))
        info.append((lo, hi))
    return PFun(("n",), tuple(pieces)), info


def _random_spec_2d(rng):
    """Draw piece data in a fixed variable order, independent of the
    tower order it will later be assembled in."""
    spec = []
    for _ in range(rng.randrange(1, 3)):
        vc_n, lo_n, hi_n = _random_cell_1d(rng, "n")
        vc_m, lo_m, hi_m = _random_cell_1d(rng, "m")
        terms = _random_terms(rng, {"n": hi_n is not None,
                                    "m": hi_m is not None})
        spec.append(({"n": vc_n, "m": vc_m}, terms,
                     {"n": (lo_n, hi_n), "m": (lo_m, hi_m)}))
    return spec


def _assemble_2d(spec, order):
    pieces = tuple(
        (PCell(tuple(order), tuple(cells[v] for v in order)), terms)
        for cells, terms, _ in spec)
    return PFun(tuple(order), pieces)


def test_criterion_2_summation_matches_numeric_oracle():
    rng = random.Random(20260818)
    tol = Fraction(1, 10 ** 12)
    checked = 0
    for _ in range(30):                       # one summed variable
        pf, info = _random_pfun_1d(rng)
        exact = full_sum(pf)
        for q in (2, 3):
            target = R.theta(exact, q)
            numeric = Fraction(0)
            seen = set()
            for lo, hi in info:
                top = hi if hi is not None else lo + 220
                for n in range(lo, top + 1):
                    if n in seen:
                        continue            # pieces may overlap
                    seen.add(n)
                    numeric += pf.eval_theta(q, {"n": n})
                    checked += 1
            assert abs(target - numeric) <= tol
    for _ in range(20):                       # two summed variables
        spec = _random_spec_2d(rng)
        pf = _assemble_2d(spec, ("n", "m"))
        exact = full_sum(pf)
        for q in (2, 3):
            target = R.theta(exact, q)
            numeric = Fraction(0)
            seen = set()
            for _, _, box in spec:
                lo_n, hi_n = box["n"]
                lo_m, hi_m = box["m"]
                for n in range(lo_n, (hi_n if hi_n is not None
                                      else lo_n + 64) + 1):
                    for m in range(lo_m, (hi_m if hi_m is not None
                                          else lo_m + 64) + 1):
                        if (n, m) in seen:
                            continue
                        seen.add((n, m))
                        numeric += pf.eval_theta(q, {"n": n, "m": m})
                        checked += 1
            assert abs(target - numeric) <= tol
    print(f"criterion 2 PASS: 50 random summations match the numeric "
          f"oracle at q in {{2,3}} within 1e-12 ({checked} point "
          f"evaluations)")


# ---------------------------------------------------------------------------
# criterion 3: integration order independence

FUBINI_CORPUS = [
    ("ord(x) >= 0 && ord(y) >= 0", ()),
    ("ord(x) >= 0 && ord(y) >= 0", ((1, "x", 0), (1, "y", 0))),
    ("ord(x) >= 0 && ord(y) >= ord(x)", ()),
    ("ord(x) >= 0 && ord(y) >= 0 && ord(x) + ord(y) = 3", ()),
    ("ord(x) >= 0 && ord(y) >= 0 && ord(x) <= ord(y) + 1", ()),
    ("ord(x) = 1 && ord(y) >= 2", ((2, "y", 0),)),
    ("ord(x) >= 0 && ord(y - 1) >= 1", ((1, "y", 1),)),
    ("ord(x) >= 1 && ord(y) >= 1 && ord(x) = ord(y)", ()),
    ("ord(x) >= 0 && ord(y) >= 0 && 2*ord(x) + ord(y) <= 4", ()),
    ("ac_1(x) = 1 && ord(x) = 0 && ord(y) >= ord(x)", ()),
    ("ord(x) >= 0 && ord(y) >= 0", ((1, "x", 0), (3, "y", 0))),
]


def test_criterion_3_fubini_orders_agree():
    for ctx in (PContext(2, 1), PContext(3, 1)):
        for text, w in FUBINI_CORPUS:
            cond = vf(text)
            a = integral(cond, ("x", "y"), ctx, weight=w)
            b = integral(cond, ("y", "x"), ctx, weight=w)
            assert is_equal(a, b) == "equal", (text, ctx.p)
    rng = random.Random(3141)
    for _ in range(20):
        spec = _random_spec_2d(rng)
        assert (full_sum(_assemble_2d(spec, ("n", "m")))
                == full_sum(_assemble_2d(spec, ("m", "n"))))
    print(f"criterion 3 PASS: {len(FUBINI_CORPUS)} double integrals at "
          f"p in {{2,3}} and 20 random double sums are order-independent")


# ---------------------------------------------------------------------------
# criterion 4: affine change of variables


def test_criterion_4_change_of_variables():
    rng = random.Random(271828)
    ctxs = [PContext(2, 1), PContext(3, 1)]
    plain, weighted = 0, 0
    for k in range(20):
        u = Fraction(rng.choice([1, 2, 3, 4, 5]),
                     rng.choice([1, 2, 3])) * rng.choice([1, -1])
        use_weight = k % 3 == 0
        if use_weight:
            c = Fraction(0)
            a0 = rng.randrange(0, 3)
            b0 = a0 + rng.randrange(0, 4)
            text = f"ord(t) >= {a0} && ord(t) <= {b0}"
            w = ((rng.choice([1, 2]), "t", Fraction(0)),)
            weighted += 1
        else:
            c = Fraction(rng.randrange(-4, 5), rng.choice([1, 2]))
            a0 = rng.randrange(0, 3)
            b0 = a0 + rng.randrange(0, 4)
            m = rng.choice([1, 1, 2, 3])
            text = f"ord(t) >= {a0} && ord(t) <= {b0}"
            if m > 1:
                text += f" && ord(t) = {rng.randrange(m)} mod {m}"
            w = ()
            plain += 1
        cond = vf(text)
        for ctx in ctxs:
            new_cond, new_w, factor = change_of_variables_1d(
                u, c, cond, "t", ctx, weight=w)
            rhs = integral(cond, ("t",), ctx, weight=w)
            lhs = integral(new_cond, ("t",), ctx, weight=new_w).scale(factor)
            assert is_equal(lhs, rhs) == "equal", (k, text, u, c, ctx.p)
            # independent level-by-level count of the untransformed side
            level = b0 + 2
            assert specialize(rhs, ctx) == haar_sum(cond, w, ctx, level), \
                (k, text, ctx.p)
    print(f"criterion 4 PASS: 20 random affine substitutions "
          f"({weighted} weighted, {plain} plain) preserve the integral "
          f"exactly and match counting at p in {{2,3}}")


# ---------------------------------------------------------------------------
# criterion 5: counting specializations of integrals vs brute-force Haar

WEIGHTED_ENTRIES = [
    # (condition, weight multiplicity m, center; levels chosen so that
    #  the certified tail 4 q^-(1+m) level is at most 1e-9)
    ("ord(t) >= 0", 1, 0),
    ("ord(t) = 0 mod 2 && ord(t) >= 0", 2, 0),
    ("ord(t - 1) >= 1", 2, 1),
    ("ord(t) = 1 mod 3 && ord(t) >= 1", 2, 0),
]

# conditions supported inside the integers, with the level that fully
# determines membership (so the truncated Riemann sum is exact there)
DET_LEVELS = {
    "ord(t) >= 0": 1,
    "ord(t) = 3": 4,
    "ord(t) >= 1 && ord(t) <= 3": 4,
    "ord(t - 1) >= 1 && ord(t) = 0": 2,
    "ord(t) >= 0 && ord(t - 1) = 0": 2,
    "ord(t - 1) >= 2 || ord(t + 1) >= 2": 3,
    "!(ord(t) >= 1) && ord(t) >= 0": 1,
    "ac_1(t) = 1 && ord(t) = 0": 2,
    "ac_2(t - 1) = 3 && ord(t - 1) <= 2 && ord(t - 1) >= 0": 4,
    "ac_1(t) != 2 && ord(t) >= 0 && ord(t) <= 3": 4,
    "ord(2*t - 1) >= 1 && ord(t) >= 0": 2,
    "ord(t + 1) = 1": 3,
    "ord(t - 1) = ord(t - 2) && ord(t) >= 0": 3,
    "ord(t) = 1 mod 2 && ord(t) >= 1 && ord(t) <= 3": 4,
    "(exists s : res(1) . s*s = ac_1(t)) && ord(t) = 0": 2,
}


def _tail_level(q, m):
    """Smallest level with 4 q^-(1+m) level <= 1e-9."""
    level = 1
    while 4 * Fraction(q) ** (-(1 + m) * level) > Fraction(1, 10 ** 9):
        level += 1
    return level


def test_criterion_5_counting_matches_integration():
    exact_checks, bounded_checks = 0, 0
    for text, level in DET_LEVELS.items():
        cond = vf(text)
        for ctx in GRID4:
            value = integral(cond, ("t",), ctx)
            got = specialize(value, ctx)
            want = haar_sum(cond, (), ctx, level)
            assert got == want, (text, ctx.p, ctx.d, got, want)
            exact_checks += 1
    for text, m, center in WEIGHTED_ENTRIES:
        cond = vf(text)
        w = ((m, "t", Fraction(center)),)
        for ctx in GRID4:
            level = _tail_level(ctx.q, m)
            value = integral(cond, ("t",), ctx, weight=w)
            got = specialize(value, ctx)
            approx = haar_sum(cond, w, ctx, level)
            bound = 4 * Fraction(ctx.q) ** (-(1 + m) * level)
            assert bound <= Fraction(1, 10 ** 9)
            assert abs(got - approx) <= bound, (text, ctx.p, ctx.d)
            bounded_checks += 1
    print(f"criterion 5 PASS: {exact_checks} level-determined integrals "
          f"match counting exactly and {bounded_checks} unbounded ones "
          f"within 1e-9 on the grid {{2,3}}x{{1,2}}")


# ---------------------------------------------------------------------------
# criterion 6: class rewrites preserve counting

ATOMS_1 = ["r1 = 0", "r1 != 0", "r1 = 1", "r1*r1 = 1", "r1 + 1 = 0"]
ATOMS_2 = ["r2 = 0", "r2 != 1", "r1 + r2 = 0", "r1*r2 = 1", "r2*r2 = r1"]


def _random_class(rng):
    deep = rng.random() < 0.3
    if deep:
        names = (("s", 2),)
        atoms = ["s = 0", "s != 0", "s*s = 1", "s + 1 = 0", "s*s = s"]
    else:
        two = rng.random() < 0.6
        names = (("r1", 1), ("r2", 1)) if two else (("r1", 1),)
        atoms = ATOMS_1 + (ATOMS_2 if two else [])
    parts = rng.sample(atoms, k=rng.randrange(1, 3))
    glue = " && " if rng.random() < 0.7 else " || "
    sorts = {n: F.RES(d) for n, d in names}
    phi = F.parse_formula(glue.join(parts), sorts)
    return from_formula(names, phi, lpow=rng.randrange(0, 3))


def _split_merge_classes():
    """Classes whose normalization exercises branch splits and merges."""
    out = []
    pairs = [("r2 = 0", "r2 != 0"), ("r2 = 1", "r2 != 1"),
             ("r1 = r2", "r1 != r2")]
    bases = ["r1 = 1", "r1*r1 = 1", "r1 != 0"]
    sorts = {"r1": F.RES(1), "r2": F.RES(1)}
    for base in bases:
        for c, d in pairs:
            phi = F.parse_formula(f"({base} && {c}) || ({base} && {d})", sorts)
            out.append(from_formula((("r1", 1), ("r2", 1)), phi))
    # a variable constrained only to avoid one point joins an unconstrained one
    small = ResGen((("r1", 1),), F.parse_formula("r1 = 1", sorts), 0)
    big = ResGen((("r1", 1), ("r2", 1)),
                 F.parse_formula("r1 = 1 && r2 != 0", sorts), 0)
    out.append(ResClass((small, big)))
    return out


def test_criterion_6_rewrites_preserve_counting():
    rng = random.Random(606)
    integrable = [t for t in FRAGMENT_CORPUS[:10]
                  if t != "ac_2(t - 1) = 3 && ord(t - 1) <= 4"]
    integrable.append("ac_2(t - 1) = 3 && ord(t - 1) <= 4 && ord(t - 1) >= 0")
    with RewriteLog() as log:
        for _ in range(40):
            qplus.normal_form(_random_class(rng))
        for rc in _split_merge_classes():
            qplus.normal_form(rc)
        for text in integrable:
            out = integrate_iterated(vf(text), ("t",), PContext(2, 1))
            normal_form(out.value)
    seen = set()
    instances = []
    for rule, before, after in log.events:
        key = (rule, str(before), str(after))
        if key not in seen:
            seen.add(key)
            instances.append((rule, before, after))
    kinds = {rule for rule, _, _ in instances}
    assert {"eq0", "eq2", "eq3"} <= kinds, kinds
    assert len(instances) >= 30, len(instances)
    grid = [PContext(p, d) for p in (2, 3, 5) for d in (1, 2)]
    for rule, before, after in instances:
        for ctx in grid:
            nb = count_class(before, ctx)
            na = count_class(after, ctx)
            assert nb == na, (rule, ctx.p, ctx.d, nb, na)
    print(f"criterion 6 PASS: all {len(instances)} distinct rewrite instances "
          f"({', '.join(sorted(kinds))}) preserve counting on the grid "
          f"{{2,3,5}}x{{1,2}}")


# ---------------------------------------------------------------------------
# criterion 7: coefficient ring evaluation and positivity

NONNEG_CORPUS = [
    ("L - 2", False), ("L - 1", True), ("(L - 2)^2/(L - 1)", True),
    ("1", True), ("-1", False), ("L", True), ("1/L", True),
    ("1 - L^-1", True), ("1/(1 - L^-2)", True), ("2 - L", False),
    ("L^2 - L", True), ("(L - 1)*(L - 2)", False), ("L^2 - 2*L + 1", True),
    ("(L - 1)^3", True), ("L + 1", True), ("-L^-2", False),
    ("(L - 2)^2", True), ("L^2 - 1", True),
    ("(1 - L^-1)*(1 - L^-2)", True), ("L^3 - 2*L^2 + L", True),
]


def _random_ring_elem(rng):
    pool = ["L", "1/L", "1/(1 - L^-1)", "1/(1 - L^-2)", "1/(1 - L^-3)",
            "L - 1", "1 - L^-1", "L + 2"]
    total = R.ZERO
    for _ in range(rng.randrange(1, 4)):
        prod = R.from_int(rng.randrange(-4, 5))
        for _ in range(rng.randrange(0, 3)):
            prod = prod * R.parse_ratfunc(rng.choice(pool))
        total = total + prod
    return total


def test_criterion_7_coefficient_ring_theta_and_positivity():
    rng = random.Random(77)
    for _ in range(200):
        a, b, c = (_random_ring_elem(rng) for _ in range(3))
        for q in (2, 3, 5):
            ta, tb, tc = R.theta(a, q), R.theta(b, q), R.theta(c, q)
            assert R.theta(a + b, q) == ta + tb
            assert R.theta(a * b, q) == ta * tb
            assert R.theta(a * (b + c), q) == ta * (tb + tc)
            assert R.theta(R.ONE, q) == 1 and R.theta(R.ZERO, q) == 0
    assert len(NONNEG_CORPUS) == 20
    for text, want in NONNEG_CORPUS:
        a = R.parse_ratfunc(text)
        assert R.is_nonneg(a) is want, text
        if want:                      # certificates are sound at every q
            for q in (2, 3, 5, 7):
                assert R.theta(a, q) >= 0, text
    print("criterion 7 PASS: theta_q is a ring morphism on 200 random "
          "triples at q in {2,3,5}; positivity matches the 20-case corpus")


# ---------------------------------------------------------------------------
# criterion 8: cell decompositions agree with direct evaluation


def test_criterion_8_decomposer_soundness():
    total = 0
    for ctx in (PContext(2, 1), PContext(3, 1)):
        rng = random.Random(800 + ctx.p)
        pts = random_points(rng, ctx, 500)
        for text in FRAGMENT_CORPUS:
            cond = vf(text)
            dec = decompose_fragment(cond, "t", ctx)
            for t in pts:
                inside = eval_formula(cond, {"t": t}, ctx)
                holders = sum(cell_contains(c, t, ctx) for c in dec.cells)
                assert holders == (1 if inside else 0), (text, ctx.p)
                total += 1
    print(f"criterion 8 PASS: {len(FRAGMENT_CORPUS)} conditions x 500 "
          f"points x 2 primes agree with direct evaluation "
          f"({total} membership checks)")
