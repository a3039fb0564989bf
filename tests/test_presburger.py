"""Summation engine: frozen closed forms, Fubini at the level of iterated
sums, and numeric agreement with truncated series."""

import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motint import cli
from motint import ring_a as R
from motint.cells import AffineForm, PCell, VarCell, from_constraints, universe
from motint.cplus import MotFun, normal_form
from motint.errors import FrameMismatch, NotIntegrable
from motint.presburger import PFun, PTerm, sum_fibers
from motint.ring_a import ONE, ZERO, theta
from test_acceptance import full_sum
from test_cplus import extend
from test_differential import SETTINGS


def af(coeffs=None, const=0):
    return AffineForm.make(coeffs or {}, const)


def cell_ray(var, lo=0):
    return PCell((var,), (VarCell(af(const=lo), None),))


def one_var_fun(var, term, lo=0, hi=None, mod=1, res=0):
    hi_form = None if hi is None else af(const=hi)
    cell = PCell((var,), (VarCell(af(const=lo), hi_form, mod, res),))
    return PFun((var,), ((cell, (term,)),))


def test_geometric_ray():
    f = one_var_fun("i", PTerm(ONE, af({"i": -1})))
    assert full_sum(f) == R.parse_ratfunc("L/(L-1)")


def test_weighted_geometric_is_one():
    coef = R.parse_ratfunc("(L-1)/L")
    f = one_var_fun("i", PTerm(coef, af({"i": -1})))
    assert full_sum(f) == ONE


def test_polynomial_times_geometric():
    f = one_var_fun("i", PTerm(ONE, af({"i": -1}), (af({"i": 1}, 1),)))
    assert full_sum(f) == R.parse_ratfunc("L^2/(L^2 - 2*L + 1)")
    g = one_var_fun("i", PTerm(ONE, af({"i": -1}), (af({"i": 1}, 1), af({"i": 1}, 1))))
    # sum (i+1)^2 L^-i = L^2(L+1)/(L-1)^3
    assert full_sum(g) == R.parse_ratfunc("(L^3 + L^2)/(L^3 - 3*L^2 + 3*L - 1)")


def test_congruence_class_ray():
    f = one_var_fun("i", PTerm(ONE, af({"i": -1})), mod=2, res=1)
    assert full_sum(f) == R.parse_ratfunc("L/(L^2-1)")
    g = one_var_fun("i", PTerm(ONE, af({"i": -1})), mod=3, res=2)
    assert full_sum(g) == R.parse_ratfunc("L/(L^3-1)")


def test_shifted_start():
    f = one_var_fun("i", PTerm(ONE, af({"i": -1})), lo=4)
    assert full_sum(f) == R.parse_ratfunc("1/(L^3*(L-1))")


def test_downward_ray():
    cell = PCell(("i",), (VarCell(None, af(const=0)),))
    f = PFun(("i",), ((cell, (PTerm(ONE, af({"i": 1})),)),))
    assert full_sum(f) == R.parse_ratfunc("L/(L-1)")


def test_two_sided_divergence_and_flat_divergence():
    cell = PCell(("i",), (VarCell(None, None),))
    f = PFun(("i",), ((cell, (PTerm(ONE, af({"i": -1})),)),))
    with pytest.raises(NotIntegrable):
        sum_fibers(f)
    g = one_var_fun("i", PTerm(ONE, af()))
    with pytest.raises(NotIntegrable):
        sum_fibers(g)


def test_finite_interval_values():
    # sum_{i=0..j} L^-i evaluated after summing over i, at explicit j
    cells = from_constraints(("j", "i"), [
        ("ineq", af({"j": -1})),
        ("ineq", af({"i": -1})),
        ("ineq", af({"i": 1, "j": -1})),
    ])
    f = PFun(("j", "i"), tuple((c, (PTerm(ONE, af({"i": -1})),)) for c in cells))
    g = sum_fibers(f)
    for j in range(5):
        expect = sum(((ONE / R.L) ** i for i in range(j + 1)), ZERO)
        got = g.eval_arat({"j": j})
        assert got == expect, f"j={j}"


def test_triangle_count():
    # sum over 0 <= i <= j of 1 gives j + 1
    cells = from_constraints(("j", "i"), [
        ("ineq", af({"i": -1})), ("ineq", af({"i": 1, "j": -1})),
    ])
    f = PFun(("j", "i"), tuple((c, (PTerm(ONE, af()),)) for c in cells))
    g = sum_fibers(f)
    for j in range(6):
        assert g.eval_arat({"j": j}) == R.from_int(j + 1)


def test_faulhaber_sums():
    # sum_{i=0..j} i and sum_{i=0..j} i^2 at specific j
    cells = from_constraints(("j", "i"), [
        ("ineq", af({"i": -1})), ("ineq", af({"i": 1, "j": -1})),
    ])
    lin = PFun(("j", "i"), tuple((c, (PTerm(ONE, af(), (af({"i": 1}),)),))
                                 for c in cells))
    sq = PFun(("j", "i"), tuple((c, (PTerm(ONE, af(), (af({"i": 1}), af({"i": 1}))),))
                                for c in cells))
    glin = sum_fibers(lin)
    gsq = sum_fibers(sq)
    for j in range(7):
        assert glin.eval_arat({"j": j}) == R.from_int(j * (j + 1) // 2)
        assert gsq.eval_arat({"j": j}) == R.from_int(j * (j + 1) * (2 * j + 1) // 6)


def test_fubini_double_geometric():
    # indicator of 0 <= j <= i with weight L^-i, both summation orders
    cells_a = from_constraints(("i", "j"), [
        ("ineq", af({"j": -1})), ("ineq", af({"j": 1, "i": -1})),
    ])
    fa = PFun(("i", "j"), tuple((c, (PTerm(ONE, af({"i": -1})),)) for c in cells_a))
    va = full_sum(fa)
    cells_b = from_constraints(("j", "i"), [
        ("ineq", af({"j": -1})), ("ineq", af({"j": 1, "i": -1})),
    ])
    fb = PFun(("j", "i"), tuple((c, (PTerm(ONE, af({"i": -1})),)) for c in cells_b))
    vb = full_sum(fb)
    assert va == vb == R.parse_ratfunc("L^2/(L^2 - 2*L + 1)")


def test_reorder_matches():
    cells = from_constraints(("i", "j"), [
        ("ineq", af({"j": -1})), ("ineq", af({"j": 1, "i": -1})),
        ("cong", af({"i": 1, "j": 1}), 2),
    ])
    f = PFun(("i", "j"), tuple((c, (PTerm(ONE, af({"i": -1, "j": -1})),))
                               for c in cells))
    g = f.reorder(("j", "i"))
    assert full_sum(f) == full_sum(g)
    for env in ({"i": 3, "j": 1}, {"i": 2, "j": 2}, {"i": 5, "j": 0}):
        assert f.eval_arat(env) == g.eval_arat(env)


def test_algebra_and_eval():
    f = one_var_fun("i", PTerm(ONE, af({"i": -1})))
    g = one_var_fun("i", PTerm(ONE, af()), lo=2, hi=5)
    s = f + g
    assert s.eval_arat({"i": 0}) == ONE
    assert s.eval_arat({"i": 3}) == R.L_pow(-3) + ONE
    assert s.eval_arat({"i": 7}) == R.L_pow(-7)
    assert s.eval_arat({"i": -1}) == ZERO
    p = f * g
    assert p.eval_arat({"i": 3}) == R.L_pow(-3)
    assert p.eval_arat({"i": 1}) == ZERO
    d = s - f
    for i in range(-2, 8):
        assert d.eval_arat({"i": i}) == g.eval_arat({"i": i})


def test_eval_theta_matches_exact():
    f = one_var_fun("i", PTerm(R.parse_ratfunc("1/(L-1)"), af({"i": -2}),
                               (af({"i": 1}, 3),)))
    for i in (0, 1, 5):
        assert f.eval_theta(2, {"i": i}) == theta(f.eval_arat({"i": i}), 2)


def test_sum_matches_truncated_series():
    rng = random.Random(11)
    for trial in range(25):
        mod = rng.choice([1, 1, 2, 3])
        res = rng.randrange(mod)
        lo = rng.randint(-3, 3)
        slope = rng.choice([-1, -2, -3])
        shift = rng.randint(-2, 2)
        deg = rng.randint(0, 2)
        factors = tuple(af({"i": rng.randint(-2, 2)}, rng.randint(-3, 3))
                        for _ in range(deg))
        term = PTerm(ONE, af({"i": slope}, shift), factors)
        f = one_var_fun("i", term, lo=lo, mod=mod, res=res)
        total = full_sum(f)
        for q in (2, 3):
            # geometric tail bound: |f(i)| <= C * poly; cut when negligible
            acc = Fraction(0)
            for i in range(lo, lo + 220):
                if (i - res) % mod == 0:
                    acc += f.eval_theta(q, {"i": i})
            got = theta(total, q)
            assert abs(got - acc) < Fraction(1, 10 ** 12), f"trial {trial}"


def test_fractional_slope_congruence_refinement():
    # lpow i/2 on even i: values are integers, step exponent is -1 per class
    f = one_var_fun("i", PTerm(ONE, af({"i": Fraction(-1, 2)})), mod=2, res=0)
    assert full_sum(f) == R.parse_ratfunc("L/(L-1)")


def test_sum_requires_innermost():
    f = PFun(("i", "j"), ((universe(("i", "j")), (PTerm(ONE, af({"i": -1, "j": -1})),)),))
    with pytest.raises(FrameMismatch):
        sum_fibers(f, "i")


def test_json_round_trip():
    f = one_var_fun("i", PTerm(R.parse_ratfunc("L/(L-1)"), af({"i": -1}),
                               (af({"i": 2}, 1),)), lo=1, mod=2, res=1)
    assert PFun.from_json(f.to_json()) == f


def test_extend_and_multiply():
    f = one_var_fun("i", PTerm(ONE, af({"i": -1})))
    g = extend(f, ("p", "i"))
    assert g.vars == ("p", "i")
    assert g.eval_arat({"p": 99, "i": 2}) == R.L_pow(-2)
    h = extend(f, ("i", "k"))
    assert h.eval_arat({"i": 2, "k": -5}) == R.L_pow(-2)
    with pytest.raises(FrameMismatch):
        extend(f, ("j", "k"))


def test_overlapping_pieces_add_up(tmp_path, capsys):
    # a decaying ray above the diagonal and a flat box with a factor,
    # overlapping on 1 <= x <= 3, x <= y <= 5
    ray = (PCell(("x", "y"), (VarCell(af(const=0), af(const=3)),
                              VarCell(af({"x": 1}), None))),
           (PTerm(R.parse_ratfunc("L - 1"), af({"y": -1})),))
    box = (PCell(("x", "y"), (VarCell(af(const=1), af(const=4)),
                              VarCell(af(const=2), af(const=5), 2, 0))),
           (PTerm(R.parse_ratfunc("-2*L^-1"), af({"x": -1}), (af({"y": 1}, 1),)),))
    overlapping = PFun(("x", "y"), (ray,)) + PFun(("x", "y"), (box,))
    assert overlapping == PFun(("x", "y"), (ray, box))
    # the canonical form is where pieces are made disjoint
    (canon,) = normal_form(MotFun.from_pfun(overlapping)).terms
    disjoint = canon.pf
    points = [{"x": x, "y": y} for x, y in product(range(-1, 6), range(-1, 9))]
    for env in points:
        assert overlapping.eval_arat(env) == disjoint.eval_arat(env), env

    def depth(f):
        return max(sum(c.contains(env) for c, _ in f.pieces) for env in points)
    assert (depth(overlapping), depth(disjoint)) == (2, 1)
    g_over, g_dis = sum_fibers(overlapping), sum_fibers(disjoint)
    for x in range(-1, 6):
        assert g_over.eval_arat({"x": x}) == g_dis.eval_arat({"x": x}), x
    reports = []
    for name, f in (("overlapping", overlapping), ("disjoint", disjoint)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(f.to_json()))
        assert cli.main(["sum", "--file", str(path), "--q", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        reports.append((report["value"], report["theta"]))
    assert reports[0] == reports[1]
    assert reports[0][0] == str(full_sum(disjoint))


def test_reordered_three_variable_cell():
    # six points; summed in the order (z, y, x) the 8 reordered pieces
    # must not multiply, as they do when each summed piece is made
    # disjoint from the ones before it (540 pieces after one sum)
    cell = PCell(("x", "y", "z"), (
        VarCell(af(const=1), af(const=2), 3, 2),
        VarCell(af({"x": -1}, -2), af({"x": 1}), 2, 0),
        VarCell(af({"x": Fraction(1, 2)}, Fraction(-1, 2)), af({"y": -1}, 2),
                2, 1)))
    f = PFun(("x", "y", "z"), ((cell, (PTerm(ONE, af()),)),))
    assert full_sum(f) == R.from_int(6)
    g = f.reorder(("z", "y", "x"))
    assert len(sum_fibers(g).pieces) <= 27
    assert full_sum(g) == R.from_int(6)


# ---------------------------------------------------------------------------
# sum_fibers against truncated sums on generated bounded functions

COEFS = [ONE, R.parse_ratfunc("L - 1"), R.parse_ratfunc("1/(1 - L^-1)"),
         R.parse_ratfunc("-2*L^-1")]
SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def bounded_pfuns(draw):
    """Functions on 2-3 variables whose pieces have rational affine bounds
    in the earlier variables, congruences, integer L-powers and factors.
    A factor w/den with den 2 or 3 comes with the constant factor den, so
    the product stays integral while slopes and Faulhaber weights in the
    sums keep a denominator."""
    nvars = draw(st.integers(2, 3))
    names = ("x", "y", "z")[:nvars]
    slopes = (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)
    pieces = []
    for _ in range(draw(st.integers(1, 2))):
        tower = []
        for i in range(nvars):
            earlier = names[:i]
            lo = AffineForm.make({n: draw(st.sampled_from(slopes))
                                  for n in earlier}, draw(SMALL))
            width = draw(st.sampled_from((0, Fraction(1, 2), 1,
                                          Fraction(5, 3), 3)))
            hi = lo.shift(width) if draw(st.booleans()) else AffineForm.make(
                {n: draw(st.sampled_from(slopes)) for n in earlier},
                draw(SMALL) + width)
            m = draw(st.sampled_from((1, 1, 2, 3)))
            tower.append(VarCell(lo, hi, m, draw(st.integers(0, m - 1))))
        terms = []
        for _ in range(draw(st.integers(1, 2))):
            lpow = AffineForm.make({n: draw(st.integers(-1, 1)) for n in names},
                                   draw(st.integers(-1, 1)))
            factors = ()
            if draw(st.booleans()):
                w = AffineForm.make({n: draw(st.integers(0, 1)) for n in names},
                                    draw(st.integers(0, 2)))
                den = draw(st.sampled_from((1, 2, 3)))
                factors = (w,) if den == 1 else (
                    w.scale(Fraction(1, den)), AffineForm.const_form(den))
            terms.append(PTerm(draw(st.sampled_from(COEFS)), lpow, factors))
        pieces.append((PCell(names, tuple(tower)), tuple(terms)))
    return PFun(names, tuple(pieces))


def bounding_box(f: PFun) -> dict:
    """Integer ranges containing every point of every piece, by interval
    arithmetic on the bounds."""
    box: dict = {}
    for cell, _ in f.pieces:
        span: dict = {}
        for v, vc in zip(cell.vars, cell.tower):
            def ends(form):
                lo = hi = form.const
                for n, c in form.terms:
                    a, b = c * span[n][0], c * span[n][1]
                    lo, hi = lo + min(a, b), hi + max(a, b)
                return lo, hi
            span[v] = (math.floor(ends(vc.lo)[0]), math.ceil(ends(vc.hi)[1]))
        for v, (a, b) in span.items():
            old = box.get(v, (a, b))
            box[v] = (min(a, old[0]), max(b, old[1]))
    return box


def check_fiber_sums(f: PFun):
    partial = sum_fibers(f)
    if f.is_zero_fun():
        assert partial == PFun(f.vars[:-1], ())
        return
    box = bounding_box(f)
    last = f.vars[-1]
    prefix = partial.vars
    # one step beyond the box on each prefix side, where both sides are 0
    ranges = [range(box[v][0] - 1, box[v][1] + 2) for v in prefix]
    for point in product(*ranges):
        env = dict(zip(prefix, point))
        direct = ZERO
        for k in range(box[last][0], box[last][1] + 1):
            direct = direct + f.eval_arat({**env, last: k})
        assert partial.eval_arat(env) == direct, f"fiber sum at {env}"
    total = full_sum(f)
    assert full_sum(f.reorder(f.vars[::-1])) == total


@SETTINGS
@given(bounded_pfuns())
def test_fiber_sums_match_truncated_sums(f):
    check_fiber_sums(f)


def test_fiber_sums_rational_bounds_case():
    # 1/2*x + 1/3 <= y <= 3/2*x + 4 on x = 1 mod 2 in [-3/2, 17/3], y = 2
    # mod 3, next to a piece whose lower bound has slope 2/3
    c1 = PCell(("x", "y"), (
        VarCell(af(const=Fraction(-3, 2)), af(const=Fraction(17, 3)), 2, 1),
        VarCell(af({"x": Fraction(1, 2)}, Fraction(1, 3)),
                af({"x": Fraction(3, 2)}, 4), 3, 2)))
    c2 = PCell(("x", "y"), (
        VarCell(af(const=0), af(const=4)),
        VarCell(af({"x": Fraction(2, 3)}, Fraction(-1, 2)), af({"x": 1}, 3),
                2, 0)))
    t1 = PTerm(R.parse_ratfunc("(L-1)/(1-L^-2)"), af({"x": -1}, 1),
               (af({"y": 2}, 1),))
    t2 = PTerm(R.parse_ratfunc("L^2"), af({"x": -1, "y": -2}),
               (af({"x": 3, "y": 2}, -1),))
    check_fiber_sums(PFun(("x", "y"), ((c1, (t1, PTerm(ONE, af()))),
                                        (c2, (t2,)))))
