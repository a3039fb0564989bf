"""Valued-field cell decomposition and integration."""

import random
from fractions import Fraction

import pytest

from motint import formula as F
from motint import ring_a as R
from motint.cells import AffineForm, universe
from motint.cplus import MotFun, is_equal, normal_form, specialize
from motint.errors import (FrameMismatch, NotCellPresented, NotIntegrable,
                           OutsideFragment, SortError, ZeroDerivative)
from motint.padic import PadicElem, PContext, compiled, eval_formula
from motint.presburger import PFun, PTerm
from motint.vfint import (VFCell, cell_contains, change_of_variables_1d,
                          decompose_fragment, integrate_cell_family,
                          integrate_iterated)

from haar import haar_sum

Q2 = PContext(2, 1)
Q3 = PContext(3, 1)
GRID = [PContext(2, 1), PContext(3, 1), PContext(2, 2), PContext(3, 2)]


def vf(text, **extra):
    defaults = {"t": F.VF, "x": F.VF, "y": F.VF, "w": F.VF}
    defaults.update(extra)
    return F.parse_formula(text, defaults)


def const_fun(a):
    """The constant a as a constructible function over the point."""
    pf = PFun((), ((universe(()), (PTerm(a, AffineForm.make()),)),))
    return normal_form(MotFun.from_pfun(pf))


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


# ---------------------------------------------------------------------------
# decomposition


def test_unit_ball_decomposition():
    dec = decompose_fragment(vf("ord(t) >= 0"), "t", Q2)
    kinds = sorted(c.kind for c in dec.cells)
    assert kinds == ["ball", "point"]
    ball = [c for c in dec.cells if c.kind == "ball"][0]
    assert ball.center == 0 and ball.depth == 1
    env = {ball.z_name: 0}
    assert any(c.contains(env) for c in ball.z_cells)
    env = {ball.z_name: -1}
    assert not any(c.contains(env) for c in ball.z_cells)


def test_single_shell_decomposition():
    dec = decompose_fragment(vf("ord(t) = 3"), "t", Q2)
    balls = [c for c in dec.cells if c.kind == "ball"]
    assert len(balls) == 1
    points = [c for c in dec.cells if c.kind == "point"]
    assert not points           # the origin has infinite order


def test_two_center_decomposition_splits_near_one():
    cond = vf("ord(t - 1) >= 1 && ord(t) = 0")
    dec = decompose_fragment(cond, "t", Q2)
    balls = [c for c in dec.cells if c.kind == "ball"]
    assert balls and all(c.center == 1 for c in balls)
    points = [c for c in dec.cells if c.kind == "point"]
    assert [p.center for p in points] == [Fraction(1)]


def test_membership_two_center_example():
    cond = vf("ord(t - 1) >= 1 && ord(t) = 0")
    dec = decompose_fragment(cond, "t", Q2)
    rng = random.Random(7)
    for t in random_points(rng, Q2, 200):
        inside = eval_formula(cond, {"t": t}, Q2)
        holders = [c for c in dec.cells if cell_contains(c, t, Q2)]
        assert len(holders) == (1 if inside else 0)


CORPUS = [
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


def test_decomposer_soundness_corpus():
    for ctx in (Q2, Q3):
        rng = random.Random(100 + ctx.p)
        pts = random_points(rng, ctx, 60)
        for text in CORPUS:
            cond = vf(text)
            dec = decompose_fragment(cond, "t", ctx)
            for t in pts:
                inside = eval_formula(cond, {"t": t}, ctx)
                holders = sum(cell_contains(c, t, ctx) for c in dec.cells)
                assert holders == (1 if inside else 0), (text, ctx.p)


def test_decomposer_soundness_quadratic_extension():
    ctx = PContext(3, 2)
    rng = random.Random(31)
    pts = random_points(rng, ctx, 40)
    for text in CORPUS[:8]:
        cond = vf(text)
        dec = decompose_fragment(cond, "t", ctx)
        for t in pts:
            inside = eval_formula(cond, {"t": t}, ctx)
            holders = sum(cell_contains(c, t, ctx) for c in dec.cells)
            assert holders == (1 if inside else 0), text


def test_cell_test_is_transparent():
    # the test of each cell is built once per (cell, context) and kept in
    # the compiled store: answers are the same cold, warm and after the
    # store is emptied, point cells and parameters included
    ctx = PContext(3, 2)
    cond = vf("ac_1(t - 1) = 2 || ord(t) >= n", n=F.VG)
    dec = decompose_fragment(cond, "t", ctx, base_vg=("n",))
    assert {c.kind for c in dec.cells} == {"ball", "point"}
    pts = [ctx.vf(c) for c in (0, 1, 4, Fraction(1, 3), 10)]
    pts += random_points(random.Random(5), ctx, 30)
    envs = [{"n": n} for n in (-1, 0, 2)]

    def answers():
        return [[cell_contains(c, t, ctx, env) for c in dec.cells]
                for t in pts for env in envs]

    compiled.cache_clear()
    cold = answers()
    warm = answers()
    compiled.cache_clear()
    assert cold == warm == answers()
    inside = [eval_formula(cond, {"t": t, **env}, ctx)
              for t in pts for env in envs]
    assert [sum(row) for row in cold] == [int(x) for x in inside]


def test_cell_test_checks_the_angular_sort():
    # xi is res(2) in the angular condition of a depth-1 cell
    cell = VFCell("t", "ball", Fraction(0), 1, "xi",
                  F.parse_formula("xi = 1", {"xi": F.RES(2)}), "z",
                  (universe(("z",)),))
    with pytest.raises(SortError):
        cell_contains(cell, Fraction(1), Q2)


def test_outside_fragment_rejections():
    with pytest.raises(OutsideFragment):
        decompose_fragment(vf("ord(t*t) >= 0"), "t", Q2)
    with pytest.raises(OutsideFragment):
        decompose_fragment(vf("ord(t - x) >= 0"), "t", Q2)
    with pytest.raises(OutsideFragment):
        decompose_fragment(vf("t = 1"), "t", Q2)


def test_decomposition_json_shape():
    dec = decompose_fragment(vf("ord(t) >= 0"), "t", Q2)
    data = dec.to_json()
    assert data["format"] == "motint.celldecomposition/1"
    assert len(data["cells"]) == len(data["values"])
    kinds = {c["kind"] for c in data["cells"]}
    assert kinds == {"ball", "point"}


# ---------------------------------------------------------------------------
# integration of one variable


def test_unit_ball_volume():
    out = integrate_iterated(vf("ord(t) >= 0"), ("t",), Q2)
    assert out.integrable
    assert is_equal(out.value, const_fun(R.ONE)) == "equal"
    assert [d.center for d in out.discarded] == [Fraction(0)]


def test_geometric_weight():
    val = integral(vf("ord(t) >= 0"), ("t",), Q2, weight=((1, "t", 0),))
    expected = R.parse_ratfunc("L / (L + 1)")
    assert is_equal(val, const_fun(expected)) == "equal"
    assert specialize(val, Q2) == Fraction(2, 3)


def test_shell_volume_matches_count():
    val = integral(vf("ord(t) = 3"), ("t",), Q2)
    expected = (R.ONE - R.L_pow(-1)) * R.L_pow(-3)
    assert is_equal(val, const_fun(expected)) == "equal"
    assert specialize(val, Q2) == Fraction(1, 16)
    assert specialize(val, Q2) == haar_sum(vf("ord(t) = 3"), (), Q2, 5)


def test_two_center_volume():
    cond = vf("ord(t - 1) >= 1 && ord(t) = 0")
    val = integral(cond, ("t",), Q2)
    assert is_equal(val, const_fun(R.L_pow(-1))) == "equal"
    assert specialize(val, Q2) == haar_sum(cond, (), Q2, 5)


def test_congruence_shells():
    cond = vf("ord(t) >= 0 && ord(t) = 0 mod 2")
    val = integral(cond, ("t",), Q2)
    assert is_equal(val, const_fun(R.parse_ratfunc("L/(L+1)"))) == "equal"


def test_angular_condition_depth_one():
    cond = vf("ac_1(t) = 1 && ord(t) = 0")
    for ctx in GRID:
        val = integral(cond, ("t",), ctx)
        got = specialize(val, ctx)
        assert got == Fraction(1, ctx.q)
        assert got == haar_sum(cond, (), ctx, 4)


def test_angular_condition_depth_two_across_centers():
    cond = vf("ord(t - 1) = 1 && ac_2(t) = 3")
    for ctx in (Q2, PContext(2, 2)):
        val = integral(cond, ("t",), ctx)
        assert specialize(val, ctx) == haar_sum(cond, (), ctx, 5)


def test_weight_at_shifted_center():
    # translation invariance: the weight L^{-ord(t-1)} integrates like
    # L^{-ord t}, giving q/(q+1) at every grid point
    cond = vf("ord(t) >= 0")
    for ctx in GRID:
        val = integral(cond, ("t",), ctx, weight=((1, "t", 1),))
        assert specialize(val, ctx) == Fraction(ctx.q, ctx.q + 1)


def test_two_weights_interacting_centers():
    # L^{-ord(t) - ord(t-1)}: deep shells at either center carry the other
    # factor as a constant, so the total is 2*(q-1)/... = (q-1)/(q+1)
    cond = vf("ord(t) >= 0")
    expected = R.parse_ratfunc("(L - 1)/(L + 1)")
    w = ((1, "t", 0), (1, "t", 1))
    levels = {(2, 1): 8, (3, 1): 5, (2, 2): 4, (3, 2): 3}
    for ctx in GRID:
        val = integral(cond, ("t",), ctx, weight=w)
        got = specialize(val, ctx)
        assert got == R.theta(expected, ctx.q)
        lv = levels[ctx.p, ctx.d]
        # truncation error of the Riemann sum: at most 2 q^{-2 lv}
        assert abs(got - haar_sum(cond, w, ctx, lv)) \
            <= Fraction(4, ctx.q ** (2 * lv))


def test_additivity_over_disjoint_union():
    both = integral(vf("ord(t) = 2 || ord(t) = 5"), ("t",), Q3)
    first = integral(vf("ord(t) = 2"), ("t",), Q3)
    second = integral(vf("ord(t) = 5"), ("t",), Q3)
    assert is_equal(both, normal_form(first + second)) == "equal"


def test_divergent_integral():
    with pytest.raises(NotIntegrable):
        integrate_iterated(vf("ord(t) <= 0"), ("t",), Q2)
    out = integrate_iterated(vf("ord(t) <= 0"), ("t",), Q2, strict=False)
    assert not out.integrable and out.value is None


def test_divergent_by_weight():
    # L^{+ord t} over the maximal ideal grows as fast as the shells shrink
    with pytest.raises(NotIntegrable):
        integrate_iterated(vf("ord(t) >= 1"), ("t",), Q2,
                           weight=((-1, "t", 0),))


# ---------------------------------------------------------------------------
# manual cell families


def test_integrate_cell_family_manual():
    dec = decompose_fragment(vf("ord(t) >= 0"), "t", Q2)
    values = []
    for cell in dec.cells:
        if cell.kind == "point":
            values.append(MotFun.unit((), ()))
            continue
        frame = (cell.z_name,)
        pf = PFun(frame, ((universe(frame),
                           (PTerm(R.ONE,
                                  AffineForm.make({cell.z_name: -1})),)),))
        values.append(MotFun.from_pfun(pf,
                                       res_vars=((cell.xi_name,
                                                  cell.depth),)))
    out = integrate_cell_family(dec.with_values(values))
    assert out.integrable
    assert is_equal(out.value, const_fun(R.parse_ratfunc("L/(L+1)"))) == "equal"


def test_cell_family_value_frame_checked():
    dec = decompose_fragment(vf("ord(t) >= 0"), "t", Q2)
    bad = [MotFun.unit((), ()) for _ in dec.cells]
    with pytest.raises(FrameMismatch):
        integrate_cell_family(dec.with_values(bad))


# ---------------------------------------------------------------------------
# iterated integration


def test_product_of_unit_balls():
    cond = vf("ord(x) >= 0 && ord(y) >= 0")
    val = integral(cond, ("x", "y"), Q2)
    assert is_equal(val, const_fun(R.ONE)) == "equal"


def test_fubini_weighted_product():
    cond = vf("ord(x) >= 0 && ord(y) >= 0")
    w = ((1, "x", 0), (1, "y", 0))
    a = integral(cond, ("x", "y"), Q2, weight=w)
    b = integral(cond, ("y", "x"), Q2, weight=w)
    expected = R.parse_ratfunc("L*L/((L+1)*(L+1))")
    assert is_equal(a, const_fun(expected)) == "equal"
    assert is_equal(a, b) == "equal"
    assert specialize(a, Q2) == Fraction(4, 9)


def test_fubini_order_comparison():
    cond = vf("ord(x) >= 0 && ord(y) >= ord(x)")
    a = integral(cond, ("x", "y"), Q2)
    b = integral(cond, ("y", "x"), Q2)
    assert is_equal(a, const_fun(R.parse_ratfunc("L/(L+1)"))) == "equal"
    assert is_equal(a, b) == "equal"


def test_fubini_corpus_both_orders():
    corpus = [
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
    for text, w in corpus:
        cond = vf(text)
        a = integral(cond, ("x", "y"), Q3, weight=w)
        b = integral(cond, ("y", "x"), Q3, weight=w)
        assert is_equal(a, b) == "equal", text


def test_three_variables():
    cond = vf("ord(x) >= 0 && ord(y) >= 0 && ord(w) >= 0")
    w = ((1, "x", 0), (1, "y", 0), (1, "w", 0))
    val = integral(cond, ("x", "y", "w"), Q2, weight=w)
    g = R.parse_ratfunc("L/(L+1)")
    assert is_equal(val, const_fun(g * g * g)) == "equal"


def test_iterated_numeric_check():
    cond = vf("ord(x) >= 0 && ord(y) >= ord(x)")
    val = integral(cond, ("x", "y"), Q2)
    diff = abs(specialize(val, Q2) - haar_sum(cond, (), Q2, 7))
    assert diff < Fraction(1, 2 ** 11)


def test_unknown_variable_rejected():
    with pytest.raises(NotCellPresented):
        integrate_iterated(vf("ord(x) >= 0 && ord(y) >= 0"), ("x",), Q2)


def test_discard_ledger_nested():
    cond = vf("ord(x) >= 0 && ord(y) >= 0")
    out = integrate_iterated(cond, ("x", "y"), Q2)
    assert out.integrable
    vars_seen = {d.var for d in out.discarded}
    assert vars_seen == {"x", "y"}


# ---------------------------------------------------------------------------
# change of variables


def test_cov_scaling():
    target = vf("ord(t) >= 1")
    new_cond, new_w, factor = change_of_variables_1d(
        Fraction(2), Fraction(0), target, "t", Q2)
    assert factor == R.L_pow(-1)
    lhs = integral(target, ("t",), Q2)
    rhs = integral(new_cond, ("t",), Q2, weight=new_w)
    assert is_equal(lhs, normal_form(rhs.scale(factor))) == "equal"


def test_cov_translation():
    target = vf("ord(t) = 2 || ord(t - 1) = 0")
    new_cond, new_w, factor = change_of_variables_1d(
        Fraction(1), Fraction(1), target, "t", Q2)
    assert factor == R.ONE
    lhs = integral(target, ("t",), Q2)
    rhs = integral(new_cond, ("t",), Q2, weight=new_w)
    assert is_equal(lhs, rhs) == "equal"


def test_cov_scaling_on_shell_counts():
    target = vf("ord(t) = 2")
    new_cond, _, factor = change_of_variables_1d(
        Fraction(4), Fraction(0), target, "t", Q2)
    lhs = integral(target, ("t",), Q2)
    rhs = integral(new_cond, ("t",), Q2)
    assert is_equal(lhs, normal_form(rhs.scale(factor))) == "equal"
    assert specialize(lhs, Q2) == Fraction(1, 8)
    assert specialize(rhs, Q2) == Fraction(1, 2)


def test_cov_zero_derivative():
    with pytest.raises(ZeroDerivative):
        change_of_variables_1d(0, 1, vf("ord(t) >= 0"), "t", Q2)


def test_cov_random_affine_maps():
    rng = random.Random(23)
    conds = ["ord(t) >= 0", "ord(t) = 2", "ord(t - 1) >= 1 && ord(t) = 0",
             "ord(t) >= 0 && ord(t) <= 3"]
    weights = [(), ((1, "t", 0),), ((2, "t", 1),)]
    for ctx in (Q2, Q3):
        for _ in range(10):
            text = rng.choice(conds)
            w = rng.choice(weights)
            num = rng.choice([1, 2, 3, 5, ctx.p, ctx.p ** 2])
            den = rng.choice([1, 1, ctx.p])
            u = Fraction(rng.choice([1, -1]) * num, den)
            c = Fraction(rng.randrange(-4, 5),
                         rng.choice([1, 1, 2, ctx.p]))
            cond = vf(text)
            try:
                lhs = integral(cond, ("t",), ctx, weight=w)
            except NotIntegrable:
                continue
            new_cond, new_w, factor = change_of_variables_1d(
                u, c, cond, "t", ctx, weight=w)
            rhs = integral(new_cond, ("t",), ctx, weight=new_w)
            scaled = normal_form(rhs.scale(factor))
            if is_equal(lhs, scaled) == "equal":
                continue
            # residue-class splits may differ across the map; check the
            # counting specializations exactly instead
            for d in (1, 2):
                c2 = PContext(ctx.p, d)
                assert specialize(lhs, c2) == specialize(scaled, c2), \
                    (text, str(u), str(c), w, d)
