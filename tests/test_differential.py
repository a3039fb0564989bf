"""Differential checks of the compiled evaluator on generated inputs.

Residue formulas: ``count_points`` against a brute-force count written
here with ``GRElem`` operators, which the compiled evaluator does not use,
and ``qplus.count_class`` of the formula's normal form against
``count_points``.
Fragment conditions: a point satisfies the condition iff exactly one cell
of its ``decompose_fragment`` decomposition holds it, and no cell holds it
otherwise.  Failures that hypothesis found and shrank are kept below as
named regression cases.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from motint import formula as F
from motint import qplus
from motint.errors import NotIntegrable, OutsideFragment, SortError
from motint.padic import (GaloisRing, PadicElem, PContext, compile_term,
                          count_points, eval_formula)
from motint.vfint import cell_contains, decompose_fragment

CONTEXTS = {(p, d): PContext(p, d) for p in (2, 3) for d in (1, 2)}
# the generic path of degree d >= 3, at level 1 only; at p = 2 and level 1
# negation is the identity, so p = 3 checks signs
CONTEXTS.update({(p, 3): PContext(p, 3) for p in (2, 3)})
# fragment cases also run over a field with a non-default defining polynomial
OTHER_MODULUS = PContext(3, 2, (2, 2, 1))
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


# ---------------------------------------------------------------------------
# residue formulas against a GRElem brute force


def reduce_to(x, m: int):
    """Project to GR(p^m, degree) for m <= level."""
    r = x.ring
    if m > r.level:
        raise SortError(f"cannot project level {r.level} up to {m}")
    tgt = GaloisRing(r.p, m, r.degree, r.modulus)
    return tgt.make(x.coeffs)


def brute_term(t, env, ctx):
    if isinstance(t, F.Var):
        return env[t.name]
    if isinstance(t, F.IntLit):
        return ctx.residue_ring(t.lit_sort.depth).from_int(t.value)
    if isinstance(t, F.Neg):
        return -brute_term(t.arg, env, ctx)
    if isinstance(t, F.Pow):
        return brute_term(t.base, env, ctx) ** t.exp
    if isinstance(t, F.Proj):
        return reduce_to(brute_term(t.arg, env, ctx), t.dst)
    a, b = brute_term(t.left, env, ctx), brute_term(t.right, env, ctx)
    return a + b if t.op == "+" else a - b if t.op == "-" else a * b


def brute_holds(f, env, ctx):
    if isinstance(f, F.Eq):
        return brute_term(f.left, env, ctx) == brute_term(f.right, env, ctx)
    if isinstance(f, F.Not):
        return not brute_holds(f.body, env, ctx)
    if isinstance(f, F.And):
        return all(brute_holds(g, env, ctx) for g in f.parts)
    if isinstance(f, F.Or):
        return any(brute_holds(g, env, ctx) for g in f.parts)
    ring = ctx.residue_ring(f.var.var_sort.depth)
    hits = (brute_holds(f.body, {**env, f.var.name: e}, ctx)
            for e in ring.elements())
    return any(hits) if f.q == "exists" else all(hits)


def box_points(f, ctx):
    """Every assignment of GRElems to the free residue variables of f."""
    points = [{}]
    for name, depth in F.frame_of(f).res:
        points = [{**pt, name: e} for pt in points
                  for e in ctx.residue_ring(depth).elements()]
    return points


def brute_count(f, ctx):
    return sum(brute_holds(f, pt, ctx) for pt in box_points(f, ctx))


@st.composite
def res_terms(draw, depth, scope, size):
    """A res(depth) term over the variables in scope (name -> depth)."""
    names = sorted(n for n, k in scope.items() if k == depth)
    deeper = depth == 1 and any(k == 2 for k in scope.values())
    if size <= 0 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.sampled_from(["lit"] + ["var"] * bool(names)
                                    + ["proj"] * deeper))
        if kind == "lit":
            return F.IntLit(draw(st.integers(0, 10)), F.RES(depth))
        if kind == "var":
            return F.Var(draw(st.sampled_from(names)), F.RES(depth))
        return F.Proj(2, 1, draw(res_terms(2, scope, size - 1)))
    op = draw(st.sampled_from(["+", "-", "*", "neg", "pow"]))
    if op == "neg":
        return F.Neg(draw(res_terms(depth, scope, size - 1)))
    if op == "pow":
        return F.Pow(draw(res_terms(depth, scope, size - 1)),
                     draw(st.integers(1, 3)))
    return F.BinOp(op, draw(res_terms(depth, scope, size - 1)),
                   draw(res_terms(depth, scope, size - 1)))


@st.composite
def res_formulas(draw, level, scope, size):
    kinds = ["eq", "eq"]
    if size > 0:
        kinds += ["not", "and", "or"] + ["exists", "forall"] * ("s" not in scope)
    kind = draw(st.sampled_from(kinds))
    if kind == "eq":
        depth = draw(st.sampled_from(sorted({1, level})))
        return F.Eq(draw(res_terms(depth, scope, 2)),
                    draw(res_terms(depth, scope, 2)))
    if kind == "not":
        return F.Not(draw(res_formulas(level, scope, size - 1)))
    if kind in ("and", "or"):
        parts = (draw(res_formulas(level, scope, size - 1)),
                 draw(res_formulas(level, scope, size - 1)))
        return F.And(parts) if kind == "and" else F.Or(parts)
    body = draw(res_formulas(level, {**scope, "s": 1}, size - 1))
    return F.Quant(kind, F.Var("s", F.RES(1)), None, None, body)


@st.composite
def residue_cases(draw, grid=tuple(sorted(CONTEXTS))):
    p, d = draw(st.sampled_from(grid))
    level = 1 if d >= 3 else draw(st.integers(1, 2))
    # two free variables only where the box stays small
    names = ("x", "y") if (p ** d) ** level <= 9 else ("x",)
    f = draw(res_formulas(level, {n: level for n in names}, 3))
    return f, CONTEXTS[p, d]


@SETTINGS
@given(residue_cases())
def test_count_points_matches_grelem_brute_force(case):
    f, ctx = case
    assert count_points(f, ctx) == brute_count(f, ctx), F.formula_str(f)


@SETTINGS
@given(residue_cases())
def test_eval_formula_matches_grelem_brute_force_pointwise(case):
    # a count can hide a wrong bijection of the points (x -> -x, say);
    # eval_formula also reads its free variables as GRElems, not tuples
    f, ctx = case
    for point in box_points(f, ctx):
        assert eval_formula(f, point, ctx) == brute_holds(f, point, ctx), (
            F.formula_str(f), point)


@SETTINGS
@given(residue_cases([(p, d) for p in (2, 3) for d in (1, 2)]))
def test_class_normal_form_counts_like_the_formula(case):
    # literals 0-10 are unreduced at p = 2 and 3, and the normal form's
    # rewrites (simplify among them) must keep the count all the same;
    # its sets, == and cache keys read the formulas by identity
    f, ctx = case
    rc = qplus.normal_form(qplus.from_formula(F.frame_of(f).res, f))
    assert qplus.count_class(rc, ctx) == count_points(f, ctx), \
        F.formula_str(f)


def residue_operations(level):
    x, y = F.Var("x", F.RES(level)), F.Var("y", F.RES(level))
    ops = [F.BinOp(op, x, y) for op in "+-*"] + [F.Neg(x)]
    ops += [F.Pow(x, e) for e in range(4)]
    # chains of three and four operands take the n-ary closures
    ops += [F.BinOp(op2, F.BinOp(op1, x, y), x) for op1 in "+-" for op2 in "+-"]
    ops += [F.BinOp("*", F.BinOp("*", F.BinOp("*", x, y), y), x)]
    if level == 2:
        ops.append(F.Proj(2, 1, F.BinOp("*", x, F.Neg(y))))
    return ops


@pytest.mark.parametrize("p, d, level", [
    (p, d, level) for p, d in sorted(CONTEXTS) for level in (1, 2)
    if (p ** d) ** level <= 81])
def test_residue_operations_match_grelem_on_every_pair(p, d, level):
    # every closure compile_term chooses by degree, on every pair of elements
    ctx = CONTEXTS[p, d]
    ring = ctx.residue_ring(level)
    for t in residue_operations(level):
        run = compile_term(t, ctx, {})
        for a in ring.elements():
            for b in ring.elements():
                env = {"x": a, "y": b}
                assert run(env) == brute_term(t, env, ctx).coeffs, (t, env)


# ---------------------------------------------------------------------------
# one-variable fragment conditions against their cell decompositions

CENTERS = ("0", "1", "-1", "2", "1/2", "1/3", "3/4")


@st.composite
def fragment_atoms(draw):
    c = draw(st.sampled_from(CENTERS))
    arg = "t" if c == "0" else f"t - {c}"
    kind = draw(st.sampled_from(["ge", "le", "eq", "cong", "ac1", "ac2"]))
    if kind == "ge":
        return f"ord({arg}) >= {draw(st.integers(-2, 4))}"
    if kind == "le":
        return f"ord({arg}) <= {draw(st.integers(-2, 4))}"
    if kind == "eq":
        return f"ord({arg}) = {draw(st.integers(-2, 4))}"
    if kind == "cong":
        k = draw(st.integers(2, 3))
        return f"ord({arg}) = {draw(st.integers(0, k - 1))} mod {k}"
    n = 1 if kind == "ac1" else 2
    return f"ac_{n}({arg}) = {draw(st.integers(0, 8))}"


@st.composite
def fragment_conditions(draw, size=2):
    if size <= 0 or draw(st.integers(0, 2)) == 0:
        return draw(fragment_atoms())
    kind = draw(st.sampled_from(["&&", "||", "!"]))
    if kind == "!":
        return f"!({draw(fragment_conditions(size - 1))})"
    return (f"({draw(fragment_conditions(size - 1))}) {kind} "
            f"({draw(fragment_conditions(size - 1))})")


@st.composite
def fragment_points(draw, p, d):
    """Coordinates of a centre plus p^e times an integral element, e in
    [-3, 5]: exact centres, points close to them and far from them."""
    c = Fraction(draw(st.sampled_from(CENTERS)))
    scale = Fraction(p) ** draw(st.integers(-3, 5))
    unit = draw(st.lists(st.integers(-p ** 6, p ** 6), min_size=d, max_size=d))
    return (c + scale * unit[0],) + tuple(scale * u for u in unit[1:])


@st.composite
def fragment_cases(draw):
    ctx = draw(st.sampled_from([*CONTEXTS.values(), OTHER_MODULUS]))
    text = draw(fragment_conditions())
    points = draw(st.lists(fragment_points(ctx.p, ctx.d),
                           min_size=12, max_size=12))
    return text, ctx, points


def check_fragment(text, ctx, points):
    cond = F.parse_formula(text, {"t": F.VF})
    try:
        dec = decompose_fragment(cond, "t", ctx)
    except (OutsideFragment, NotIntegrable):
        reject()
    for x in points:
        t = PadicElem.exact(ctx.p, ctx.d, x, ctx.modulus)
        inside = eval_formula(cond, {"t": t}, ctx)
        holders = sum(cell_contains(c, t, ctx) for c in dec.cells)
        assert holders == (1 if inside else 0), (text, ctx.p, x)


@SETTINGS
@given(fragment_cases())
def test_fragment_cells_match_evaluation(case):
    check_fragment(*case)


@pytest.mark.parametrize("text, p, points", [
    # ac(0) = 0, and the literal 2 is 0 in res(1) at p = 2, so t = 0 holds;
    # the decomposer compared unreduced literals and lost the point cell
    ("ac_1(t) = 2", 2, [Fraction(0)]),
    ("ac_1(t - 1) = 2", 2, [Fraction(1), Fraction(3)]),
    ("ac_2(t) = 4", 2, [Fraction(0), Fraction(4)]),
])
def test_fragment_regression_unreduced_residue_literal(text, p, points):
    check_fragment(text, CONTEXTS[p, 1], [(x,) for x in points])


def test_fragment_regression_non_default_modulus():
    # cell_contains built the centre over the default modulus, so every
    # membership test over another defining polynomial mixed two fields
    check_fragment("ord(t - 1) >= 1", OTHER_MODULUS,
                   [(Fraction(4), 0), (Fraction(2), 0), (Fraction(1), 0)])
