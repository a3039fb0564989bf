"""Residue classes: semiring laws, the rewrite engine, and counting."""

import random
from fractions import Fraction

import pytest

from motint import formula as F
from motint.errors import MotintError, SortError
from motint.formula import RES, parse_formula
from motint.padic import PContext
from motint.qplus import (
    ResClass, ResGen, RewriteLog, count_class, from_formula,
    is_equal, normal_form, one, zero,
)

GRID = [PContext(2, 1), PContext(3, 1), PContext(2, 2), PContext(3, 2)]


def l_class(k: int = 1) -> ResClass:
    """The class of a point times L^k."""
    return ResClass((ResGen((), F.TRUE, k),))


def torus() -> ResClass:
    """The units of res(1), a class counted by q - 1."""
    v = F.Var("r1", RES(1))
    return ResClass((ResGen((("r1", 1),), F.Not(F.Eq(v, F.IntLit(0, RES(1)))),
                            0),))


def res_formula(text, **sorts):
    return parse_formula(text, defaults={k: RES(v) for k, v in sorts.items()})


def test_basic_counts():
    for ctx in GRID:
        q = ctx.q
        assert count_class(one(), ctx) == 1
        assert count_class(zero(), ctx) == 0
        assert count_class(l_class(), ctx) == q
        assert count_class(l_class(3), ctx) == q ** 3
        assert count_class(l_class(-2), ctx) == Fraction(1, q ** 2)
        assert count_class(torus(), ctx) == q - 1


def test_formula_class_counts():
    rc = from_formula((("x", 1),), res_formula("x^2 = 0", x=1))
    assert count_class(rc, PContext(2, 1)) == 1
    rc2 = from_formula((("x", 2),), res_formula("x^2 = 0", x=2))
    assert count_class(rc2, PContext(2, 1)) == 2
    assert count_class(rc2, PContext(3, 1)) == 3
    assert count_class(rc2, PContext(2, 2)) == 4


def test_semiring_count_homomorphism():
    a = from_formula((("x", 1),), res_formula("x != 0", x=1))
    b = from_formula((("y", 1),), res_formula("y^2 = 1", y=1))
    for ctx in GRID:
        ca = count_class(a, ctx)
        cb = count_class(b, ctx)
        assert count_class(a + b, ctx) == ca + cb
        assert count_class(a * b, ctx) == ca * cb
        assert count_class(a * one(), ctx) == ca
        assert count_class(a + zero(), ctx) == ca


def test_tensor_renames_collisions():
    a = from_formula((("r1", 1),), res_formula("r1 = 0", r1=1))
    prod = a * a
    assert len(prod.gens) == 1
    gen = prod.gens[0]
    assert len(gen.vars) == 2
    assert len({n for n, _ in gen.vars}) == 2
    for ctx in GRID:
        assert count_class(prod, ctx) == 1


def test_gen_validation():
    with pytest.raises(MotintError):
        ResGen((("x", 1),), res_formula("y = 0", y=1), 0)
    with pytest.raises(SortError):
        ResGen((("x", 2),), res_formula("x = 0", x=1), 0)
    with pytest.raises(SortError):
        ResGen((), parse_formula("n = 0", defaults={"n": F.VG}), 0)


def test_unused_variable_extraction():
    rc = ResClass((ResGen((("a", 2), ("b", 1)), res_formula("b = 0", b=1), 0),))
    nf = normal_form(rc)
    # b is pinned to a point and a ranges freely, so the whole class is L^2
    assert is_equal(rc, l_class(2)) == "equal"
    assert nf.gens[0].lpow == 2 and not nf.gens[0].vars
    for ctx in GRID:
        assert count_class(rc, ctx) == count_class(nf, ctx)


def test_projection_depth_drop():
    rc = from_formula((("x", 2),), res_formula("proj_2_1(x) = 0", x=2))
    low = from_formula((("y", 1),), res_formula("y = 0", y=1), lpow=1)
    assert is_equal(rc, low) == "equal"
    for ctx in GRID:
        assert count_class(rc, ctx) == count_class(low, ctx)


def test_projection_partial_drop():
    # depth 3 variable seen at depths 2 and 1 drops to depth 2
    phi = res_formula("proj_3_2(x) = 0 || proj_3_1(x) = 1", x=3)
    rc = from_formula((("x", 3),), phi)
    nf = normal_form(rc)
    assert all(d <= 2 for g in nf.gens for _, d in g.vars)
    for ctx in GRID:
        assert count_class(rc, ctx) == count_class(nf, ctx)


def test_complementary_merge_gives_l():
    a = from_formula((("x", 1),), res_formula("x = 0", x=1))
    b = from_formula((("x", 1),), res_formula("x != 0", x=1))
    assert is_equal(a + b, l_class(1)) == "equal"


def test_eq2_merges_generators_on_the_same_variables():
    # {x = 1 && x*y = 1} + {x != 1 && x*y = 1} on res(1)^2: the two
    # generators differ in one complementary conjunct, so eq2 merges them
    # into the single generator x*y = 1
    vars_ = (("x", 1), ("y", 1))
    rc = (from_formula(vars_, res_formula("x = 1 && x*y = 1", x=1, y=1))
          + from_formula(vars_, res_formula("x != 1 && x*y = 1", x=1, y=1)))
    with RewriteLog() as log:
        nf = normal_form(rc)
    assert "eq2" in [rule for rule, _, _ in log.events]
    assert [F.formula_str(g.phi) for g in nf.gens] == ["r1*r2 = 1"]
    for ctx, count in zip(GRID, (1, 2, 3, 8)):      # q - 1 units
        assert count_class(rc, ctx) == count_class(nf, ctx) == count


def test_disjoint_or_split():
    rc = from_formula((("x", 1),), res_formula("x = 0 || x != 0", x=1))
    assert is_equal(rc, l_class(1)) == "equal"


def test_renaming_invariance():
    a = from_formula((("u", 1), ("v", 1)),
                     res_formula("u = 0 && v != 0", u=1, v=1))
    b = from_formula((("s", 1), ("t", 1)),
                     res_formula("t != 0 && s = 0", s=1, t=1))
    assert is_equal(a, b) == "equal"


def test_component_factorization():
    joint = from_formula((("x", 1), ("y", 1)),
                         res_formula("x = 0 && y != 0", x=1, y=1))
    split = (from_formula((("x", 1),), res_formula("x = 0", x=1))
             * from_formula((("y", 1),), res_formula("y != 0", y=1)))
    assert is_equal(joint, split) == "equal"


def test_unknown_for_distinct_classes():
    a = from_formula((("x", 1),), res_formula("x^2 = 1", x=1))
    b = from_formula((("x", 1),), res_formula("x = 1", x=1))
    assert is_equal(a, b) == "unknown"


def test_closed_conjunct_preserved():
    phi = res_formula("(exists u : res(1) . u * u = x) && x != 0", x=1)
    rc = from_formula((("x", 1),), phi)
    nf = normal_form(rc)
    # squares differ from points, so the quantifier must survive
    assert count_class(nf, PContext(3, 1)) == count_class(rc, PContext(3, 1)) == 1
    assert count_class(nf, PContext(5, 1)) == 2
    # eq3 lowers the free x and leaves the quantifier that rebinds x alone
    shadow = res_formula(
        "proj_2_1(x) = 1 && (exists x : res(2) . proj_2_1(x) = 0)", x=2)
    nf = normal_form(from_formula((("x", 2),), shadow))
    assert [(g.vars, g.phi) for g in nf.gens] == [((), shadow.parts[1])]
    # y is pinned by y = x + 1; the y under the quantifier is another one
    pinned = res_formula("y = x + 1 && (exists y : res(1) . y * y = x)", x=1, y=1)
    nf = normal_form(from_formula((("x", 1), ("y", 1)), pinned))
    assert [g.vars for g in nf.gens] == [(("r1", 1),)]


def test_rewrite_log_preserves_counts():
    rng = random.Random(5)
    texts = [
        ("x = 0 || x != 0", {"x": 1}),
        ("proj_2_1(x) = 0 && y != 0", {"x": 2, "y": 1}),
        ("x != 0 && (y = 0 || y != 0)", {"x": 1, "y": 1}),
        ("x = 1", {"x": 1}),
        ("proj_2_1(x) != 0", {"x": 2}),
        # quantifiers that shadow a free variable of the same name
        ("proj_2_1(x) = 1 && (exists x : res(2) . proj_2_1(x) = 0)", {"x": 2}),
        ("y = x + 1 && (exists y : res(1) . y * y = x)", {"x": 1, "y": 1}),
    ]
    with RewriteLog() as log:
        for text, sorts in texts:
            phi = res_formula(text, **{k: v for k, v in sorts.items()})
            vars_ = tuple((k, v) for k, v in sorts.items())
            rc = from_formula(vars_, phi, lpow=rng.randint(-1, 2))
            nf = normal_form(rc)
            for ctx in GRID:
                assert count_class(rc, ctx) == count_class(nf, ctx), \
                    (text, ctx.p)
    assert log.events
    for rule, before, after in log.events:
        for ctx in GRID:
            assert count_class(before, ctx) == count_class(after, ctx), \
                f"{rule} changed the count at p={ctx.p}, d={ctx.d}"


def test_rewrite_log_is_a_scope():
    rc = from_formula((("x", 1),), res_formula("x = 0 || x != 0", x=1))
    with RewriteLog() as outer:
        normal_form(rc)
        first = list(outer.events)
        assert first
        with RewriteLog() as inner:
            normal_form(rc)
        assert inner.events == first and outer.events == first
        normal_form(rc)
        assert outer.events == first + first
    with pytest.raises(ZeroDivisionError):
        with RewriteLog() as failed:
            normal_form(rc)
            1 / 0
    normal_form(rc)              # no block is open: nothing records
    assert failed.events == first and outer.events == first + first
    assert inner.events == first


def test_residue_literal_equality_holds_at_some_p():
    def lit_eq(a, b, depth):
        return F.Eq(F.IntLit(a, RES(depth)), F.IntLit(b, RES(depth)))

    # 2 = 0 in res(1) holds at p = 2 only, so it cannot fold to false
    rc = from_formula((("x", 1),), lit_eq(2, 0, 1))
    nf = normal_form(rc)
    assert count_class(rc, PContext(2, 1)) == count_class(nf, PContext(2, 1)) == 2
    assert count_class(rc, PContext(3, 1)) == count_class(nf, PContext(3, 1)) == 0
    # |a - b| < 2^depth: no p^depth divides a - b, so it is false at every p
    assert normal_form(from_formula((("x", 2),), lit_eq(3, 0, 2))) == zero()


def test_point_fiber_absorption():
    a = from_formula((("x", 1),), res_formula("x != 0", x=1))
    pt = from_formula((("z", 1),), res_formula("z = 0", z=1))
    assert is_equal(a * pt, a) == "equal"
    pt2 = from_formula((("z", 2),), res_formula("z = 3", z=2))
    assert is_equal(a * pt2, a) == "equal"
    for ctx in GRID:
        assert count_class(a * pt2, ctx) == count_class(a, ctx)


def test_diagonal_class():
    diag = from_formula((("u", 1), ("v", 1)), res_formula("u = v", u=1, v=1))
    assert is_equal(diag, l_class(1)) == "equal"
    # v is pinned to u even when u carries its own constraint
    half = from_formula((("u", 1), ("v", 1)),
                        res_formula("u = v && u != 0", u=1, v=1))
    assert is_equal(half, torus()) == "equal"
    for ctx in GRID:
        assert count_class(half, ctx) == ctx.q - 1


def test_normal_form_idempotent():
    rc = from_formula((("x", 2), ("y", 1)),
                      res_formula("proj_2_1(x) = y && y != 0", x=2, y=1))
    nf = normal_form(rc)
    assert normal_form(nf) == nf
