"""Constructible functions: semiring, specialization, fiber integration."""

import random
import time
from fractions import Fraction

import pytest

from motint import cplus
from motint import formula as F
from motint import ring_a as R
from motint.cells import AffineForm, PCell, VarCell, universe
from motint.cplus import (
    MotFun, CTerm, _scalar_split, is_equal, mu_vg_res, normal_form,
    specialize,
)
from motint.errors import (CAPS, CapExceeded, FrameMismatch, MotintError,
                           NotIntegrable, SortError)
from motint.formula import RES, parse_formula
from motint.padic import PContext
from motint.presburger import PFun, PTerm
from motint.qplus import (RewriteLog, from_formula,
                          normal_form as class_normal_form,
                          one as unit_class)
from motint.vfint import integrate_iterated

from test_acceptance import FRAGMENT_CORPUS
from test_qplus import l_class, torus

GRID = [PContext(2, 1), PContext(3, 1), PContext(2, 2), PContext(3, 2)]


def refute(a: MotFun, b: MotFun, ctxs, rng, tries: int = 40,
           vg_lo: int = -5, vg_hi: int = 5):
    """Search for a specialization witness separating two functions.
    Returns (ctx, env) or None if none was found."""
    a._check(b)
    for _ in range(tries):
        for ctx in ctxs:
            env = {}
            for name, depth in a.res_vars:
                ring = ctx.residue_ring(depth)
                env[name] = ring.make([rng.randrange(ring.char)
                                       for _ in range(ctx.d)])
            for name in a.vg_vars:
                env[name] = rng.randint(vg_lo, vg_hi)
            if specialize(a, ctx, env) != specialize(b, ctx, env):
                return ctx, env
    return None


def equal_or_refute(a: MotFun, b: MotFun, ctxs, rng, tries: int = 40):
    if is_equal(a, b) == "equal":
        return "equal", None
    witness = refute(a, b, ctxs, rng, tries)
    if witness is not None:
        return "differ", witness
    return "unknown", None


def af(terms=None, const=0):
    return AffineForm.make(
        {k: Fraction(v) for k, v in (terms or {}).items()}, Fraction(const))


def ray_cell(name, lo=0):
    return PCell((name,), (VarCell(af(const=lo), None),))


def geom_pf(name, slope=-1, coef=None):
    coef = coef if coef is not None else R.ONE
    return PFun((name,), ((ray_cell(name), (PTerm(coef, af({name: slope})),)),))


def res_phi(text, **sorts):
    return parse_formula(text, defaults={k: RES(v) for k, v in sorts.items()})


def from_class(rc, res_vars=(), vg_vars=()) -> MotFun:
    return MotFun(tuple(res_vars), tuple(vg_vars),
                  (CTerm(F.TRUE, PFun.constant(tuple(vg_vars), R.ONE),
                         rc),))


def pf_indicator(vars, cells, term: PTerm | None = None) -> PFun:
    term = term or PTerm(R.ONE, AffineForm.const_form(0))
    return PFun(tuple(vars), tuple((c, (term,)) for c in cells))


def indicator(res_vars, vg_vars, guard: F.Formula = F.TRUE,
              cells=None) -> MotFun:
    vg_vars = tuple(vg_vars)
    cells = tuple(cells) if cells is not None else (universe(vg_vars),)
    return MotFun(tuple(res_vars), vg_vars,
                  (CTerm(guard, pf_indicator(vg_vars, cells),
                         unit_class()),))


def extend(pf: PFun, new_vars) -> PFun:
    """Embed into a larger variable tuple; new_vars must contain the
    current variables as a subsequence."""
    new_vars = tuple(new_vars)
    it = iter(new_vars)
    for v in pf.vars:
        for w in it:
            if w == v:
                break
        else:
            raise FrameMismatch(
                f"{pf.vars} is not a subsequence of {new_vars}")
    pieces = []
    for cell, terms in pf.pieces:
        slots = dict(zip(cell.vars, cell.tower))
        tower = tuple(slots.get(v, VarCell(None, None)) for v in new_vars)
        pieces.append((PCell(new_vars, tower), terms))
    return PFun(new_vars, tuple(pieces))


def extend_vg(fun: MotFun, new_vg) -> MotFun:
    new_vg = tuple(new_vg)
    return MotFun(fun.res_vars, new_vg,
                  tuple(CTerm(t.guard, extend(t.pf, new_vg), t.rc)
                        for t in fun.terms))


def test_unit_and_zero():
    a = MotFun.from_pfun(geom_pf("z"))
    u = MotFun.unit(vg_vars=("z",))
    assert is_equal(a * u, a) == "equal"
    assert is_equal(u * a, a) == "equal"
    z = MotFun.zero(vg_vars=("z",))
    assert is_equal(a + z, a) == "equal"
    assert (a * z).terms == ()


def test_indicator_product_intersects():
    band1 = indicator((), ("z",), cells=(
        PCell(("z",), (VarCell(af(const=0), None),)),))
    band2 = indicator((), ("z",), cells=(
        PCell(("z",), (VarCell(None, af(const=5)),)),))
    both = indicator((), ("z",), cells=(
        PCell(("z",), (VarCell(af(const=0), af(const=5)),)),))
    assert is_equal(band1 * band2, both) == "equal"


def test_guard_product():
    ya = indicator((("e", 1),), (), guard=res_phi("e = 0", e=1))
    yb = indicator((("e", 1),), (), guard=res_phi("e != 0", e=1))
    assert (ya * yb).terms == ()
    assert is_equal(ya * ya, ya) == "equal"


def test_tensor_balance():
    # a coefficient L-1 on the Presburger side equals a torus factor on
    # the class side
    left = MotFun.unit().scale(R.L - R.ONE)
    right = from_class(torus())
    assert is_equal(left, right) == "equal"
    left2 = MotFun.unit().scale((R.L - R.ONE) * R.L)
    right2 = from_class(torus() * l_class(1))
    assert is_equal(left2, right2) == "equal"
    # depth 2 units count L(L-1)
    deep = from_class(
        from_formula((("x", 2),), res_phi("proj_2_1(x) != 0", x=2)))
    flat = MotFun.unit().scale((R.L - R.ONE) * R.L)
    assert is_equal(deep, flat) == "equal"


def test_specialize_basics():
    full = from_class(from_formula((("x", 1),), F.TRUE))
    assert specialize(full, PContext(2, 1), {}) == 2
    assert specialize(full, PContext(3, 2), {}) == 9

    a = MotFun.from_pfun(PFun(("z",), ((universe(("z",)),
                                        (PTerm(R.ONE, af({"z": -1})),)),)))
    assert specialize(a, PContext(3, 1), {"z": 3}) == Fraction(1, 27)

    singleton = from_class(
        from_formula((("x", 1),), res_phi("x = 1", x=1)))
    for ctx in GRID:
        assert specialize(singleton, ctx, {}) == 1


def test_specialize_guard():
    a = indicator((("e", 1),), (), guard=res_phi("e = 0", e=1))
    ctx = PContext(3, 1)
    assert specialize(a, ctx, {"e": 0}) == 1
    assert specialize(a, ctx, {"e": 1}) == 0
    with pytest.raises(MotintError):
        specialize(a, ctx, {})


def test_specialize_checks_the_sort_of_each_value():
    # the indicator of n = 1 reads n only as an int
    cell = PCell(("n",), (VarCell(af(const=1), af(const=1)),))
    a = indicator((), ("n",), cells=(cell,))
    ctx = PContext(3, 1)
    assert specialize(a, ctx, {"n": 1}) == 1
    for bad in (1.5, "1", True, Fraction(1), None):
        with pytest.raises(SortError, match="n is .*expected a value-group"):
            specialize(a, ctx, {"n": bad})
    # a residue parameter reads a GRElem of its ring or an int
    e = indicator((("e", 1),), (), guard=res_phi("e = 2", e=1))
    ring = ctx.residue_ring(1)
    assert specialize(e, ctx, {"e": 2}) == 1
    assert specialize(e, ctx, {"e": 5}) == 1
    assert specialize(e, ctx, {"e": ring.from_int(2)}) == 1
    for bad in ("2", 2.0, True, Fraction(2)):
        with pytest.raises(SortError, match="e is .*expected an element"):
            specialize(e, ctx, {"e": bad})
    with pytest.raises(SortError):
        specialize(e, ctx, {"e": ctx.residue_ring(2).from_int(2)})


def test_mu_geometric_with_full_class():
    pf = geom_pf("z", coef=R.ONE - R.L_pow(-1))
    a = MotFun((), ("z",), (CTerm(F.TRUE, pf,
                                  from_formula((("xi", 1),), F.TRUE)),))
    out = mu_vg_res(a, ("z",), ())
    expect = MotFun.from_pfun(PFun.constant((), R.L))
    assert is_equal(out, expect) == "equal"


def test_mu_residue_coordinate():
    # the constant 1 on a base with one residue coordinate integrates to L
    a = MotFun.unit(res_vars=(("eta", 1),))
    out = mu_vg_res(a, vg_out=(), res_out=("eta",))
    assert is_equal(out, MotFun.from_pfun(PFun.constant((), R.L))) == "equal"
    # a guard on the coordinate turns into the class it cuts out
    b = indicator((("eta", 1),), (), guard=res_phi("eta != 0", eta=1))
    out2 = mu_vg_res(b, vg_out=(), res_out=("eta",))
    assert is_equal(out2,
                    MotFun.unit().scale(R.L - R.ONE)) == "equal"


def test_mu_divergent():
    pf = geom_pf("z", slope=1)
    a = MotFun.from_pfun(pf)
    with pytest.raises(NotIntegrable):
        mu_vg_res(a, ("z",), ())
    mu_vg_res(MotFun.from_pfun(geom_pf("z", slope=-1)), ("z",), ())


def test_mu_linked_guard_rejected():
    guard = res_phi("e = f", e=1, f=1)
    a = indicator((("e", 1), ("f", 1)), (), guard=guard)
    with pytest.raises(MotintError):
        mu_vg_res(a, vg_out=(), res_out=("f",))
    # integrating both is fine
    out = mu_vg_res(a, vg_out=(), res_out=("e", "f"))
    assert is_equal(out, MotFun.from_pfun(PFun.constant((), R.L))) == "equal"


def _random_pfun(rng, vars_, depth=2):
    pieces = []
    for _ in range(rng.randint(1, depth)):
        tower = []
        for i, v in enumerate(vars_):
            lo = af(const=rng.randint(-2, 1))
            if i > 0 and rng.random() < 0.5:
                lo = lo + af({vars_[0]: 1})
            tower.append(VarCell(lo, None, rng.choice((1, 1, 2)), 0))
        cell = PCell(tuple(vars_), tuple(tower))
        terms = tuple(
            PTerm(R.from_int(rng.randint(1, 3)),
                  af({v: rng.randint(-2, -1) for v in vars_},
                     rng.randint(-1, 1)),
                  (af({vars_[0]: 1}, rng.randint(0, 2)),)
                  if rng.random() < 0.4 else ())
            for _ in range(rng.randint(1, 2)))
        pieces.append((cell, terms))
    # make cells disjoint by subtracting earlier ones
    from motint.cells import subtract_many
    out = []
    seen = []
    for cell, terms in pieces:
        for c in subtract_many([cell], seen):
            out.append((c, terms))
        seen.append(cell)
    return PFun(tuple(vars_), tuple(out))


def _random_class(rng):
    pool = [
        unit_class(),
        torus(),
        l_class(1),
        from_formula((("r", 1),), res_phi("r = 0", r=1)),
        from_formula((("r", 1),), res_phi("r^2 = 1", r=1)),
    ]
    return rng.choice(pool)


def test_projection_formula():
    rng = random.Random(11)
    for _ in range(12):
        psi = MotFun.from_pfun(_random_pfun(rng, ("x",)))
        phi = MotFun((), ("x", "z"),
                     (CTerm(F.TRUE, _random_pfun(rng, ("x", "z")),
                            _random_class(rng)),))
        lhs = mu_vg_res(extend_vg(psi, ("x", "z")) * phi,
                        vg_out=("z",), res_out=())
        rhs = normal_form(psi * mu_vg_res(phi, vg_out=("z",), res_out=()))
        assert lhs == rhs


def test_specialization_compatibility_residue():
    # summing over a residue coordinate commutes with counting pointwise
    rng = random.Random(7)
    for _ in range(6):
        guard = rng.choice([
            F.TRUE,
            res_phi("eta = 0", eta=1),
            res_phi("eta != 0", eta=1),
            res_phi("eta^2 = 1", eta=1),
        ])
        a = MotFun((("eta", 1),), (),
                   (CTerm(guard, PFun.constant((), R.from_int(rng.randint(1, 3))),
                          _random_class(rng)),))
        out = mu_vg_res(a, vg_out=(), res_out=("eta",))
        for ctx in GRID:
            ring = ctx.residue_ring(1)
            direct = sum((specialize(a, ctx, {"eta": e})
                          for e in ring.elements()), Fraction(0))
            assert specialize(out, ctx, {}) == direct


def test_specialization_compatibility_vg():
    rng = random.Random(13)
    bound = 200
    for _ in range(6):
        pf = _random_pfun(rng, ("z",))
        a = MotFun((), ("z",), (CTerm(F.TRUE, pf, _random_class(rng)),))
        out = mu_vg_res(a, ("z",), ())
        for ctx in GRID[:2]:
            direct = sum((specialize(a, ctx, {"z": k})
                          for k in range(-bound, bound + 1)), Fraction(0))
            got = specialize(out, ctx, {})
            assert abs(got - direct) < Fraction(1, 10 ** 9)


def test_presentation_independence():
    rng = random.Random(3)
    pf = _random_pfun(rng, ("z",))
    base = _random_class(rng)
    a1 = MotFun((), ("z",), (CTerm(F.TRUE, pf.scale(R.L - R.ONE), base),))
    a2 = MotFun((), ("z",), (CTerm(F.TRUE, pf, base * torus()),))
    assert is_equal(a1, a2) == "equal"
    for _ in range(20):
        ctx = rng.choice(GRID)
        env = {"z": rng.randint(-5, 5)}
        assert specialize(a1, ctx, env) == specialize(a2, ctx, env)


def lift(a: MotFun):
    """Present every class by explicit fiber variables: returns a function
    over an extended residue frame together with the new names, such that
    integrating them back out reproduces the input."""
    taken = {n for n, _ in a.res_vars}
    new_vars = []
    raw = []                        # (guard, pf, gen)
    counter = 0
    for t in a.terms:
        for gen in class_normal_form(t.rc).gens:
            mapping = {}
            for name, depth in gen.vars:
                counter += 1
                fresh = f"w{counter}"
                while fresh in taken:
                    counter += 1
                    fresh = f"w{counter}"
                taken.add(fresh)
                mapping[name] = fresh
                new_vars.append((fresh, depth))
            gen2 = gen.rename(mapping) if mapping else gen
            raw.append((t.guard, t.pf.scale(R.L_pow(gen2.lpow)), gen2))
    terms = []
    for guard, pf, gen in raw:
        own = {n for n, _ in gen.vars}
        pins = [F.Eq(F.Var(w, F.RES(dw)), F.IntLit(0, F.RES(dw)))
                for w, dw in new_vars if w not in own]
        terms.append(CTerm(F.land(guard, gen.phi, *pins), pf, unit_class()))
    lifted = MotFun(a.res_vars + tuple(new_vars), a.vg_vars, tuple(terms))
    return lifted, tuple(n for n, _ in new_vars)


def test_lift_round_trip():
    rng = random.Random(21)
    for _ in range(8):
        a = MotFun((), ("z",),
                   (CTerm(F.TRUE, _random_pfun(rng, ("z",)),
                          _random_class(rng)),
                    CTerm(F.TRUE, _random_pfun(rng, ("z",)),
                          _random_class(rng))))
        lifted, fresh = lift(a)
        assert set(n for n, _ in lifted.res_vars) >= set(fresh)
        back = mu_vg_res(lifted, vg_out=(), res_out=fresh)
        assert back == normal_form(a)


def test_equal_or_refute():
    rng = random.Random(2)
    a = from_class(from_formula((("x", 1),), res_phi("x^2 = 1", x=1)))
    b = from_class(from_formula((("x", 1),), res_phi("x = 1", x=1)))
    verdict, witness = equal_or_refute(a, b, GRID, rng)
    assert verdict == "differ"
    ctx, env = witness
    assert specialize(a, ctx, env) != specialize(b, ctx, env)
    verdict2, _ = equal_or_refute(a, a, GRID, rng)
    assert verdict2 == "equal"
    assert refute(a, a, GRID, rng, tries=5) is None


def test_frame_errors():
    a = MotFun.from_pfun(geom_pf("z"))
    b = MotFun.from_pfun(geom_pf("w"))
    with pytest.raises(FrameMismatch):
        a + b
    with pytest.raises(FrameMismatch):
        mu_vg_res(a, vg_out=("w",), res_out=())
    with pytest.raises(FrameMismatch):
        mu_vg_res(a, vg_out=(), res_out=("nope",))
    with pytest.raises(FrameMismatch):
        indicator((), (), guard=res_phi("e = 0", e=1))


def test_two_vg_variables_suffix_rule():
    rng = random.Random(4)
    pf = _random_pfun(rng, ("x", "z"))
    a = MotFun.from_pfun(pf)
    inner = mu_vg_res(a, vg_out=("z",), res_out=())
    assert inner.vg_vars == ("x",)
    total = mu_vg_res(inner, vg_out=("x",), res_out=())
    both = mu_vg_res(a, vg_out=("x", "z"), res_out=())
    assert total == both
    with pytest.raises(FrameMismatch):
        mu_vg_res(a, vg_out=("x",), res_out=())


def test_class_split_cache_is_transparent():
    # the unit class, torus classes as closed-form integration makes them,
    # a pinned unit, and two quantifiers shadowing a free variable
    classes = [unit_class(), torus()] + [
        from_formula(tuple(sorts.items()),
                     parse_formula(text, {k: RES(v) for k, v in sorts.items()}))
        for text, sorts in [
            ("xi_1 != 0", {"xi_1": 1}),
            ("proj_2_1(xi_2) != 0", {"xi_2": 2}),
            ("r1 != 0 && r1 = 1", {"r1": 1}),
            ("proj_2_1(x) = 1 && (exists x : res(2) . proj_2_1(x) = 0)",
             {"x": 2}),
            ("y = x + 1 && (exists y : res(1) . y * y = x)",
             {"x": 1, "y": 1}),
        ]]
    pf = pf_indicator(("n",), (ray_cell("n", 1),)).scale(R.L_pow(-1))
    funcs = [MotFun.from_pfun(pf) * from_class(rc, (), ("n",))
             for rc in classes]

    def run(clear_each: bool):
        out = []
        for f in funcs:
            if clear_each:
                _scalar_split.cache_clear()
            with RewriteLog() as log:
                out.append((normal_form(f), log.events))
        return out

    cold = run(clear_each=True)
    assert any(events for _, events in cold)
    _scalar_split.cache_clear()
    cleared = run(clear_each=False)
    hits = _scalar_split.cache_info().hits
    warm = run(clear_each=False)
    assert _scalar_split.cache_info().hits - hits == len(funcs)
    assert cold == cleared == warm


def test_normal_form_is_idempotent_on_integrals():
    # integrate_cell_family returns a lone ball cell's contribution as
    # mu_vg_res normalized it, and normalizes only sums of two or more;
    # both are right only if the normal form is a fixed point
    checked = 0
    for text in FRAGMENT_CORPUS:
        cond = parse_formula(text, {"t": F.VF})
        for ctx in GRID:
            try:
                value = integrate_iterated(cond, ("t",), ctx).value
            except NotIntegrable:
                continue
            once = normal_form(value)
            assert once == value, (text, ctx.p, ctx.d)
            assert normal_form(once) == once, (text, ctx.p, ctx.d)
            assert is_equal(value, once) == "equal"
            checked += 1
    assert checked == 4 * 12          # three corpus entries diverge


def test_unit_is_one_cached_value_per_frame():
    frame = ((("eta", 1),), ("z",))
    u = MotFun.unit(*frame)
    assert MotFun.unit(list(frame[0]), list(frame[1])) is u
    assert u == MotFun.from_pfun(PFun.constant(("z",), R.ONE), frame[0])
    # bench/run.py empties every module attribute that has a cache_clear
    clearable = [v for v in vars(cplus).values()
                 if callable(getattr(v, "cache_clear", None))]
    assert cplus._unit in clearable
    cplus._unit.cache_clear()
    assert MotFun.unit(*frame) is not u and MotFun.unit(*frame) == u
    assert unit_class() is unit_class()


def test_multiplying_empty_pieces_stop_at_the_pieces_cap():
    # three copies of the one-point cell a make 47 disjoint pieces; the
    # one-point cell b as a fourth doubles its remainder at every old piece
    # it meets, which ran for minutes before the pieces cap stopped it
    a = PCell(("a", "b"), (VarCell(af({}, -1), af({}, 1), 2, 1),
                           VarCell(af({}, 1), af({"a": 1}))))
    b = PCell(("a", "b"), (VarCell(af({}, -1), af({}, 0), 3, 2),
                           VarCell(af({"a": -1}, 1), af({"a": -1}, 1))))

    def fun(cells):
        pf = PFun(("a", "b"), tuple((c, (PTerm(R.from_int(k + 1), af()),))
                                    for k, c in enumerate(cells)))
        return MotFun((), ("a", "b"), (CTerm(F.TRUE, pf, unit_class()),))

    assert normal_form(fun([a, a, a])).terms
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        normal_form(fun([a, a, a, b]))
    assert time.perf_counter() - start < 2
    assert info.value.needed > info.value.cap == CAPS["pieces"]
