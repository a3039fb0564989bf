"""Cell machinery: every operation is checked against brute-force
enumeration over a finite box, including disjointness of the output."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_differential import SETTINGS

from motint import ring_a as R
from motint.cells import (
    AffineForm, PCell, VarCell, _apply, _constraints_of, add_cong, add_eq,
    add_ineq, complement, ensure_known_value_mod, from_constraints,
    intersect, reorder, subtract, universe,
)
from motint.cplus import _disjoint_pieces
from motint.errors import FrameMismatch, MotintError
from motint.presburger import PFun, PTerm


def af(coeffs=None, const=0):
    return AffineForm.make(coeffs or {}, const)


def disjoint_union(groups: list) -> list:
    """Disjoint cells covering the union of all the given cells."""
    covered: list = []
    for c in groups:
        pieces = [c]
        for r in covered:
            pieces = [p2 for p in pieces for p2 in subtract(p, r)]
        covered += pieces
    return covered


def enumerate_points(cell: PCell, box: dict):
    """All integer points of the cell inside the box {name: (lo, hi)}."""
    names = cell.vars

    def rec(i: int, env: dict):
        if i == len(names):
            yield dict(env)
            return
        v = names[i]
        vc = cell.tower[i]
        lo, hi = box[v]
        if vc.lo is not None:
            b = vc.lo.evaluate(env)
            lo = max(lo, -(-b.numerator // b.denominator))
        if vc.hi is not None:
            b = vc.hi.evaluate(env)
            hi = min(hi, b.numerator // b.denominator)
        start = lo + ((vc.res - lo) % vc.mod)
        for x in range(start, hi + 1, vc.mod):
            env[v] = x
            yield from rec(i + 1, env)
        env.pop(v, None)

    yield from rec(0, {})


def box_points(names, box):
    def rec(i, env):
        if i == len(names):
            yield dict(env)
            return
        lo, hi = box[names[i]]
        for x in range(lo, hi + 1):
            env[names[i]] = x
            yield from rec(i + 1, env)
        env.pop(names[i], None)
    yield from rec(0, {})


def covered(cells, box):
    """Points covered by the cells, asserting no point is covered twice."""
    names = cells[0].vars if cells else ()
    out = set()
    for env in box_points(names, box):
        hits = sum(1 for c in cells if c.contains(env))
        assert hits <= 1, f"point {env} covered {hits} times"
        if hits:
            out.add(tuple(env[n] for n in names))
    return out


def predicate_points(names, box, pred):
    return {tuple(env[n] for n in names)
            for env in box_points(names, box) if pred(env)}


def test_affine_form_basics():
    f = af({"i": 2, "j": Fraction(-1, 2)}, 3)
    g = af({"i": -2, "k": 1})
    s = f + g
    assert s.coeff("i") == 0
    assert s.coeff("k") == 1
    assert s.const == 3
    assert f.evaluate({"i": 1, "j": 4}) == 3
    sub = f.substitute("j", af({"i": 1}, 1))
    assert sub.evaluate({"i": 3}) == f.evaluate({"i": 3, "j": 4})
    assert f.den == 2
    assert f.den != 1
    assert AffineForm.from_json(f.to_json()) == f


def test_affine_form_str():
    assert str(af({"i": 1, "j": -1}, 2)) == "i - j + 2"
    assert str(af()) == "0"
    assert str(af({"n": Fraction(3, 2)})) == "3/2*n"


def test_cell_json_round_trip():
    c = PCell(("i", "j"),
              (VarCell(af(const=0), af(const=10), 2, 1),
               VarCell(af({"i": 1}), None, 3, 2)))
    assert PCell.from_json(c.to_json()) == c


def test_varcell_validation():
    with pytest.raises(MotintError):
        VarCell(None, None, 0, 0)
    with pytest.raises(MotintError):
        VarCell(None, None, 3, 5)
    with pytest.raises(MotintError):
        PCell(("i", "j"), (VarCell(af({"j": 1}), None), VarCell(None, None)))


BOX2 = {"i": (-6, 6), "j": (-6, 6)}


def test_add_ineq_single_and_merge():
    u = universe(("i", "j"))
    cells = add_ineq(u, af({"j": 1, "i": -1}))          # j <= i
    cells = [c for base in cells for c in add_ineq(base, af({"j": -1}, -2))]  # j >= -2
    cells = [c for base in cells for c in add_ineq(base, af({"j": 2, "i": 1}, -4))]
    want = predicate_points(("i", "j"), BOX2,
                            lambda e: e["j"] <= e["i"] and e["j"] >= -2
                            and 2 * e["j"] + e["i"] <= 4)
    assert covered(cells, BOX2) == want


def test_add_ineq_fractional_bound():
    u = universe(("i", "j"))
    # 2j <= i gives the fractional bound j <= i/2
    cells = add_ineq(u, af({"j": 2, "i": -1}))
    want = predicate_points(("i", "j"), BOX2, lambda e: 2 * e["j"] <= e["i"])
    assert covered(cells, BOX2) == want


def test_add_cong_multivariable():
    u = universe(("i", "j"))
    cells = add_cong(u, af({"i": 2, "j": 3}, -1), 4)
    want = predicate_points(("i", "j"), BOX2,
                            lambda e: (2 * e["i"] + 3 * e["j"] - 1) % 4 == 0)
    assert covered(cells, BOX2) == want
    # residues in the tower are constant
    for c in cells:
        for vc in c.tower:
            assert isinstance(vc.res, int)


def test_add_cong_requires_integer_coefficients():
    u = universe(("i",))
    with pytest.raises(MotintError):
        add_cong(u, af({"i": Fraction(1, 2)}), 3)


def test_add_eq_pins_innermost():
    u = universe(("i", "b", "a"))
    box = {"i": (0, 12), "b": (0, 6), "a": (0, 6)}
    pre = add_ineq(u, af({"b": -1}))                      # b >= 0
    pre = [c for base in pre for c in add_ineq(base, af({"a": -1}))]
    cells = [c for base in pre for c in add_eq(base, af({"a": 2, "b": 3, "i": -1}))]
    want = predicate_points(("i", "b", "a"), box,
                            lambda e: e["a"] >= 0 and e["b"] >= 0
                            and 2 * e["a"] + 3 * e["b"] == e["i"])
    assert covered(cells, box) == want
    # the pinned slot has matching affine bounds
    for c in cells:
        vc = c.tower[2]
        assert vc.lo == vc.hi


def test_add_eq_constant_cases():
    u = universe(("i",))
    assert add_eq(u, af(const=0)) == [u]
    assert add_eq(u, af(const=3)) == []


def test_intersect_matches_sets():
    a_cells = from_constraints(("i", "j"), [
        ("ineq", af({"i": -1})), ("ineq", af({"i": 1}, -5)),
        ("ineq", af({"j": -1}, -1)), ("ineq", af({"j": 1, "i": -1})),
    ])
    b_cells = from_constraints(("i", "j"), [
        ("cong", af({"j": 1}), 2), ("ineq", af({"j": -2, "i": 1})),
    ])
    got = set()
    pieces = [p for a in a_cells for b in b_cells for p in intersect(a, b)]
    got = covered(pieces, BOX2)
    in_a = predicate_points(("i", "j"), BOX2,
                            lambda e: 0 <= e["i"] <= 5 and -1 <= e["j"] <= e["i"])
    in_b = predicate_points(("i", "j"), BOX2,
                            lambda e: e["j"] % 2 == 0 and 2 * e["j"] >= e["i"])
    assert got == in_a & in_b


def test_subtract_and_union_and_complement():
    sq = from_constraints(("i", "j"), [
        ("ineq", af({"i": -1})), ("ineq", af({"i": 1}, -4)),
        ("ineq", af({"j": -1})), ("ineq", af({"j": 1}, -4)),
    ])
    assert len(sq) == 1
    strip = from_constraints(("i", "j"), [
        ("ineq", af({"j": -1}, 2)), ("ineq", af({"j": 1}, -3)),
    ])
    assert len(strip) == 1
    diff = subtract(sq[0], strip[0])
    in_sq = predicate_points(("i", "j"), BOX2,
                             lambda e: 0 <= e["i"] <= 4 and 0 <= e["j"] <= 4)
    in_strip = predicate_points(("i", "j"), BOX2, lambda e: 2 <= e["j"] <= 3)
    assert covered(diff, BOX2) == in_sq - in_strip
    uni = disjoint_union(sq + strip)
    assert covered(uni, BOX2) == in_sq | in_strip
    comp = complement(sq, ("i", "j"))
    assert covered(comp, BOX2) == covered([universe(("i", "j"))], BOX2) - in_sq


def test_frame_mismatch():
    with pytest.raises(FrameMismatch):
        intersect(universe(("i",)), universe(("j",)))
    with pytest.raises(FrameMismatch):
        reorder(universe(("i", "j")), ("i", "k"))


def test_reorder_preserves_membership():
    cells = from_constraints(("i", "j"), [
        ("ineq", af({"j": -1})),                      # j >= 0
        ("ineq", af({"j": 1, "i": -1})),              # j <= i
        ("cong", af({"i": 1, "j": 1}), 2),            # i + j even
    ])
    want = covered(cells, BOX2)
    flipped = [p for c in cells for p in reorder(c, ("j", "i"))]
    got = {(e["i"], e["j"])
           for e in box_points(("j", "i"), BOX2)
           if sum(1 for c in flipped if c.contains(e)) == 1}
    missed = {tuple(e[n] for n in ("j", "i"))
              for e in box_points(("j", "i"), BOX2)
              if sum(1 for c in flipped if c.contains(e)) > 1}
    assert not missed
    assert got == want


def test_ensure_known_value_mod():
    cells = from_constraints(("i", "j"), [("ineq", af({"j": 1, "i": -1}))])
    form = af({"i": Fraction(1, 2), "j": 1}, Fraction(1, 2))
    total_points = covered(cells, BOX2)
    refined = []
    for c in cells:
        refined += ensure_known_value_mod(c, form, 3)
    pieces = [c for c, _, _ in refined]
    assert covered(pieces, BOX2) == total_points
    for c, d, val in refined:
        assert d == 2
        for env in box_points(("i", "j"), BOX2):
            if c.contains(env):
                assert (env["i"] + 2 * env["j"] + 1) % 6 == val


def test_enumerate_points_matches_contains():
    cells = from_constraints(("i", "j"), [
        ("ineq", af({"i": -1})), ("ineq", af({"i": 1}, -6)),
        ("ineq", af({"j": -1})), ("ineq", af({"j": 2, "i": -1})),
        ("cong", af({"j": 1}, -1), 3),
    ])
    box = {"i": (0, 6), "j": (0, 6)}
    for c in cells:
        listed = {tuple(e[n] for n in ("i", "j")) for e in enumerate_points(c, box)}
        direct = {tuple(e[n] for n in ("i", "j"))
                  for e in box_points(("i", "j"), box) if c.contains(e)}
        assert listed == direct


def test_random_constraint_systems():
    rng = random.Random(31)
    names = ("i", "j", "k")
    box = {n: (-5, 5) for n in names}
    for trial in range(40):
        cons = []
        preds = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["ineq", "ineq", "cong", "eq"])
            coeffs = {n: rng.randint(-2, 2) for n in rng.sample(names, rng.randint(1, 3))}
            const = rng.randint(-4, 4)
            if all(v == 0 for v in coeffs.values()):
                continue
            form = af(coeffs, const)
            if kind == "cong":
                m = rng.choice([2, 3, 4])
                cons.append(("cong", form, m))
                preds.append(lambda e, c=dict(coeffs), k=const, m=m:
                             (sum(cc * e[n] for n, cc in c.items()) + k) % m == 0)
            elif kind == "eq":
                cons.append(("eq", form))
                preds.append(lambda e, c=dict(coeffs), k=const:
                             sum(cc * e[n] for n, cc in c.items()) + k == 0)
            else:
                cons.append(("ineq", form))
                preds.append(lambda e, c=dict(coeffs), k=const:
                             sum(cc * e[n] for n, cc in c.items()) + k <= 0)
        cells = from_constraints(names, cons)
        want = predicate_points(names, box, lambda e: all(p(e) for p in preds))
        assert covered(cells, box) == want, f"trial {trial}: {cons}"


# ---------------------------------------------------------------------------
# affine forms against a dict-of-Fraction model

NAMES = ("a", "b", "c")
FRACS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
MODELS = st.tuples(st.dictionaries(st.sampled_from(NAMES), FRACS, max_size=3),
                   FRACS)
SCALARS = st.one_of(st.integers(-4, 4), FRACS)
POINTS = st.fixed_dictionaries({n: st.integers(-6, 6) for n in NAMES})


def model_of(form) -> tuple:
    return ({n: c for n, c in form.terms}, form.const)


def clean(model) -> tuple:
    coeffs, const = model
    return ({n: Fraction(c) for n, c in sorted(coeffs.items()) if c},
            Fraction(const))


def model_value(model, env) -> Fraction:
    coeffs, const = model
    return const + sum(c * env[n] for n, c in coeffs.items())


def check_form(form, model):
    """form holds the model's value, in canonical integer form."""
    coeffs, const = clean(model)
    assert model_of(form) == (coeffs, const)
    assert [n for n, _ in form.ints] == sorted(coeffs)
    assert all(type(k) is int and k for _, k in form.ints)
    assert type(form.cnum) is int and type(form.den) is int and form.den >= 1
    assert gcd(form.den, form.cnum, *(k for _, k in form.ints)) == 1
    for n in NAMES:
        assert form.coeff(n) == coeffs.get(n, 0)
    want = {"terms": {n: str(c) for n, c in coeffs.items()},
            "const": str(const)}
    assert json.dumps(form.to_json()) == json.dumps(want)
    assert AffineForm.from_json(json.loads(json.dumps(form.to_json()))) == form


@SETTINGS
@given(MODELS, MODELS, SCALARS, SCALARS, st.sampled_from(NAMES), POINTS)
def test_affine_form_matches_model(ma, mb, k, s, name, env):
    a, b = af(*ma), af(*mb)
    check_form(a, ma)
    check_form(b, mb)
    ca, ka = clean(ma)
    cb, kb = clean(mb)
    add = ({n: ca.get(n, 0) + cb.get(n, 0) for n in NAMES}, ka + kb)
    sub = ({n: ca.get(n, 0) - cb.get(n, 0) for n in NAMES}, ka - kb)
    check_form(a + b, add)
    check_form(a - b, sub)
    check_form(a.scale(k), ({n: c * k for n, c in ca.items()}, ka * k))
    check_form(a.shift(s), (ca, ka + s))
    c = ca.get(name, 0)
    subst = {n: v for n, v in ca.items() if n != name}
    for n, v in cb.items():
        subst[n] = subst.get(n, 0) + c * v
    check_form(a.substitute(name, b), (subst, ka + c * kb))
    assert a.evaluate(env) == model_value((ca, ka), env)
    assert a.eval_num(env) == a.evaluate(env) * a.den
    # equality and hashing are value equality: build the same value twice
    same = (a + b) - b
    assert same == a and hash(same) == hash(a)
    assert (a == b) == (clean(ma) == clean(mb))
    if a == b:
        assert hash(a) == hash(b)


@SETTINGS
@given(st.lists(st.tuples(MODELS, MODELS), min_size=3, max_size=3),
       st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)), min_size=3,
                max_size=3),
       st.lists(POINTS, min_size=5, max_size=5))
def test_cell_contains_matches_fractions(bounds, congs, points):
    # bounds of each variable may mention only the earlier ones
    tower = []
    for i, ((mlo, mhi), (m, r)) in enumerate(zip(bounds, congs)):
        earlier = NAMES[:i]
        lo = af({n: c for n, c in mlo[0].items() if n in earlier}, mlo[1])
        hi = af({n: c for n, c in mhi[0].items() if n in earlier}, mhi[1])
        tower.append(VarCell(lo, hi, m, r % m))
    cell = PCell(NAMES, tuple(tower))
    for env in points:
        want = all((env[v] - vc.res) % vc.mod == 0
                   and model_value(model_of(vc.lo), env) <= env[v]
                   <= model_value(model_of(vc.hi), env)
                   for v, vc in zip(NAMES, cell.tower))
        assert cell.contains(env) == want


@SETTINGS
@given(st.lists(MODELS, min_size=1, max_size=3))
def test_rational_inequalities_match_sets(models):
    box = {n: (-3, 3) for n in NAMES}
    cells = from_constraints(NAMES, [("ineq", af(*m)) for m in models])
    want = predicate_points(
        NAMES, box, lambda e: all(model_value(clean(m), e) <= 0
                                  for m in models))
    assert covered(cells, box) == want


# ---------------------------------------------------------------------------
# set operations whose answer is known: a universe operand, disjoint pieces

SMALL = st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(0),
                         Fraction(1, 2), Fraction(1)])


@st.composite
def bounded_cells(draw, names=("a", "b")):
    """Cells with both bounds on every variable; all their points lie in
    the box [-8, 8]^2."""
    lo = draw(st.integers(-2, 2))
    tower = [VarCell(af({}, lo), af({}, lo + draw(st.integers(0, 3))),
                     *draw(st.sampled_from([(1, 0), (2, 0), (2, 1), (3, 2)])))]
    bounds = [af({names[0]: draw(SMALL)}, draw(st.integers(-2, 2)))
              for _ in range(2)]
    m = draw(st.integers(1, 3))
    tower.append(VarCell(*bounds, m, draw(st.integers(0, m - 1))))
    return PCell(names, tuple(tower))


CELL_BOX = {"a": (-8, 8), "b": (-8, 8)}


@SETTINGS
@given(bounded_cells())
def test_intersect_with_universe_is_the_cell(b):
    one_at_a_time = [universe(b.vars)]
    for con in _constraints_of(b):
        one_at_a_time = [c for base in one_at_a_time for c in _apply(base, con)]
    fast = intersect(universe(b.vars), b)
    assert fast == one_at_a_time
    assert covered(fast, CELL_BOX) == covered([b], CELL_BOX)


def _labels_per_point(pieces) -> dict:
    """{point: sorted labels of the pieces holding it}, by enumeration."""
    out: dict = {}
    for cell, labels in pieces:
        for env in enumerate_points(cell, CELL_BOX):
            out.setdefault((env["a"], env["b"]), []).extend(labels)
    return {pt: sorted(labels) for pt, labels in out.items()}


@SETTINGS
@given(st.lists(bounded_cells(), min_size=2, max_size=3))
def test_disjoint_pieces_keep_the_point_multiset(cells):
    # at most three cells: with four, empty pieces can multiply for minutes
    # term k + 1 marks input piece k, so each point's terms name its pieces
    pf = PFun(("a", "b"), tuple(
        (c, (PTerm(R.from_int(k + 1), af()),)) for k, c in enumerate(cells)))
    out = _disjoint_pieces(pf)
    # pairwise disjoint: no point lies in two output pieces
    seen: set = set()
    for cell, _ in out.pieces:
        for env in enumerate_points(cell, CELL_BOX):
            point = (env["a"], env["b"])
            assert point not in seen, point
            seen.add(point)
    want = _labels_per_point((c, [k]) for k, c in enumerate(cells))
    got = _labels_per_point(
        (c, [int(str(t.coef)) - 1 for t in terms]) for c, terms in out.pieces)
    assert got == want
