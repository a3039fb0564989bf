"""Zeta series: closed forms, counting, interpolation."""

import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from motint import formula as F
from motint import ring_a as R
from motint.cells import AffineForm, PCell, VarCell, universe
from motint.cplus import MotFun, is_equal, normal_form, specialize
from motint.errors import (CapExceeded, FrameMismatch, MotintError,
                           NonGeometricFamily, ParseError, UnsupportedH,
                           points_cap)
from motint.padic import PContext, rational_ord
from motint.presburger import PFun, PTerm
from motint.vfint import integrate_iterated
from motint.zeta import (CoeffList, Poly, RatSeries, parse_poly,
                         series_from_parameter, verify_meuser,
                         zmot_monomial, zprime_count)
from test_differential import SETTINGS


def point(a) -> MotFun:
    pf = PFun((), ((universe(()), (PTerm(a, AffineForm.make()),)),))
    return normal_form(MotFun.from_pfun(pf))


U = R.parse_ratfunc("(L - 1)/L")          # volume of the unit shell


# ---------------------------------------------------------------------------
# polynomials


def test_parse_monomial():
    h = parse_poly("x^2*y^3")
    assert h.as_monomial() == (Fraction(1), (("x", 2), ("y", 3)))
    assert h.variables() == ("x", "y")


def test_parse_sum_and_signs():
    h = parse_poly("-x^2 + 3*x*y - 7")
    assert len(h.terms) == 3
    assert h.variables() == ("x", "y")
    assert h.as_monomial() is None
    assert parse_poly(str(h)) == h


def test_parse_repeated_variable_merges():
    assert parse_poly("x*x") == parse_poly("x^2")
    assert parse_poly("2*x*3") == parse_poly("6*x")


def test_parse_rational_coefficient():
    h = parse_poly("3/2*x")
    assert h.as_monomial() == (Fraction(3, 2), (("x", 1),))


def test_parse_cancellation():
    assert parse_poly("x - x").is_zero()


def test_parse_errors():
    for bad in ("", "x +", "^2", "x^", "x ** y", "x @ y",
                "pi*x", "ord(x)", "ac_1(x)", "x^0", "proj_2_1(x)",
                "ac_1(x) + ord(y)", "in*x", "x/2"):
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_power_expansion_checked_against_cap():
    # each product of an a-term and a b-term polynomial is checked against
    # the cap before it is built, so a short H cannot run for minutes
    start = time.perf_counter()
    with points_cap(10_000), pytest.raises(CapExceeded) as info:
        parse_poly("(x + y + z + w)^40")
    assert time.perf_counter() - start < 1
    assert info.value.needed > info.value.cap == 10_000
    with points_cap(10_000):
        assert len(parse_poly("(x + y + z + w)^4").terms) == 35


def test_parse_term_grammar():
    # H is a valued-field term: grouping, ** and a sign after * parse
    square = parse_poly("(x + y)^2")
    assert square == parse_poly("x^2 + 2*x*y + y^2")
    assert parse_poly("x**2") == parse_poly("x^2")
    assert parse_poly("2*-x") == parse_poly("-2*x")
    assert parse_poly("(1/2*x - 1)^3*y") == parse_poly(
        "1/8*x^3*y - 3/4*x^2*y + 3/2*x*y - y")
    for p, d in ((2, 1), (3, 1), (2, 2)):
        assert (zprime_count(square, p, d, 3, method="cylinder")
                == zprime_count("x^2 + 2*x*y + y^2", p, d, 3,
                                method="cylinder"))


def test_eval_residue():
    h = parse_poly("x^2*y + 5")
    ring = PContext(3, 1).residue_ring(2)
    env = {"x": ring.from_int(2), "y": ring.from_int(4)}
    assert h.eval_residue(ring, env).coeffs == ((2 * 2 * 4 + 5) % 9,)


# ---------------------------------------------------------------------------
# monomial closed forms


def test_zmot_single_variable():
    rs = zmot_monomial("x")
    assert rs.denominator == ((-1, 1),)
    assert len(rs.numerator) == 1 and rs.numerator[0][0] == 0
    assert is_equal(rs.numerator[0][1], point(U)) == "equal"


def test_zmot_powers():
    for k in (2, 3):
        rs = zmot_monomial(f"x^{k}")
        assert rs.denominator == ((-1, k),)
        assert is_equal(rs.numerator[0][1], point(U)) == "equal"


def test_zmot_product():
    rs = zmot_monomial("x*y")
    assert rs.denominator == ((-1, 1), (-1, 1))
    assert is_equal(rs.numerator[0][1], point(U * U)) == "equal"


def test_zmot_mixed_monomial_expansion():
    # volumes of {2 ord x + 3 ord y = i} by direct shell convolution
    rs = zmot_monomial("x^2*y^3")
    got = rs.expand(7)
    for i in range(8):
        expected = R.ZERO
        for a in range(i // 2 + 1):
            rem = i - 2 * a
            if rem % 3 == 0:
                b = rem // 3
                expected = expected + U * U * R.L_pow(-a - b)
        assert is_equal(got[i], point(expected)) == "equal", i


def test_zmot_rationality_per_level():
    # Taylor coefficients match independent per-level integrals
    cases = {"x": ("x",), "x^2": ("x",), "x*y": ("x", "y")}
    ctx = PContext(2, 1)
    for text, names in cases.items():
        h = parse_poly(text)
        rs = zmot_monomial(h)
        got = rs.expand(6)
        (_, powers), = h.terms
        for i in range(7):
            parts = [F.Le(F.IntLit(0, F.VG), F.Ord(F.Var(v, F.VF)))
                     for v in names]
            total = None
            for v, k in powers:
                term = F.BinOp("*", F.IntLit(k, F.VG), F.Ord(F.Var(v, F.VF)))
                total = term if total is None else F.BinOp("+", total, term)
            parts.append(F.Eq(total, F.IntLit(i, F.VG)))
            out = integrate_iterated(F.land(*parts), names, ctx)
            assert is_equal(got[i], out.value) == "equal", (text, i)


def test_zmot_nonunit_coefficient_needs_prime():
    with pytest.raises(UnsupportedH):
        zmot_monomial("2*x")


def test_zmot_coefficient_shift():
    rs = zmot_monomial("2*x", p=2)
    assert rs.expand(0)[0].terms == ()        # no i=0 mass
    assert is_equal(rs.expand(1)[1], point(U)) == "equal"
    # at p=3 the coefficient 2 is a unit, so there is no shift
    assert zmot_monomial("2*x", p=3) == zmot_monomial("x")


def test_zmot_constant():
    rs = zmot_monomial("4", p=2)
    assert rs.denominator == ()
    assert [i for i, _ in rs.numerator] == [2]
    assert zmot_monomial("1").numerator[0][0] == 0
    assert zmot_monomial("1/2", p=2).is_zero()


def test_zmot_rejects_sums_and_zero():
    with pytest.raises(UnsupportedH, match=r"covers one monomial .* "
                       r"integrate_iterated .* series_from_parameter"):
        zmot_monomial("x + y")
    with pytest.raises(UnsupportedH):
        zmot_monomial("x - x")


# ---------------------------------------------------------------------------
# series of parametrized integrals


def test_cells_shrunk_domain():
    ctx = PContext(3, 1)
    cond = F.parse_formula("ord(x) >= 1 && ord(x) = i",
                           {"x": F.VF, "i": F.VG})
    rs = series_from_parameter(
        integrate_iterated(cond, ("x",), ctx, base_vg=("i",)).value)
    assert rs.denominator == ((-1, 1),)
    assert [i for i, _ in rs.numerator] == [1]
    got = rs.expand(4)
    assert got[0].terms == ()
    for i in range(1, 5):
        assert is_equal(got[i], point(U * R.L_pow(-i))) == "equal"


# ---------------------------------------------------------------------------
# series extraction edge cases


def _param_fun(lo, hi, coeff_i, const, mod=1, res=0, var="i"):
    cell = PCell((var,), (VarCell(
        None if lo is None else AffineForm.const_form(lo),
        None if hi is None else AffineForm.const_form(hi), mod, res),))
    lpow = AffineForm.make({var: Fraction(coeff_i)}, Fraction(const))
    pf = PFun((var,), ((cell, (PTerm(R.ONE, lpow),)),))
    return MotFun.from_pfun(pf)


def test_series_reads_its_variable_from_the_frame():
    by_i = series_from_parameter(_param_fun(0, None, -1, 0, mod=3, res=1))
    by_n = series_from_parameter(_param_fun(0, None, -1, 0, mod=3, res=1,
                                            var="n"))
    assert by_n == by_i
    assert by_n.numerator
    ctx = PContext(3, 1)
    cond_i = F.parse_formula("ord(x) >= 1 && ord(x) = i",
                             {"x": F.VF, "i": F.VG})
    cond_n = F.parse_formula("ord(x) >= 1 && ord(x) = n",
                             {"x": F.VF, "n": F.VG})
    assert series_from_parameter(
        integrate_iterated(cond_n, ("x",), ctx, base_vg=("n",)).value) == \
        series_from_parameter(
            integrate_iterated(cond_i, ("x",), ctx, base_vg=("i",)).value)
    two = PFun(("i", "j"), ((universe(("i", "j")),
                              (PTerm(R.ONE, AffineForm.make()),)),))
    with pytest.raises(FrameMismatch, match="one value-group variable"):
        series_from_parameter(MotFun.from_pfun(two))
    pf = PFun(("i",), ((universe(("i",)), (PTerm(R.ONE, AffineForm.make()),)),))
    with pytest.raises(FrameMismatch, match="no residue parameter"):
        series_from_parameter(MotFun.from_pfun(pf, (("xi", 1),)))
    with pytest.raises(FrameMismatch):
        series_from_parameter(MotFun.unit())


def test_series_growing_exponent_rejected():
    with pytest.raises(NonGeometricFamily):
        series_from_parameter(_param_fun(0, None, 1, 0))
    with pytest.raises(NonGeometricFamily):
        series_from_parameter(_param_fun(0, None, 0, 0))


def test_series_fractional_exponent_rejected():
    # L^(i/2) on an even-only class is fine; on all integers it is not
    ok = series_from_parameter(_param_fun(0, None, Fraction(-1, 2), 0,
                                          mod=2, res=0))
    assert ok.denominator == ((-1, 2),)
    with pytest.raises(NonGeometricFamily):
        series_from_parameter(_param_fun(0, 4, Fraction(1, 2), 0))


def test_series_congruence_class():
    # mass L^{-i} on i = 1 mod 3 only
    rs = series_from_parameter(_param_fun(0, None, -1, 0, mod=3, res=1))
    got = rs.expand_counts(PContext(2, 1), 7)
    for i in range(8):
        assert got[i] == (Fraction(1, 2 ** i) if i % 3 == 1 else 0), i


def test_series_negative_range_clipped():
    # pieces below i = 0 contribute nothing to the series
    rs = series_from_parameter(_param_fun(-5, None, -1, 0))
    got = rs.expand_counts(PContext(2, 1), 3)
    assert got == [Fraction(1, 2 ** i) for i in range(4)]


def test_series_json_round_trip():
    rs = zmot_monomial("x*y")
    assert RatSeries.from_json(rs.to_json()) == rs
    cl = zprime_count("x", 2, 1, 3)
    assert CoeffList.from_json(cl.to_json()) == cl


def test_ratseries_validation():
    with pytest.raises(MotintError):
        RatSeries(((0, point(R.ONE)),), ((-1, 0),))
    with pytest.raises(MotintError):
        RatSeries(((0, point(R.ONE)),), ((-1, 2), (-1, 1)))
    with pytest.raises(MotintError):
        RatSeries(((2, point(R.ONE)), (1, point(R.ONE))), ())


COEFS = [R.ONE, R.parse_ratfunc("L - 1"), R.parse_ratfunc("-2*L^-1"),
         R.parse_ratfunc("1/(1 - L^-1)")]


@st.composite
def param_families(draw):
    """One-variable functions of i whose series is geometric: bounded and
    unbounded pieces, negative lower bounds, moduli 1-3, L-exponents with
    slopes k/m (such as -1/2) that are integers on the class, and factors
    that grow, stay constant or vanish."""
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 3))
        res = draw(st.integers(0, m - 1))
        lo = draw(st.one_of(st.none(), st.integers(-3, 3)))
        hi = draw(st.one_of(st.none(), st.integers(0, 6)))
        if lo is not None and hi is not None:
            hi += lo
        cell = PCell(("i",), (VarCell(
            None if lo is None else AffineForm.const_form(lo),
            None if hi is None else AffineForm.const_form(hi), m, res),))
        # an unbounded piece must decay, a bounded one may grow or stay flat
        slopes = (-2, -1) if hi is None else (-2, -1, 0, 1)
        terms = []
        for _ in range(draw(st.integers(1, 2))):
            slope = Fraction(draw(st.sampled_from(slopes)), m)
            lpow = AffineForm.make({"i": slope},
                                   draw(st.integers(-1, 1)) - slope * res)
            factors = tuple(
                AffineForm.make({"i": draw(st.sampled_from(
                                    (0, 1, -1, 2, Fraction(1, 2))))},
                                draw(st.sampled_from((0, 1, -2, Fraction(1, 2)))))
                for _ in range(draw(st.integers(0, 3))))
            terms.append(PTerm(draw(st.sampled_from(COEFS)), lpow, factors))
        pieces.append((cell, tuple(terms)))
    return PFun(("i",), tuple(pieces))


@SETTINGS
@given(param_families())
def test_series_matches_termwise_sums(pf):
    rs = series_from_parameter(MotFun.from_pfun(pf))
    for q in (2, 3):
        want = [pf.eval_theta(q, {"i": i}) for i in range(9)]
        assert rs.expand_counts(PContext(q, 1), 8) == want, q


# ---------------------------------------------------------------------------
# counting


def test_zprime_frozen_values():
    assert zprime_count("x", 2, 1, 3).values == (
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
    assert zprime_count("x*y", 2, 1, 3).values == (
        Fraction(1, 4), Fraction(1, 4), Fraction(3, 16), Fraction(1, 8))
    assert zprime_count("x", 3, 2, 1).values == (
        Fraction(8, 9), Fraction(8, 81))


def test_zprime_methods_agree():
    grid = [("x", 2, 1, 4), ("x*y", 2, 1, 3), ("x^2*y^3", 2, 1, 3),
            ("x", 3, 2, 2), ("x^2 + y^2", 2, 1, 3), ("x*y - 1", 3, 1, 2),
            ("x*y - z^2", 2, 2, 1), ("x^2 - y^3", 3, 2, 1),
            ("x^2 + y", 2, 3, 1), ("3*x^2 - 5*y", 3, 1, 3)]
    for h, p, d, imax in grid:
        a = zprime_count(h, p, d, imax, method="cylinder").values
        b = zprime_count(h, p, d, imax, method="enumerate").values
        assert a == b, (h, p, d)
        if parse_poly(h).as_monomial() is not None:
            c = zprime_count(h, p, d, imax, method="shells").values
            assert a == c, (h, p, d)


def test_zprime_non_integral_coefficients():
    # ord(x/2 + y) = ord(x + 2y) - 1, so the volumes shift by one index
    for h, p, d, imax in [("1/2*x*y", 2, 1, 3), ("1/2*x + y", 2, 1, 3),
                          ("1/2*x + y", 2, 2, 1), ("1/4*x^2 + 1/2*y", 2, 1, 2)]:
        a = zprime_count(h, p, d, imax, method="cylinder").values
        b = zprime_count(h, p, d, imax, method="enumerate").values
        assert a == b, (h, p, d)
        k = -min(rational_ord(c, p) for c, _ in parse_poly(h).terms)
        integral = Poly.make((c * p ** k, m) for c, m in parse_poly(h).terms)
        shifted = zprime_count(integral, p, d, imax + k, method="cylinder").values
        assert a == shifted[k:], (h, p, d)
        if parse_poly(h).as_monomial() is not None:
            assert a == zprime_count(h, p, d, imax, method="shells").values
    assert zprime_count("1/2*x*y", 2, 1, 3, method="cylinder").values == (
        Fraction(1, 4), Fraction(3, 16), Fraction(1, 8), Fraction(5, 64))


_TERMS = st.lists(
    st.tuples(st.integers(-30, 30), st.sampled_from([1, 5, 7]),
              st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 4)),
                       max_size=3)),
    min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(terms=_TERMS)
def test_parse_printed_poly_round_trip(terms):
    h = Poly.make((Fraction(n, den), mono) for n, den, mono in terms)
    assert parse_poly(str(h)) == h


@settings(max_examples=150, deadline=None)
@given(terms=_TERMS, p=st.sampled_from([2, 3]), d=st.sampled_from([1, 2, 3]),
       level=st.integers(1, 4), data=st.data())
def test_compiled_residue_matches_eval_residue(terms, p, d, level, data):
    h = Poly.make((Fraction(n, den), mono) for n, den, mono in terms)
    ctx = PContext(p, d)
    ring = ctx.residue_ring(level)
    coord = st.tuples(*[st.integers(0, ring.char - 1)] * d)
    names = h.variables()
    point = data.draw(st.tuples(*[coord] * len(names)))
    env = {v: ring.make(x) for v, x in zip(names, point)}
    assert h.compile_residue(ctx, level)(point) == h.eval_residue(ring, env).coeffs
    # against a wider order, as a partial derivative is compiled against H's
    order = data.draw(st.permutations("xyzw"))
    wide = data.draw(st.tuples(*[coord] * len(order)))
    env = {v: ring.make(x) for v, x in zip(order, wide)}
    assert (h.compile_residue(ctx, level, order)(wide)
            == h.eval_residue(ring, env).coeffs)


def test_partial():
    h = parse_poly("x^3*y - 1/2*x*y^2 + 5*y + 7")
    assert h.partial("x") == parse_poly("3*x^2*y - 1/2*y^2")
    assert h.partial("y") == parse_poly("x^3 - x*y + 5")
    assert h.partial("z").is_zero()


def _enumerable_i_max(q: int, n: int, k: int, budget: int = 400):
    """The largest i_max <= 3 for which ``enumerate`` walks at most
    ``budget`` tuples (q^(n * level) at levels k + 1 .. i_max + k + 1),
    or None when not even i_max = 0 does."""
    total, i_max = 0, None
    for i in range(4):
        total += q ** (n * (i + k + 1))
        if total > budget:
            break
        i_max = i
    return i_max


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data(), p=st.sampled_from([2, 3]), d=st.sampled_from([1, 2]))
def test_cylinder_matches_enumerate(data, p, d):
    # generated H, not p-integral when a denominator is p; at p = 2 the
    # gradient carries extra factors of 2 and the Hensel step must see them
    names = data.draw(st.sampled_from(["xy", "xyz"]))
    terms = data.draw(st.lists(
        st.tuples(st.integers(-9, 9).filter(bool),
                  st.sampled_from([1, 2, 3, 5]),
                  st.tuples(*[st.integers(0, 3)] * len(names))),
        min_size=1, max_size=4))
    h = Poly.make((Fraction(c, den), tuple(zip(names, exps)))
                  for c, den, exps in terms)
    n = len(h.variables())
    assume(n >= 2)
    k = max(0, -min(rational_ord(c, p) for c, _ in h.terms))
    i_max = _enumerable_i_max(p ** d, n, k)
    assume(i_max is not None)
    got = zprime_count(h, p, d, i_max, method="cylinder").values
    assert got == zprime_count(h, p, d, i_max, method="enumerate").values, (
        str(h), p, d)


def test_zprime_shells_needs_monomial():
    with pytest.raises(UnsupportedH):
        zprime_count("x + y", 2, 1, 2, method="shells")


def test_zprime_constant_and_zero():
    assert zprime_count("4", 2, 1, 3).values == (0, 0, 1, 0)
    assert zprime_count("3", 3, 1, 2).values == (0, 1, 0)
    assert zprime_count("1", 5, 1, 1).values == (1, 0)
    assert zprime_count("x - x", 2, 1, 2).values == (0, 0, 0)


def test_zprime_volumes_bounded():
    for h in ("x", "x*y", "x^2 + y^2"):
        cl = zprime_count(h, 2, 1, 5, method="cylinder")
        assert sum(cl.values) <= 1


def test_zprime_cap_enumerate():
    with points_cap(100), pytest.raises(CapExceeded) as ei:
        zprime_count("x*y", 2, 1, 5, method="enumerate")
    err = ei.value
    assert err.needed > err.cap == 100
    assert "i_max is 2" in str(err)
    with points_cap(2), pytest.raises(CapExceeded) as ei:
        zprime_count("x*y", 2, 1, 3, method="enumerate")
    assert (ei.value.needed, ei.value.cap) == (4, 2)
    assert "no i_max fits under the cap" in str(ei.value)
    assert "-1" not in str(ei.value)
    with points_cap(100), pytest.raises(CapExceeded) as ei:
        zprime_count("1/2*x*y", 2, 1, 3, method="enumerate")
    assert "i_max is 1" in str(ei.value)


def test_zprime_cap_cylinder():
    # the Hensel step resolves the smooth classes of x*y, leaving one
    # frontier class per level, so the squares are what exceeds the cap
    with points_cap(300):
        vols = zprime_count("x*y", 2, 1, 40, method="cylinder").values
    assert vols == tuple(Fraction(i + 1, 2 ** (i + 2)) for i in range(41))
    with points_cap(300), pytest.raises(CapExceeded) as ei:
        zprime_count("x^2*y^2", 2, 1, 40, method="cylinder")
    assert ei.value.cap == 300
    assert "feasible i_max" in str(ei.value)
    with points_cap(2), pytest.raises(CapExceeded) as ei:
        zprime_count("x*y", 2, 1, 3, method="cylinder")
    assert (ei.value.needed, ei.value.cap) == (4, 2)
    assert "no i_max fits under the cap" in str(ei.value)
    assert "-1" not in str(ei.value)
    with points_cap(40), pytest.raises(CapExceeded) as ei:
        zprime_count("1/2*x^2*y^2", 2, 1, 3, method="cylinder")
    assert "largest feasible i_max is 0" in str(ei.value)


def test_coefflist_validation():
    with pytest.raises(MotintError):
        CoeffList(1, (Fraction(1, 2),))
    with pytest.raises(MotintError):
        CoeffList(0, (Fraction(3, 2),))


# ---------------------------------------------------------------------------
# interpolation


def test_meuser_single_variable():
    rep = verify_meuser("x", 2, 1, 5)
    assert rep["all_match"] and len(rep["rows"]) == 6
    for row in rep["rows"]:
        assert row["counted"] == Fraction(1, 2 ** (row["i"] + 1))


def test_meuser_square_odd_coefficients_vanish():
    rep = verify_meuser("x^2", 3, 1, 4)
    assert rep["all_match"]
    for row in rep["rows"]:
        if row["i"] % 2 == 1:
            assert row["counted"] == 0


def test_meuser_product_quadratic_extension():
    rep = verify_meuser("x*y", 2, 2, 4)
    assert rep["all_match"]
    for row in rep["rows"]:
        i = row["i"]
        assert row["counted"] == (i + 1) * Fraction(9, 16) * Fraction(4) ** -i


def test_meuser_series_object_shared_across_degrees():
    # one closed form serves every unramified degree
    rs = zmot_monomial("x^3")
    for p in (2, 3):
        for d in (1, 2):
            rep = verify_meuser("x^3", p, d, 4, series=rs)
            assert rep["all_match"], (p, d)


def test_expand_counts_matches_pointwise_specialization():
    rs = zmot_monomial("x*y")
    ctx = PContext(2, 1)
    sym = [specialize(c, ctx) for c in rs.expand(5)]
    assert sym == rs.expand_counts(ctx, 5)


# ---------------------------------------------------------------------------
# heuristic fitter


def heuristic_pade_fit(values, max_den_degree: int = 4):
    """Heuristic rational fit of a coefficient list (Pade style).

    Tries denominator degrees from 0 up and returns (numerator, denominator)
    coefficient tuples over Q with denominator constant term 1, or None.
    The result is a conjecture fitted to finitely many terms -- it is
    never used by the verification pipeline and proves nothing.
    """
    v = [Fraction(x) for x in values]
    n = len(v)
    for k in range(0, max_den_degree + 1):
        spare = max(k, 2)                # terms held back as a consistency check
        num_deg = n - 1 - k - spare
        if num_deg < 0:
            break
        rows = []
        rhs = []
        for i in range(num_deg + 1, n):
            rows.append([v[i - j] if i - j >= 0 else Fraction(0)
                         for j in range(1, k + 1)])
            rhs.append(-v[i])
        sol = _solve_exact(rows, rhs, k)
        if sol is None:
            continue
        den = [Fraction(1)] + sol
        num = []
        for i in range(num_deg + 1):
            s = v[i]
            for j in range(1, min(i, k) + 1):
                s += den[j] * v[i - j]
            num.append(s)
        while num and num[-1] == 0:
            num.pop()
        return tuple(num), tuple(den)
    return None


def _solve_exact(rows, rhs, k):
    """Least-degree exact solution of an overdetermined linear system over
    Q by elimination; None when inconsistent."""
    if k == 0:
        return [] if all(r == 0 for r in rhs) else None
    mat = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        scale = mat[r][c]
        mat[r] = [x / scale for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(mat)):
        if mat[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        sol[c] = mat[i][k]
    return sol


def test_heuristic_fit_recovers_geometric():
    vals = [Fraction(1, 2) * Fraction(1, 2) ** i for i in range(9)]
    fit = heuristic_pade_fit(vals)
    assert fit == ((Fraction(1, 2),), (Fraction(1), Fraction(-1, 2)))


def test_heuristic_fit_gives_up():
    vals = [Fraction(1, i + 1) for i in range(9)]
    assert heuristic_pade_fit(vals, max_den_degree=2) is None
