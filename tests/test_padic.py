"""Galois rings, exact p-adic elements, formula evaluation and counting."""

import random
from fractions import Fraction
from math import inf, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motint import padic
from motint.errors import CapExceeded, MotintError, SortError, points_cap
from motint.formula import RES, VF, VG, parse_formula
from motint.padic import (
    GaloisRing, GRElem, PadicElem, PContext, compiled, count_points,
    default_modulus, eval_formula, is_prime,
)
from motint.zeta import zprime_count

from haar import haar_sum


def test_default_moduli_small_cases():
    assert default_modulus(2, 1) == (0, 1)
    # x^2 + x + 1 is the first irreducible quadratic over F_2
    assert default_modulus(2, 2) == (1, 1, 1)
    # -1 is not a square mod 3, so x^2 + 1 works and nothing smaller does
    assert default_modulus(3, 2) == (1, 0, 1)
    # mod 5: -1 = 4 is a square, -2 = 3 is not
    assert default_modulus(5, 2) == (2, 0, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)


def test_ring_size_and_arithmetic():
    ring = GaloisRing(3, 2, 2, default_modulus(3, 2))
    assert ring.size == 81
    w = ring.make((0, 1))
    # modulus x^2 + 1: w^2 = -1
    assert (w * w).coeffs == ((-1) % 9, 0)
    assert (w ** 4).coeffs == (1, 0)
    a = ring.make((5, 7))
    b = ring.make((8, 2))
    assert (a + b).coeffs == (4, 0)
    assert (a - b).coeffs == ((5 - 8) % 9, 5)
    assert (a * b - b * a).is_zero()


def test_f4_multiplication_table():
    ring = GaloisRing(2, 1, 2, default_modulus(2, 2))
    w = ring.make((0, 1))
    assert (w * w).coeffs == (1, 1)          # w^2 = w + 1
    assert (w ** 3).coeffs == (1, 0)         # multiplicative order 3
    units = [e for e in ring.elements() if not e.is_zero()]
    assert len(units) == 3


def test_enumeration_order_and_cap():
    ring = GaloisRing(2, 1, 2, default_modulus(2, 2))
    seq = [e.coeffs for e in ring.elements()]
    assert seq == [(0, 0), (0, 1), (1, 0), (1, 1)]
    big = GaloisRing(2, 10, 3, default_modulus(2, 3))
    with points_cap(1000), pytest.raises(CapExceeded) as ei:
        list(big.elements())
    assert ei.value.needed == 2 ** 30
    assert ei.value.cap == 1000


def test_mixing_rings_rejected():
    r1 = GaloisRing(2, 1, 1, default_modulus(2, 1))
    r2 = GaloisRing(2, 2, 1, default_modulus(2, 1))
    with pytest.raises(SortError):
        r1.one() + r2.one()


def test_context_ord_ac_and_mod():
    ctx = PContext(2, 1)
    assert ctx.ord(Fraction(12)) == 2
    assert ctx.ord(Fraction(3, 4)) == -2
    assert ctx.ord(Fraction(0)) == inf
    assert ctx.ac(Fraction(12), 1) == 1
    assert ctx.ac(Fraction(12), 2) == 3
    assert ctx.ac(Fraction(3, 4), 2) == 3
    assert ctx.ac(Fraction(0), 3) == 0
    assert ctx.mod(Fraction(1, 3), 2) == 3
    assert ctx.mod(-1, 3) == 7
    with pytest.raises(MotintError, match="not integral at 2"):
        ctx.mod(Fraction(1, 2), 1)


@st.composite
def context_constants(draw):
    """A context on {2,3,5,7}x{1,2}, a rational constant built from
    powers of p and cofactors prime to p (0 included), and a depth."""
    ctx = draw(st.sampled_from([PContext(p, d) for p in (2, 3, 5, 7)
                                for d in (1, 2)]))
    p = ctx.p
    unit = st.integers(-60, 60).filter(lambda k: k % p)
    num = draw(st.one_of(st.just(0), unit))
    den = draw(unit.filter(lambda k: k > 0))
    c = Fraction(num, den) * Fraction(p) ** draw(st.integers(-3, 3))
    return ctx, c, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(context_constants())
def test_context_reads_match_element_arithmetic(case):
    # PadicElem computes ord and ac from its own integer representation
    ctx, c, n = case
    x = ctx.vf(c)
    assert ctx.ord(c) == x.ord()
    head, *rest = x.ac_coeffs(n)
    assert ctx.ac(c, n) == head and not any(rest)
    v = ctx.ord(c)
    if c == 0:
        assert (v, ctx.ac(c, n), ctx.mod(c, n)) == (inf, 0, 0)
    elif v >= 0:
        m = ctx.p ** n
        assert ctx.mod(c, n) == ctx.p ** v * head % m
    else:
        with pytest.raises(MotintError):
            ctx.mod(c, n)
    with pytest.raises(MotintError):
        ctx.mod(Fraction(1, ctx.p), 1)


def test_exact_elem_ord_ac():
    x = PContext(2, 1).vf(Fraction(12))
    assert x.ord() == 2
    assert x.ac_coeffs(1) == (1,)
    assert x.ac_coeffs(2) == (3,)
    zero = PContext(2, 1).vf(Fraction(0))
    assert zero.ord() == inf
    assert zero.ac_coeffs(2) == (0,)


def test_exact_elem_degree_two():
    # 3*w + 9 over Q_3 with w a Teichmueller-type generator: ord is the
    # minimum coordinate order
    x = PadicElem.exact(3, 2, (Fraction(9), Fraction(3)))
    assert x.ord() == 1
    assert x.ac_coeffs(1) == (0, 1)
    assert x.ac_coeffs(2) == (3, 1)
    w = PadicElem.exact(2, 2, (0, 1))
    sq = w * w
    # modulus x^2 + x + 1 gives w^2 = -w - 1
    assert sq.coeffs == (Fraction(-1), Fraction(-1))
    assert sq.ac_coeffs(1) == (1, 1)


def test_count_residue_square_zero():
    # x ranges over the depth-2 residue ring of Q_2, here Z/4
    f = parse_formula("x^2 = 0", defaults={"x": RES(2)})
    assert count_points(f, PContext(2, 1)) == 2
    # over Z/8 the solutions to x^2 = 0 are 0 and 4
    f3 = parse_formula("x^2 = 0", defaults={"x": RES(3)})
    assert count_points(f3, PContext(2, 1)) == 2


def test_count_cap():
    f = parse_formula("x = x", defaults={"x": RES(4)})
    with points_cap(10), pytest.raises(CapExceeded):
        count_points(f, PContext(2, 1))
    # the cap applies to the whole box, not to each coordinate
    g = parse_formula("x = y", defaults={"x": RES(2), "y": RES(2)})
    with points_cap(10), pytest.raises(CapExceeded) as ei:
        count_points(g, PContext(2, 1))
    assert (ei.value.needed, ei.value.cap) == (4 * 4, 10)
    with points_cap(16):
        assert count_points(g, PContext(2, 1)) == 4
    # only residue variables are enumerated
    h = parse_formula("x^2 = 0 && 0 <= n", defaults={"x": RES(2), "n": VG})
    with pytest.raises(SortError):
        count_points(h, PContext(2, 1))


def test_unary_minus_and_powers_in_formulas():
    # residue terms: -x = 1 has one solution in F_3, -(x^2) = 2 has two
    ctx3 = PContext(3, 1)
    assert count_points(parse_formula("-x = 1", defaults={"x": RES(1)}), ctx3) == 1
    assert count_points(parse_formula("-(x^2) = 2", defaults={"x": RES(1)}), ctx3) == 2
    # over GR(9, 2), against a direct enumeration of the ring
    ctx32 = PContext(3, 2)
    f = parse_formula("x^3 = -x", defaults={"x": RES(2)})
    want = sum(1 for e in ctx32.residue_ring(2).elements() if e ** 3 == -e)
    assert count_points(f, ctx32) == want
    # valued-field terms
    g = parse_formula("ord(-t) = 1 && ord(t^3) = 3 && ac_1(-t) = 2",
                      default_sort=VF)
    exact = ctx3.vf(Fraction(3))
    assert eval_formula(g, {"t": exact}, ctx3)
    assert not eval_formula(g, {"t": ctx3.vf(Fraction(-3))}, ctx3)
    h = parse_formula("ord(-t) = 0 && ord(t^2) = 0", default_sort=VF)
    assert eval_formula(h, {"t": ctx3.vf(Fraction(1))}, ctx3)
    # value-group negation
    k = parse_formula("ord(t) = -n", defaults={"t": VF, "n": VG})
    assert eval_formula(k, {"t": ctx3.vf(Fraction(1, 9)), "n": 2}, ctx3)


def test_count_projection():
    f = parse_formula("proj_2_1(x) = 0", defaults={"x": RES(2)})
    assert count_points(f, PContext(2, 1)) == 2
    assert count_points(f, PContext(3, 1)) == 3


def test_count_quantified_squares():
    # number of squares in the residue field, counted through a quantifier
    f = parse_formula("exists y : res(1) . y * y = x", defaults={"x": RES(1)})
    assert count_points(f, PContext(3, 1)) == 2      # {0, 1} in F_3
    assert count_points(f, PContext(5, 1)) == 3      # {0, 1, 4} in F_5
    assert count_points(f, PContext(3, 2)) == 5      # F_9: 0 plus 4 nonzero squares


def test_modulus_independence():
    f = parse_formula("exists y : res(1) . y * y = x", defaults={"x": RES(1)})
    a = count_points(f, PContext(3, 2))
    b = count_points(f, PContext(3, 2, modulus=(2, 2, 1)))
    assert a == b == 5


def test_reducible_modulus_rejected():
    with pytest.raises(MotintError):
        PContext(3, 2, modulus=(0, 0, 1))
    # the modulus must be monic of degree d
    for modulus in ((1, 1), (1, 0, 2)):
        with pytest.raises(MotintError):
            PContext(3, 2, modulus=modulus)


def test_context_needs_prime_and_degree():
    for p, d in ((4, 1), (1, 1), (0, 1), (2, 0), (3, -1)):
        with pytest.raises(MotintError):
            PContext(p, d)
    with pytest.raises(MotintError, match="must be prime"):
        zprime_count("x*y + 1", 4, 1, 2)
    assert [n for n in range(30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_on_large_numbers():
    # exact against trial division on small n; Miller-Rabin to the first
    # 13 prime bases decides below 3.3 * 10^24, and past that bound the
    # trial division it needs counts against the points cap
    assert [n for n in range(-5, 5000) if is_prime(n)] == [
        n for n in range(2, 5000) if all(n % k for k in range(2, n))]
    assert is_prime(10 ** 18 + 3) and is_prime(1_000_000_007)
    # strong pseudoprimes to the bases 2 to 23 and 2 to 37
    assert not is_prime(3_825_123_056_546_413_051)
    assert not is_prime(318_665_857_834_031_151_167_461)
    assert not is_prime((2 ** 89 - 1) * (2 ** 61 - 1))
    with pytest.raises(CapExceeded) as info:
        is_prime(2 ** 89 - 1)
    assert info.value.needed == isqrt(2 ** 89 - 1) > info.value.cap
    with points_cap(10):       # no trial division below the bound
        assert is_prime(2 ** 40 + 15) and not is_prime(2 ** 40 + 17)


def test_vol_ord_equals_two():
    f = parse_formula("ord(x) = 2", default_sort=VF)
    assert haar_sum(f, (), PContext(2, 1), 3) == Fraction(1, 8)
    assert haar_sum(f, (), PContext(2, 1), 5) == Fraction(1, 8)
    assert haar_sum(f, (), PContext(3, 1), 3) == Fraction(2, 27)
    assert haar_sum(f, (), PContext(3, 2), 3) == Fraction(8, 729)


def test_vol_unit_product():
    f = parse_formula("ord(x * y) = 0", default_sort=VF)
    assert haar_sum(f, (), PContext(2, 1), 1) == Fraction(1, 4)
    assert haar_sum(f, (), PContext(2, 1), 2) == Fraction(1, 4)
    assert haar_sum(f, (), PContext(3, 1), 1) == Fraction(4, 9)


def test_vol_with_quantifier_and_ac():
    # units whose angular component is a square in the residue field
    f = parse_formula("ord(x) = 0 && (exists u : res(1) . u * u = ac_1(x))",
                      default_sort=VF)
    assert haar_sum(f, (), PContext(3, 1), 1) == Fraction(1, 3)
    assert haar_sum(f, (), PContext(3, 1), 2) == Fraction(1, 3)
    assert haar_sum(f, (), PContext(5, 1), 1) == Fraction(2, 5)


def test_shell_volume_known_values():
    # vol{ord x = a} = (q - 1) / q^(a + 1), determined at level a + 1
    for ctx, a, want in ((PContext(2, 1), 0, Fraction(1, 2)),
                         (PContext(2, 1), 2, Fraction(1, 8)),
                         (PContext(3, 2), 0, Fraction(8, 9)),
                         (PContext(3, 2), 1, Fraction(8, 81))):
        f = parse_formula(f"ord(x) = {a}", default_sort=VF)
        assert haar_sum(f, (), ctx, a + 1) == want


def test_haar_sum_weights_and_variables():
    ctx = PContext(2, 1)
    # a weighted variable the condition does not mention still ranges
    f = parse_formula("ord(x) >= 1", default_sort=VF)
    assert haar_sum(f, ((1, "y", 0),), ctx, 1) == Fraction(1, 2) * Fraction(1, 2)
    # L^{-ord x} over the units is 1/2; the class of the center is skipped
    g = parse_formula("ord(x) >= 0", default_sort=VF)
    assert haar_sum(g, ((1, "x", 0),), ctx, 1) == Fraction(1, 2)
    assert haar_sum(g, ((1, "x", 0),), ctx, 2) == Fraction(1, 2) + Fraction(1, 8)


def test_eval_vg_quantifier_bounds():
    f = parse_formula("exists z : vg in [0, 3] . ord(x) = z", default_sort=VF)
    ctx = PContext(2, 1)
    assert haar_sum(f, (), ctx, 5) == Fraction(15, 16)  # ord in 0..3
    g = parse_formula("forall z : vg in [0, 1] . ord(x) <= z", default_sort=VF)
    assert haar_sum(g, (), ctx, 3) == Fraction(1, 2)    # ord x = 0 and below


def test_ord_infinite_comparisons():
    ctx = PContext(2, 1)
    f = parse_formula("ord(x) >= 5", default_sort=VF)
    # the zero representative has infinite order, which satisfies >= 5
    assert haar_sum(f, (), ctx, 5) == Fraction(1, 32)
    # odd order below the level: 2, 6, 10, 14 and 8 modulo 16; the zero
    # class has infinite order and congruences never hold there
    g = parse_formula("ord(x) = 3 mod 2", default_sort=VF)
    assert haar_sum(g, (), ctx, 4) == Fraction(5, 16)


def test_random_ord_ac_multiplicativity():
    rng = random.Random(7)
    for _ in range(60):
        a = PadicElem.exact(3, 2, (Fraction(rng.randint(-40, 40)),
                                   Fraction(rng.randint(-40, 40))))
        b = PadicElem.exact(3, 2, (Fraction(rng.randint(-40, 40)),
                                   Fraction(rng.randint(-40, 40))))
        if a.is_zero() or b.is_zero():
            continue
        prod = a * b
        assert prod.ord() == a.ord() + b.ord()
        for n in (1, 2):
            ring = GaloisRing(3, n, 2, prod.modulus)
            assert prod.ac_coeffs(n) == (ring.make(a.ac_coeffs(n))
                                         * ring.make(b.ac_coeffs(n))).coeffs


@pytest.mark.parametrize("text", ["-ord(t) <= 5", "0*ord(t) = 0",
                                  "0 - ord(t) <= 5", "ord(t)*0 >= 1"])
def test_infinite_order_arithmetic_is_an_error(text):
    # at t = 0 the order is +inf: negating it, subtracting it or scaling it
    # by k <= 0 has no value, and each is the same typed error
    f = parse_formula(text, defaults={"t": VF})
    zero = PContext(3, 1).vf(Fraction(0))
    with pytest.raises(MotintError, match="infinite order"):
        eval_formula(f, {"t": zero}, PContext(3, 1))


def test_infinite_order_absorbs_sums_and_positive_multiples():
    f = parse_formula("2*ord(t) + 1 >= 7 && ord(t) - 3 >= 0", defaults={"t": VF})
    ctx = PContext(3, 1)
    assert eval_formula(f, {"t": ctx.vf(Fraction(0))}, ctx)
    assert not eval_formula(f, {"t": ctx.vf(Fraction(9))}, ctx)
    assert eval_formula(f, {"t": ctx.vf(Fraction(27))}, ctx)


def test_exact_elem_integer_representation():
    # 1/2 at p = 3 keeps a denominator prime to p; 5/9 at p = 3 has order -2
    half = PadicElem.exact(3, 1, (Fraction(1, 2),))
    assert (half.nums, half.den) == ((1,), 2)
    assert half.coeffs == (Fraction(1, 2),)
    assert half.ord() == 0 and half.ac_coeffs(2) == (5,)      # 1/2 = 5 mod 9
    x = PadicElem.exact(3, 2, (Fraction(5, 9), Fraction(2, 3)))
    assert (x.nums, x.den) == ((5, 6), 9)
    assert x.ord() == -2
    assert x.ac_coeffs(1) == (2, 0)
    # sums reduce to lowest terms, so equal elements compare equal
    assert half + half == PadicElem.exact(3, 1, (1,))
    assert (half - half).is_zero() and (half - half).den == 1
    # modulus x^2 + 1: (a + b w)^2 = a^2 - b^2 + 2ab w
    assert (x * x).coeffs == (Fraction(-11, 81), Fraction(20, 27))
    assert (x ** 2) == x * x


@pytest.mark.parametrize("d", [1, 2, 3])
def test_residue_variable_errors(d):
    ctx = PContext(3, d)
    f = parse_formula("x*x = 1", {"x": RES(1)})
    one = ctx.residue_ring(1).one()
    with pytest.raises(MotintError, match="unbound variable x"):
        eval_formula(f, {}, ctx)
    with pytest.raises(SortError, match=r"x is in GaloisRing\(.*level=2"):
        eval_formula(f, {"x": ctx.residue_ring(2).one()}, ctx)
    assert eval_formula(f, {"x": one}, ctx)
    # a non-element fails the same way before and after a good read
    for _ in range(2):
        with pytest.raises(SortError,
                           match=r"x is 2, expected an element of GaloisRing"):
            eval_formula(f, {"x": 2}, ctx)
        assert eval_formula(f, {"x": one}, ctx)


@pytest.mark.parametrize("bad", ["a", "1", 1.5, True, Fraction(1), -inf,
                                 None])
def test_value_group_variable_errors(bad):
    ctx = PContext(3, 1)
    f = parse_formula("n >= 1", {"n": VG})
    for _ in range(2):
        with pytest.raises(SortError, match=r"n is .*expected a value-group"):
            eval_formula(f, {"n": bad}, ctx)
        assert eval_formula(f, {"n": 2}, ctx)
        assert not eval_formula(f, {"n": 0}, ctx)
        assert eval_formula(f, {"n": inf}, ctx)
        assert eval_formula(f, {"n": float("inf")}, ctx)


@pytest.mark.parametrize("bad", ["3", 1.5, 3.0, True, None])
def test_valued_field_variable_errors(bad):
    ctx = PContext(3, 2)
    f = parse_formula("ord(t) >= 1", {"t": VF})
    for _ in range(2):
        with pytest.raises(SortError,
                           match=r"t is .*expected a valued-field element"):
            eval_formula(f, {"t": bad}, ctx)
        # the accepted kinds read the same value
        for good in (3, Fraction(3), ctx.vf(3), Fraction(9, 2)):
            assert eval_formula(f, {"t": good}, ctx)
        assert not eval_formula(f, {"t": Fraction(1, 3)}, ctx)
    with pytest.raises(SortError, match=r"t is .*expected a valued-field"):
        eval_formula(f, {"t": ctx.residue_ring(1).one()}, ctx)


@pytest.mark.parametrize("p, d", [(3, 2), (2, 3)])
def test_grelem_power_counts_products(monkeypatch, p, d):
    ring = GaloisRing(p, 2, d, default_modulus(p, d))
    x = ring.make(tuple(range(1, d + 1)))
    products = [ring.one(), x]          # repeated multiplication
    for e in range(2, 6):
        products.append(products[-1] * x)
    calls = 0
    real_mul = GRElem.__mul__

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return real_mul(a, b)

    monkeypatch.setattr(GRElem, "__mul__", counting_mul)
    # squarings for the highest bit, one product per further set bit
    want_calls = [0, 0, 1, 2, 2, 3]
    for e in range(6):
        calls = 0
        assert x ** e == products[e], e
        assert calls == want_calls[e], (e, calls)


def _clear_like_the_benchmark():
    # bench/run.py empties every module attribute that has a cache_clear
    for value in vars(padic).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def test_last_formula_slot_is_transparent():
    texts = ["x*x = 1", "x*x*x + x = 2", "-x = x^2", "x - 1 = 0 || x = 2"]
    formulas = [parse_formula(t, {"x": RES(1)}) for t in texts]
    contexts = [PContext(3, 1), PContext(2, 2), PContext(2, 3)]

    def run(clear_each: bool):
        out = []
        for f in formulas:
            for ctx in contexts:
                if clear_each:
                    compiled.cache_clear()
                out.append([eval_formula(f, {"x": e}, ctx)
                            for e in ctx.residue_ring(1).elements()])
        return out

    cold = run(clear_each=True)
    assert padic._last[0] is formulas[-1]
    _clear_like_the_benchmark()
    assert not padic._COMPILED and padic._last == (None, None, None)
    warm = run(clear_each=False)
    again = run(clear_each=False)
    assert cold == warm == again
    assert any(map(any, cold)) and not all(map(all, cold))
    # the slot holds what the store holds
    f, ctx, run_last = padic._last
    assert run_last is compiled(f, ctx)
    compiled.cache_clear()
    assert not padic._COMPILED and padic._last == (None, None, None)


FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]


@st.composite
def field_operands(draw):
    """Two elements of a field of degree 1 or 2 as Fraction coordinates,
    with denominators 1, p^k and prime to p (q = 3 at p = 2, 2 at p = 3)."""
    p, d = draw(st.sampled_from(FIELDS))
    q = 5 - p
    coord = st.builds(Fraction, st.integers(-p ** 4, p ** 4),
                      st.sampled_from([1, p, p ** 3, q, q * p]))
    pair = st.lists(coord, min_size=d, max_size=d)
    return p, d, draw(pair), draw(pair)


def model_ord(coords, p):
    return min(PContext(p, 1).ord(c) for c in coords)


def model_ac(coords, p, n):
    if not any(coords):
        return (0,) * len(coords)
    shift = Fraction(p) ** model_ord(coords, p)
    return tuple(PContext(p, 1).mod(c / shift, n) for c in coords)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(field_operands())
def test_field_arithmetic_matches_fraction_model(case):
    p, d, u, v = case
    x, y = PadicElem.exact(p, d, u), PadicElem.exact(p, d, v)
    for got, want in [(x, u), (y, v),
                      (x + y, [a + b for a, b in zip(u, v)]),
                      (x - y, [a - b for a, b in zip(u, v)])]:
        # lowest terms: equal values are equal dataclasses
        assert got == PadicElem.exact(p, d, want)
        assert got.coeffs == tuple(want)
        assert got.ord() == model_ord(want, p)
        for n in (1, 2):
            assert got.ac_coeffs(n) == model_ac(want, p, n)
