import random
from contextlib import nullcontext
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motint import polynomials as P
from motint import ring_a as R
from motint.errors import CAPS, CapExceeded, NotInA, ParseError, QOutOfRange
from motint.ring_a import (
    ARat, L, L_pow, ONE, ZERO, _reduce, _split_of, arat,
    fraction_from_json, from_int, from_rational, fsum, in_a, is_nonneg,
    lax, parse_ratfunc, theta,
)
from test_differential import SETTINGS


def inv_one_minus_L_neg(i: int) -> ARat:
    """1/(1 - L^-i) = L^i/(L^i - 1), a ring generator (i >= 1)."""
    return arat(tuple([0] * i + [1]), tuple([-1] + [0] * (i - 1) + [1]))


def test_canonical_form():
    a = lax((2, 2), (4,))           # (2L+2)/4 -> (L+1)/2
    assert a.numer == (1, 1) and a.denom == (2,)
    assert not in_a(a)              # content 2 in the denominator
    b = arat((-1, 0, 1), (-1, 1))   # (L^2-1)/(L-1) -> L+1
    assert b == arat((1, 1))
    # sign convention: denominator leading coefficient positive
    c = lax((1,), (0, -1))
    assert c.denom == (0, 1) and c.numer == (-1,)


def test_generator_identity():
    # 1/(1 - L^-1) - 1 = 1/(L - 1)
    a = inv_one_minus_L_neg(1) - ONE
    assert a == arat((1,), (-1, 1))
    assert theta(a, 2) == 1
    assert theta(a, 3) == Fraction(1, 2)


def test_membership():
    assert in_a(L_pow(-3))
    assert in_a(arat((1,), (0, 0, 1)))
    assert in_a(inv_one_minus_L_neg(4))
    assert in_a(arat((1,), (1, 1)))        # 1/(L+1) = (L-1)/(L^2-1) * L^0
    with pytest.raises(NotInA):
        arat((1,), (-2, 1))                # 1/(L-2)
    with pytest.raises(NotInA):
        arat((1,), (1, 2))                 # 1/(2L+1)
    with pytest.raises(NotInA):
        arat((1,), (2,))                   # 1/2
    # a bad factor hiding behind a good one
    with pytest.raises(NotInA):
        arat((1,), P.mul((-1, 1), (-2, 1)))


def test_division_strictness():
    a = (ONE / arat((-1, 1))) * arat((-1, 1))
    assert a == ONE
    with pytest.raises(NotInA):
        ONE / arat((-2, 1))
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_pow():
    assert L ** 3 == arat((0, 0, 0, 1))
    assert L ** -2 == L_pow(-2)
    assert (L - ONE) ** 0 == ONE
    with pytest.raises(NotInA):
        (L - from_int(2)) ** -1


def test_theta_basics():
    assert theta(L, 2) == 2
    assert theta(L_pow(-2), 3) == Fraction(1, 9)
    assert theta(arat((0, 1), (1, 1)), 2) == Fraction(2, 3)   # L/(L+1)
    with pytest.raises(QOutOfRange):
        theta(L, 1)
    with pytest.raises(QOutOfRange):
        theta(L, Fraction(1, 2))


def _random_element(rng: random.Random) -> ARat:
    # assembled from ring generators so membership holds by construction
    num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
    if P.is_zero(P.trim(num)):
        num = (1,)
    a = arat(P.trim(num))
    a = a * L_pow(rng.randint(-3, 3))
    for _ in range(rng.randint(0, 2)):
        a = a * inv_one_minus_L_neg(rng.randint(1, 4))
    return a


def test_theta_is_a_homomorphism():
    rng = random.Random(20260818)
    qs = [Fraction(2), Fraction(3), Fraction(7, 2)]
    for _ in range(200):
        a, b = _random_element(rng), _random_element(rng)
        for q in qs:
            assert theta(a + b, q) == theta(a, q) + theta(b, q)
            assert theta(a * b, q) == theta(a, q) * theta(b, q)
            assert theta(-a, q) == -theta(a, q)


def test_equality_iff_enough_evaluations():
    # two canonical fractions agree iff they agree at
    # 1 + max(deg num + deg den) distinct points beyond 1
    rng = random.Random(7)
    for _ in range(50):
        a, b = _random_element(rng), _random_element(rng)
        n = 1 + max(
            P.degree(a.numer) + P.degree(a.denom),
            P.degree(b.numer) + P.degree(b.denom),
            0,
        )
        qs = [Fraction(2) + Fraction(k, 1) for k in range(n)]
        same_values = all(theta(a, q) == theta(b, q) for q in qs)
        assert same_values == (a == b)


NONNEG_CORPUS = [
    (ZERO, True),
    (ONE, True),
    (-ONE, False),
    (L, True),
    (arat((-1, 1)), True),                          # L - 1
    (arat((-2, 1)), False),                         # L - 2
    (lax(P.mul((-2, 1), (-2, 1)), (-1, 1)), True),  # (L-2)^2/(L-1)
    (arat((-1, 1), (0, 1)), True),                  # 1 - L^-1
    (arat((1,), (-1, 1)), True),                    # 1/(L-1)
    (arat((-1,), (-1, 1)), False),                  # -1/(L-1)
    (arat(P.mul((-1, 1), (-2, 1))), False),         # (L-1)(L-2)
    (lax((0, 0, 1), (-2, 1)), False),               # L^2/(L-2) flips at 2
    (lax(P.mul((-3, 1), (-3, 1)), (-2, 1)), False), # (L-3)^2/(L-2)
    (arat((1, -2, 1)), True),                       # (L-1)^2
    (arat((4, -4, 1)), True),                       # (L-2)^2
    (arat((-8, 12, -6, 1)), False),                 # (L-2)^3
    (arat((0, -2, 1)), False),                      # L(L-2)
    (arat((2, 1)), True),                           # L + 2
    (lax((1,), (2,)), True),                        # 1/2
    (lax((-1,), (2,)), False),                      # -1/2
    (arat((6, -5, 1)), False),                      # (L-2)(L-3)
    (arat((1,), (1, 1)), True),                     # 1/(L+1)
]


def test_is_nonneg_corpus():
    for a, expected in NONNEG_CORPUS:
        assert is_nonneg(a) == expected, f"is_nonneg({a})"


def test_is_nonneg_agrees_with_sampling():
    # sampling can only refute, never certify: any negative sample must
    # force a False verdict, and a True verdict must survive all samples
    rng = random.Random(99)
    qs = [Fraction(num, den) for num in range(2, 40) for den in (1, 3, 7) if Fraction(num, den) > 1]
    for _ in range(100):
        a = _random_element(rng) - _random_element(rng)
        refuted = any(theta(a, q) < 0 for q in qs)
        if is_nonneg(a):
            assert not refuted
        # a False verdict with no sampled refutation is legitimate
        # (the sign change may sit between or beyond the samples)


def test_parse_ratfunc():
    assert parse_ratfunc("L/(L - 1)") == arat((0, 1), (-1, 1))
    assert parse_ratfunc("(L^2 - 1)/(L - 1)") == arat((1, 1))
    assert parse_ratfunc("1 - L^-1") == arat((-1, 1), (0, 1))
    assert parse_ratfunc("L**2 * L**-2") == ONE
    assert parse_ratfunc("1/(L-2) * (L-2)") == ONE
    with pytest.raises(NotInA):
        parse_ratfunc("1/(L - 2)")


def test_parse_ratfunc_long_literals_are_parse_errors():
    # longer than the interpreter's int-string limit (4,300 digits)
    long = "9" * 5000
    for bad in (long, f"L^{long}", f"L^-{long}"):
        with pytest.raises(ParseError,
                           match="integer literal of 5000 digits is too long"):
            parse_ratfunc(bad)



def test_parse_ratfunc_caps_the_degree_of_a_power():
    # checked before the power is taken, so a huge exponent fails at once
    max_degree = CAPS["degree"]
    for text, degree in (("L^99999999", 99999999), ("L^-99999999", 99999999),
                         ("(L^2 + 1)^30000", 60000),
                         (f"1/L^{max_degree + 1}", max_degree + 1)):
        with pytest.raises(CapExceeded) as info:
            parse_ratfunc(text)
        assert (info.value.needed, info.value.cap) == (degree, max_degree)
    assert parse_ratfunc(f"L^{max_degree}") == L_pow(max_degree)
    # a constant has degree 0, whatever its size
    assert parse_ratfunc("2^20000") == from_int(2 ** 20000)


def test_parse_ratfunc_deep_nesting_is_a_parse_error():
    # parentheses and negations recurse once per level; no depth limit,
    # only the interpreter's stack
    for deep in ("(" * 2000 + "L" + ")" * 2000, "-" * 2000 + "L"):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_ratfunc(deep)
    # a chain of sums is a loop, so it parses at any length
    assert parse_ratfunc(" + ".join(["L"] * 2000)) == from_int(2000) * L
    assert parse_ratfunc("(" * 100 + "L" + ")" * 100) == L

def test_str_and_json_round_trip():
    a = arat((0, 1), (-1, 1))
    assert str(a) == "L/(L - 1)"
    assert str(ZERO) == "0"
    assert str(from_int(-3)) == "-3"
    b = ARat.from_json(a.to_json())
    assert b == a


def test_from_rational():
    assert from_rational(Fraction(3, 4)) == lax((3,), (4,))
    assert from_rational(Fraction(-2)) == from_int(-2)


@pytest.mark.parametrize("bad", [(1.5,), ("7",), (True,), (1, 2.0), 7])
def test_coefficients_must_be_ints(bad):
    with pytest.raises(ParseError):
        arat(bad)
    with pytest.raises(ParseError):
        lax((1,), bad)
    with pytest.raises(ParseError):
        ARat.from_json({"numer": bad, "denom": [1]})
    with pytest.raises(ParseError):
        fraction_from_json({"numer": [1], "denom": bad})


def test_from_json_errors():
    with pytest.raises(ParseError):
        ARat.from_json({"numer": [1], "denom": []})
    with pytest.raises(ParseError):
        ARat.from_json([1])
    with pytest.raises(NotInA):
        ARat.from_json({"numer": [1], "denom": [-2, 1]})
    assert fraction_from_json({"numer": [1], "denom": [-2, 1]}) \
        == ((1,), (-2, 1))
    with pytest.raises(ParseError):
        fraction_from_json({"numer": [1]})


def test_membership_of_every_small_cyclotomic():
    # every cyclotomic factor of degree <= 16, the largest index being 60
    for j in range(1, 61):
        phi = P.cyclotomic(j)
        if P.degree(phi) > 16:
            continue
        assert in_a(arat((1,), P.mul(P.mul(phi, phi), (0, 1))))
        assert arat(phi, P.mul(phi, (-1, 1))) == arat((1,), (-1, 1))
        with pytest.raises(NotInA):
            arat((1,), P.mul(phi, (-2, 1)))


# ---------------------------------------------------------------------------
# the split of the denominator, carried through arithmetic

def test_values_carry_their_split():
    a = arat((0, 1), (-1, 1)) - ONE                  # 1/(L - 1)
    assert a.split == (0, 1, ((1, 1),))
    assert (a * L_pow(-2)).split == (2, 1, ((1, 1),))
    assert (a ** 3).split == (0, 1, ((1, 3),))
    assert lax((1,), (0, 6)).split == (1, 6, ())      # 1/(6L)
    assert lax((1,), (-2, 1)).split == (0, 0, ())     # 1/(L - 2): no split
    # the split takes no part in equality, and is found on first use
    b = ARat((1,), (-1, 1))
    assert b.split is None and b == a and in_a(b)
    assert b.split == a.split


def test_monomial_constructors_carry_their_split():
    for m in (ONE, -ONE, L, L_pow(-4), L_pow(3), L_pow(2, -6), from_int(-5),
              from_rational(Fraction(-3, 4)), lax((0, 0, 2), (3,))):
        assert m.split[2] == () and m.split == _split_of(m.denom), m
        assert (m.numer, m.denom) == (lax(m.numer, m.denom).numer,
                                      lax(m.numer, m.denom).denom)
    assert L_pow(5, 0) == from_rational(Fraction(0)) == ZERO


COEFFS = st.lists(st.integers(-6, 6), min_size=1, max_size=5)


def dense_sum(a: ARat, b: ARat) -> ARat:
    return _reduce(P.add(P.mul(a.numer, b.denom), P.mul(b.numer, a.denom)),
                   P.mul(a.denom, b.denom))


def dense_product(a: ARat, b: ARat) -> ARat:
    return _reduce(P.mul(a.numer, b.numer), P.mul(a.denom, b.denom))


def no_factoring(values):
    """While every value has a split, arithmetic must not split a
    denominator again: _factor raises."""
    if all(v.split[1] for v in values):
        return mock.patch.object(R, "_factor",
                                 side_effect=AssertionError("re-factored"))
    return nullcontext()


def _cyclo_poly(draw) -> tuple:
    """c * L^k * prod of up to three Phi_j, j <= 12."""
    out = (0,) * draw(st.integers(0, 3)) + (draw(st.integers(1, 4)),)
    for j in draw(st.lists(st.integers(1, 12), max_size=3)):
        out = P.mul(out, P.cyclotomic(j))
    return out


@st.composite
def split_values(draw):
    """A value whose denominator splits as L^k * c * prod Phi_j^e, j <= 12;
    the numerator is random or itself such a product, so that inverses and
    cancellations stay split too."""
    if draw(st.booleans()):
        num = P.trim(draw(COEFFS)) or (1,)
    else:
        num = _cyclo_poly(draw)
    if draw(st.booleans()):
        num = P.neg(num)
    return lax(num, _cyclo_poly(draw))


@st.composite
def ring_values(draw):
    """Mostly split values; now and then one outside A, with L - 2 in the
    denominator."""
    a = draw(split_values())
    if draw(st.integers(0, 5)) == 0:
        return lax(a.numer, P.mul(a.denom, (-2, 1)))
    return a


def _same(got: ARat, want: ARat) -> None:
    assert (got.numer, got.denom) == (want.numer, want.denom)
    assert got.split == _split_of(got.denom)


@SETTINGS
@given(ring_values(), ring_values())
def test_arithmetic_matches_the_dense_reduction(a, b):
    want = dense_sum(a, b), dense_sum(a, -b), dense_product(a, b)
    with no_factoring((a, b)):
        got = a + b, a - b, a * b
    for g, w in zip(got, want):
        _same(g, w)


@SETTINGS
@given(split_values(), split_values())
def test_sums_and_products_that_cancel(a, c):
    # b = c - a and d = c / a make a + b and a * d cancel down to c
    b = dense_sum(c, -a)
    d = _reduce(P.mul(c.numer, a.denom), P.mul(c.denom, a.numer))
    with no_factoring((a, b, c, d)):
        got = a + b, a * d, fsum([a, b, -c]), fsum([b, a, a, -a])
    _same(got[0], c)
    _same(got[3], c)
    if d.split[1]:
        _same(got[1], c)
    assert got[2] == ZERO


@SETTINGS
@given(st.lists(ring_values(), max_size=6))
def test_fsum_matches_a_left_fold(values):
    want = ZERO
    for v in values:
        want = dense_sum(want, v)
    with no_factoring(values):
        got = fsum(values)
    _same(got, want)


@SETTINGS
@given(split_values(), split_values(), st.integers(0, 3))
def test_theta_is_a_homomorphism_on_split_values(a, b, k):
    for q in (2, 3, Fraction(7, 2)):
        ta, tb = theta(a, q), theta(b, q)
        assert theta(a + b, q) == ta + tb
        assert theta(a - b, q) == ta - tb
        assert theta(a * b, q) == ta * tb
        assert theta(a ** k, q) == ta ** k
        assert theta(fsum([a, b, a]), q) == 2 * ta + tb


# ---------------------------------------------------------------------------
# products with a monomial c*L^e: the split product must match _reduce

@st.composite
def fractions_in_l(draw):
    """A canonical fraction, often with a power of L in numer or denom."""
    num = (0,) * draw(st.integers(0, 3)) + tuple(draw(COEFFS))
    den = P.trim((0,) * draw(st.integers(0, 3)) + tuple(draw(COEFFS)))
    return lax(num, den if den else (1,))


@st.composite
def monomials(draw):
    """(c/b)*L^e with c of any sign (or zero), b >= 1 and -3 <= e <= 3."""
    c, b = draw(st.integers(-12, 12)), draw(st.integers(1, 6))
    e = draw(st.integers(-3, 3))
    if e >= 0:
        return lax((0,) * e + (c,), (b,))
    return lax((c,), (0,) * -e + (b,))


@SETTINGS
@given(fractions_in_l(), monomials())
def test_monomial_product_matches_reduce(a, m):
    expected = _reduce(P.mul(a.numer, m.numer), P.mul(a.denom, m.denom))
    assert a * m == expected
    assert m * a == expected
    assert ZERO * m == m * ZERO == ZERO


def _indices_by_trial_division(n: int) -> tuple:
    """Every (j, phi(j)) with phi(j) <= n, growing j one prime p <= n + 1
    at a time, each prime found by trial division."""
    out = [(1, 1)] if n >= 1 else []
    for p in range(2, n + 2):
        if all(p % q for q in range(2, isqrt(p) + 1)):
            for j, phi in list(out):
                q, f = p, p - 1
                while phi * f <= n:
                    out.append((j * q, phi * f))
                    q, f = q * p, f * p
    return tuple(sorted(out))


def test_cyclotomic_indices_match_trial_division():
    # the indices for n are those for 3,000 with phi(j) <= n
    ref = _indices_by_trial_division(3000)
    indices = R._cyclotomic_indices.__wrapped__      # uncached
    for n in [*range(64), *range(64, 3000, 97), 2999, 3000]:
        assert indices(n) == tuple(x for x in ref if x[1] <= n), n
