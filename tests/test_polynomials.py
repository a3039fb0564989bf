from fractions import Fraction

import pytest

from motint import polynomials as P


def test_trim_and_degree():
    assert P.trim([1, 2, 0, 0]) == (1, 2)
    assert P.trim([0, 0]) == ()
    assert P.degree(()) == -1
    assert P.degree((5,)) == 0
    assert P.degree((0, 0, 3)) == 2


def test_arithmetic():
    f = (1, 1)        # 1 + x
    g = (-1, 1)       # -1 + x
    assert P.mul(f, g) == (-1, 0, 1)
    assert P.add(f, g) == (0, 2)
    assert P.sub(f, f) == ()
    assert P.poly_pow(f, 3) == (1, 3, 3, 1)
    assert P.evaluate((2, 0, 1), 3) == 11
    assert P.evaluate((2, 0, 1), Fraction(1, 2)) == Fraction(9, 4)


def test_power_counts_products_and_matches_repeated_products():
    # squarings for the highest bit, one product per further set bit
    calls = 0

    def times(a, b):
        nonlocal calls
        calls += 1
        return a * b

    for e, want_calls in enumerate([0, 0, 1, 2, 2, 3]):
        calls = 0
        assert P.power(3, e, times, 1) == 3 ** e
        assert calls == want_calls, (e, calls)
    for f in [(1, 1), (2, -1, 3), (0, 1), (5,), ()]:
        repeated = (1,)
        for e in range(9):
            assert P.poly_pow(f, e) == repeated, (f, e)
            assert P.power(f, e, P.mul, (1,)) == repeated, (f, e)
            repeated = P.mul(repeated, f)


def test_divmod_exact():
    num = (-1, 0, 0, 1)            # x^3 - 1
    den = (-1, 1)                  # x - 1
    quo, rem = P.divmod_exact(num, den)
    assert rem == ()
    assert quo == (1, 1, 1)
    quo, rem = P.divmod_exact((1, 0, 1), (1, 1))
    assert P.add(P.mul(quo, (1, 1)), rem) == (1, 0, 1)
    with pytest.raises(ValueError):
        P.div_exact((1, 0, 1), (1, 1))


def test_content_primitive():
    # the sign lives in the content so the primitive part leads positive
    c, prim = P.primitive((2, 4, -6))
    assert c == -2 and prim == (-1, -2, 3)
    c, prim = P.primitive((0, -3))
    assert c == -3 and prim == (0, 1)


def test_gcd_primitive():
    f = P.mul((-1, 1), (-1, 1))
    g = P.mul((-1, 1), (2, 1))
    assert P.gcd_primitive(f, g) == (-1, 1)
    assert P.gcd_primitive((), (0, 2)) == (0, 1)
    assert P.gcd_primitive((), ()) == ()


def test_cyclotomic():
    assert P.cyclotomic(1) == (-1, 1)
    assert P.cyclotomic(2) == (1, 1)
    assert P.cyclotomic(3) == (1, 1, 1)
    assert P.cyclotomic(4) == (1, 0, 1)
    assert P.cyclotomic(6) == (1, -1, 1)
    # product of cyclotomic(d) over d | 12 rebuilds x^12 - 1
    prod = (1,)
    for d in (1, 2, 3, 4, 6, 12):
        prod = P.mul(prod, P.cyclotomic(d))
    assert prod == tuple([-1] + [0] * 11 + [1])


def test_squarefree_decomposition():
    # (x-1)^2 * (x+2)
    f = P.mul(P.mul((-1, 1), (-1, 1)), (2, 1))
    parts = P.squarefree_decomposition(f)
    assert parts == [(2, 1), (-1, 1)]
    assert P.odd_multiplicity_part(f) == (2, 1)
    # odd part of (x-2)^2 is trivial
    sq = P.mul((-2, 1), (-2, 1))
    assert P.odd_multiplicity_part(sq) == (1,)


def test_root_counting_right_of_one():
    # (x-2)(x-3)(x+5): two roots beyond 1
    f = P.mul(P.mul((-2, 1), (-3, 1)), (5, 1))
    assert P.count_roots_right_of(f, 1) == 2
    # root exactly at 1 is excluded from the open interval
    assert P.count_roots_right_of((-1, 1), 1) == 0
    assert P.count_roots_right_of((-1, 1), 0) == 1
    # cyclotomics have no real roots beyond 1
    for j in (1, 2, 3, 4, 6, 12):
        assert P.count_roots_right_of(P.cyclotomic(j), 1) == 0
