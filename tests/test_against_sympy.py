"""Differential tests of the integer polynomial kernel and of the ring's
reduction against sympy, on generated integer polynomials.

sympy is a test-only dependency; the library does not import it.
"""

from math import gcd

import sympy
from hypothesis import given, settings, strategies as st

from motint import polynomials as P
from motint import ring_a as R

X = sympy.Symbol("x")

COEFFS = st.integers(-6, 6)
POLYS = st.lists(COEFFS, max_size=6).map(P.trim)
NONZERO = POLYS.filter(bool)


def to_sympy(p) -> sympy.Poly:
    return sympy.Poly(list(reversed(p)) or [0], X, domain="ZZ")


def from_sympy(poly: sympy.Poly) -> tuple:
    return P.trim(int(c) for c in reversed(poly.all_coeffs()))


def prim(poly: sympy.Poly) -> tuple:
    """Primitive part with positive leading coefficient, as a tuple."""
    if poly.is_zero:
        return ()
    _, part = poly.primitive()
    if part.LC() < 0:
        part = -part
    return from_sympy(part)


@settings(max_examples=200, deadline=None)
@given(a=POLYS, b=POLYS, c=POLYS)
def test_gcd_primitive_matches_sympy(a, b, c):
    f, g = P.mul(a, c), P.mul(b, c)
    got = P.gcd_primitive(f, g)
    assert got == prim(sympy.gcd(to_sympy(f), to_sympy(g)))
    if got:
        assert got[-1] > 0 and P.content(got) == 1


@settings(max_examples=200, deadline=None)
@given(a=POLYS, b=NONZERO)
def test_exact_division_matches_sympy(a, b):
    assert P.div_exact(P.mul(a, b), b) == a
    quo, rem = P.divmod_exact(a, b)
    assert P.add(P.mul(quo, b), rem) == a
    q_sym, r_sym = sympy.div(to_sympy(a).to_field(), to_sympy(b).to_field())
    exact_in_zx = r_sym.is_zero and all(
        c.is_integer for c in q_sym.all_coeffs())
    assert (rem == ()) == exact_in_zx
    if b[-1] in (1, -1):            # monic up to sign: Euclidean division
        assert quo == from_sympy(q_sym) and rem == from_sympy(r_sym)


def _sqf_parts_sympy(f) -> list:
    _, factors = sympy.sqf_list(to_sympy(f))
    top = max((m for _, m in factors), default=0)
    out = []
    for i in range(1, top + 1):
        part = sympy.Poly(1, X, domain="ZZ")
        for g, m in factors:
            if m == i:
                part = part * g
        out.append(prim(part))
    return out


@settings(max_examples=200, deadline=None)
@given(a=NONZERO, b=NONZERO, c=NONZERO)
def test_squarefree_decomposition_matches_sympy(a, b, c):
    f = P.mul(P.mul(a, P.mul(b, b)), P.poly_pow(c, 3))
    assert P.squarefree_decomposition(f) == _sqf_parts_sympy(f)


ROOTS = st.lists(st.integers(-4, 5), max_size=5, unique=True)


@settings(max_examples=200, deadline=None)
@given(roots=ROOTS, extra=NONZERO, lead=st.sampled_from([1, -1, 2, -3]))
def test_count_roots_right_of_one_matches_sympy(roots, extra, lead):
    f = (lead,)
    for r in roots:
        f = P.mul(f, (-r, 1))
    f = P.mul(f, extra)
    sq = prim(sympy.sqf_part(to_sympy(f)))
    if P.degree(sq) <= 0:
        return
    poly = to_sympy(sq)
    expected = poly.count_roots(1, None) - (1 if poly.eval(1) == 0 else 0)
    assert P.count_roots_right_of(sq, 1) == expected


FACTORS = st.lists(st.tuples(st.integers(1, 12), st.integers(0, 2)),
                   max_size=3)
EXTRA = st.lists(st.integers(-3, 3), max_size=3).map(P.trim).filter(bool)


def _assemble(k, cyclos, extra) -> tuple:
    out = P.shift_up(extra, k)
    for j, e in cyclos:
        out = P.mul(out, P.poly_pow(P.cyclotomic(j), e))
    return out


def _canonical_sympy(num, den) -> tuple:
    *scalar, n, d = to_sympy(num).cancel(to_sympy(den), include=False)
    c = sympy.Rational(scalar[0]) / (scalar[1] if len(scalar) > 1 else 1)
    n, d = n * int(c.p), d * int(c.q)
    cn, pn = n.primitive()
    cd, pd = d.primitive()
    if pd.LC() < 0:
        cd, pd = -cd, -pd
    g = gcd(int(cn), int(cd))
    if cd < 0:
        g = -g
    cn, cd = int(cn) // g, int(cd) // g
    return from_sympy(pn * cn), from_sympy(pd * cd)


def _in_a_sympy(d: sympy.Poly) -> bool:
    content, factors = d.factor_list()
    return abs(content) == 1 and all(
        g.is_cyclotomic or g == sympy.Poly(X, X) for g, _ in factors)


@settings(max_examples=200, deadline=None)
@given(kn=st.integers(0, 3), kd=st.integers(0, 3), cn=FACTORS, cd=FACTORS,
       en=EXTRA, ed=EXTRA, shared=EXTRA)
def test_reduce_matches_sympy_cancel(kn, kd, cn, cd, en, ed, shared):
    # L^k * prod Phi_j^e * extra on both sides, times a shared extra factor,
    # so that values outside the ring and the general gcd are reached too
    num = P.mul(_assemble(kn, cn, en), shared)
    den = P.mul(_assemble(kd, cd, ed), shared)
    got = R.lax(num, den)
    assert (got.numer, got.denom) == _canonical_sympy(num, den)
    assert R.in_a(got) == _in_a_sympy(to_sympy(got.denom))
