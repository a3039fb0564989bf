"""Dense univariate polynomial helpers.

Polynomials are tuples of coefficients in ascending order, so (c0, c1, c2)
stands for c0 + c1*x + c2*x^2.  The zero polynomial is the empty tuple.
Coefficients are Python ints or Fractions; results stay exact.

Only the small amount of machinery the coefficient ring needs lives here:
arithmetic, exact division, gcd over Q, content/primitive split, cyclotomic
polynomials, Yun's square-free decomposition and Sturm sequences.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd

Poly = tuple


def trim(cs) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    # degree of the zero polynomial is -1 by convention
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return len(p) == 0


X: Poly = (0, 1)


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: Poly, c) -> Poly:
    if c == 0:
        return ()
    return trim([a * c for a in p])


def shift_up(p: Poly, k: int) -> Poly:
    """Multiply by x^k."""
    if not p:
        return ()
    return tuple([0] * k + list(p))


def poly_pow(p: Poly, n: int) -> Poly:
    out: Poly = (1,)
    base = p
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


def evaluate(p: Poly, x):
    """Horner evaluation; exact when x is int or Fraction."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return trim([i * c for i, c in enumerate(p)][1:])


def divmod_exact(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Division with remainder over Q.  q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = degree(q)
    lead = Fraction(q[-1])
    while len(rem) - 1 >= dq and trim(rem):
        rem = list(trim(rem))
        if len(rem) - 1 < dq:
            break
        k = len(rem) - 1 - dq
        c = rem[-1] / lead
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem.pop()
    return trim(quo), trim(rem)


def div_exact(p: Poly, q: Poly) -> Poly:
    quo, rem = divmod_exact(p, q)
    if rem:
        raise ValueError("inexact polynomial division")
    return quo


def content(p: Poly) -> int:
    """Positive gcd of integer coefficients; 0 for the zero polynomial."""
    g = 0
    for c in p:
        g = int_gcd(g, int(c))
    return g


def primitive(p: Poly) -> tuple[int, Poly]:
    """Split an integer polynomial as content * primitive part.

    The primitive part keeps a positive leading coefficient; the sign goes
    into the content.
    """
    if not p:
        return 0, ()
    c = content(p)
    prim = tuple(int(a) // c for a in p)
    if prim[-1] < 0:
        return -c, neg(prim)
    return c, prim


def to_integer(p: Poly) -> tuple[int, int, Poly]:
    """Clear denominators: returns (num, den, q) with p = (num/den) * q,
    q primitive integer with positive leading coefficient."""
    if not p:
        return 0, 1, ()
    den = 1
    for c in p:
        den = den * Fraction(c).denominator // int_gcd(den, Fraction(c).denominator)
    ints = tuple(int(Fraction(c) * den) for c in p)
    num, prim = primitive(ints)
    return num, den, prim


def gcd_primitive(p: Poly, q: Poly) -> Poly:
    """Gcd over Q, returned as a primitive integer polynomial with positive
    leading coefficient.  gcd(0, 0) = 0."""
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    a, b = trim(a), trim(b)
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    if not a:
        return ()
    _, _, prim = to_integer(a)
    return prim


def squarefree_decomposition(p: Poly) -> list[Poly]:
    """Yun's algorithm over Q.

    Returns [a1, a2, ...] with p ~ a1 * a2^2 * a3^3 * ... up to a constant,
    each ai primitive integer, squarefree and pairwise coprime.
    """
    if not p or degree(p) == 0:
        return []
    g = gcd_primitive(p, derivative(p))
    if degree(g) == 0:
        _, _, prim = to_integer(p)
        return [prim]
    out: list[Poly] = []
    c = div_exact(p, g)
    d = sub(div_exact(derivative(p), g), derivative(c))
    while True:
        a = gcd_primitive(c, d)
        if not a:
            a = (1,)
        out.append(a)
        c = div_exact(c, a)
        if degree(c) <= 0:
            break
        d = sub(div_exact(d, a), derivative(c))
    return out


def odd_multiplicity_part(p: Poly) -> Poly:
    """Product of the squarefree factors occurring to an odd power."""
    parts = squarefree_decomposition(p)
    out: Poly = (1,)
    for i, a in enumerate(parts, start=1):
        if i % 2 == 1:
            out = mul(out, a)
    _, _, prim = to_integer(out)
    return prim if prim else (1,)


@lru_cache(maxsize=None)
def cyclotomic(j: int) -> Poly:
    """The j-th cyclotomic polynomial as an integer tuple.

    Computed as (x^j - 1) / prod of cyclotomic(d) over proper divisors d.
    """
    if j < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num: Poly = tuple([-1] + [0] * (j - 1) + [1])
    den: Poly = (1,)
    for d in range(1, j):
        if j % d == 0:
            den = mul(den, cyclotomic(d))
    quo = div_exact(num, den)
    return tuple(int(c) for c in quo)


def sturm_sequence(p: Poly) -> list[Poly]:
    """Sturm chain of a squarefree polynomial (p, p', -rem, ...)."""
    chain = [p, derivative(p)]
    while chain[-1]:
        _, r = divmod_exact(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(r))
    return [c for c in chain if c]


def sign_variations(chain: list[Poly], x) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def cauchy_bound(p: Poly) -> Fraction:
    """All real roots of p lie in [-B, B]."""
    if not p or degree(p) == 0:
        return Fraction(1)
    lead = abs(Fraction(p[-1]))
    m = max(abs(Fraction(c)) for c in p[:-1])
    return 1 + m / lead


def count_roots_right_of(p: Poly, a) -> int:
    """Number of distinct real roots of squarefree p in the open
    interval (a, +oo)."""
    if not p or degree(p) == 0:
        return 0
    chain = sturm_sequence(p)
    b = cauchy_bound(p) + 1
    if b <= a:
        return 0
    # Sturm counts roots in (a, b]; b sits beyond the root bound.
    return sign_variations(chain, Fraction(a)) - sign_variations(chain, b)
