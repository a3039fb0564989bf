"""Dense univariate polynomials over the integers.

Polynomials are tuples of int coefficients in ascending order, so
(c0, c1, c2) stands for c0 + c1*x + c2*x^2.  The zero polynomial is the
empty tuple.  All arithmetic stays in Z[x]: exact division succeeds when
the quotient lies in Z[x], gcds come from a primitive pseudo-remainder
sequence, and Yun's square-free decomposition and Sturm chains use
pseudo-remainders scaled only by positive constants, so the sign
variations of a chain are those of the Sturm chain over Q.  Fractions
appear only when a polynomial is evaluated at a rational point
(`evaluate`, `count_roots_right_of`).

Only the small amount of machinery the coefficient ring needs lives here:
arithmetic, square-and-multiply powers (`power`, also used by `padic`),
exact division, primitive gcd, content/primitive split,
cyclotomic polynomials, square-free decomposition and Sturm sequences.
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


def power(a, e: int, times, one):
    """a^e for e >= 0 under the product ``times``, with ``one`` for e = 0.

    Square and multiply from the lowest set bit: a^e takes floor(log2 e)
    squarings and one product per further set bit, and never multiplies
    by ``one``."""
    if e == 0:
        return one
    while not e & 1:
        a = times(a, a)
        e >>= 1
    acc = a
    e >>= 1
    while e:
        a = times(a, a)
        if e & 1:
            acc = times(acc, a)
        e >>= 1
    return acc


def poly_pow(p: Poly, n: int) -> Poly:
    return power(p, n, mul, (1,))


def evaluate(p: Poly, x):
    """Horner evaluation; exact when x is int or Fraction."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return trim([i * c for i, c in enumerate(p)][1:])


def divmod_exact(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Division with remainder in Z[x]: p = quo*q + rem.

    Each step cancels the leading term of the remainder with an integer
    multiple of q; division stops once the remainder has lower degree than
    q, or once the leading coefficient of q fails to divide the remainder's.
    So rem = () exactly when q divides p in Z[x], and for a monic q (or one
    leading with -1) this is ordinary Euclidean division.  q must be nonzero.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quo = [0] * max(len(rem) - dq, 0)
    while len(rem) > dq:
        c, r = divmod(rem[-1], lead)
        if r:
            break
        k = len(rem) - 1 - dq
        quo[k] = c
        for i in range(dq):
            if q[i]:
                rem[k + i] -= c * q[i]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return trim(quo), tuple(rem)


def div_exact(p: Poly, q: Poly) -> Poly:
    """p / q, which must lie in Z[x]."""
    quo, rem = divmod_exact(p, q)
    if rem:
        raise ValueError("inexact polynomial division")
    return quo


def content(p: Poly) -> int:
    """Positive gcd of integer coefficients; 0 for the zero polynomial."""
    g = 0
    for c in p:
        g = int_gcd(g, c)
    return g


def primitive(p: Poly) -> tuple[int, Poly]:
    """Split an integer polynomial as content * primitive part.

    The primitive part keeps a positive leading coefficient; the sign goes
    into the content.
    """
    if not p:
        return 0, ()
    c = content(p)
    if p[-1] < 0:
        c = -c
    if c == 1:
        return 1, p
    return c, tuple(a // c for a in p)


def _pseudo_rem(p: Poly, q: Poly) -> Poly:
    """Remainder of c*p by q for some integer c > 0, divided by its content.

    Each step scales the remainder by |lc(q)| / gcd(lc(q), lc(r)) before
    cancelling its leading term, so the result is a positive multiple of
    the remainder over Q: signs are kept, as Sturm chains need.  q must be
    nonzero.
    """
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) > dq:
        g = int_gcd(rem[-1], lead)
        a, b = abs(lead) // g, rem[-1] // g
        if lead < 0:
            b = -b
        if a != 1:
            rem = [a * c for c in rem]
        k = len(rem) - 1 - dq
        for i in range(dq):
            if q[i]:
                rem[k + i] -= b * q[i]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    g = content(rem)
    if g > 1:
        rem = [c // g for c in rem]
    return tuple(rem)


def gcd_primitive(p: Poly, q: Poly) -> Poly:
    """Gcd over Q, returned as a primitive integer polynomial with positive
    leading coefficient.  gcd(0, 0) = 0.

    Runs the primitive pseudo-remainder sequence in Z[x]."""
    a, b = primitive(trim(p))[1], primitive(trim(q))[1]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _pseudo_rem(a, b)
    return primitive(a)[1]


def squarefree_decomposition(p: Poly) -> list[Poly]:
    """Yun's algorithm in Z[x].

    Returns [a1, a2, ...] with p ~ a1 * a2^2 * a3^3 * ... up to a constant,
    each ai primitive integer, squarefree and pairwise coprime.  Every
    division is by a primitive factor that divides over Q, hence (Gauss's
    lemma) exact in Z[x].
    """
    if not p or degree(p) == 0:
        return []
    p = primitive(p)[1]
    g = gcd_primitive(p, derivative(p))
    if degree(g) == 0:
        return [p]
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
    return primitive(out)[1]


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
    return div_exact(num, den)


def sturm_sequence(p: Poly) -> list[Poly]:
    """Sturm chain of a squarefree polynomial (p, p', -rem, ...), each
    remainder scaled by a positive constant."""
    chain = [p, derivative(p)]
    while chain[-1]:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(r))
    return [c for c in chain if c]


def _sign_variations(chain: list[Poly], x) -> int:
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


def _cauchy_bound(p: Poly) -> Fraction:
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
    b = _cauchy_bound(p) + 1
    if b <= a:
        return 0
    # Sturm counts roots in (a, b]; b sits beyond the root bound.
    return _sign_variations(chain, Fraction(a)) - _sign_variations(chain, b)
