"""The coefficient ring: Laurent polynomials in a symbol L with the
inverses of (1 - L^-i) adjoined, held in canonical fractional form.

An element is a reduced fraction numer/denom of integer polynomials in L.
Membership in the ring is equivalent to the denominator having unit content
and irreducible factors drawn from {L, cyclotomic polynomials}: indeed
1 - L^-i = L^-i * prod of cyclotomic_j(L) over j dividing i, so any
denominator reachable from the generators factors that way, and conversely
every such fraction is reachable.

Fractions are reduced on integer polynomials, using that structure.  Each
denominator is split once (and the split cached) as L^k * prod
cyclotomic_j(L)^e * rest, by exact trial division in Z[x] by the monic
cyclotomic polynomials.  Reduction strips the shared power of L and
divides the numerator by each cyclotomic_j at most e times; only a
non-constant rest, i.e. a value outside the ring, needs a general gcd,
which is a primitive pseudo-remainder sequence in Z[x].  Membership is
read off the same split: the canonical denominator lies in the ring iff
its rest is 1.  A product with a monomial c*L^e skips all of this: only
the power of L and the integer contents can cancel.

Examples (doctest style, values frozen from hand computation):

    >>> one = arat((1,), (1,))
    >>> inv = arat((0, 1), (-1, 1))       # 1/(1 - L^-1) = L/(L - 1)
    >>> str(inv - one)
    '1/(L - 1)'
    >>> theta(inv - one, 2)
    Fraction(1, 1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, isqrt

from .errors import NotInA, ParseError, QOutOfRange
from . import polynomials as P


@lru_cache(maxsize=None)
def _cyclotomic_indices(n: int) -> tuple:
    """Every (j, phi(j)) with phi(j) <= n, by ascending j.

    j is grown one prime at a time, as phi(p^a) = (p - 1) * p^(a - 1);
    only primes p <= n + 1 take part."""
    out = [(1, 1)] if n >= 1 else []
    for p in range(2, n + 2):
        if all(p % q for q in range(2, isqrt(p) + 1)):
            for j, phi in list(out):
                q, f = p, p - 1
                while phi * f <= n:
                    out.append((j * q, phi * f))
                    q, f = q * p, f * p
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _cyclotomic_value(j: int, b: int) -> int:
    """Phi_j(b), from b^j - 1 = prod of Phi_d(b) over the divisors d of j."""
    out = b ** j - 1
    for i in range(1, isqrt(j) + 1):
        if j % i == 0:
            for d in {i, j // i} - {j}:
                out //= _cyclotomic_value(d, b)
    return out


def _divide_out(f: tuple, at_b: int, b: int, j: int, limit: int) -> tuple:
    """Divide f by Phi_j(L) as often as it goes, at most limit times.

    at_b is f(b) for an integer b >= 2; a division is tried only when
    Phi_j(b) divides it.  Phi_j is monic, so the division stays in Z[x].
    Returns the quotient, its value at b and the number of divisions."""
    value = _cyclotomic_value(j, b)
    e = 0
    while e < limit and at_b % value == 0:
        quo, rem = P.divmod_exact(f, P.cyclotomic(j))
        if rem:
            break
        f, at_b, e = quo, at_b // value, e + 1
    return f, at_b, e


@lru_cache(maxsize=1024)
def _factor(den: tuple) -> tuple:
    """Split a nonzero integer polynomial as L^k * prod Phi_j(L)^e * rest.

    Returns (((j, e), ...), rest) with rest free of L and of every
    cyclotomic factor; rest carries the integer content and the sign.
    den lies in the ring's denominators iff rest is a unit.  The trial
    divisions are screened at the first integer b >= 2 where den is
    nonzero (Phi_j dividing rest implies Phi_j(b) dividing rest(b)), so
    Phi_j is built only for the candidates that pass.  The cache is
    bounded, as its keys are the unreduced denominators of sums and
    products.
    """
    k = 0
    while den[k] == 0:
        k += 1
    rest = den[k:]
    b, at_b = 2, P.evaluate(rest, 2)
    while at_b == 0:
        b += 1
        at_b = P.evaluate(rest, b)
    found = []
    for j, phi in _cyclotomic_indices(P.degree(rest)):
        rest, at_b, e = _divide_out(rest, at_b, b, j, P.degree(rest) // phi)
        if e:
            found.append((j, e))
    return tuple(found), rest


@dataclass(frozen=True)
class ARat:
    """Canonical fraction of integer polynomials in L.

    Invariants: numer and denom share no polynomial factor over Q, their
    integer contents are coprime, denom is nonzero with positive leading
    coefficient.  Rational constants such as 1/2 are representable (they
    occur transiently in summation closed forms) but lie outside the ring;
    use in_a to check membership.
    """

    numer: tuple
    denom: tuple

    def __add__(self, other: "ARat") -> "ARat":
        n = P.add(P.mul(self.numer, other.denom), P.mul(other.numer, self.denom))
        return _reduce(n, P.mul(self.denom, other.denom))

    def __sub__(self, other: "ARat") -> "ARat":
        n = P.sub(P.mul(self.numer, other.denom), P.mul(other.numer, self.denom))
        return _reduce(n, P.mul(self.denom, other.denom))

    def __mul__(self, other: "ARat") -> "ARat":
        if _is_monomial(other):
            return _times_monomial(self, other)
        if _is_monomial(self):
            return _times_monomial(other, self)
        return _reduce(P.mul(self.numer, other.numer), P.mul(self.denom, other.denom))

    def __neg__(self) -> "ARat":
        return ARat(P.neg(self.numer), self.denom)

    def __truediv__(self, other: "ARat") -> "ARat":
        """Exact division; the result must stay in the ring."""
        if P.is_zero(other.numer):
            raise ZeroDivisionError("division by zero in the coefficient ring")
        out = _reduce(P.mul(self.numer, other.denom), P.mul(self.denom, other.numer))
        _require_in_a(out)
        return out

    def __pow__(self, k: int) -> "ARat":
        if k >= 0:
            return _reduce(P.poly_pow(self.numer, k), P.poly_pow(self.denom, k))
        if P.is_zero(self.numer):
            raise ZeroDivisionError("0 has no negative power")
        out = _reduce(P.poly_pow(self.denom, -k), P.poly_pow(self.numer, -k))
        _require_in_a(out)
        return out

    def is_zero(self) -> bool:
        return P.is_zero(self.numer)

    def __str__(self) -> str:
        ns = _poly_str(self.numer)
        if self.denom == (1,):
            return ns
        ds = _poly_str(self.denom)
        if " " in ns:
            ns = f"({ns})"
        if " " in ds or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def to_json(self) -> dict:
        return {"numer": list(self.numer), "denom": list(self.denom)}

    @staticmethod
    def from_json(obj: dict) -> "ARat":
        """Read {"numer": [...], "denom": [...]}; the value must lie in the
        ring."""
        return arat(*fraction_from_json(obj))


def fraction_from_json(obj) -> tuple:
    """The (numer, denom) coefficient tuples of {"numer": [...], "denom":
    [...]}, unreduced; coefficients must be plain ints (not bool, float or
    str) and the denominator nonzero."""
    if not isinstance(obj, dict) or "numer" not in obj or "denom" not in obj:
        raise ParseError("a ring element must be an object with numer and denom")
    numer, denom = _int_coeffs(obj["numer"]), _int_coeffs(obj["denom"])
    if P.is_zero(P.trim(denom)):
        raise ParseError("zero denominator in a ring element")
    return numer, denom


def _int_coeffs(cs) -> tuple:
    """The coefficient list cs as a tuple; only plain ints are accepted,
    not bool, float or str."""
    if not isinstance(cs, (list, tuple)):
        raise ParseError(f"coefficients must be a list of integers, got {cs!r}")
    for c in cs:
        if type(c) is not int:
            raise ParseError(f"coefficient {c!r} is not an integer")
    return tuple(cs)


def _reduce(num, den) -> ARat:
    """Bring an integer-coefficient fraction to canonical form without a
    membership check.

    The shared power of L goes first; then num is divided by each
    cyclotomic factor of den at most as often as it occurs there; only a
    non-unit rest of den (a value outside the ring) needs a general gcd.
    """
    num, den = P.trim(num), P.trim(den)
    if P.is_zero(den):
        raise ZeroDivisionError("zero denominator")
    if P.is_zero(num):
        return ARat((), (1,))
    k = 0
    while num[k] == 0 and den[k] == 0:
        k += 1
    if k:
        num, den = num[k:], den[k:]
    cyclos, rest = _factor(den)
    if cyclos:
        at2 = P.evaluate(num, 2)
        common: tuple = (1,)
        for j, e in cyclos:
            num, at2, n = _divide_out(num, at2, 2, j, e)
            if n:
                common = P.mul(common, P.poly_pow(P.cyclotomic(j), n))
        if len(common) > 1:
            den = P.div_exact(den, common)
    if len(rest) > 1:
        g = P.gcd_primitive(num, rest)
        if len(g) > 1:
            num, den = P.div_exact(num, g), P.div_exact(den, g)
    cn, pn = P.primitive(num)
    cd, pd = P.primitive(den)
    g = int_gcd(cn, cd)
    if cd < 0:
        g = -g
    if g != 1:
        cn //= g
        cd //= g
    return ARat(pn if cn == 1 else tuple(c * cn for c in pn),
                pd if cd == 1 else tuple(c * cd for c in pd))


def _is_monomial(a: ARat) -> bool:
    """Is a nonzero c*L^e: one nonzero coefficient in numer and in denom?"""
    n, d = a.numer, a.denom
    return n.count(0) == len(n) - 1 and d.count(0) == len(d) - 1


def _times_monomial(a: ARat, m: ARat) -> ARat:
    """a * m for a monomial m = (c/b)*L^e, in canonical form without
    _reduce.  As a is canonical, only the power of L and the integer
    contents can cancel: shift by L^e, strip the shared power of L, and
    divide by gcd(content(numer), b) * gcd(c, content(denom))."""
    n, d = a.numer, a.denom
    if not n:
        return a
    c, b = m.numer[-1], m.denom[-1]
    e = len(m.numer) - len(m.denom)
    if e > 0:
        k = 0
        while k < e and d[k] == 0:
            k += 1
        n, d = (0,) * (e - k) + n, d[k:]
    elif e < 0:
        k = 0
        while k < -e and n[k] == 0:
            k += 1
        n, d = n[k:], (0,) * (-e - k) + d
    gn, gd = int_gcd(b, *n), int_gcd(c, *d)
    c, b = c // gd, b // gn
    if gn != 1 or c != 1:
        n = tuple(x // gn * c for x in n)
    if gd != 1 or b != 1:
        d = tuple(x // gd * b for x in d)
    return ARat(n, d)


def in_a(a: ARat) -> bool:
    """Membership in the coefficient ring: the canonical denominator has
    content 1 and is L^k times cyclotomic factors."""
    if P.is_zero(a.numer):
        return True
    return _factor(a.denom)[1] == (1,)


def _require_in_a(a: ARat) -> ARat:
    if not in_a(a):
        raise NotInA(f"{a} lies outside the coefficient ring")
    return a


def arat(numer, denom=(1,)) -> ARat:
    """Public constructor: canonicalize and certify ring membership."""
    out = _reduce(_int_coeffs(numer), _int_coeffs(denom))
    _require_in_a(out)
    return out


def lax(numer, denom=(1,)) -> ARat:
    """Canonicalize without the membership check.  Internal helper for
    summation closed forms that carry rational constants."""
    return _reduce(_int_coeffs(numer), _int_coeffs(denom))


ZERO = ARat((), (1,))
ONE = ARat((1,), (1,))
L = ARat((0, 1), (1,))


def from_int(k: int) -> ARat:
    return ARat(P.trim([int(k)]), (1,))


def from_rational(q: Fraction) -> ARat:
    q = Fraction(q)
    return lax((q.numerator,), (q.denominator,))


def L_pow(k: int) -> ARat:
    """L^k for any integer k, canonical."""
    if k >= 0:
        return ARat(tuple([0] * k + [1]), (1,))
    return ARat((1,), tuple([0] * (-k) + [1]))


def _homogeneous(p: tuple, x: int, y: int) -> int:
    """y^deg(p) * p(x/y), by Horner on ints."""
    if y == 1:
        return P.evaluate(p, x)
    acc, ypow = 0, 1
    for c in reversed(p):
        acc = acc * x + c * ypow
        ypow *= y
    return acc


def theta(a: ARat, q) -> Fraction:
    """Evaluate at a rational q > 1.  Ring homomorphism to Q."""
    if type(q) is not int:
        q = Fraction(q)
    if q <= 1:
        raise QOutOfRange(f"evaluation point must exceed 1, got {q}")
    x, y = (q, 1) if type(q) is int else (q.numerator, q.denominator)
    den = _homogeneous(a.denom, x, y)
    if den == 0:
        raise ZeroDivisionError(f"denominator vanishes at {q}")
    num = _homogeneous(a.numer, x, y)
    # numer(q)/denom(q) = num * y^(deg denom - deg numer) / den
    k = len(a.denom) - len(a.numer)
    return Fraction(num * y ** k, den) if k >= 0 else Fraction(num, den * y ** -k)


def is_nonneg(a: ARat) -> bool:
    """Exact test: theta_q(a) >= 0 for every real q > 1.

    The denominator is positive on (1, oo) whenever its factors are L and
    cyclotomics (no real roots beyond 1); the general test below does not
    assume that.  The fraction is nonnegative on the open interval iff it
    is nonnegative near +oo and no factor of odd multiplicity crosses zero
    inside the interval.
    """
    if P.is_zero(a.numer):
        return True
    if a.numer[-1] * a.denom[-1] < 0:
        return False
    for poly in (a.numer, a.denom):
        if P.degree(poly) == 0:
            continue
        odd = P.odd_multiplicity_part(poly)
        if P.degree(odd) > 0 and P.count_roots_right_of(odd, 1) > 0:
            return False
    return True


def _poly_str(p: tuple) -> str:
    """Human form of an integer polynomial in L, highest power first."""
    if P.is_zero(p):
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            var = "L" if i == 1 else f"L^{i}"
            term = var if abs(c) == 1 else f"{abs(c)}*{var}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


_TOKEN = re.compile(r"\s*(L|\d+|\*\*|[-+*/^()])")


def parse_ratfunc(text: str, strict: bool = True) -> ARat:
    """Parse an expression in L with +, -, *, /, ^ and parentheses.

    Evaluation is exact; with strict=True the final value must lie in the
    ring.  Intermediate values may leave it (e.g. "1/(L-2)*(L-2)" is fine).
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character in ring expression at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")
    idx = [0]

    def peek() -> str:
        return tokens[idx[0]]

    def take(tok: str | None = None) -> str:
        t = tokens[idx[0]]
        if tok is not None and t != tok:
            raise ParseError(f"expected {tok!r}, found {t!r}")
        idx[0] += 1
        return t

    def atom() -> ARat:
        t = peek()
        if t == "(":
            take()
            v = expr()
            take(")")
        elif t == "L":
            take()
            v = L
        elif t.isdigit():
            take()
            v = from_int(int(t))
        elif t == "-":
            take()
            return -atom()
        else:
            raise ParseError(f"unexpected token {t!r} in ring expression")
        while peek() in ("^", "**"):
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            e = take()
            if not e.isdigit():
                raise ParseError(f"integer exponent expected, found {e!r}")
            v = _pow_lax(v, sign * int(e))
        return v

    def factor() -> ARat:
        v = atom()
        while peek() in ("*", "/"):
            op = take()
            w = atom()
            if op == "*":
                v = v * w
            else:
                if P.is_zero(w.numer):
                    raise ParseError("division by zero in ring expression")
                v = lax(P.mul(v.numer, w.denom), P.mul(v.denom, w.numer))
        return v

    def expr() -> ARat:
        v = factor()
        while peek() in ("+", "-"):
            op = take()
            w = factor()
            v = v + w if op == "+" else v - w
        return v

    out = expr()
    if peek() != "$":
        raise ParseError(f"trailing input in ring expression: {peek()!r}")
    if strict:
        _require_in_a(out)
    return out


def _pow_lax(v: ARat, k: int) -> ARat:
    if k >= 0:
        return lax(P.poly_pow(v.numer, k), P.poly_pow(v.denom, k))
    if P.is_zero(v.numer):
        raise ParseError("0 has no negative power in ring expression")
    return lax(P.poly_pow(v.denom, -k), P.poly_pow(v.numer, -k))
