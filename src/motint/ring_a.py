"""The coefficient ring: Laurent polynomials in a symbol L with the
inverses of (1 - L^-i) adjoined, held in canonical fractional form.

An element is a reduced fraction numer/denom of integer polynomials in L.
Membership in the ring is equivalent to the denominator having unit content
and irreducible factors drawn from {L, cyclotomic polynomials}: indeed
1 - L^-i = L^-i * prod of cyclotomic_j(L) over j dividing i, so any
denominator reachable from the generators factors that way, and conversely
every such fraction is reachable.

Examples (doctest style, values frozen from hand computation):

    >>> one = arat((1,), (1,))
    >>> inv = inv_one_minus_L_neg(1)      # 1/(1 - L^-1) = L/(L - 1)
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
from math import gcd as int_gcd

from .errors import NotInA, ParseError, QOutOfRange
from . import polynomials as P


def _totient(n: int) -> int:
    out, m, f = 1, n, 2
    while f * f <= m:
        if m % f == 0:
            out *= f - 1
            m //= f
            while m % f == 0:
                out *= f
                m //= f
        f += 1
    if m > 1:
        out *= m - 1
    return out


@lru_cache(maxsize=None)
def _denominator_certificate(den: tuple) -> bool:
    """True iff the primitive integer polynomial den divides a product of
    powers of L and polynomials L^i - 1."""
    d = den
    while d and d[0] == 0:
        d = d[1:]  # strip a factor of L
    d = P.trim(d)
    if not d:
        return False
    while P.degree(d) > 0:
        deg = P.degree(d)
        # phi(j) >= sqrt(j/2), so any cyclotomic factor has index <= 2*deg^2
        hit = False
        for j in range(1, 2 * deg * deg + 2):
            if _totient(j) > deg:
                continue
            phi = P.cyclotomic(j)
            quo, rem = P.divmod_exact(d, phi)
            if not rem:
                d = tuple(int(c) for c in quo)
                hit = True
                break
        if not hit:
            return False
    return d == (1,)


@dataclass(frozen=True)
class ARat:
    """Canonical fraction of integer polynomials in L.

    Invariants: numer and denom share no polynomial factor over Q, their
    integer contents are coprime, denom is nonzero with positive leading
    coefficient.  Rational constants such as 1/2 are representable (they
    occur transiently in summation closed forms) but lie outside the ring;
    use in_a / require_in_a to check membership.
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
        return _reduce(P.mul(self.numer, other.numer), P.mul(self.denom, other.denom))

    def __neg__(self) -> "ARat":
        return ARat(P.neg(self.numer), self.denom)

    def __truediv__(self, other: "ARat") -> "ARat":
        """Exact division; the result must stay in the ring."""
        if P.is_zero(other.numer):
            raise ZeroDivisionError("division by zero in the coefficient ring")
        out = _reduce(P.mul(self.numer, other.denom), P.mul(self.denom, other.numer))
        require_in_a(out)
        return out

    def __pow__(self, k: int) -> "ARat":
        if k >= 0:
            return _reduce(P.poly_pow(self.numer, k), P.poly_pow(self.denom, k))
        if P.is_zero(self.numer):
            raise ZeroDivisionError("0 has no negative power")
        out = _reduce(P.poly_pow(self.denom, -k), P.poly_pow(self.numer, -k))
        require_in_a(out)
        return out

    def is_zero(self) -> bool:
        return P.is_zero(self.numer)

    def __str__(self) -> str:
        ns = poly_str(self.numer)
        if self.denom == (1,):
            return ns
        ds = poly_str(self.denom)
        if " " in ns:
            ns = f"({ns})"
        if " " in ds or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def to_json(self) -> dict:
        return {"numer": list(self.numer), "denom": list(self.denom)}

    @staticmethod
    def from_json(obj: dict) -> "ARat":
        return arat(tuple(obj["numer"]), tuple(obj["denom"]))


def _reduce(num, den) -> ARat:
    """Bring an integer-coefficient fraction to canonical form without a
    membership check."""
    num, den = P.trim(num), P.trim(den)
    if P.is_zero(den):
        raise ZeroDivisionError("zero denominator")
    if P.is_zero(num):
        return ARat((), (1,))
    g = P.gcd_primitive(num, den)
    if P.degree(g) > 0:
        num = tuple(int(c) for c in P.div_exact(num, g))
        den = tuple(int(c) for c in P.div_exact(den, g))
    cn, pn = P.primitive(num)
    cd, pd = P.primitive(den)
    if cd < 0:
        cn, cd = -cn, -cd
    g = int_gcd(abs(cn), cd)
    cn //= g
    cd //= g
    return ARat(tuple(c * cn for c in pn), tuple(c * cd for c in pd))


def in_a(a: ARat) -> bool:
    """Membership in the coefficient ring."""
    if P.is_zero(a.numer):
        return True
    _, pd = P.primitive(a.denom)
    if P.content(a.denom) != 1:
        return False
    return _denominator_certificate(pd)


def require_in_a(a: ARat) -> ARat:
    if not in_a(a):
        raise NotInA(f"{a} lies outside the coefficient ring")
    return a


def arat(numer, denom=(1,)) -> ARat:
    """Public constructor: canonicalize and certify ring membership."""
    out = _reduce(tuple(numer), tuple(denom))
    require_in_a(out)
    return out


def lax(numer, denom=(1,)) -> ARat:
    """Canonicalize without the membership check.  Internal helper for
    summation closed forms that carry rational constants."""
    return _reduce(tuple(numer), tuple(denom))


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


def inv_one_minus_L_neg(i: int) -> ARat:
    """1/(1 - L^-i) = L^i/(L^i - 1), a ring generator (i >= 1)."""
    if i < 1:
        raise ValueError("generator index must be >= 1")
    return arat(tuple([0] * i + [1]), tuple([-1] + [0] * (i - 1) + [1]))


def theta(a: ARat, q) -> Fraction:
    """Evaluate at a rational q > 1.  Ring homomorphism to Q."""
    q = Fraction(q)
    if q <= 1:
        raise QOutOfRange(f"evaluation point must exceed 1, got {q}")
    den = P.evaluate(a.denom, q)
    if den == 0:
        raise ZeroDivisionError(f"denominator vanishes at {q}")
    return Fraction(P.evaluate(a.numer, q)) / den


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


def poly_str(p: tuple) -> str:
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
        require_in_a(out)
    return out


def _pow_lax(v: ARat, k: int) -> ARat:
    if k >= 0:
        return lax(P.poly_pow(v.numer, k), P.poly_pow(v.denom, k))
    if P.is_zero(v.numer):
        raise ParseError("0 has no negative power in ring expression")
    return lax(P.poly_pow(v.denom, -k), P.poly_pow(v.numer, -k))
