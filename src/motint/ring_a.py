"""The coefficient ring A = Z[L, L^-1, (1 - L^-i)^-1], held in canonical
fractional form.

An element is a reduced fraction numer/denom of integer polynomials in L.
Membership in the ring is equivalent to the denominator having unit content
and irreducible factors drawn from {L, cyclotomic polynomials}: indeed
1 - L^-i = L^-i * prod of cyclotomic_j(L) over j dividing i, so any
denominator reachable from the generators factors that way, and conversely
every such fraction is reachable.

Besides the dense tuples, every value carries the split of its
denominator, L^k * c * prod Phi_j(L)^e_j with c > 0 its integer content
and Phi_j the j-th cyclotomic polynomial.  The value lies in A iff c = 1.
The split is found by exact trial division in Z[x] (`_factor`) only for
a denominator that arrives dense: once for a value built from dense
coefficients (`arat`, `lax`, `ARat.from_json`, `parse_ratfunc`), and for
the numerator that `/` and a negative power turn into a denominator.
Every `+`, `-`, `*`, `**` and `fsum` carries the split into its result:

- a sum is taken over the lcm of the splits.  A factor of the lcm can
  divide the new numerator only when at least two operands hold it to
  its full power, so only those Phi_j are tried, and L only up to that
  power; Phi_1 and Phi_2 are tested exactly by f(1) = 0 and f(-1) = 0,
  the others screened by their value at an integer point first.  `fsum`
  does this once for any number of terms;
- a product cancels each numerator against the other operand's split.

The one fallback is a value outside A whose denominator has a factor
other than L and the cyclotomics, such as L - 2 (intermediate values of
`parse_ratfunc` and `lax`).  It has no split, and arithmetic that meets
one reduces the dense fraction, dividing out a general gcd (a primitive
pseudo-remainder sequence).  The canonical form is unique, so both routes
give the same tuples.

Examples (doctest style, values frozen from hand computation):

    >>> one = arat((1,), (1,))
    >>> inv = arat((0, 1), (-1, 1))       # 1/(1 - L^-1) = L/(L - 1)
    >>> str(inv - one)
    '1/(L - 1)'
    >>> (inv - one).split                 # L^0 * 1 * Phi_1^1
    (0, 1, ((1, 1),))
    >>> theta(inv - one, 2)
    Fraction(1, 1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, isqrt, lcm as int_lcm

from .errors import CapExceeded, NotInA, ParseError, QOutOfRange
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


def _screen_point(f: tuple) -> tuple:
    """(b, f(b)) at the first integer b >= 2 where f does not vanish."""
    b, at_b = 2, P.evaluate(f, 2)
    while at_b == 0:
        b += 1
        at_b = P.evaluate(f, b)
    return b, at_b


def _divide_out(f: tuple, j: int, limit: int, screen) -> tuple:
    """Divide f by Phi_j(L) as often as it goes, at most limit times.

    Phi_1 = L - 1 and Phi_2 = L + 1 divide f exactly when f(1) = 0 and
    f(-1) = 0.  For j >= 3 a division is tried only when Phi_j(b) divides
    f(b), for screen = (b, f(b)) from _screen_point; Phi_j is monic, so
    the division stays in Z[x].  Returns the quotient, the screen of the
    quotient (None stays None) and the number of divisions."""
    e = 0
    if j <= 2:
        r = 1 if j == 1 else -1
        while e < limit and sum(f[::2]) + r * sum(f[1::2]) == 0:
            f, e = _div_linear(f, r), e + 1
        if e and screen is not None:
            b, at_b = screen
            screen = b, at_b // (b - r) ** e
        return f, screen, e
    b, at_b = screen
    value = _cyclotomic_value(j, b)
    while e < limit and at_b % value == 0:
        quo, rem = P.divmod_exact(f, P.cyclotomic(j))
        if rem:
            break
        f, at_b, e = quo, at_b // value, e + 1
    return f, (b, at_b), e


def _div_linear(f: tuple, r: int) -> tuple:
    """f / (L - r) for f(r) = 0, by synthetic division."""
    quo = [0] * (len(f) - 1)
    acc = 0
    for i in range(len(f) - 1, 0, -1):
        acc = acc * r + f[i]
        quo[i - 1] = acc
    return tuple(quo)


def _divide_cyclos(f: tuple, cyclos: tuple) -> tuple:
    """Divide f by Phi_j at most e times for each (j, e) of cyclos.

    Returns the quotient and the ((j, times), ...) taken out."""
    taken = []
    screen = None
    for j, e in cyclos:
        if j > 2 and screen is None:
            screen = _screen_point(f)
        f, screen, n = _divide_out(f, j, e, screen)
        if n:
            taken.append((j, n))
    return f, tuple(taken)


@lru_cache(maxsize=1024)
def _factor(den: tuple) -> tuple:
    """Split a nonzero integer polynomial as L^k * prod Phi_j(L)^e * rest.

    Returns (k, ((j, e), ...), rest) with rest free of L and of every
    cyclotomic factor; rest carries the integer content and the sign.
    den lies in the ring's denominators iff rest is a unit.  Only dense
    input comes here: a value made by arithmetic carries its split.
    """
    k = 0
    while den[k] == 0:
        k += 1
    n = len(den) - 1 - k
    rest, found = _divide_cyclos(
        den[k:], tuple((j, n // phi) for j, phi in _cyclotomic_indices(n)))
    return k, found, rest


@lru_cache(maxsize=1024)
def _cyclo_product(cyclos: tuple) -> tuple:
    """prod Phi_j(L)^e over the (j, e) of cyclos, dense."""
    out = (1,)
    for j, e in cyclos:
        out = P.mul(out, P.poly_pow(P.cyclotomic(j), e))
    return out


def _less(cyclos: tuple, taken: tuple) -> tuple:
    """The exponents of cyclos less those of taken, zeros dropped."""
    if not taken:
        return cyclos
    less = dict(taken)
    return tuple((j, e - less.get(j, 0)) for j, e in cyclos
                 if e > less.get(j, 0))


# the split of a denominator with a factor other than L and the
# cyclotomics: c = 0 marks it, and arithmetic on it takes the dense path
_OUTSIDE = (0, 0, ())


@dataclass(frozen=True)
class ARat:
    """Canonical fraction of integer polynomials in L.

    Invariants: numer and denom share no polynomial factor over Q, their
    integer contents are coprime, denom is nonzero with positive leading
    coefficient.  Rational constants such as 1/2 are representable (they
    occur transiently in summation closed forms) but lie outside the ring;
    use in_a to check membership.

    split is (k, c, ((j, e), ...)) with denom = L^k * c * prod Phi_j^e,
    j ascending, or (0, 0, ()) when denom has another factor.  It takes no
    part in equality; a value made as ARat(numer, denom) gets it on first
    use.
    """

    numer: tuple
    denom: tuple
    split: tuple | None = field(default=None, compare=False, repr=False)

    def __add__(self, other: "ARat") -> "ARat":
        return _add(self, other)

    def __sub__(self, other: "ARat") -> "ARat":
        return _add(self, -other)

    def __mul__(self, other: "ARat") -> "ARat":
        return _mul(self, other)

    def __neg__(self) -> "ARat":
        return ARat(P.neg(self.numer), self.denom, self.split)

    def __truediv__(self, other: "ARat") -> "ARat":
        """Exact division; the result must stay in the ring."""
        if P.is_zero(other.numer):
            raise ZeroDivisionError("division by zero in the coefficient ring")
        return _require_in_a(_mul(self, _inverse(other)))

    def __pow__(self, k: int) -> "ARat":
        if k >= 0:
            return _power(self, k)
        if P.is_zero(self.numer):
            raise ZeroDivisionError("0 has no negative power")
        return _require_in_a(_power(_inverse(self), -k))

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


def _split(a: ARat) -> tuple:
    s = a.split
    if s is None:
        s = _split_of(a.denom)
        object.__setattr__(a, "split", s)
    return s


def _split_of(den: tuple) -> tuple:
    """The split of a canonical denominator, from _factor."""
    k, cyclos, rest = _factor(den)
    return (k, rest[0], cyclos) if len(rest) == 1 else _OUTSIDE


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
    membership check, and split its denominator.

    The shared power of L goes first; then num is divided by each
    cyclotomic factor of den at most as often as it occurs there; only a
    non-unit rest of den (a value outside the ring) needs a general gcd.
    """
    num, den = P.trim(num), P.trim(den)
    if P.is_zero(den):
        raise ZeroDivisionError("zero denominator")
    if P.is_zero(num):
        return ZERO
    k = 0
    while num[k] == 0 and den[k] == 0:
        k += 1
    if k:
        num, den = num[k:], den[k:]
    k, cyclos, rest = _factor(den)
    num, taken = _divide_cyclos(num, cyclos)
    if taken:
        den = P.div_exact(den, _cyclo_product(taken))
        cyclos = _less(cyclos, taken)
    if len(rest) > 1:
        g = P.gcd_primitive(num, rest)
        if len(g) > 1:
            num, den = P.div_exact(num, g), P.div_exact(den, g)
            rest = P.div_exact(rest, g)
    cn, pn = P.primitive(num)
    cd, pd = P.primitive(den)
    g = int_gcd(cn, cd)
    if cd < 0:
        g = -g
    if g != 1:
        cn //= g
        cd //= g
    return ARat(pn if cn == 1 else tuple(c * cn for c in pn),
                pd if cd == 1 else tuple(c * cd for c in pd),
                (k, cd, cyclos) if len(rest) == 1 else _OUTSIDE)


def _add(a: ARat, b: ARat) -> ARat:
    if not a.numer:
        return b
    if not b.numer:
        return a
    if _split(a)[1] and _split(b)[1]:
        return _sum_split((a, b))
    return _reduce(P.add(P.mul(a.numer, b.denom), P.mul(b.numer, a.denom)),
                   P.mul(a.denom, b.denom))


def fsum(values) -> ARat:
    """The sum of values: one lcm of the denominators, one numerator and
    one reduction, whatever the number of terms, when every value has a
    split; otherwise the values are added one at a time."""
    terms = [a for a in values if a.numer]
    if len(terms) < 2:
        return terms[0] if terms else ZERO
    if all(_split(a)[1] for a in terms):
        return _sum_split(terms)
    total = terms[0]
    for a in terms[1:]:
        total = _add(total, a)
    return total


def _sum_split(terms) -> ARat:
    """The sum of two or more nonzero values that all have a split."""
    k, c, big = 0, 1, terms[0]
    top: dict = {}                # j -> [largest exponent, operands with it]
    for a in terms:
        ka, ca, ea = a.split
        k = max(k, ka)
        if c % ca:
            c = int_lcm(c, ca)
        if len(a.denom) > len(big.denom):
            big = a
        for j, e in ea:
            t = top.get(j)
            if t is None or e > t[0]:
                top[j] = [e, 1]
            elif e == t[0]:
                t[1] += 1
    cyclos = tuple((j, top[j][0]) for j in sorted(top))
    # the lcm without its power of L, from the largest denominator
    kb, cb, eb = big.split
    core = _times(big.denom[kb:], _cyclo_product(_less(cyclos, eb)))
    if c != cb:
        core = tuple(x * (c // cb) for x in core)
    acc: list = []
    for a in terms:
        ka = a.split[0]
        den = a.denom[ka:]
        part = a.numer if den == core else _times(a.numer, P.div_exact(core, den))
        off = k - ka
        if len(acc) < off + len(part):
            acc += [0] * (off + len(part) - len(acc))
        for i, x in enumerate(part, off):
            acc[i] += x
    num = P.trim(acc)
    if not num:
        return ZERO
    # a factor can divide num only where two operands reach its full power
    ties = tuple((j, e) for j, e in cyclos if top[j][1] > 1)
    return ARat(*_cancel(num, (0,) * k + core, (k, c, cyclos), ties))


def _mul(a: ARat, b: ARat) -> ARat:
    if not a.numer or not b.numer:
        return ZERO
    sa, sb = _split(a), _split(b)
    if not (sa[1] and sb[1]):
        return _reduce(P.mul(a.numer, b.numer), P.mul(a.denom, b.denom))
    n1, d2, (k2, c2, e2) = _cancel(a.numer, b.denom, sb, sb[2])
    n2, d1, (k1, c1, e1) = _cancel(b.numer, a.denom, sa, sa[2])
    if e1 and e2:
        exps = dict(e1)
        for j, e in e2:
            exps[j] = exps.get(j, 0) + e
        e1 = tuple(sorted(exps.items()))
    return ARat(_times(n1, n2), _times(d1, d2), (k1 + k2, c1 * c2, e1 or e2))


def _times(p: tuple, q: tuple) -> tuple:
    """p * q for nonzero trimmed tuples; a factor c*L^k is a shift and a
    scan."""
    if len(p) < len(q):
        p, q = q, p
    if any(q[:-1]):
        return P.mul(p, q)
    c = q[-1]
    return (0,) * (len(q) - 1) + (p if c == 1 else tuple(c * x for x in p))


def _cancel(num: tuple, den: tuple, split: tuple, tries: tuple) -> tuple:
    """Divide num, and den with its split, by the factors they share: the
    power of L and the integer content the split shows, and the Phi_j of
    tries, each (j, e) at most e times.  Returns num, den and split."""
    if split == _UNIT:
        return num, den, split
    k, c, cyclos = split
    if len(num) > 1:          # a constant shares no L nor Phi_j
        z = 0
        while z < k and num[z] == 0:
            z += 1
        if z:
            num, den, k = num[z:], den[z:], k - z
        if tries:
            num, taken = _divide_cyclos(num, tries)
            if taken:
                den = P.div_exact(den, _cyclo_product(taken))
                cyclos = _less(cyclos, taken)
    if c > 1:
        g = int_gcd(c, *num)
        if g > 1:
            num = tuple(x // g for x in num)
            den = tuple(x // g for x in den)
            c //= g
    return num, den, (k, c, cyclos)


def _power(a: ARat, k: int) -> ARat:
    """a^k for k >= 0; powers of a canonical fraction are canonical."""
    if k == 0:
        return ONE
    if k == 1:
        return a
    s = _split(a)
    return ARat(P.poly_pow(a.numer, k), P.poly_pow(a.denom, k),
                (s[0] * k, s[1] ** k, tuple((j, e * k) for j, e in s[2]))
                if s[1] else _OUTSIDE)


def _inverse(a: ARat) -> ARat:
    """1/a for a nonzero a; its denominator is split afresh."""
    n, d = a.numer, a.denom
    if n[-1] < 0:
        n, d = P.neg(n), P.neg(d)
    return ARat(d, n, _split_of(n))


def in_a(a: ARat) -> bool:
    """Membership in the coefficient ring: the canonical denominator has
    content 1 and is L^k times cyclotomic factors."""
    return _split(a)[1] == 1


def _require_in_a(a: ARat) -> ARat:
    if not in_a(a):
        raise NotInA(f"{a} lies outside the coefficient ring")
    return a


def arat(numer, denom=(1,)) -> ARat:
    """Public constructor: canonicalize and certify ring membership."""
    return _require_in_a(_reduce(_int_coeffs(numer), _int_coeffs(denom)))


def lax(numer, denom=(1,)) -> ARat:
    """Canonicalize without the membership check.  Internal helper for
    summation closed forms that carry rational constants."""
    return _reduce(_int_coeffs(numer), _int_coeffs(denom))


_UNIT = (0, 1, ())
ZERO = ARat((), (1,), _UNIT)
ONE = ARat((1,), (1,), _UNIT)
L = ARat((0, 1), (1,), _UNIT)


def from_int(k: int) -> ARat:
    return ARat(P.trim([int(k)]), (1,), _UNIT)


def from_rational(q: Fraction) -> ARat:
    q = Fraction(q)
    if not q:
        return ZERO
    return ARat((q.numerator,), (q.denominator,), (0, q.denominator, ()))


def L_pow(k: int, c: int = 1) -> ARat:
    """c * L^k for any integer k and int c, canonical."""
    if not c:
        return ZERO
    if k >= 0:
        return ARat((0,) * k + (c,), (1,), _UNIT)
    return ARat((c,), (0,) * -k + (1,), (-k, 1, ()))


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


def number_str(x) -> str:
    """The string of an int or Fraction.  Past the interpreter's
    int-to-string digit limit, when it sets one, this raises
    ``CapExceeded`` with the digits needed and the limit."""
    try:
        return str(x)
    except ValueError:          # only past the digit limit
        big = max(abs(x.numerator), x.denominator)
        needed = big.bit_length() * 3010299956 // 10 ** 10   # <= its digits
        while 10 ** needed <= big:
            needed += 1
        CapExceeded.check("digits", needed, "printing a number")
        raise


def _poly_str(p: tuple) -> str:
    """Human form of an integer polynomial in L, highest power first; its
    coefficients are printed by number_str."""
    if P.is_zero(p):
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = number_str(abs(c))
        else:
            var = "L" if i == 1 else f"L^{i}"
            term = var if abs(c) == 1 else f"{number_str(abs(c))}*{var}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


_TOKEN = re.compile(r"\s*(L|\d+|\*\*|[-+*/^()])")


def _int(digits: str) -> int:
    """The int of a digit string; a literal longer than the interpreter's
    int-string limit is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too "
                         "long") from None


def parse_ratfunc(text: str) -> ARat:
    """Parse an expression in L with +, -, *, /, ^ and parentheses.

    Evaluation is exact, and the final value must lie in the ring.
    Intermediate values may leave it (e.g. "1/(L-2)*(L-2)" is fine).
    A power past the degree cap is ``CapExceeded`` before it is taken;
    the powers the library takes itself are not limited.
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
            v = from_int(_int(t))
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
            k = _int(e)
            CapExceeded.check("degree",
                              k * (max(len(v.numer), len(v.denom)) - 1),
                              "a power in a ring expression")
            v = _pow_lax(v, sign * k)
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
                v = _mul(v, _inverse(w))
        return v

    def expr() -> ARat:
        v = factor()
        while peek() in ("+", "-"):
            op = take()
            w = factor()
            v = v + w if op == "+" else v - w
        return v

    try:
        out = expr()
    except RecursionError:      # parentheses and negations recurse
        raise ParseError("the ring expression nests too deeply to "
                         "parse") from None
    if peek() != "$":
        raise ParseError(f"trailing input in ring expression: {peek()!r}")
    _require_in_a(out)
    return out


def _pow_lax(v: ARat, k: int) -> ARat:
    if k >= 0:
        return _power(v, k)
    if P.is_zero(v.numer):
        raise ParseError("0 has no negative power in ring expression")
    return _power(_inverse(v), -k)
