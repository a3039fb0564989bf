"""Concrete p-adic side: Galois rings, exact elements of unramified
extensions, formula evaluation over them, and counting of formula points.

The degree-d unramified extension of Q_p has residue rings
O/M^n = GR(p^n, d) = Z[w]/(p^n, f) for a monic degree-d polynomial f that
is irreducible mod p.  Ramification is trivial, so 1, w, ..., w^(d-1) is
an integral basis and the order of an element is the minimum of the
p-adic orders of its coordinates.

Everything here is exact: elements are Fraction vectors or residue
tuples, and counts are integers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import inf

from .errors import CapExceeded, InsufficientPrecision, MotintError, SortError
from . import formula as F

DEFAULT_CAP = 10 ** 8


def enumeration_cap() -> int:
    raw = os.environ.get("MOTINT_CAP", "")
    if raw.strip():
        try:
            return int(raw)
        except ValueError:
            raise MotintError(f"MOTINT_CAP must be an integer, got {raw!r}")
    return DEFAULT_CAP


# ---------------------------------------------------------------------------
# integer and rational p-adic orders

def vp_int(n: int, p: int) -> int:
    """p-adic order of a nonzero integer."""
    if n == 0:
        raise ValueError("vp of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_ord(c: Fraction, p: int):
    """Order of a rational number; +inf for 0."""
    c = Fraction(c)
    if c == 0:
        return inf
    return vp_int(c.numerator, p) - vp_int(c.denominator, p)


def rational_mod(c: Fraction, p: int, n: int) -> int:
    """Reduce a rational with nonnegative order modulo p^n."""
    c = Fraction(c)
    m = p ** n
    if c.denominator % p == 0:
        raise ValueError(f"{c} is not integral at {p}")
    return c.numerator * pow(c.denominator, -1, m) % m


def rational_ac(c: Fraction, p: int, n: int) -> int:
    """Angular component of depth n: the unit part modulo p^n; ac(0) = 0."""
    c = Fraction(c)
    if c == 0:
        return 0
    v = rational_ord(c, p)
    return rational_mod(c / Fraction(p) ** v, p, n)


# ---------------------------------------------------------------------------
# arithmetic in Z[w]/(f)

def zw_mul(a: tuple, b: tuple, f: tuple) -> tuple:
    """Product in Z[w]/(f) for monic f of degree d, on coefficient tuples of
    length <= d; the result has length d.  Nothing is reduced modulo a
    prime power: callers that work in a residue ring reduce afterwards."""
    d = len(f) - 1
    out = [0] * max(len(a) + len(b) - 1, d)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            for j in range(d):
                out[k - d + j] -= c * f[j]
    return tuple(out[:d])


def _pmul(a: tuple, b: tuple, f: tuple, p: int) -> tuple:
    """Multiply mod (p, f) with f monic; operands have degree < deg f."""
    return tuple(c % p for c in zw_mul(a, b, f))


def _ppow_x(e: int, f: tuple, p: int) -> tuple:
    """x^e mod (p, f), for a monic f of degree at least 2."""
    d = len(f) - 1
    base = tuple([0, 1] + [0] * (d - 2))
    acc = tuple([1] + [0] * (d - 1))
    while e:
        if e & 1:
            acc = _pmul(acc, base, f, p)
        base = _pmul(base, base, f, p)
        e >>= 1
    return acc


def _pgcd(a: list, b: list, p: int) -> list:
    a = [c % p for c in a]
    b = [c % p for c in b]

    def trim(u):
        while u and u[-1] == 0:
            u.pop()
        return u

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            a = trim(a)
            if len(a) < len(b):
                break
            c = a[-1] * inv % p
            k = len(a) - len(b)
            for i in range(len(b)):
                a[k + i] = (a[k + i] - c * b[i]) % p
            a = trim(a)
        a, b = b, a
    return trim(a)


def _is_irreducible_mod_p(f: tuple, p: int) -> bool:
    """Monic f irreducible over F_p iff x^(p^d) = x mod f and
    gcd(x^(p^(d/r)) - x, f) = 1 for every prime r dividing d."""
    d = len(f) - 1
    if d == 1:
        return True
    xq = _ppow_x(p ** d, f, p)
    x = tuple([0, 1] + [0] * (d - 2))
    if xq != x:
        return False
    m, r = d, 2
    primes = set()
    while r * r <= m:
        if m % r == 0:
            primes.add(r)
            while m % r == 0:
                m //= r
        r += 1
    if m > 1:
        primes.add(m)
    for r in primes:
        xk = _ppow_x(p ** (d // r), f, p)
        diff = [(a - b) % p for a, b in zip(xk, x)]
        g = _pgcd(diff, list(f), p)
        if len(g) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, d: int) -> tuple:
    """Lexicographically smallest monic degree-d polynomial irreducible
    mod p, ordered by the ascending coefficient tuple (c0, ..., c_{d-1})."""
    if d == 1:
        return (0, 1)
    for idx in range(p ** d):
        coeffs = []
        k = idx
        for _ in range(d):
            coeffs.append(k % p)
            k //= p
        # idx counts with c0 least significant so the tuple order is lex
        f = tuple(coeffs) + (1,)
        if _is_irreducible_mod_p(f, p):
            return f
    raise MotintError(f"no irreducible polynomial of degree {d} mod {p}")


# ---------------------------------------------------------------------------
# Galois rings

@dataclass(frozen=True)
class GaloisRing:
    """GR(p^level, degree) = Z[w]/(p^level, modulus)."""

    p: int
    level: int
    degree: int
    modulus: tuple

    @property
    def size(self) -> int:
        return self.p ** (self.degree * self.level)

    @property
    def char(self) -> int:
        return self.p ** self.level

    def make(self, coeffs) -> "GRElem":
        m = self.char
        cs = list(coeffs)[: self.degree]
        cs += [0] * (self.degree - len(cs))
        return GRElem(self, tuple(c % m for c in cs))

    def zero(self) -> "GRElem":
        return self.make(())

    def one(self) -> "GRElem":
        return self.make((1,))

    def from_int(self, k: int) -> "GRElem":
        return self.make((k,))

    def from_rational(self, c: Fraction) -> "GRElem":
        return self.make((rational_mod(c, self.p, self.level),))

    def elements(self, cap: int | None = None):
        """All elements in lexicographic coefficient order."""
        cap = enumeration_cap() if cap is None else cap
        if self.size > cap:
            raise CapExceeded(
                f"enumerating {self.size} elements exceeds the cap {cap}",
                needed=self.size, cap=cap)
        m = self.char
        d = self.degree
        coeffs = [0] * d
        while True:
            yield GRElem(self, tuple(coeffs))
            i = d - 1
            while i >= 0:
                coeffs[i] += 1
                if coeffs[i] < m:
                    break
                coeffs[i] = 0
                i -= 1
            if i < 0:
                return


@dataclass(frozen=True)
class GRElem:
    ring: GaloisRing
    coeffs: tuple

    def __add__(self, other: "GRElem") -> "GRElem":
        self._same(other)
        return self.ring.make(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "GRElem") -> "GRElem":
        self._same(other)
        return self.ring.make(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "GRElem":
        return self.ring.make(-a for a in self.coeffs)

    def __mul__(self, other: "GRElem") -> "GRElem":
        self._same(other)
        return self.ring.make(zw_mul(self.coeffs, other.coeffs, self.ring.modulus))

    def __pow__(self, e: int) -> "GRElem":
        if e < 0:
            raise ValueError("negative powers are not defined in a residue ring")
        acc = self.ring.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def _same(self, other: "GRElem") -> None:
        if self.ring != other.ring:
            raise SortError(f"mixing elements of {self.ring} and {other.ring}")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def reduce_to(self, m: int) -> "GRElem":
        """Project to GR(p^m, degree) for m <= level."""
        r = self.ring
        if m > r.level:
            raise SortError(f"cannot project level {r.level} up to {m}")
        tgt = GaloisRing(r.p, m, r.degree, r.modulus)
        return tgt.make(self.coeffs)

    def ord_capped(self) -> int:
        """min p-adic order of the coordinates, capped at the level.

        The cap means: this residue class consists of elements of order
        >= level (it is the zero class)."""
        r = self.ring
        best = r.level
        for c in self.coeffs:
            if c % r.p ** r.level != 0 and c != 0:
                v = vp_int(c, r.p)
                if v < best:
                    best = v
        return best


# ---------------------------------------------------------------------------
# exact and truncated field elements

@dataclass(frozen=True)
class PadicElem:
    """Exact element of the degree-d unramified extension of Q_p, written
    in the power basis of the generator w: sum of coeffs[j] * w^j."""

    p: int
    degree: int
    coeffs: tuple            # Fractions, length degree
    modulus: tuple           # shared defining polynomial

    @staticmethod
    def exact(p: int, degree: int, coeffs, modulus: tuple | None = None) -> "PadicElem":
        modulus = default_modulus(p, degree) if modulus is None else modulus
        cs = [Fraction(c) for c in coeffs][:degree]
        cs += [Fraction(0)] * (degree - len(cs))
        return PadicElem(p, degree, tuple(cs), modulus)

    @staticmethod
    def from_rational(p: int, degree: int, c: Fraction) -> "PadicElem":
        return PadicElem.exact(p, degree, (Fraction(c),))

    def _compat(self, other: "PadicElem") -> None:
        if (self.p, self.degree, self.modulus) != (other.p, other.degree, other.modulus):
            raise SortError("mixing elements of different fields")

    def __add__(self, other: "PadicElem") -> "PadicElem":
        self._compat(other)
        return PadicElem(self.p, self.degree,
                         tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                         self.modulus)

    def __sub__(self, other: "PadicElem") -> "PadicElem":
        self._compat(other)
        return PadicElem(self.p, self.degree,
                         tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
                         self.modulus)

    def __neg__(self) -> "PadicElem":
        return PadicElem(self.p, self.degree, tuple(-a for a in self.coeffs), self.modulus)

    def __mul__(self, other: "PadicElem") -> "PadicElem":
        self._compat(other)
        out = zw_mul(self.coeffs, other.coeffs, self.modulus)
        return PadicElem(self.p, self.degree, tuple(Fraction(c) for c in out),
                         self.modulus)

    def __pow__(self, e: int) -> "PadicElem":
        if e < 0:
            raise ValueError("negative powers are not supported on field terms")
        one = (Fraction(1),) + (Fraction(0),) * (self.degree - 1)
        acc = PadicElem(self.p, self.degree, one, self.modulus)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def ord(self):
        """+inf for 0; otherwise min of coordinate orders (unramified)."""
        if self.is_zero():
            return inf
        return min(rational_ord(c, self.p) for c in self.coeffs if c != 0)

    def ac(self, n: int) -> GRElem:
        """Angular component of depth n, an element of GR(p^n, degree)."""
        ring = GaloisRing(self.p, n, self.degree, self.modulus)
        if self.is_zero():
            return ring.zero()
        v = self.ord()
        scale = Fraction(self.p) ** v
        return ring.make(rational_mod(c / scale, self.p, n) for c in self.coeffs)


@dataclass(frozen=True)
class TruncatedElem:
    """An integral element known only modulo p^level.

    Arithmetic happens on representatives; sums and products of integral
    elements stay correct at the same level.  Order and angular component
    raise InsufficientPrecision when the truncation does not pin them down.
    """

    p: int
    degree: int
    level: int
    coeffs: tuple            # ints in [0, p^level)
    modulus: tuple

    @staticmethod
    def make(p: int, degree: int, level: int, coeffs, modulus: tuple | None = None) -> "TruncatedElem":
        modulus = default_modulus(p, degree) if modulus is None else modulus
        m = p ** level
        cs = [int(c) % m for c in coeffs][:degree]
        cs += [0] * (degree - len(cs))
        return TruncatedElem(p, degree, level, tuple(cs), modulus)

    def ord(self):
        if all(c == 0 for c in self.coeffs):
            raise InsufficientPrecision(
                f"order is >= {self.level} but the element is only known mod p^{self.level}")
        return min(vp_int(c, self.p) for c in self.coeffs if c != 0)

    def ac(self, n: int) -> GRElem:
        v = self.ord()
        if v + n > self.level:
            raise InsufficientPrecision(
                f"ac_{n} needs the element mod p^{v + n}, have p^{self.level}")
        ring = GaloisRing(self.p, n, self.degree, self.modulus)
        q = self.p ** v
        return ring.make(c // q for c in self.coeffs)


# ---------------------------------------------------------------------------
# evaluation context and formula evaluation

@dataclass(frozen=True)
class PContext:
    """A prime power: the degree-d unramified extension of Q_p."""

    p: int
    d: int
    modulus: tuple = ()

    def __post_init__(self):
        if not self.modulus:
            object.__setattr__(self, "modulus", default_modulus(self.p, self.d))
        if not _is_irreducible_mod_p(self.modulus, self.p):
            raise MotintError(f"modulus {self.modulus} is reducible mod {self.p}")

    @property
    def q(self) -> int:
        """Residue field size p^d."""
        return self.p ** self.d

    def residue_ring(self, n: int) -> GaloisRing:
        return GaloisRing(self.p, n, self.d, self.modulus)

    def vf(self, c) -> PadicElem:
        if isinstance(c, PadicElem):
            return c
        return PadicElem.exact(self.p, self.d, (Fraction(c),), self.modulus)


def _as_vf(ctx: PContext, v):
    if isinstance(v, (PadicElem, TruncatedElem)):
        return v
    return ctx.vf(v)


def _vf_binop(op: str, a, b, ctx: PContext):
    if isinstance(a, TruncatedElem) or isinstance(b, TruncatedElem):
        level = min(x.level for x in (a, b) if isinstance(x, TruncatedElem))
        ea = _trunc_to(a, level, ctx)
        eb = _trunc_to(b, level, ctx)
        ring = ctx.residue_ring(level)
        ra, rb = ring.make(ea), ring.make(eb)
        out = ra + rb if op == "+" else ra - rb if op == "-" else ra * rb
        return TruncatedElem.make(ctx.p, ctx.d, level, out.coeffs, ctx.modulus)
    return a + b if op == "+" else a - b if op == "-" else a * b


def _trunc_to(x, level: int, ctx: PContext) -> tuple:
    if isinstance(x, TruncatedElem):
        if x.level < level:
            raise InsufficientPrecision("operand level too low")
        m = ctx.p ** level
        return tuple(c % m for c in x.coeffs)
    # exact integral element
    for c in x.coeffs:
        if rational_ord(c, ctx.p) < 0:
            raise InsufficientPrecision("cannot truncate a non-integral element")
    return tuple(rational_mod(c, ctx.p, level) for c in x.coeffs)


def eval_term(t: F.Term, env: dict, ctx: PContext):
    """Evaluate a term: vf -> PadicElem/TruncatedElem, res -> GRElem,
    vg -> int or +inf."""
    if isinstance(t, F.Var):
        if t.name not in env:
            raise MotintError(f"unbound variable {t.name}")
        v = env[t.name]
        if t.var_sort == F.VF:
            return _as_vf(ctx, v)
        return v
    if isinstance(t, F.IntLit):
        s = t.lit_sort
        if s == F.VG:
            return t.value
        if s == F.VF:
            return ctx.vf(t.value)
        return ctx.residue_ring(s.depth).from_int(t.value)
    if isinstance(t, F.RatLit):
        return ctx.vf(t.value)
    if isinstance(t, F.Pi):
        return ctx.vf(ctx.p)
    if isinstance(t, F.Neg):
        v = eval_term(t.arg, env, ctx)
        if isinstance(v, (int, float)):
            return -v
        if isinstance(v, TruncatedElem):
            ring = ctx.residue_ring(v.level)
            return TruncatedElem.make(ctx.p, ctx.d, v.level, (-ring.make(v.coeffs)).coeffs, ctx.modulus)
        return -v
    if isinstance(t, F.Pow):
        v = eval_term(t.base, env, ctx)
        if isinstance(v, TruncatedElem):
            ring = ctx.residue_ring(v.level)
            out = ring.make(v.coeffs) ** t.exp
            return TruncatedElem.make(ctx.p, ctx.d, v.level, out.coeffs, ctx.modulus)
        return v ** t.exp
    if isinstance(t, F.BinOp):
        a = eval_term(t.left, env, ctx)
        b = eval_term(t.right, env, ctx)
        if isinstance(a, (int, float)) or isinstance(b, (int, float)):
            # value-group affine arithmetic with +inf absorption
            if t.op == "*":
                return a * b
            if t.op == "+":
                if a == inf or b == inf:
                    return inf
                return a + b
            if a == inf and b != inf:
                return inf
            if b == inf:
                raise MotintError("cannot subtract an infinite order")
            return a - b
        if isinstance(a, GRElem) or isinstance(b, GRElem):
            return a + b if t.op == "+" else a - b if t.op == "-" else a * b
        return _vf_binop(t.op, a, b, ctx)
    if isinstance(t, F.Ord):
        v = eval_term(t.arg, env, ctx)
        return v.ord()
    if isinstance(t, F.Ac):
        v = eval_term(t.arg, env, ctx)
        return v.ac(t.depth)
    if isinstance(t, F.Proj):
        v = eval_term(t.arg, env, ctx)
        return v.reduce_to(t.dst)
    raise MotintError(f"cannot evaluate term {t!r}")


def eval_formula(f: F.Formula, env: dict, ctx: PContext, cap: int | None = None) -> bool:
    """Evaluate a formula at a point.  Residue quantifiers enumerate their
    ring; value-group quantifiers must carry explicit bounds."""
    if isinstance(f, F.TrueF):
        return True
    if isinstance(f, F.FalseF):
        return False
    if isinstance(f, F.Eq):
        a = eval_term(f.left, env, ctx)
        b = eval_term(f.right, env, ctx)
        if isinstance(a, (PadicElem, TruncatedElem)) or isinstance(b, (PadicElem, TruncatedElem)):
            if isinstance(a, TruncatedElem) or isinstance(b, TruncatedElem):
                raise InsufficientPrecision("equality of truncated elements is undecidable")
            return (a - b).is_zero()
        if isinstance(a, GRElem):
            return a.coeffs == b.coeffs and a.ring == b.ring
        return a == b
    if isinstance(f, F.Le):
        a = eval_term(f.left, env, ctx)
        b = eval_term(f.right, env, ctx)
        return a <= b
    if isinstance(f, F.Cong):
        a = eval_term(f.left, env, ctx)
        b = eval_term(f.right, env, ctx)
        if a == inf or b == inf:
            return False
        return (a - b) % f.modulus == 0
    if isinstance(f, F.Not):
        return not eval_formula(f.body, env, ctx, cap)
    if isinstance(f, F.And):
        return all(eval_formula(p, env, ctx, cap) for p in f.parts)
    if isinstance(f, F.Or):
        return any(eval_formula(p, env, ctx, cap) for p in f.parts)
    if isinstance(f, F.Quant):
        name, sort = f.var.name, f.var.var_sort
        if sort.kind == "res":
            values = ctx.residue_ring(sort.depth).elements(cap)
        else:
            if f.lo is None or f.hi is None:
                raise MotintError(
                    f"value-group quantifier over {name} needs explicit bounds")
            lo = eval_term(f.lo, env, ctx)
            hi = eval_term(f.hi, env, ctx)
            if lo == inf or hi == inf:
                raise MotintError("quantifier bounds must be finite")
            values = range(lo, hi + 1)
        for v in values:
            sub = dict(env)
            sub[name] = v
            r = eval_formula(f.body, sub, ctx, cap)
            if f.q == "exists" and r:
                return True
            if f.q == "forall" and not r:
                return False
        return f.q == "forall"
    raise MotintError(f"cannot evaluate formula {f!r}")


# ---------------------------------------------------------------------------
# counting

def _box_product(sizes: list, cap: int) -> int:
    total = 1
    for n in sizes:
        total *= n
    if total > cap:
        raise CapExceeded(
            f"enumerating {total} tuples exceeds the cap {cap}", needed=total, cap=cap)
    return total


def count_points(f: F.Formula, ctx: PContext,
                 boxes: dict | None = None,
                 cap: int | None = None) -> int:
    """Count assignments of the free residue and value-group variables
    satisfying f; this is the library's one enumerator of formula points.

    Free residue variables range over their residue rings and free vg
    variables over boxes[name] = (lo, hi) inclusive.  The frame must not
    contain vf variables.  The size of the whole box is checked against
    the cap before any point is evaluated.
    """
    cap = enumeration_cap() if cap is None else cap
    boxes = boxes or {}
    frame = F.frame_of(f)
    if frame.vf:
        raise SortError(f"count_points does not accept vf variables: {frame.vf}")
    rings = [ctx.residue_ring(depth) for _, depth in frame.res]
    ranges = []
    for name in frame.vg:
        if name not in boxes:
            raise MotintError(f"free value-group variable {name} needs a box")
        lo, hi = boxes[name]
        ranges.append(range(lo, hi + 1))
    _box_product([r.size for r in rings] + [len(r) for r in ranges], cap)
    names = [name for name, _ in frame.res] + list(frame.vg)
    values = [list(r.elements(cap)) for r in rings] + ranges
    return sum(1 for point in product(*values)
               if eval_formula(f, dict(zip(names, point)), ctx, cap))
