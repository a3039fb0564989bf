"""Concrete p-adic side: Galois rings, exact elements of unramified
extensions, compiled formula evaluation over them, and counting of
formula points.

The degree-d unramified extension of Q_p has residue rings
O/M^n = GR(p^n, d) = Z[w]/(p^n, f) for a monic degree-d polynomial f that
is irreducible mod p.  Ramification is trivial, so 1, w, ..., w^(d-1) is
an integral basis and the order of an element is the minimum of the
p-adic orders of its coordinates.

Everything here is exact and held in ints.  A residue element is a tuple
of coefficients mod p^n (a GRElem pairs one with its ring).  An exact
field element (PadicElem) is a tuple of integer numerators ``nums`` over
one shared positive denominator ``den``, which may have a part prime to
p; its order is min vp(nums) - vp(den).  Counts are integers.

Formulas are compiled, not walked: ``compile_formula`` turns a formula
into a closure once per (formula, context), making every dispatch on node
type and sort at compile time, so a point costs closure calls on ints and
tuples only.  Compiled objects live in one small bounded store keyed by
identity, read through ``compiled``: ``eval_formula`` keeps its formula
closures there, and ``vfint.cell_contains`` the membership test of each
cell.  ``count_points`` compiles once and runs the closure over its box.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import gcd, inf, isqrt, lcm, prod

from .errors import CapExceeded, MotintError, SortError
from . import formula as F
from .polynomials import power

DEFAULT_CAP = 10 ** 8


# ---------------------------------------------------------------------------
# integer and rational p-adic orders

def is_prime(n: int) -> bool:
    """Trial division; the primes of interest are small."""
    return n >= 2 and all(n % k for k in range(2, isqrt(n) + 1))


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


def _res_mul(f: tuple, m: int):
    """The product of coefficient tuples in Z[w]/(m, f), unrolled for
    degree 2.  No caller multiplies in degree 1: ``res_term`` multiplies
    the single coordinates itself, and ``_is_irreducible_mod_p`` returns
    first."""
    if len(f) == 3:
        c0, c1 = f[0], f[1]

        def mul2(a, b):
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1                    # w^2 = -c1 w - c0
            return ((a0 * b0 - c0 * t) % m, (a0 * b1 + a1 * b0 - c1 * t) % m)
        return mul2
    return lambda a, b: tuple(c % m for c in zw_mul(a, b, f))


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
    mul = _res_mul(f, p)
    one, x = tuple([1] + [0] * (d - 1)), tuple([0, 1] + [0] * (d - 2))
    if power(x, p ** d, mul, one) != x:
        return False
    for r in (r for r in range(2, d + 1) if d % r == 0 and is_prime(r)):
        xk = power(x, p ** (d // r), mul, one)
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

    def tuples(self, cap: int | None = None):
        """The coefficient tuples of all elements, in lexicographic order;
        the ring size is checked against the cap at the call."""
        cap = DEFAULT_CAP if cap is None else cap
        if self.size > cap:
            raise CapExceeded(
                f"enumerating {self.size} elements exceeds the cap {cap}",
                needed=self.size, cap=cap)
        return product(range(self.char), repeat=self.degree)

    def elements(self, cap: int | None = None):
        """All elements in lexicographic coefficient order."""
        for coeffs in self.tuples(cap):
            yield GRElem(self, coeffs)


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
        """``polynomials.power`` with each product through ``__mul__``."""
        if e < 0:
            raise ValueError("negative powers are not defined in a residue ring")
        return power(self, e, operator.mul, self.ring.one())

    def _same(self, other: "GRElem") -> None:
        if self.ring != other.ring:
            raise SortError(f"mixing elements of {self.ring} and {other.ring}")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

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
# exact field elements

@dataclass(slots=True, unsafe_hash=True)
class PadicElem:
    """Exact element of the degree-d unramified extension of Q_p, written
    in the power basis of the generator w as sum(nums[j] * w^j) / den.

    The numerators are ints over one shared positive denominator, kept in
    lowest terms (gcd(den, *nums) = 1, den = 1 for zero), so equal
    elements are equal dataclasses.  The denominator need not be a power
    of p: rational centres such as 1/2 at p = 3 keep a unit part there.
    Instances are never mutated; the class is not frozen only because a
    frozen dataclass takes four times as long to build, and building is
    the inner loop of every field operation.
    """

    p: int
    degree: int
    nums: tuple              # ints, length degree
    den: int
    modulus: tuple           # shared defining polynomial

    @staticmethod
    def _lowest(p: int, degree: int, nums: tuple, den: int,
                modulus: tuple) -> "PadicElem":
        g = 1 if den == 1 else gcd(den, *nums)
        if g != 1:
            nums = tuple(c // g for c in nums)
            den //= g
        return PadicElem(p, degree, nums, den, modulus)

    @staticmethod
    def exact(p: int, degree: int, coeffs, modulus: tuple | None = None) -> "PadicElem":
        """The element with the given ints or Fractions as coordinates."""
        modulus = default_modulus(p, degree) if modulus is None else modulus
        cs = list(coeffs)[:degree]
        cs += [0] * (degree - len(cs))
        if all(type(c) is int for c in cs):
            return PadicElem(p, degree, tuple(cs), 1, modulus)
        cs = [Fraction(c) for c in cs]
        den = lcm(*(c.denominator for c in cs))
        nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        return PadicElem._lowest(p, degree, nums, den, modulus)

    @property
    def coeffs(self) -> tuple:
        """The coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def _compat(self, other: "PadicElem") -> None:
        if self.p != other.p or (self.modulus is not other.modulus
                                 and self.modulus != other.modulus):
            raise SortError("mixing elements of different fields")

    def _plus(self, other, sign: int):
        if type(other) is not PadicElem:
            return NotImplemented
        self._compat(other)
        da, db = self.den, other.den
        if self.degree == 1:
            (a,), (b,) = self.nums, other.nums
            if da == db:
                a += sign * b
            else:
                a = a * db + sign * b * da
                da *= db
            if da != 1:
                g = gcd(da, a)
                a //= g
                da //= g
            return PadicElem(self.p, 1, (a,), da, self.modulus)
        if da == db:
            nums = tuple(a + sign * b for a, b in zip(self.nums, other.nums))
        else:
            nums = tuple(a * db + sign * b * da
                         for a, b in zip(self.nums, other.nums))
            da *= db
        return PadicElem._lowest(self.p, self.degree, nums, da, self.modulus)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self) -> "PadicElem":
        return PadicElem(self.p, self.degree, tuple(-a for a in self.nums),
                         self.den, self.modulus)

    def __mul__(self, other):
        if type(other) is not PadicElem:
            return NotImplemented
        self._compat(other)
        return PadicElem._lowest(self.p, self.degree,
                                 zw_mul(self.nums, other.nums, self.modulus),
                                 self.den * other.den, self.modulus)

    def __pow__(self, e: int) -> "PadicElem":
        if e < 0:
            raise ValueError("negative powers are not supported on field terms")
        f = self.modulus
        one = (1,) + (0,) * (len(self.nums) - 1)
        nums = power(self.nums, e, lambda a, b: zw_mul(a, b, f), one)
        return PadicElem._lowest(self.p, self.degree, nums, self.den ** e, f)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _nums_ord(self):
        """min vp of the numerators; +inf for 0."""
        p, best = self.p, inf
        for c in self.nums:
            if c:
                v = 0
                while c % p == 0:
                    c //= p
                    v += 1
                if v < best:
                    best = v
        return best

    def ord(self):
        """+inf for 0; otherwise min of coordinate orders (unramified)."""
        v = self._nums_ord()
        if v == inf or self.den % self.p:
            return v
        return v - vp_int(self.den, self.p)

    def ac_coeffs(self, n: int) -> tuple:
        """Coefficients of the angular component of depth n, mod p^n."""
        v = self._nums_ord()
        m = self.p ** n
        if v == inf:
            return (0,) * self.degree
        shift = self.p ** v
        if self.den == 1:
            return tuple(c // shift % m for c in self.nums)
        unit = self.den
        while unit % self.p == 0:
            unit //= self.p
        inv = pow(unit, -1, m)
        return tuple(c // shift * inv % m for c in self.nums)


# ---------------------------------------------------------------------------
# evaluation context

@dataclass(frozen=True)
class PContext:
    """A prime power: the degree-d unramified extension of Q_p."""

    p: int
    d: int
    modulus: tuple = ()

    def __post_init__(self):
        if not is_prime(self.p):
            raise MotintError(f"p must be prime, got {self.p}")
        if self.d < 1:
            raise MotintError(f"d must be >= 1, got {self.d}")
        if not self.modulus:
            object.__setattr__(self, "modulus", default_modulus(self.p, self.d))
        if len(self.modulus) != self.d + 1 or self.modulus[-1] != 1:
            raise MotintError(
                f"modulus {self.modulus} is not monic of degree {self.d}")
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
        return PadicElem.exact(self.p, self.d, (c,), self.modulus)


# ---------------------------------------------------------------------------
# compiled formula evaluation
#
# compile_formula turns a formula into a closure (env, cap) -> bool and
# each term into a closure env -> value, dispatching on node type and sort
# once, at compile time.  Values by sort: res(n) terms give coefficient
# tuples reduced mod p^n, vg terms ints or +inf, vf terms PadicElems.  In
# env, free residue variables hold GRElems, value-group variables ints
# (not bools) or +inf, and valued-field variables PadicElems, ints or
# Fractions; any other value raises SortError naming the variable.  The
# residue variables named in ``local`` (bound ones, the free ones of
# count_points, the angular coordinate of a cell) hold coefficient tuples
# at env[local[name]].
#
# Whatever depends on the residue degree d = ctx.d is decided at compile
# time too: the residue operations are unrolled for d = 1 (one int in a
# 1-tuple, powers by pow(x, e, m)) and d = 2 (two ints, the product of
# _res_mul), and d >= 3 takes one generic path over the tuples.
# eval_formula remembers the last (formula, context, closure) it ran, so a
# loop over the points of one formula skips even the store lookup.


def _unbound(name: str) -> MotintError:
    return MotintError(f"unbound variable {name}")


def _const(value):
    return lambda env: value


def res_term(t: F.Term, n: int, ctx: PContext, local: dict):
    """Closure env -> coefficient tuple mod p^n of a res(n) term.  A
    variable named in ``local`` is read as the coefficient tuple reduced
    mod p^n at env[local[name]] (a name, or a position when env is a
    tuple), the others as GRElems of GR(p^n, d) at env[name].  The
    closures of +, -, negation, * and ^ are chosen here for d = ctx.d:
    unrolled for d = 1 and d = 2, generic for d >= 3."""
    m, d = ctx.p ** n, ctx.d
    if isinstance(t, F.Var):
        name = t.name
        if name in local:
            key = local[name]
            return lambda env: env[key]
        ring = seen = ctx.residue_ring(n)      # seen: the last ring equal to it

        def var(env):
            nonlocal seen
            try:
                v = env[name]
                r = v.ring
            except KeyError:
                raise _unbound(name) from None
            except AttributeError:
                raise SortError(f"{name} is {v!r}, expected an element "
                                f"of {ring}") from None
            if r is not seen:
                if r != ring:
                    raise SortError(f"{name} is in {r}, expected {ring}")
                seen = r
            return v.coeffs
        return var
    if isinstance(t, F.IntLit):
        return _const(ctx.residue_ring(n).from_int(t.value).coeffs)
    if isinstance(t, F.Neg):
        a = res_term(t.arg, n, ctx, local)
        if d == 1:
            return lambda env: (-a(env)[0] % m,)
        if d == 2:
            def neg2(env):
                x0, x1 = a(env)
                return (-x0 % m, -x1 % m)
            return neg2
        return lambda env: tuple(-c % m for c in a(env))
    if isinstance(t, F.Pow):
        a, e = res_term(t.base, n, ctx, local), t.exp
        if d == 1:
            return lambda env: (pow(a(env)[0], e, m),)
        mul, one = _res_mul(ctx.modulus, m), (1,) + (0,) * (d - 1)
        return lambda env: power(a(env), e, mul, one)
    if isinstance(t, F.BinOp):
        a = res_term(t.left, n, ctx, local)
        b = res_term(t.right, n, ctx, local)
        if t.op == "*":
            if d == 1:
                return lambda env: (a(env)[0] * b(env)[0] % m,)
            mul = _res_mul(ctx.modulus, m)
            return lambda env: mul(a(env), b(env))
        if t.op == "+":
            if d == 1:
                return lambda env: ((a(env)[0] + b(env)[0]) % m,)
            if d == 2:
                def add2(env):
                    x0, x1 = a(env)
                    y0, y1 = b(env)
                    return ((x0 + y0) % m, (x1 + y1) % m)
                return add2
            return lambda env: tuple((x + y) % m for x, y in zip(a(env), b(env)))
        if d == 1:
            return lambda env: ((a(env)[0] - b(env)[0]) % m,)
        if d == 2:
            def sub2(env):
                x0, x1 = a(env)
                y0, y1 = b(env)
                return ((x0 - y0) % m, (x1 - y1) % m)
            return sub2
        return lambda env: tuple((x - y) % m for x, y in zip(a(env), b(env)))
    if isinstance(t, F.Ac):
        x, depth = _vf_term(t.arg, ctx), t.depth
        return lambda env: x(env).ac_coeffs(depth)
    if isinstance(t, F.Proj):
        if t.dst > t.src:
            raise SortError(f"cannot project level {t.src} up to {t.dst}")
        a = res_term(t.arg, t.src, ctx, local)
        return lambda env: tuple(c % m for c in a(env))
    raise MotintError(f"cannot evaluate term {t!r}")


def _vg_term(t: F.Term, ctx: PContext):
    """Closure of a value-group term.  +inf absorbs sums and products by
    positive integers; negating it, multiplying it by k <= 0 or
    subtracting it is an error."""
    if isinstance(t, F.Var):
        name = t.name

        def var(env):
            try:
                v = env[name]
            except KeyError:
                raise _unbound(name) from None
            if type(v) is int or v == inf:
                return v
            raise SortError(f"{name} is {v!r}, expected a value-group "
                            f"element (an int or +inf)")
        return var
    if isinstance(t, F.IntLit):
        return _const(t.value)
    if isinstance(t, F.Ord):
        x = _vf_term(t.arg, ctx)
        return lambda env: x(env).ord()
    if isinstance(t, F.Neg):
        a = _vg_term(t.arg, ctx)

        def neg(env):
            v = a(env)
            if v == inf:
                raise MotintError("cannot negate an infinite order")
            return -v
        return neg
    if isinstance(t, F.BinOp):
        a = _vg_term(t.left, ctx)
        b = _vg_term(t.right, ctx)
        if t.op == "+":
            return lambda env: a(env) + b(env)
        if t.op == "-":
            def sub(env):
                x, y = a(env), b(env)
                if y == inf:
                    raise MotintError("cannot subtract an infinite order")
                return x - y
            return sub
        if isinstance(t.left, F.IntLit):
            k, x = t.left.value, b
        elif isinstance(t.right, F.IntLit):
            k, x = t.right.value, a
        else:
            raise SortError("value-group product needs an integer literal factor")
        if k > 0:
            return lambda env: k * x(env)

        def scale(env):
            v = x(env)
            if v == inf:
                raise MotintError(f"cannot multiply an infinite order by {k}")
            return k * v
        return scale
    raise SortError(f"{t!r} is not a value-group term")


def _vf_term(t: F.Term, ctx: PContext):
    """Closure of a valued-field term."""
    if isinstance(t, F.Var):
        name = t.name

        def var(env):
            try:
                v = env[name]
            except KeyError:
                raise _unbound(name) from None
            if isinstance(v, PadicElem):
                return v
            if type(v) is int or isinstance(v, Fraction):
                return ctx.vf(v)
            raise SortError(f"{name} is {v!r}, expected a valued-field "
                            f"element (a PadicElem, an int or a Fraction)")
        return var
    if isinstance(t, (F.IntLit, F.RatLit)):
        return _const(ctx.vf(t.value))
    if isinstance(t, F.Pi):
        return _const(ctx.vf(ctx.p))
    if isinstance(t, F.Neg):
        a = _vf_term(t.arg, ctx)
        return lambda env: -a(env)
    if isinstance(t, F.Pow):
        a, e = _vf_term(t.base, ctx), t.exp
        return lambda env: a(env) ** e
    if isinstance(t, F.BinOp):
        a = _vf_term(t.left, ctx)
        b = _vf_term(t.right, ctx)
        if t.op == "+":
            return lambda env: a(env) + b(env)
        if t.op == "-":
            return lambda env: a(env) - b(env)
        return lambda env: a(env) * b(env)
    raise MotintError(f"cannot evaluate term {t!r}")


def _term(t: F.Term, ctx: PContext, local: dict):
    s = t.sort()
    if s.kind == "res":
        return res_term(t, s.depth, ctx, local)
    if s == F.VG:
        return _vg_term(t, ctx)
    return _vf_term(t, ctx)


def _and(a, b):
    return lambda env, cap: a(env, cap) and b(env, cap)


def _or(a, b):
    return lambda env, cap: a(env, cap) or b(env, cap)


def compile_formula(f: F.Formula, ctx: PContext, local: dict | None = None):
    """Closure (env, cap) -> bool of a formula; see the comment above.
    ``local`` maps residue variable names to their keys in env."""
    local = {} if local is None else local
    if isinstance(f, F.TrueF):
        return lambda env, cap: True
    if isinstance(f, F.FalseF):
        return lambda env, cap: False
    if isinstance(f, (F.Eq, F.Le, F.Cong)):
        a, b = _term(f.left, ctx, local), _term(f.right, ctx, local)
        if isinstance(f, F.Le):
            return lambda env, cap: a(env) <= b(env)
        if isinstance(f, F.Cong):
            k = f.modulus

            def cong(env, cap):
                x, y = a(env), b(env)
                return x != inf and y != inf and (x - y) % k == 0
            return cong
        if f.left.sort() == F.VF:
            return lambda env, cap: (a(env) - b(env)).is_zero()
        return lambda env, cap: a(env) == b(env)
    if isinstance(f, F.Not):
        body = compile_formula(f.body, ctx, local)
        return lambda env, cap: not body(env, cap)
    if isinstance(f, (F.And, F.Or)):
        parts = [compile_formula(g, ctx, local) for g in f.parts]
        if not parts:
            empty = isinstance(f, F.And)
            return lambda env, cap: empty
        return reduce(_and if isinstance(f, F.And) else _or, parts)
    if isinstance(f, F.Quant):
        return _quant(f, ctx, local)
    raise MotintError(f"cannot evaluate formula {f!r}")


def _quant(f: F.Quant, ctx: PContext, local: dict):
    """Residue quantifiers enumerate their ring; value-group quantifiers
    their explicit bounds.  Either range is checked against the cap."""
    name, sort = f.var.name, f.var.var_sort
    if sort.kind == "res":
        ring = ctx.residue_ring(sort.depth)
        body = compile_formula(f.body, ctx, {**local, name: name})

        def values(env, cap):
            return ring.tuples(cap)
    elif f.lo is None or f.hi is None:
        def missing(env, cap):
            raise MotintError(
                f"value-group quantifier over {name} needs explicit bounds")
        return missing
    else:
        lo, hi = _vg_term(f.lo, ctx), _vg_term(f.hi, ctx)
        body = compile_formula(
            f.body, ctx, {k: v for k, v in local.items() if k != name})

        def values(env, cap):
            a, b = lo(env), hi(env)
            if a == inf or b == inf:
                raise MotintError("quantifier bounds must be finite")
            cap = DEFAULT_CAP if cap is None else cap
            if b - a + 1 > cap:
                raise CapExceeded(
                    f"enumerating {b - a + 1} values of {name} exceeds the cap {cap}",
                    needed=b - a + 1, cap=cap)
            return range(a, b + 1)

    hit = f.q == "exists"         # the body value that decides the quantifier

    def quant(env, cap):
        sub = dict(env)
        for v in values(env, cap):
            sub[name] = v
            if body(sub, cap) == hit:
                return hit
        return not hit
    return quant


_COMPILED: dict = {}
_COMPILED_MAX = 32


def compiled(obj, ctx: PContext, build=compile_formula):
    """``build(obj, ctx)``, built once and kept in a bounded store: by
    default the closure of a formula.  The key is the builder and the
    identities of object and context, so a lookup never hashes the object;
    an entry holds both objects, so an id cannot be reused while its entry
    lives.  When the store is full the oldest entry goes."""
    key = (build, id(obj), id(ctx))
    hit = _COMPILED.get(key)
    if hit is None:
        if len(_COMPILED) >= _COMPILED_MAX:
            del _COMPILED[next(iter(_COMPILED))]
        hit = _COMPILED[key] = (obj, ctx, build(obj, ctx))
    return hit[2]


_last = (None, None, None)          # eval_formula's last (formula, ctx, closure)


def _clear_compiled() -> None:
    global _last
    _COMPILED.clear()
    _last = (None, None, None)


compiled.cache_clear = _clear_compiled


def eval_formula(f: F.Formula, env: dict, ctx: PContext, cap: int | None = None) -> bool:
    """Evaluate a formula at a point.  Residue quantifiers enumerate their
    ring; value-group quantifiers must carry explicit bounds.  Either
    range is checked against the cap.

    The closure comes from the ``compiled`` store, specialized on ctx.d
    when it was built.  The last (formula, context, closure) is kept in a
    one-slot record compared by identity, so repeated calls on one
    formula and context skip the store; ``compiled.cache_clear`` empties
    the slot with the store."""
    global _last
    last_f, last_ctx, run = _last
    if last_f is not f or last_ctx is not ctx:
        run = compiled(f, ctx)
        _last = (f, ctx, run)
    return run(env, cap)


# ---------------------------------------------------------------------------
# counting

def count_points(f: F.Formula, ctx: PContext, *,
                 cap: int | None = None) -> int:
    """Count assignments of the free residue variables satisfying f; this
    is the library's one enumerator of formula points.

    Free residue variables range over their residue rings; the frame must
    not contain vf or vg variables.  The size of the whole box is checked
    against the cap before any point is evaluated.
    """
    cap = DEFAULT_CAP if cap is None else cap
    frame = F.frame_of(f)
    if frame.vf or frame.vg:
        raise SortError("count_points enumerates residue variables only, "
                        f"not {frame.vf + frame.vg}")
    rings = [ctx.residue_ring(depth) for _, depth in frame.res]
    needed = prod(r.size for r in rings)
    if needed > cap:
        raise CapExceeded(f"enumerating {needed} tuples exceeds the cap {cap}",
                          needed=needed, cap=cap)
    names = [name for name, _ in frame.res]
    run = compile_formula(f, ctx, {name: name for name in names})
    return sum(1 for point in product(*(r.tuples(cap) for r in rings))
               if run(dict(zip(names, point)), cap))
