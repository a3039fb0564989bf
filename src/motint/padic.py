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
from functools import lru_cache
from itertools import product
from math import gcd, inf, isqrt, lcm, prod

from .errors import CapExceeded, MotintError, SortError
from . import formula as F
from .polynomials import power


# ---------------------------------------------------------------------------
# integer and rational p-adic orders

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact.  Trial division by the first 13 primes, then Miller-Rabin to
    those bases, which no composite below 3.3 * 10^24 passes (Sorenson and
    Webster, Math. Comp. 86, 2017); past that, trial division up to
    sqrt(n), which counts against the points cap."""
    for b in _BASES:
        if n % b == 0:
            return n == b
        if n < b * b:
            return n > 1
    odd, s = n - 1, 0
    while not odd & 1:
        odd, s = odd >> 1, s + 1
    for b in _BASES:
        x = pow(b, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < 3_317_044_064_679_887_385_961_981:
        return True
    root = isqrt(n)
    CapExceeded.check("points", root, "testing primality by trial division")
    return all(n % k for k in range(43, root + 1, 2))


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
    degree 2.  No caller multiplies in degree 1: ``compile_term`` multiplies
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

    def tuples(self):
        """The coefficient tuples of all elements, in lexicographic order;
        the ring size is checked against the points cap at the call."""
        CapExceeded.check("points", self.size, "enumerating a residue ring")
        return product(range(self.char), repeat=self.degree)

    def elements(self):
        """All elements in lexicographic coefficient order."""
        for coeffs in self.tuples():
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
# compile_formula turns a formula into a closure env -> bool and
# compile_term a term into a closure env -> value: one formula.fold whose
# handlers, from _COMPILE keyed on node type and sort kind, make every
# dispatch once, at compile time.  A chain gets one closure over all its
# operands.  Values by sort: a res(n) node, n its own sort's depth, gives
# coefficient tuples mod p^n, vg terms ints or +inf, vf terms PadicElems.
# In env, free residue variables hold GRElems, value-group variables ints
# (not bools) or +inf, valued-field variables PadicElems, ints or
# Fractions, and any other value raises SortError naming the variable.
# The residue variables named in ``local`` (bound ones, the free ones of
# count_points, the angular coordinate of a cell) hold reduced coefficient
# tuples at env[local[name]] (a name, or a position when env is a tuple).
# Residue operations are unrolled for d = 1 (one int in a 1-tuple) and
# d = 2, and d >= 3 takes one generic path over the tuples.  eval_formula
# remembers the last (formula, context, closure) it ran, so a loop over
# the points of one formula skips even the store lookup.


def _unbound(name: str) -> MotintError:
    return MotintError(f"unbound variable {name}")


def _const(value):
    return lambda env: value


def _res_var(u, m, vals, ctx, local):
    name = u.name
    if name in local:
        key = local[name]
        return lambda env: env[key]
    ring = seen = ctx.residue_ring(u.var_sort.depth)   # seen: the last ring equal to it

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


def _res_pow(u, m, vals, ctx, local):
    a, e = vals[0], u.exp
    if ctx.d == 1:
        return lambda env: (pow(a(env)[0], e, m),)
    mul, one = _res_mul(ctx.modulus, m), (1,) + (0,) * (ctx.d - 1)
    return lambda env: power(a(env), e, mul, one)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _chain_closure(vals: list, spine: list, step: dict):
    """One closure for a chain; step[op](x, y) joins x so far and operand y."""
    a, b = vals[0], vals[1]
    if len(vals) == 2:
        op = step[spine[0].op]
        return lambda env: op(a(env), b(env))
    rest = [(step[s.op], f) for s, f in zip(spine, vals[1:])]

    def chain(env):
        x = a(env)
        for op, f in rest:
            x = op(x, f(env))
        return x
    return chain


def _res_chain(u, m, vals, ctx, local, spine, args):
    a, b = vals[0], vals[1]
    if ctx.d > 1:
        step = ({"+": lambda x, y: ((x[0] + y[0]) % m, (x[1] + y[1]) % m),
                 "-": lambda x, y: ((x[0] - y[0]) % m, (x[1] - y[1]) % m)}
                if ctx.d == 2 else
                {"+": lambda x, y: tuple((i + j) % m for i, j in zip(x, y)),
                 "-": lambda x, y: tuple((i - j) % m for i, j in zip(x, y))})
        return _chain_closure(vals, spine, {**step, "*": _res_mul(ctx.modulus, m)})
    if len(vals) == 2:                   # the cheapest closures, for d = 1
        if u.op == "+":
            return lambda env: ((a(env)[0] + b(env)[0]) % m,)
        if u.op == "-":
            return lambda env: ((a(env)[0] - b(env)[0]) % m,)
        return lambda env: (a(env)[0] * b(env)[0] % m,)
    rest = [(_OPS[s.op], f) for s, f in zip(spine, vals[1:])]

    def chain1(env):
        x = a(env)[0]
        for op, f in rest:
            x = op(x, f(env)[0]) % m
        return (x,)
    return chain1


def _res_proj(u, m, vals, ctx, local):
    if u.dst > u.src:
        raise SortError(f"cannot project level {u.src} up to {u.dst}")
    a = vals[0]
    return lambda env: tuple(c % m for c in a(env))


def _vg_var(u, m, vals, ctx, local):
    name = u.name

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


def _finite(v, what: str):
    if v == inf:
        raise MotintError(f"cannot {what} an infinite order")
    return v


def _vg_chain(u, m, vals, ctx, local, spine, args):
    """+inf absorbs sums and products by positive integers; subtracting
    it, or multiplying it by k <= 0, is an error.  A product's literal
    factors are one of the first two operands and all later ones."""
    if u.op != "*":
        return _chain_closure(vals, spine, {
            "+": operator.add, "-": lambda x, y: x - _finite(y, "subtract")})
    lit = [isinstance(a, F.IntLit) for a in args]
    if not (lit[0] or lit[1]) or not all(lit[2:]):
        raise SortError("value-group product needs an integer literal factor")
    x = vals[1] if lit[0] else vals[0]
    ks = [args[0 if lit[0] else 1].value] + [a.value for a in args[2:]]
    if all(k > 0 for k in ks):
        k = prod(ks)
        return lambda env: k * x(env)

    def scale(env):
        v = x(env)
        for k in ks:
            if v == inf and k <= 0:
                raise MotintError(f"cannot multiply an infinite order by {k}")
            v = k * v
        return v
    return scale


def _vf_var(u, m, vals, ctx, local):
    name = u.name

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


# (node type, sort kind) -> handler(u, m, vals, ctx, local[, spine, args])
# returning the closure of node u; m is p^depth for a residue node
_COMPILE = {
    (F.Var, "res"): _res_var,
    (F.IntLit, "res"): lambda u, m, vals, ctx, local: _const(
        ctx.residue_ring(u.lit_sort.depth).from_int(u.value).coeffs),
    (F.Neg, "res"): lambda u, m, vals, ctx, local: (
        (lambda env, a=vals[0]: (-a(env)[0] % m,)) if ctx.d == 1 else
        (lambda env, a=vals[0]: tuple(-c % m for c in a(env)))),
    (F.Pow, "res"): _res_pow,
    (F.BinOp, "res"): _res_chain,
    (F.Ac, "res"): lambda u, m, vals, ctx, local: (
        lambda env, x=vals[0], depth=u.depth: x(env).ac_coeffs(depth)),
    (F.Proj, "res"): _res_proj,
    (F.Var, "vg"): _vg_var,
    (F.IntLit, "vg"): lambda u, m, vals, ctx, local: _const(u.value),
    (F.Ord, "vg"): lambda u, m, vals, ctx, local: (lambda env, x=vals[0]: x(env).ord()),
    (F.Neg, "vg"): lambda u, m, vals, ctx, local: (
        lambda env, a=vals[0]: -_finite(a(env), "negate")),
    (F.BinOp, "vg"): _vg_chain,
    (F.Var, "vf"): _vf_var,
    **dict.fromkeys(((F.IntLit, "vf"), (F.RatLit, "vf"), (F.Pi, "vf")),
                    lambda u, m, vals, ctx, local: _const(
                        ctx.vf(ctx.p if isinstance(u, F.Pi) else u.value))),
    (F.Neg, "vf"): lambda u, m, vals, ctx, local: (lambda env, a=vals[0]: -a(env)),
    (F.Pow, "vf"): lambda u, m, vals, ctx, local: (
        lambda env, a=vals[0], e=u.exp: a(env) ** e),
    (F.BinOp, "vf"): lambda u, m, vals, ctx, local, spine, args: _chain_closure(
        vals, spine, _OPS),
}
_NODE_TYPES = {cls for cls, _ in _COMPILE}


def compile_term(t: F.Term, ctx: PContext, local: dict):
    """Closure env -> value of a term; see the comment above."""
    def node(u, vals, *chain):
        s = u.sort()
        build = _COMPILE.get((type(u), s.kind))
        if build is None:
            raise SortError(f"cannot evaluate {u!r} as a {s} term")
        m = ctx.p ** s.depth if s.kind == "res" else None
        return build(u, m, vals, ctx, local, *chain)
    return F.fold(t, dict.fromkeys(_NODE_TYPES, node))


def compile_formula(f: F.Formula, ctx: PContext, local: dict | None = None):
    """Closure env -> bool of a formula; see the comment above.
    ``local`` maps residue variable names to their keys in env."""
    local = {} if local is None else local
    if isinstance(f, F.TrueF):
        return lambda env: True
    if isinstance(f, F.FalseF):
        return lambda env: False
    if isinstance(f, (F.Eq, F.Le, F.Cong)):
        a, b = compile_term(f.left, ctx, local), compile_term(f.right, ctx, local)
        if isinstance(f, F.Le):
            return lambda env: a(env) <= b(env)
        if isinstance(f, F.Cong):
            k = f.modulus

            def cong(env):
                x, y = a(env), b(env)
                return x != inf and y != inf and (x - y) % k == 0
            return cong
        if f.left.sort() == F.VF:
            return lambda env: (a(env) - b(env)).is_zero()
        return lambda env: a(env) == b(env)
    if isinstance(f, F.Not):
        body = compile_formula(f.body, ctx, local)
        return lambda env: not body(env)
    if isinstance(f, (F.And, F.Or)):
        parts = [compile_formula(g, ctx, local) for g in f.parts]
        hit = isinstance(f, F.Or)           # the part value that decides
        if len(parts) == 2:                 # the cheapest closures
            a, b = parts
            return ((lambda env: a(env) or b(env)) if hit else
                    (lambda env: a(env) and b(env)))

        def junction(env):
            for part in parts:
                if part(env) == hit:
                    return hit
            return not hit
        return junction
    if isinstance(f, F.Quant):
        return _quant(f, ctx, local)
    raise MotintError(f"cannot evaluate formula {f!r}")


def _quant(f: F.Quant, ctx: PContext, local: dict):
    """Residue quantifiers enumerate their ring; value-group quantifiers
    their explicit bounds; either range counts against the points cap."""
    name, sort = f.var.name, f.var.var_sort
    if sort.kind == "res":
        ring = ctx.residue_ring(sort.depth)
        body = compile_formula(f.body, ctx, {**local, name: name})

        def values(env):
            return ring.tuples()
    elif f.lo is None or f.hi is None:
        def missing(env):
            raise MotintError(
                f"value-group quantifier over {name} needs explicit bounds")
        return missing
    else:
        lo, hi = compile_term(f.lo, ctx, local), compile_term(f.hi, ctx, local)
        body = compile_formula(
            f.body, ctx, {k: v for k, v in local.items() if k != name})

        what = f"enumerating the values of {name}"

        def values(env):
            a, b = lo(env), hi(env)
            if a == inf or b == inf:
                raise MotintError("quantifier bounds must be finite")
            CapExceeded.check("points", b - a + 1, what)
            return range(a, b + 1)

    hit = f.q == "exists"         # the body value that decides the quantifier

    def quant(env):
        sub = dict(env)
        for v in values(env):
            sub[name] = v
            if body(sub) == hit:
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


def eval_formula(f: F.Formula, env: dict, ctx: PContext) -> bool:
    """Evaluate a formula at a point.  Residue quantifiers enumerate their
    ring; value-group quantifiers must carry explicit bounds.  Either
    range is checked against the points cap.

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
    return run(env)


# ---------------------------------------------------------------------------
# counting

def count_points(f: F.Formula, ctx: PContext) -> int:
    """Count assignments of the free residue variables satisfying f; this
    is the library's one enumerator of formula points.

    Free residue variables range over their residue rings; the frame must
    not contain vf or vg variables.  The size of the whole box is checked
    against the points cap before any point is evaluated.
    """
    frame = F.frame_of(f)
    if frame.vf or frame.vg:
        raise SortError("count_points enumerates residue variables only, "
                        f"not {frame.vf + frame.vg}")
    rings = [ctx.residue_ring(depth) for _, depth in frame.res]
    CapExceeded.check("points", prod(r.size for r in rings), "counting points")
    names = [name for name, _ in frame.res]
    run = compile_formula(f, ctx, {name: name for name in names})
    return sum(1 for point in product(*(r.tuples() for r in rings))
               if run(dict(zip(names, point))))
