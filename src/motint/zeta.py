"""Valuation zeta series for polynomial maps on integer tuples.

For a polynomial H over the valuation ring in n variables, the regions
X_i = {x : ord H(x) = i} have motivic volumes mu(X_i); the series
Z(T) = sum mu(X_i) T^i is rational for the families supported here, with
denominator a product of factors 1 - L^a T^b.  This module computes:

* ``series_from_parameter`` -- the closed rational form of a value over
  one value-group parameter, such as an ``integrate_iterated`` result;
* ``zmot_monomial`` -- the closed-form series for monomial H, through the
  cell-decomposition integrator run with the shell level as a parameter;
* ``zprime_count`` -- exact Haar volumes of X_i over the unramified
  degree-d extension of Q_p, by counting residue classes (ord H(x) = i
  only depends on x modulo the (i+1)-st power of the maximal ideal);
* ``verify_meuser`` -- the interpolation check: applying the point-count
  specialization to the closed form coefficientwise reproduces the
  counted volumes for every unramified degree, exactly.

H is a valued-field term of the formula language (``x^2*y^3 - 2*x + 7``,
``(x + y)^2``) built from variables, rational constants, +, -, * and
powers; see ``parse_poly``.  Modulo p^l it is the matching res(l) term,
compiled by ``padic.compile_term``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import formula as F
from . import polynomials as P
from . import ring_a as R
from .cells import AffineForm, universe
from .cplus import CTerm, MotFun, normal_form, specialize, unit_class
from .errors import (CapExceeded, FrameMismatch, MotintError,
                     NonGeometricFamily, ParseError, SortError, UnsupportedH)
from .padic import (PContext, compile_term, rational_mod, rational_ord,
                    vp_int)
from .presburger import PFun, PTerm, eulerian, progression
from .vfint import integrate_iterated

__all__ = [
    "Poly", "parse_poly", "RatSeries", "CoeffList",
    "series_from_parameter", "zmot_monomial", "zprime_count",
    "verify_meuser",
]


# ---------------------------------------------------------------------------
# multivariate polynomials


@dataclass(frozen=True)
class Poly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` is a canonical tuple of (coefficient, monomial) pairs where
    a monomial is a sorted tuple of (variable, exponent) with exponents
    >= 1; the constant monomial is the empty tuple.
    """

    terms: tuple

    @staticmethod
    def make(data) -> "Poly":
        acc: dict = {}
        for c, mono in data:
            c = Fraction(c)
            merged: dict = {}
            for v, e in mono:
                e = int(e)
                if e < 0:
                    raise ParseError(f"negative exponent on {v}")
                merged[v] = merged.get(v, 0) + e
            key = tuple(sorted((v, e) for v, e in merged.items() if e))
            acc[key] = acc.get(key, Fraction(0)) + c
        terms = tuple(sorted(((c, k) for k, c in acc.items() if c != 0),
                             key=lambda t: t[1]))
        return Poly(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> tuple:
        out: set = set()
        for _, mono in self.terms:
            out.update(v for v, _ in mono)
        return tuple(sorted(out))

    def as_monomial(self):
        """(coefficient, monomial) when the polynomial has one term."""
        if len(self.terms) != 1:
            return None
        return self.terms[0]

    def eval_residue(self, ring, env: dict):
        """Value in a residue ring, with variables bound to ring elements."""
        total = ring.zero()
        for c, mono in self.terms:
            val = ring.from_rational(c)
            for v, e in mono:
                val = val * (env[v] ** e)
            total = total + val
        return total

    def partial(self, var: str) -> "Poly":
        """The partial derivative in ``var``."""
        return Poly.make(
            (c * e, tuple((w, k - (w == var)) for w, k in mono))
            for c, mono in self.terms for w, e in mono if w == var)

    def compile_residue(self, ctx: PContext, level: int, order=None):
        """Compile H for evaluation modulo p^level.

        H becomes a res(level) term, with each coefficient reduced once,
        compiled by ``padic.compile_term``.  The result maps a tuple of
        per-variable coordinate tuples reduced mod p^level, in the order of
        ``order`` (by default ``variables()``; it must contain them all),
        to the coordinate tuple of H mod p^level; it is the integer form of
        ``eval_residue`` on ``ctx.residue_ring(level)``.
        """
        order = self.variables() if order is None else order
        missing = sorted(set(self.variables()) - set(order))
        if missing:
            raise MotintError(f"unbound variable {missing[0]}")
        sort = F.RES(level)
        total = None
        for c, mono in self.terms:
            c = rational_mod(c, ctx.p, level)
            factors = [F.Var(v, sort) if e == 1 else F.Pow(F.Var(v, sort), e)
                       for v, e in mono]
            if c != 1 or not factors:
                factors.insert(0, F.IntLit(c, sort))
            term = reduce(lambda a, b: F.BinOp("*", a, b), factors)
            total = term if total is None else F.BinOp("+", total, term)
        return compile_term(F.IntLit(0, sort) if total is None else total,
                            ctx, {name: i for i, name in enumerate(order)})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, mono in self.terms:
            factors = [v if e == 1 else f"{v}^{e}" for v, e in mono]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])


def parse_poly(text: str) -> Poly:
    """Parse H as a valued-field term of the formula language: variables,
    integer and rational constants (``3``, ``3/4``), +, -, * and powers
    ``^`` or ``**`` with exponents >= 1.  ``pi``, ``ord``, ``ac_n`` and
    ``proj`` are terms but not polynomials, and raise ``ParseError``.
    Expanding a product of an a-term and a b-term polynomial needs a * b
    term products, checked against the points cap before it is built; a
    coefficient too long to print raises ``ParseError``.

    >>> str(parse_poly("(x + y)^2 - 3/2*x*y"))
    '1/2*x*y + x^2 + y^2'
    """
    try:
        term = F.parse_term(text, default_sort=F.VF)
    except SortError as exc:
        raise ParseError(f"H is not a valued-field term: {exc}") from None
    h = Poly.make(_term_pairs(term))
    try:
        str(h)
    except ValueError:                 # the interpreter's int-string limit
        raise ParseError("H has a coefficient too long to print") from None
    return h


def _term_pairs(t: F.Term) -> tuple:
    """(coefficient, monomial) pairs that sum to t; products are merged."""
    def neg(a):
        return tuple((-c, m) for c, m in a)

    def chain(u, vals, spine, args):
        if u.op == "*":
            return reduce(_product, vals)
        return tuple(itertools.chain(vals[0], *(
            b if s.op == "+" else neg(b) for s, b in zip(spine, vals[1:]))))

    def check(u):                   # before the children are read
        if type(u) not in (F.Var, F.IntLit, F.RatLit, F.Neg, F.Pow, F.BinOp):
            raise ParseError(f"{F.term_str(u)} is not a polynomial term")

    return F.fold(t, {
        F.Var: lambda u, vals: ((1, ((u.name, 1),)),),
        **dict.fromkeys((F.IntLit, F.RatLit), lambda u, vals: ((u.value, ()),)),
        F.Neg: lambda u, vals: neg(vals[0]),
        F.Pow: lambda u, vals: P.power(vals[0], u.exp, _product, ((1, ()),)),
        F.BinOp: chain,
    }, enter=check)


def _product(a: tuple, b: tuple) -> tuple:
    CapExceeded.check("points", len(a) * len(b), "expanding a product")
    return Poly.make((ca * cb, ma + mb) for ca, ma in a
                     for cb, mb in b).terms


# ---------------------------------------------------------------------------
# rational series and coefficient lists


def _point_fun(a: R.ARat, rc=None) -> MotFun:
    pf = PFun((), ((universe(()), (PTerm(a, AffineForm.make()),)),))
    return MotFun((), (), (CTerm(F.TRUE, pf, unit_class() if rc is None
                                 else rc),))


def scalar_of(fun: MotFun):
    """The ARat value of a point function that is a plain scalar, else None."""
    if fun.res_vars or fun.vg_vars:
        return None
    if not fun.terms:
        return R.ZERO
    if len(fun.terms) != 1:
        return None
    ct = fun.terms[0]
    if ct.guard != F.TRUE or ct.rc != unit_class():
        return None
    pieces = ct.pf.pieces
    if len(pieces) != 1 or len(pieces[0][1]) != 1:
        return None
    term = pieces[0][1][0]
    if term.lpow != AffineForm.make() or term.factors:
        return None
    return term.coef


@dataclass(frozen=True)
class RatSeries:
    """Rational series in T: numerator polynomial with point-function
    coefficients over a denominator product of factors 1 - L^a T^b.

    ``numerator`` maps T-powers to normalized point functions as a sorted
    tuple of (power, value); ``denominator`` is the sorted multiset of
    (a, b) exponent pairs, b >= 1.
    """

    numerator: tuple
    denominator: tuple

    def __post_init__(self):
        last = -1
        for i, coeff in self.numerator:
            if i <= last:
                raise MotintError("numerator powers must be increasing")
            if i < 0:
                raise MotintError("numerator powers must be >= 0")
            last = i
            if coeff.res_vars or coeff.vg_vars:
                raise FrameMismatch(
                    "series coefficients must be point functions")
        if tuple(sorted(self.denominator)) != self.denominator:
            raise MotintError("denominator factors must be sorted")
        for a, b in self.denominator:
            if b < 1:
                raise MotintError(
                    f"denominator factor 1 - L^{a}*T^{b} needs b >= 1")

    def is_zero(self) -> bool:
        return not self.numerator

    def expand(self, i_max: int) -> list:
        """Series coefficients of T^0..T^i_max as point functions."""
        zero = MotFun.zero((), ())
        out = [zero] * (i_max + 1)
        for i, coeff in self.numerator:
            if i <= i_max:
                out[i] = out[i] + coeff
        for a, b in self.denominator:
            la = R.L_pow(a)
            for i in range(b, i_max + 1):
                out[i] = out[i] + out[i - b].scale(la)
        return [normal_form(c) for c in out]

    def expand_counts(self, ctx: PContext, i_max: int) -> list:
        """Exact rational series coefficients after the point-count
        specialization at ctx: numerator coefficients are counted, the
        denominator factors become 1 - q^a T^b, and the quotient is
        expanded over Q."""
        out = [Fraction(0)] * (i_max + 1)
        for i, coeff in self.numerator:
            if i <= i_max:
                out[i] += specialize(coeff, ctx)
        q = Fraction(ctx.q)
        for a, b in self.denominator:
            qa = q ** a
            for i in range(b, i_max + 1):
                out[i] += qa * out[i - b]
        return out

    def to_json(self) -> dict:
        return {"format": "motint.ratseries/1",
                "numerator": [[i, c.to_json()] for i, c in self.numerator],
                "denominator": [list(f) for f in self.denominator]}

    @staticmethod
    def from_json(data) -> "RatSeries":
        if data.get("format") != "motint.ratseries/1":
            raise ParseError("not a motint.ratseries/1 object")
        num = tuple((int(i), MotFun.from_json(c))
                    for i, c in data["numerator"])
        den = tuple(sorted((int(a), int(b)) for a, b in data["denominator"]))
        return RatSeries(num, den)

    def __str__(self) -> str:
        if not self.numerator:
            return "0"
        parts = []
        for i, coeff in self.numerator:
            s = scalar_of(coeff)
            body = f"({s})" if s is not None else "<class-valued>"
            if i == 0:
                parts.append(body)
            elif i == 1:
                parts.append(f"{body}*T")
            else:
                parts.append(f"{body}*T^{i}")
        num = " + ".join(parts)
        if not self.denominator:
            return num
        den = "*".join(
            f"(1 - L^{a}*T^{b})" if b != 1 else f"(1 - L^{a}*T)"
            for a, b in self.denominator)
        return f"[{num}] / [{den}]"


@dataclass(frozen=True)
class CoeffList:
    """Exact Haar volumes of {ord H = i} for i = 0..i_max."""

    i_max: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.i_max + 1:
            raise MotintError(
                f"expected {self.i_max + 1} values, got {len(self.values)}")
        for v in self.values:
            if not 0 <= v <= 1:
                raise MotintError(f"a Haar volume must lie in [0,1]: {v}")

    def to_json(self) -> dict:
        return {"format": "motint.coefflist/1", "i_max": self.i_max,
                "values": [str(v) for v in self.values]}

    @staticmethod
    def from_json(data) -> "CoeffList":
        if data.get("format") != "motint.coefflist/1":
            raise ParseError("not a motint.coefflist/1 object")
        return CoeffList(int(data["i_max"]),
                         tuple(Fraction(v) for v in data["values"]))


# ---------------------------------------------------------------------------
# closed form extraction from a parametrized value


def _infinite_piece(term: PTerm, start: int, m: int, rc, contribs,
                    param: str) -> None:
    """One congruence class start + m*k, k >= 0, turned into a rational
    contribution (numerator polynomial, denominator factor with power).

    The term is L^(beta0 + a*k) * sum_t c_t k^t at the class point, so with
    y = L^a T^m the class sums to sum_t c_t E_t(y) / (1-y)^(t+1), put over
    (1-y)^(deg+1)."""
    e = term.lpow.coeff(param)
    if e >= 0:
        raise NonGeometricFamily(
            f"the exponent of L grows with the parameter (slope {e}) on an "
            "unbounded piece; the series has no geometric closed form")
    em = e * Fraction(m)
    if em.denominator != 1:
        # refine the class so each sub-class steps the exponent by an integer
        t = em.denominator
        for j in range(t):
            _infinite_piece(term, start + j * m, m * t, rc, contribs, param)
        return
    beta0 = term.lpow.evaluate({param: start})
    if Fraction(beta0).denominator != 1:
        raise NonGeometricFamily(
            f"the exponent of L is not an integer at parameter {start}")
    a = int(em)
    # den * c_t is an integer: each factor's den clears its values and slope
    den = 1
    for f in term.factors:
        den *= f.den
    cs: dict = {}
    for t, g, rest in progression(term, param, AffineForm.const_form(start), m):
        for u in rest:
            g *= u.evaluate({})
        cs[t] = cs.get(t, 0) + g
    if not any(cs.values()):
        return
    deg = max(cs)
    poly = ()
    for t, c in cs.items():
        part = P.mul(eulerian(t), P.poly_pow((1, -1), deg - t))
        poly = P.add(poly, P.scale(part, int(c * den)))
    base = term.coef * R.L_pow(int(beta0))
    num = {start + m * j:
           base * R.from_rational(Fraction(n, den)) * R.L_pow(a * j)
           for j, n in enumerate(poly) if n}
    contribs.append((num, rc, {(a, m): deg + 1}))


def series_from_parameter(fun: MotFun) -> RatSeries:
    """Closed rational form of sum over i >= 0 of fun(i) * T^i for a value
    over one value-group variable i of any name and no residue parameter."""
    if fun.res_vars or len(fun.vg_vars) != 1:
        raise FrameMismatch(
            "expected a value over one value-group variable and no residue "
            f"parameter, got ({fun.res_vars}, {fun.vg_vars})")
    param, = fun.vg_vars
    contribs: list = []
    for ct in fun.terms:
        if ct.guard != F.TRUE:
            raise MotintError(
                "a parametrized series value carries an unresolved guard")
        for cell, terms in ct.pf.pieces:
            slot = cell.tower[0]
            m, res = slot.mod, slot.res
            # the bounds of a one-variable cell are constants
            lo = 0 if slot.lo is None else max(-(-slot.lo.cnum // slot.lo.den), 0)
            start = lo + (res - lo) % m
            for t in terms:
                if slot.hi is not None:
                    hi = slot.hi.cnum // slot.hi.den
                    num: dict = {}
                    i = start
                    while i <= hi:
                        env = {param: i}
                        beta, r = divmod(t.lpow.eval_num(env), t.lpow.den)
                        if r:
                            raise NonGeometricFamily(
                                "the exponent of L is not an integer at "
                                f"parameter {i}")
                        wn = wd = 1
                        for f in t.factors:
                            wn *= f.eval_num(env)
                            wd *= f.den
                        if wn != 0:
                            val = t.coef * R.L_pow(beta) \
                                * R.from_rational(Fraction(wn, wd))
                            num[i] = num.get(i, R.ZERO) + val
                        i += m
                    if num:
                        contribs.append((num, ct.rc, {}))
                else:
                    _infinite_piece(t, start, m, ct.rc, contribs, param)
    if not contribs:
        return RatSeries((), ())
    denom: dict = {}
    for _, _, d in contribs:
        for f, k in d.items():
            denom[f] = max(denom.get(f, 0), k)
    coeffs: dict = {}
    for num, rc, d in contribs:
        for f, k in denom.items():
            missing = k - d.get(f, 0)
            a, b = f
            la = R.L_pow(a)
            for _ in range(missing):
                nxt: dict = {}
                for i, c in num.items():
                    nxt[i] = nxt.get(i, R.ZERO) + c
                    nxt[i + b] = nxt.get(i + b, R.ZERO) - c * la
                num = nxt
        for i, c in num.items():
            if c == R.ZERO:
                continue
            add = _point_fun(c, rc)
            coeffs[i] = coeffs[i] + add if i in coeffs else add
    numerator = []
    for i in sorted(coeffs):
        val = normal_form(coeffs[i])
        if val.terms:
            numerator.append((i, val))
    den_flat = tuple(sorted(f for f, k in denom.items() for _ in range(k)))
    if not numerator:
        return RatSeries((), ())
    return RatSeries(tuple(numerator), den_flat)


# ---------------------------------------------------------------------------
# motivic series


def zmot_monomial(h, p: int | None = None) -> RatSeries:
    """Closed-form series for a monomial c*x1^k1*...*xn^kn.

    The result is independent of the residue characteristic when c = +-1;
    otherwise the valuation of c shifts the series and a prime must be
    given to compute it.
    """
    h = parse_poly(h) if isinstance(h, str) else h
    mono = h.as_monomial()
    if mono is None:
        raise UnsupportedH(
            "the closed form covers one monomial c*x1^k1*...*xn^kn; for another H, run "
            "integrate_iterated on a condition with the level as a parameter, then "
            "series_from_parameter")
    c, powers = mono
    shift = 0
    if abs(c) != 1:
        if p is None:
            raise UnsupportedH(
                f"the coefficient {c} is not a unit at every prime; give a "
                "prime to value it")
        shift = rational_ord(c, p)
    if not powers:
        if shift < 0:
            return RatSeries((), ())
        return RatSeries(((shift, _point_fun(R.ONE)),), ())
    names = tuple(v for v, _ in powers)
    parts = [F.Le(F.IntLit(0, F.VG), F.Ord(F.Var(v, F.VF))) for v in names]
    total = None
    for v, k in powers:
        piece = F.BinOp("*", F.IntLit(k, F.VG), F.Ord(F.Var(v, F.VF)))
        total = piece if total is None else F.BinOp("+", total, piece)
    if shift:
        total = F.BinOp("+", total, F.IntLit(shift, F.VG))
    parts.append(F.Eq(total, F.Var("i", F.VG)))
    # centers are all at the origin, so the decomposition is the same over
    # every residue characteristic; any context works as scaffolding
    out = integrate_iterated(F.land(*parts), names, PContext(2, 1),
                             base_vg=("i",))
    return series_from_parameter(out.value)


# ---------------------------------------------------------------------------
# p-adic counting


def _shell_volumes(powers, shift: int, q: int, i_max: int) -> list:
    """Volumes of {sum k_j * ord x_j = i - shift} by per-variable shells."""
    unit = Fraction(q - 1, q)

    def walk(idx: int, remaining: int, vol: Fraction) -> Fraction:
        k = powers[idx][1]
        if idx == len(powers) - 1:
            a, r = divmod(remaining, k)
            return Fraction(0) if r else vol * unit / q ** a
        return sum((walk(idx + 1, remaining - k * a, vol * unit / q ** a)
                    for a in range(remaining // k + 1)), Fraction(0))

    return [walk(0, i - shift, Fraction(1)) if i >= shift else Fraction(0)
            for i in range(i_max + 1)]


def _feasible(level: int, i_max: int) -> str:
    """Cap-error hint: the level that passed the points cap, and the
    largest i_max that fits under it."""
    if i_max < 0:
        return f"at level {level}, no i_max fits under the cap"
    return f"at level {level}, the largest feasible i_max is {i_max}"


def _count_cylinders(h: Poly, ctx: PContext, i_max: int, shift: int) -> list:
    """Volumes of {ord h = shift + i} for i = 0..i_max, h p-integral.

    Residue classes a + p^l O^n are refined level by level on integer
    coordinate tuples, with h and its partial derivatives compiled once,
    modulo p^(top + 1) where top = i_max + shift.  A class on which h is
    nonzero mod p^l has a determined valuation, below l, and is credited.
    A class on which h vanishes mod p^l is resolved by one Hensel step when
    the gradient of h at a has order e < l: then h = h(a) + p^(l+e) * w on
    the class, with w Haar-uniform on O, so the class is credited at the
    order of h(a) if that is below l + e, and otherwise spread as
    (1 - 1/q) * q^-k over the orders l + e + k.  Only classes whose
    gradient vanishes mod p^l are split further; those still vanishing
    beyond level top + 1 cannot meet any requested coefficient and are
    dropped.  The points cap counts the child classes examined; cap
    errors count i_max from ord h = shift."""
    names = h.variables()
    n = len(names)
    p, d = ctx.p, ctx.d
    q = p ** d
    top = i_max + shift
    counts = [Fraction(0)] * (top + 1)
    value = h.compile_residue(ctx, top + 1)
    grad = [g.compile_residue(ctx, top + 1, names)
            for g in map(h.partial, names) if not g.is_zero()]
    frontier = [tuple((0,) * d for _ in range(n))]
    visited = 0
    lifts = list(itertools.product(range(p), repeat=d))
    for level in range(1, top + 2):
        visited += len(frontier) * q ** n
        CapExceeded.check("points", visited, "refining residue classes",
                          lambda: _feasible(level, level - 2 - shift))
        step = p ** (level - 1)
        modulus = step * p
        hits = [0] * (top + 1)
        # tails[s]: classes on which ord h - s is geometric, (1 - 1/q) q^-k
        tails = [0] * (top + 1)
        nxt = []
        for coords in frontier:
            choices = [[tuple(c + step * t for c, t in zip(coord, lift))
                        for lift in lifts] for coord in coords]
            for child in itertools.product(*choices):
                val = value(child)
                if any(c % modulus for c in val):
                    hits[min(vp_int(c, p) for c in val if c)] += 1
                    continue
                if level > top:
                    continue
                e = min((vp_int(c, p) for g in grad for c in g(child) if c),
                        default=level)
                if e >= level:
                    nxt.append(child)
                    continue
                s = level + e
                o = min((vp_int(c, p) for c in val if c), default=s)
                if o < s:
                    hits[o] += 1
                elif s <= top:
                    tails[s] += 1
        weight = q ** (n * level)
        for v, k in enumerate(hits):
            if k:
                counts[v] += Fraction(k, weight)
        for s, k in enumerate(tails):
            if k:
                for v in range(s, top + 1):
                    counts[v] += Fraction(k * (q - 1),
                                          weight * q ** (v - s + 1))
        frontier = nxt
        if not frontier:
            break
    return counts[shift:]


def _count_enumerate(h: Poly, ctx: PContext, i_max: int, shift: int) -> list:
    """Per-level full enumeration: count solutions of ord h = shift + i
    over the residue ring at level shift + i + 1 and divide by the ring
    size.  h is p-integral; cap errors count i_max from ord h = shift."""
    names = h.variables()
    n = len(names)
    q = ctx.p ** ctx.d
    vols = []
    for i in range(shift, i_max + shift + 1):
        ring = ctx.residue_ring(i + 1)
        CapExceeded.check("points", ring.size ** n, "counting residue tuples",
                          lambda: _feasible(i + 1, i - 1 - shift))
        count = 0
        for tup in itertools.product(list(ring.elements()), repeat=n):
            env = dict(zip(names, tup))
            if h.eval_residue(ring, env).ord_capped() == i:
                count += 1
        vols.append(Fraction(count, q ** (n * (i + 1))))
    return vols


def zprime_count(h, p: int, d: int, i_max: int, *,
                 method: str = "auto") -> CoeffList:
    """Exact volumes of {x : ord H(x) = i} over the unramified degree-d
    extension, for i = 0..i_max.

    Methods: ``enumerate`` counts full residue-ring tuples at each level
    through ``Poly.eval_residue`` (the reference); ``cylinder`` refines
    residue classes a + p^l O^n level by level on integer coordinates,
    with H and its gradient compiled once (``Poly.compile_residue``),
    crediting a class once its valuation is determined (same counts, far
    fewer evaluations).  A class on which H vanishes mod p^l is credited
    whole by a Hensel step when some partial derivative of H at a has
    order e < l: then H = H(a) + p^(l+e) * w with w Haar-uniform on O, so
    ord H is ord H(a) if that is below l + e, and l + e + k with volume
    (1 - 1/q) * q^-k otherwise.  Only classes whose gradient vanishes mod
    p^l are refined further.  ``shells`` aggregates per-variable valuation
    shells and applies only to monomials; ``auto`` picks shells for
    monomials and cylinder refinement otherwise.  The points cap bounds
    the tuples ``enumerate`` walks and the classes ``cylinder`` examines.

    Coefficients need not be p-integral: with k = max(0, -min ord of the
    coefficients), the counting methods count p^k * H, whose order is
    ord H + k, and report volumes and cap errors in H's own index.
    """
    h = parse_poly(h) if isinstance(h, str) else h
    if i_max < 0:
        raise MotintError("i_max must be >= 0")
    ctx = PContext(p, d)
    q = p ** d
    if h.is_zero():
        return CoeffList(i_max, tuple([Fraction(0)] * (i_max + 1)))
    mono = h.as_monomial()
    if method == "auto":
        method = "shells" if mono is not None else "cylinder"
    if method == "shells":
        if mono is None:
            raise UnsupportedH(
                "shell counting applies to monomials only; use the "
                "cylinder or enumerate method")
        c, powers = mono
        shift = rational_ord(c, p)
        if not powers:
            vols = [Fraction(int(i == shift)) for i in range(i_max + 1)]
        else:
            vols = _shell_volumes(powers, shift, q, i_max)
    elif method in ("cylinder", "enumerate"):
        if not h.variables():
            return zprime_count(h, p, d, i_max, method="shells")
        # ord(p^k * H) = ord H + k, and p^k * H is p-integral
        k = max(0, -min(rational_ord(c, p) for c, _ in h.terms))
        scaled = Poly.make((c * p ** k, mono) for c, mono in h.terms)
        count = _count_cylinders if method == "cylinder" else _count_enumerate
        vols = count(scaled, ctx, i_max, k)
    else:
        raise MotintError(f"unknown counting method {method!r}")
    return CoeffList(i_max, tuple(vols))


# ---------------------------------------------------------------------------
# interpolation check


def verify_meuser(h, p: int, d: int, i_max: int, *,
                  series: RatSeries | None = None,
                  method: str = "auto") -> dict:
    """Check that the counted series equals the point-count specialization
    of the closed form, coefficient by coefficient, exactly.

    When ``series`` is given it is used as the closed form (so one object
    can serve every degree); otherwise the monomial closed form is
    computed.  The report lists both values for each i.
    """
    h = parse_poly(h) if isinstance(h, str) else h
    rs = zmot_monomial(h) if series is None else series
    ctx = PContext(p, d)
    motivic = rs.expand_counts(ctx, i_max)
    counted = zprime_count(h, p, d, i_max, method=method).values
    rows = []
    for i in range(i_max + 1):
        rows.append({"i": i, "motivic": motivic[i], "counted": counted[i],
                     "match": motivic[i] == counted[i]})
    return {"h": str(h), "p": p, "d": d, "q": p ** d, "i_max": i_max,
            "rows": rows, "all_match": all(r["match"] for r in rows)}
