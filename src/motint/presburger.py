"""Constructible functions on integer cells and their exact summation.

A function is a finite list of pieces, each a cell carrying a sum of
terms coef * L^lpow * prod(factors), where coef lives in the coefficient
ring, lpow is an affine form with integer values on the cell, and each
factor is an affine form.  Pieces may overlap: the value at a point is
the sum over the pieces that contain it, and ``+``, evaluation,
summation, products and reordering act piece by piece.  Only the
canonical form in ``cplus`` makes pieces disjoint.

Summing over the innermost variable stays in this class.  Each
congruence class is reindexed as an arithmetic progression
n = start + m*k, and ``progression`` expands the factor product in k;
geometric directions then contribute Eulerian-polynomial closed forms
(``eulerian``, shared with the zeta series), and flat directions
Stirling/binomial closed forms.  Slopes, products of slopes, class
offsets and Faulhaber weights stay ints; a Fraction is made only where a
denominator remains.  Two memo tables skip repeated work: ``_tail_coef``
holds the coefficient of each geometric tail, which many branches
share, and ``_theta`` holds theta_q of a term's coefficient, which every
point reads.  Both are module-level ``lru_cache``s, so the benchmark
clears them before every pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import polynomials as P
from . import ring_a as R
from .cells import (
    AffineForm, PCell, VarCell, add_ineq, ensure_known_value_mod,
    intersect, refine_residue, reorder as reorder_cell,
)
from .errors import FrameMismatch, MotintError, NotIntegrable, ParseError
from .ring_a import ARat


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class PTerm:
    """coef * L^lpow * product of factors."""

    coef: ARat
    lpow: AffineForm
    factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    def is_zero(self) -> bool:
        if self.coef.is_zero():
            return True
        return any(not f.ints and not f.cnum for f in self.factors)

    def scale(self, c: ARat) -> "PTerm":
        return PTerm(self.coef * c, self.lpow, self.factors)

    def __mul__(self, other: "PTerm") -> "PTerm":
        return PTerm(self.coef * other.coef, self.lpow + other.lpow,
                     self.factors + other.factors)

    def substitute(self, name: str, form: AffineForm) -> "PTerm":
        return PTerm(self.coef,
                     self.lpow.substitute(name, form),
                     tuple(f.substitute(name, form) for f in self.factors))

    def _exponent(self, env: dict) -> int:
        e, r = divmod(self.lpow.eval_num(env), self.lpow.den)
        if r:
            raise MotintError(
                f"non-integer exponent {self.lpow.evaluate(env)} at {env}")
        return e

    def _factor_product(self, env: dict) -> tuple:
        """Numerator and denominator of the product of the factors."""
        num = den = 1
        for f in self.factors:
            num *= f.eval_num(env)
            den *= f.den
        return num, den

    def eval_arat(self, env: dict) -> ARat:
        e = self._exponent(env)
        num, den = self._factor_product(env)
        if num % den:
            raise MotintError(
                f"non-integer factor product {Fraction(num, den)} at {env}")
        return self.coef * R.L_pow(e, num // den)

    def _theta_pair(self, q, env: dict) -> tuple:
        """theta_q of the term at env as an unreduced integer pair
        (numerator, positive denominator)."""
        e = self._exponent(env)
        val = _theta(self.coef, q)
        num, den = self._factor_product(env)
        if type(q) is not int:
            q = Fraction(q)
        a, b = (q, 1) if type(q) is int else (q.numerator, q.denominator)
        if e < 0:
            a, b, e = b, a, -e
        return val.numerator * num * a ** e, val.denominator * den * b ** e

    def to_json(self):
        return {"coef": self.coef.to_json(), "lpow": self.lpow.to_json(),
                "factors": [f.to_json() for f in self.factors]}

    @staticmethod
    def from_json(data) -> "PTerm":
        return PTerm(R.lax(*R.fraction_from_json(data["coef"])),
                     AffineForm.from_json(data["lpow"]),
                     tuple(AffineForm.from_json(f) for f in data["factors"]))


def _clean(terms) -> tuple:
    return tuple(t for t in terms if not t.is_zero())


# ---------------------------------------------------------------------------
# functions

@dataclass(frozen=True)
class PFun:
    """Sum of terms over cells; zero off all cells.

    The pieces may overlap: the value at a point is the sum of the terms
    of every piece whose cell contains it, and ``+`` concatenates the
    pieces of both operands.
    """

    vars: tuple
    pieces: tuple            # ((PCell, (PTerm, ...)), ...)

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        cleaned = []
        for cell, terms in self.pieces:
            if cell.vars != self.vars:
                raise FrameMismatch(
                    f"piece over {cell.vars} in a function over {self.vars}")
            terms = _clean(terms)
            if terms:
                cleaned.append((cell, terms))
        object.__setattr__(self, "pieces", tuple(cleaned))

    @staticmethod
    def constant(vars, coef: ARat) -> "PFun":
        from .cells import universe
        return PFun(tuple(vars),
                    ((universe(vars), (PTerm(coef, AffineForm.const_form(0)),)),))

    def is_zero_fun(self) -> bool:
        return not self.pieces

    def __add__(self, other: "PFun") -> "PFun":
        if self.vars != other.vars:
            raise FrameMismatch(f"{self.vars} vs {other.vars}")
        return PFun(self.vars, self.pieces + other.pieces)

    def __neg__(self) -> "PFun":
        return self.scale(-R.ONE)

    def __sub__(self, other: "PFun") -> "PFun":
        return self + (-other)

    def __mul__(self, other: "PFun") -> "PFun":
        if self.vars != other.vars:
            raise FrameMismatch(f"{self.vars} vs {other.vars}")
        pieces = []
        for ca, ta in self.pieces:
            for cb, tb in other.pieces:
                for c in intersect(ca, cb):
                    pieces.append((c, tuple(x * y for x in ta for y in tb)))
        return PFun(self.vars, tuple(pieces))

    def scale(self, c: ARat) -> "PFun":
        return PFun(self.vars,
                    tuple((cell, tuple(t.scale(c) for t in terms))
                          for cell, terms in self.pieces))

    def eval_arat(self, env: dict) -> ARat:
        return R.fsum(t.eval_arat(env) for cell, terms in self.pieces
                      if cell.contains(env) for t in terms)

    def eval_theta(self, q, env: dict) -> Fraction:
        """One Fraction from the integer numerators and denominators of
        the terms."""
        num, den = 0, 1
        for cell, terms in self.pieces:
            if cell.contains(env):
                for t in terms:
                    n, d = t._theta_pair(q, env)
                    if d == den:
                        num += n
                    else:
                        num, den = num * d + n * den, den * d
        return Fraction(num, den)

    def reorder(self, new_vars) -> "PFun":
        new_vars = tuple(new_vars)
        pieces = []
        for cell, terms in self.pieces:
            for c in reorder_cell(cell, new_vars):
                pieces.append((c, terms))
        return PFun(new_vars, tuple(pieces))

    def to_json(self):
        return {"format": "motint.pfun/1",
                "vars": list(self.vars),
                "pieces": [{"cell": c.to_json(),
                            "terms": [t.to_json() for t in ts]}
                           for c, ts in self.pieces]}

    @staticmethod
    def from_json(data) -> "PFun":
        if not isinstance(data, dict):
            raise ParseError("function JSON must be an object")
        if data.get("format", "motint.pfun/1") != "motint.pfun/1":
            raise ParseError(f"unsupported function format {data['format']!r}")
        try:
            pieces = tuple((PCell.from_json(p["cell"]),
                            tuple(PTerm.from_json(t) for t in p["terms"]))
                           for p in data["pieces"])
            return PFun(tuple(data["vars"]), pieces)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed function JSON: {exc!r}") from None


@lru_cache(maxsize=1024)
def _theta(coef: ARat, q) -> Fraction:
    """theta_q of a term's coefficient, the same at every point."""
    return R.theta(coef, q)


# ---------------------------------------------------------------------------
# closed forms for one-variable sums

@lru_cache(maxsize=None)
def eulerian(t: int) -> tuple:
    """Numerator E_t of sum_{k>=0} k^t y^k = E_t(y) / (1-y)^(t+1)."""
    if t == 0:
        return (1,)
    prev = eulerian(t - 1)
    part = P.add(P.mul(P.derivative(prev), (1, -1)), P.scale(prev, t))
    return P.shift_up(part, 1)


@lru_cache(maxsize=None)
def _geom_power_sum(e: int, t: int) -> ARat:
    """sum_{k>=0} k^t L^(e*k) as a ring element; needs e < 0."""
    if e >= 0:
        raise NotIntegrable(f"geometric direction must decay, got exponent {e}")
    num = R.fsum(R.L_pow(e * j, a) for j, a in enumerate(eulerian(t)))
    den = (R.ONE - R.L_pow(e)) ** (t + 1)
    return num / den


@lru_cache(maxsize=None)
def _stirling2(t: int, j: int) -> int:
    if j == 0:
        return 1 if t == 0 else 0
    if j > t:
        return 0
    return j * _stirling2(t - 1, j) + _stirling2(t - 1, j - 1)


def _ratio(n: int, d: int):
    """n / d: an int when d divides n, else a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def progression(term: PTerm, var: str, start: AffineForm, m: int):
    """Expand the factor product of a term along n = start + m*k.

    Each factor a(n) becomes u + g*k with u = a(start).  Yields triples
    (t, g, rest), one per set of t factors taken in k, with g the product
    of their slopes and rest the values u of the other factors, so that
    prod(factors) = sum of g * k^t * prod(rest) over the triples.  g is an
    int when every slope in it is.
    """
    pairs = [(f.substitute(var, start), f.coeff(var) * m) for f in term.factors]
    growing = [i for i, (_, g) in enumerate(pairs) if g != 0]
    for size in range(len(growing) + 1):
        for S in combinations(growing, size):
            gmul = 1
            for i in S:
                gmul *= pairs[i][1]
            yield size, gmul, tuple(u for i, (u, _) in enumerate(pairs)
                                    if i not in S)


@lru_cache(maxsize=1024)
def _tail_coef(coef: ARat, g, e: int, t: int) -> ARat:
    """coef * g * sum_{k>=0} k^t L^(e*k); one value for many branches."""
    return coef * R.from_rational(g) * _geom_power_sum(e, t)


def _tail_terms(term: PTerm, var: str, start: AffineForm, m: int, e: int,
                sign: int):
    """Terms for sign * sum over n = start + m*k, k >= 0, of the given
    term; e = (coefficient of var in lpow) * m < 0."""
    beta0 = term.lpow.substitute(var, start)
    out = []
    for t, g, rest in progression(term, var, start, m):
        coef = _tail_coef(term.coef, g, e, t)
        out.append(PTerm(coef if sign > 0 else -coef, beta0, rest))
    return out


def _flat_terms(term: PTerm, var: str, start: AffineForm, m: int,
                kmax: AffineForm):
    """Terms for sum over n = start + m*k, 0 <= k <= kmax, when the lpow
    does not move with the variable: k^t is a sum of falling factorials,
    and sum_{k<=kmax} of k falling j is (kmax+1) falling (j+1) / (j+1)."""
    beta0 = term.lpow.substitute(var, start)
    out = []
    for t, g, rest in progression(term, var, start, m):
        for j in range(t + 1):
            s2 = _stirling2(t, j)
            if s2 == 0:
                continue
            coef = term.coef * R.from_rational(_ratio(g * s2, j + 1))
            falling = tuple(kmax.shift(1 - s) for s in range(j + 1))
            out.append(PTerm(coef, beta0, rest + falling))
    return out


# ---------------------------------------------------------------------------
# summation over the innermost variable

def _first_in_class(lo: AffineForm, d: int, val: int, m: int, res: int) -> AffineForm:
    """Smallest point >= lo in the class res mod m, given that d*lo is
    congruent to val modulo d*m on the branch."""
    return lo.shift(_ratio((d * res - val) % (d * m), d))


def _sum_cell_term(cell: PCell, term: PTerm, var: str):
    """Disjoint (prefix_cell, terms) pieces for the fiber sums of one term
    over one cell's innermost variable."""
    last = len(cell.vars) - 1
    if cell.vars[last] != var:
        raise FrameMismatch("summation variable must be innermost")
    slot = cell.tower[last]
    prefix = PCell(cell.vars[:last], cell.tower[:last])
    m, res = slot.mod, slot.res
    c = term.lpow.coeff(var)

    # the progression step must move the exponent by an integer
    if (c * m).denominator != 1:
        out = []
        for refined in refine_residue(cell, last, m * (c * m).denominator):
            out += _sum_cell_term(refined, term, var)
        return out

    if slot.lo is None and slot.hi is None:
        nonneg = cell.with_slot(last, VarCell(AffineForm.const_form(0), None, m, res))
        neg = cell.with_slot(last, VarCell(None, AffineForm.const_form(-1), m, res))
        return _sum_cell_term(nonneg, term, var) + _sum_cell_term(neg, term, var)

    if slot.lo is None:
        # reflect n -> -n to sum upward
        flip = AffineForm.make({var: -1})
        flipped_cell = cell.with_slot(
            last, VarCell(slot.hi.scale(-1), None, m, (-res) % m))
        return _sum_cell_term(flipped_cell, term.substitute(var, flip), var)

    if slot.hi is None:
        if c >= 0:
            raise NotIntegrable(
                f"sum over {var} diverges upward: exponent slope {c}")
        out = []
        for pc, d, val in ensure_known_value_mod(prefix, slot.lo, m):
            n0 = _first_in_class(slot.lo, d, val, m, res)
            out.append((pc, tuple(_tail_terms(term, var, n0, m, int(c * m), 1))))
        return out

    if c > 0:
        flip = AffineForm.make({var: -1})
        flipped_cell = cell.with_slot(
            last, VarCell(slot.hi.scale(-1), slot.lo.scale(-1), m, (-res) % m))
        return _sum_cell_term(flipped_cell, term.substitute(var, flip), var)

    # bounded sum, c <= 0
    out = []
    for pc1, d1, v1 in ensure_known_value_mod(prefix, slot.lo, m):
        n0 = _first_in_class(slot.lo, d1, v1, m, res)
        for pc2, d2, v2 in ensure_known_value_mod(pc1, slot.hi, m):
            # branch where the fiber is nonempty: n0 <= hi
            gap = n0 - slot.hi
            for pc3 in add_ineq(pc2, gap.numer()):
                eps = _ratio((v2 - d2 * res) % (d2 * m), d2)
                top = slot.hi.shift(-eps)   # last class point <= hi
                if c < 0:
                    up = top.shift(m)       # first class point > hi
                    terms = (_tail_terms(term, var, n0, m, int(c * m), 1)
                             + _tail_terms(term, var, up, m, int(c * m), -1))
                else:
                    # flat direction: Faulhaber up to the class top
                    kmax = (top - n0).scale(_ratio(1, m))
                    terms = _flat_terms(term, var, n0, m, kmax)
                out.append((pc3, tuple(terms)))
    return out


def sum_fibers(f: PFun, var: str | None = None) -> PFun:
    """Sum out the innermost variable exactly.  Raises NotIntegrable when
    some piece diverges."""
    if not f.vars:
        raise FrameMismatch("no variables left to sum")
    var = f.vars[-1] if var is None else var
    if var != f.vars[-1]:
        raise FrameMismatch(
            f"{var} is not innermost in {f.vars}; reorder first")
    return PFun(f.vars[:-1], tuple(piece for cell, terms in f.pieces
                                   for term in terms
                                   for piece in _sum_cell_term(cell, term, var)))
