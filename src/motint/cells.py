"""Integer cells for value-group variables.

A cell over an ordered variable tuple (v1, ..., vk) constrains each vi by
at most one affine lower bound, at most one affine upper bound, and one
congruence vi = res (mod m) with a constant residue.  Bounds may mention
only earlier variables.

An affine form stores integer numerators over one shared positive
denominator in lowest terms, so equal forms are equal tuples and every
bound, shift and comparison runs on ints.  A bound is compared with a
point by scaling the coordinate, and form <= 0 holds exactly when its
integer numerator is <= 0.  The rational coefficients stay readable
through the Fraction accessors ``terms``, ``const``, ``coeff`` and
``evaluate``:

>>> f = AffineForm.make({"i": Fraction(1, 2), "j": -1}, Fraction(1, 3))
>>> f.ints, f.cnum, f.den
((('i', 3), ('j', -6)), 2, 6)
>>> f.coeff("i"), f.const, f.evaluate({"i": 1, "j": 0})
(Fraction(1, 2), Fraction(1, 3), Fraction(5, 6))
>>> str(f), (f + f.scale(-1)).den
('1/2*i - j + 1/3', 1)

Cells are combined by inserting constraints one at a time.  Each insertion
returns a list of pairwise disjoint cells whose union is exactly the
constrained set, so intersection, subtraction, union and variable
reordering all come down to the three primitives add_ineq, add_eq and
add_cong.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import FrameMismatch, MotintError, ParseError


# ---------------------------------------------------------------------------
# affine forms

def _frac_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    if d != 1:
        g = gcd(n, d)
        if g != d:
            return f"{n // g}/{d // g}"
        return str(n // g)
    return str(n)


def _reduced(ints: tuple, cnum: int, den: int) -> "AffineForm":
    """The form (ints, cnum) / den in lowest terms; den must be positive."""
    if den != 1:
        g = gcd(den, cnum, *(k for _, k in ints))
        if g != 1:
            return AffineForm(tuple((n, k // g) for n, k in ints),
                              cnum // g, den // g)
    return AffineForm(ints, cnum, den)


def _combine(x: tuple, y: tuple, fx: int, fy: int) -> tuple:
    """Sorted nonzero numerators of fx*x + fy*y."""
    d = dict(x) if fx == 1 else {n: k * fx for n, k in x}
    for n, k in y:
        d[n] = d.get(n, 0) + k * fy
    return tuple(sorted((n, k) for n, k in d.items() if k))


def _split(ints: tuple, name: str) -> tuple:
    """(k, rest): the numerator k of name (0 if absent) and the other
    (name, int) pairs."""
    k = 0
    rest = []
    for n, c in ints:
        if n == name:
            k = c
        else:
            rest.append((n, c))
    return k, tuple(rest)


_JSON_NUMBER = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _json_fraction(x, what: str) -> Fraction:
    """An int or an "a" / "a/b" string from JSON, as a Fraction."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str) and _JSON_NUMBER.fullmatch(x):
        num, _, den = x.partition("/")
        if den and int(den) == 0:
            raise ParseError(f"{what} {x!r} has a zero denominator")
        return Fraction(int(num), int(den or 1))
    raise ParseError(f"{what} must be an integer or an 'a' or 'a/b' "
                     f"string, got {x!r}")


@dataclass(frozen=True)
class AffineForm:
    """Rational affine combination of named integer variables, stored as
    (sum of k*name over ints) + cnum, all over den.  The representation
    is canonical: ints is sorted by name with nonzero numerators, den is
    positive and gcd(all numerators, den) == 1."""

    ints: tuple             # ((name, int), ...)
    cnum: int               # constant numerator
    den: int = 1            # shared denominator

    @staticmethod
    def make(coeffs: dict | None = None, const=0) -> "AffineForm":
        items = sorted((coeffs or {}).items())
        if type(const) is int and all(type(c) is int for _, c in items):
            return AffineForm(tuple((n, c) for n, c in items if c), const)
        fracs = [(n, Fraction(c)) for n, c in items]
        const = Fraction(const)
        den = lcm(const.denominator, *(c.denominator for _, c in fracs))
        # the numerators over the lcm of reduced denominators are coprime
        # to it, so the result is already in lowest terms
        return AffineForm(
            tuple((n, c.numerator * (den // c.denominator))
                  for n, c in fracs if c),
            const.numerator * (den // const.denominator), den)

    @staticmethod
    def var(name: str) -> "AffineForm":
        return AffineForm(((name, 1),), 0)

    @staticmethod
    def const_form(c) -> "AffineForm":
        return AffineForm.make(None, c)

    @property
    def terms(self) -> tuple:
        """((name, Fraction), ...): the coefficients."""
        return tuple((n, Fraction(k, self.den)) for n, k in self.ints)

    @property
    def const(self) -> Fraction:
        return Fraction(self.cnum, self.den)

    def coeff(self, name: str) -> Fraction:
        for n, k in self.ints:
            if n == name:
                return Fraction(k, self.den)
        return Fraction(0)

    def names(self) -> tuple:
        return tuple(n for n, _ in self.ints)

    def numer(self) -> "AffineForm":
        """den * self: the form with integer coefficients."""
        return self if self.den == 1 else AffineForm(self.ints, self.cnum)

    def _plus(self, other: "AffineForm", sign: int) -> "AffineForm":
        a, b = self.den, other.den
        if a == b:
            if not other.ints:
                ints = self.ints
            elif not self.ints and sign == 1:
                ints = other.ints
            else:
                ints = _combine(self.ints, other.ints, 1, sign)
            cnum = self.cnum + sign * other.cnum
            return AffineForm(ints, cnum) if a == 1 else _reduced(ints, cnum, a)
        g = gcd(a, b)
        fa, fb = b // g, sign * (a // g)
        return _reduced(_combine(self.ints, other.ints, fa, fb),
                        self.cnum * fa + other.cnum * fb, a * fa)

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return self._plus(other, 1)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self._plus(other, -1)

    def scale(self, c) -> "AffineForm":
        if type(c) is not int:
            c = Fraction(c)
            if c.denominator != 1:
                p = c.numerator
                return _reduced(tuple((n, k * p) for n, k in self.ints),
                                self.cnum * p, self.den * c.denominator)
            c = c.numerator
        if c == 1:
            return self
        if c == 0:
            return AffineForm((), 0)
        ints = tuple((n, k * c) for n, k in self.ints)
        if self.den == 1:
            return AffineForm(ints, self.cnum * c)
        return _reduced(ints, self.cnum * c, self.den)

    def shift(self, c) -> "AffineForm":
        if type(c) is not int:
            c = Fraction(c)
            if c.denominator != 1:
                d, q = self.den, c.denominator
                f = q // gcd(d, q)
                ints = self.ints if f == 1 else tuple((n, k * f)
                                                      for n, k in self.ints)
                return _reduced(ints, self.cnum * f + c.numerator * (d * f // q),
                                d * f)
            c = c.numerator
        # adding a multiple of den keeps the numerators coprime to den
        return AffineForm(self.ints, self.cnum + c * self.den, self.den)

    def substitute(self, name: str, repl: "AffineForm") -> "AffineForm":
        """Replace the variable by the form: with self = (c*name + rest)/d,
        the result is (rest*repl.den + c*repl)/(d*repl.den)."""
        c, rest = _split(self.ints, name)
        if not c:
            return self
        rd = repl.den
        ints = _combine(rest, repl.ints, rd, c)
        cnum = self.cnum * rd + c * repl.cnum
        if self.den == 1 and rd == 1:
            return AffineForm(ints, cnum)
        return _reduced(ints, cnum, self.den * rd)

    def eval_num(self, env: dict) -> int:
        """The numerator of the value at integer env: value * den."""
        total = self.cnum
        try:
            for n, k in self.ints:
                total += k * env[n]
        except KeyError as exc:
            raise MotintError(
                f"unbound variable {exc.args[0]} in affine form") from None
        return total

    def evaluate(self, env: dict) -> Fraction:
        return Fraction(self.eval_num(env), self.den)

    def __str__(self) -> str:
        d = self.den
        parts = []
        for n, k in self.ints:
            if k == d:
                parts.append(n)
            elif k == -d:
                parts.append(f"-{n}")
            else:
                parts.append(f"{_frac_str(k, d)}*{n}")
        if self.cnum != 0 or not parts:
            parts.append(_frac_str(self.cnum, d))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def to_json(self):
        d = self.den
        return {"terms": {n: _frac_str(k, d) for n, k in self.ints},
                "const": _frac_str(self.cnum, d)}

    @staticmethod
    def from_json(data) -> "AffineForm":
        """Read a form; coefficients and the constant must be ints or
        "a" / "a/b" strings."""
        if not isinstance(data, dict) or not isinstance(data.get("terms"), dict) \
                or "const" not in data:
            raise ParseError("an affine form must be an object with a "
                             f"'terms' object and a 'const', got {data!r}")
        coeffs = {}
        for n, c in data["terms"].items():
            if not isinstance(n, str):
                raise ParseError(f"variable name {n!r} is not a string")
            coeffs[n] = _json_fraction(c, f"coefficient of {n}")
        return AffineForm.make(coeffs, _json_fraction(data["const"], "constant"))


# ---------------------------------------------------------------------------
# cells

@dataclass(frozen=True)
class VarCell:
    """Constraints on one variable: lo <= v <= hi and v = res (mod mod)."""

    lo: AffineForm | None
    hi: AffineForm | None
    mod: int = 1
    res: int = 0

    def __post_init__(self):
        mod, res = self.mod, self.res
        if type(mod) is int and type(res) is int and 0 <= res < mod:
            return
        if type(mod) is not int or type(res) is not int:
            raise MotintError(f"modulus and residue must be integers, got "
                              f"{mod!r} and {res!r}")
        if mod < 1:
            raise MotintError(f"modulus must be positive, got {mod}")
        raise MotintError(f"residue {res} out of range for modulus {mod}")

    def to_json(self):
        return {"lo": None if self.lo is None else self.lo.to_json(),
                "hi": None if self.hi is None else self.hi.to_json(),
                "mod": self.mod, "res": self.res}

    @staticmethod
    def from_json(data) -> "VarCell":
        lo = None if data["lo"] is None else AffineForm.from_json(data["lo"])
        hi = None if data["hi"] is None else AffineForm.from_json(data["hi"])
        try:
            return VarCell(lo, hi, data["mod"], data["res"])
        except MotintError as exc:
            raise ParseError(str(exc)) from None


@dataclass(frozen=True)
class PCell:
    """Triangular system of one VarCell per variable; tower[i] may mention
    only vars[:i] in its bounds."""

    vars: tuple
    tower: tuple

    def __post_init__(self):
        if len(self.vars) != len(self.tower):
            raise MotintError("one tower entry per variable")
        seen: set = set()
        for i, (v, vc) in enumerate(zip(self.vars, self.tower)):
            for b in (vc.lo, vc.hi):
                if b is not None:
                    bad = set(b.names()) - seen
                    if bad:
                        raise MotintError(
                            f"bound for {v} mentions later variables {sorted(bad)}")
            seen.add(v)

    def index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise FrameMismatch(f"cell has no variable {name}") from None

    def with_slot(self, i: int, vc: VarCell) -> "PCell":
        tower = self.tower[:i] + (vc,) + self.tower[i + 1:]
        return PCell(self.vars, tower)

    def contains(self, env: dict) -> bool:
        for v, vc in zip(self.vars, self.tower):
            x = env[v]
            if (x - vc.res) % vc.mod != 0:
                return False
            lo, hi = vc.lo, vc.hi
            if lo is not None and x * lo.den < lo.eval_num(env):
                return False
            if hi is not None and x * hi.den > hi.eval_num(env):
                return False
        return True

    def to_json(self):
        return {"vars": list(self.vars), "tower": [vc.to_json() for vc in self.tower]}

    @staticmethod
    def from_json(data) -> "PCell":
        return PCell(tuple(data["vars"]),
                     tuple(VarCell.from_json(t) for t in data["tower"]))

    def __str__(self) -> str:
        parts = []
        for v, vc in zip(self.vars, self.tower):
            if vc.lo is not None and vc.hi is not None:
                bits = [f"{vc.lo} <= {v} <= {vc.hi}"]
            elif vc.lo is not None:
                bits = [f"{vc.lo} <= {v}"]
            elif vc.hi is not None:
                bits = [f"{v} <= {vc.hi}"]
            else:
                bits = [f"{v} free"]
            if vc.mod > 1:
                bits.append(f"{v} = {vc.res} mod {vc.mod}")
            parts.append(", ".join(bits))
        return "{" + "; ".join(parts) + "}"


def universe(names) -> PCell:
    names = tuple(names)
    return PCell(names, tuple(VarCell(None, None) for _ in names))


# ---------------------------------------------------------------------------
# constraint insertion

def _innermost(cell: PCell, form: AffineForm) -> int:
    idx = -1
    for n, _ in form.ints:
        i = cell.index(n)
        if i > idx:
            idx = i
    return idx


def _prune(cells: list) -> list:
    out = []
    for c in cells:
        if not _trivially_empty(c):
            out.append(c)
    return out


def _trivially_empty(cell: PCell) -> bool:
    for vc in cell.tower:
        lo, hi = vc.lo, vc.hi
        if lo is not None and hi is not None:
            if lo == hi:
                if not lo.ints and (lo.den != 1
                                    or (lo.cnum - vc.res) % vc.mod != 0):
                    return True
            elif len(lo.ints) == len(hi.ints):
                d = hi - lo
                if not d.ints and d.cnum < 0:
                    return True
    return False


def _isolate(form: AffineForm, name: str) -> tuple:
    """(a, x) where a*name + r is the numerator of form and x = -r/a."""
    a, rest = _split(form.ints, name)
    if a > 0:
        return a, _reduced(tuple((n, -k) for n, k in rest), -form.cnum, a)
    return a, _reduced(rest, form.cnum, -a)


def add_ineq(cell: PCell, form: AffineForm) -> list:
    """Constrain by form <= 0.  Returns disjoint cells covering exactly the
    satisfying points of the cell."""
    if not form.ints:
        return [cell] if form.cnum <= 0 else []
    j = _innermost(cell, form)
    # a*v + r <= 0 is v <= -r/a for a > 0 and v >= -r/a for a < 0
    a, cand = _isolate(form, cell.vars[j])
    vc = cell.tower[j]
    if a > 0:
        if vc.hi is None:
            return _prune([cell.with_slot(j, VarCell(vc.lo, cand, vc.mod, vc.res))])
        return _split_bound(cell, j, vc.hi, cand, upper=True)
    if vc.lo is None:
        return _prune([cell.with_slot(j, VarCell(cand, vc.hi, vc.mod, vc.res))])
    return _split_bound(cell, j, vc.lo, cand, upper=False)


def _split_bound(cell: PCell, j: int, old: AffineForm, new: AffineForm,
                 upper: bool) -> list:
    """Merge a second bound with an existing one by branching on which is
    tighter.  The comparison involves only earlier variables, so the
    recursion descends."""
    if old == new:
        return [cell]
    scaled = (old - new).numer()             # integral values on points
    out = []
    if upper:
        # branch 1: old <= new, keep old
        out += add_ineq(cell, scaled)
        # branch 2: new < old, take new
        vc = cell.tower[j]
        c2 = cell.with_slot(j, VarCell(vc.lo, new, vc.mod, vc.res))
        out += add_ineq(c2, scaled.scale(-1).shift(1))
    else:
        # branch 1: new <= old, keep old
        out += add_ineq(cell, scaled.scale(-1))
        # branch 2: old < new, take new
        vc = cell.tower[j]
        c2 = cell.with_slot(j, VarCell(new, vc.hi, vc.mod, vc.res))
        out += add_ineq(c2, scaled.shift(1))
    return _prune(out)


def add_cong(cell: PCell, form: AffineForm, m: int) -> list:
    """Constrain by form = 0 (mod m); the form must have integer
    coefficients.  Residue classes of the innermost variable are
    enumerated, so keep moduli small."""
    if m < 1:
        raise MotintError(f"modulus must be positive, got {m}")
    if m == 1:
        return [cell]
    if form.den != 1:
        raise MotintError(f"congruence form must be integral: {form}")
    if not form.ints:
        return [cell] if form.cnum % m == 0 else []
    j = _innermost(cell, form)
    a, rest = _split(form.ints, cell.vars[j])
    rest = AffineForm(rest, form.cnum)
    vc = cell.tower[j]
    L = lcm(vc.mod, m)
    out = []
    for t in range(L // vc.mod):
        rho = (vc.res + vc.mod * t) % L
        refined = cell.with_slot(j, VarCell(vc.lo, vc.hi, L, rho))
        out += add_cong(refined, rest.shift(a * rho), m)
    return _prune(out)


def add_eq(cell: PCell, form: AffineForm) -> list:
    """Constrain by form = 0.  The innermost variable gets pinned to an
    affine value; divisibility and compatibility move to earlier
    variables."""
    if not form.ints:
        return [cell] if form.cnum == 0 else []
    intform = form.numer()
    j = _innermost(cell, intform)
    a, rest = _split(intform.ints, cell.vars[j])
    rest = AffineForm(rest, intform.cnum)
    if a < 0:
        a, rest = -a, rest.scale(-1)
    pin = _reduced(tuple((n, -k) for n, k in rest.ints), -rest.cnum, a)
    vc = cell.tower[j]
    cells = add_cong(cell, rest, a)
    if vc.mod > 1:
        cells = [c for base in cells
                 for c in add_cong(base, rest.shift(a * vc.res), a * vc.mod)]
    if vc.lo is not None:
        cells = [c for base in cells for c in add_ineq(base, vc.lo - pin)]
    if vc.hi is not None:
        cells = [c for base in cells for c in add_ineq(base, pin - vc.hi)]
    return _prune([c.with_slot(j, VarCell(pin, pin)) for c in cells])


# ---------------------------------------------------------------------------
# set operations

def _constraints_of(cell: PCell) -> list:
    """Flatten a cell into an ordered list of ('ineq', form) and
    ('cong', form, m) records equivalent to membership."""
    cons = []
    for v, vc in zip(cell.vars, cell.tower):
        var = AffineForm.var(v)
        if vc.mod > 1:
            cons.append(("cong", var.shift(-vc.res), vc.mod))
        if vc.lo is not None:
            cons.append(("ineq", vc.lo - var))
        if vc.hi is not None:
            cons.append(("ineq", var - vc.hi))
    return cons


def _apply(cell: PCell, con) -> list:
    if con[0] == "ineq":
        return add_ineq(cell, con[1])
    if con[0] == "eq":
        return add_eq(cell, con[1])
    if con[0] == "cong":
        return add_cong(cell, con[1], con[2])
    raise MotintError(f"unknown constraint kind {con[0]}")


def _apply_all(cells: list, cons) -> list:
    for con in cons:
        cells = [c for base in cells for c in _apply(base, con)]
    return cells


def _apply_negation(cell: PCell, con) -> list:
    if con[0] == "ineq":
        # not(form <= 0)  <=>  den*form >= 1
        return add_ineq(cell, con[1].numer().scale(-1).shift(1))
    _, form, m = con
    out = []
    for r in range(1, m):
        out += add_cong(cell, form.shift(-r), m)
    return out


def intersect(a: PCell, b: PCell) -> list:
    """Disjoint cells covering the intersection; both cells must share the
    variable order.

    With a the universe cell the answer is b, or nothing when b is empty
    at a glance: inserting b's constraints into the universe one at a
    time rebuilds b slot by slot without a split, so that is skipped."""
    if a.vars != b.vars:
        raise FrameMismatch(f"variable order mismatch: {a.vars} vs {b.vars}")
    if all(vc.lo is None and vc.hi is None and vc.mod == 1 for vc in a.tower):
        return _prune([b])
    return _apply_all([a], _constraints_of(b))


def subtract(a: PCell, b: PCell) -> list:
    """Disjoint cells covering a minus b, by first-failed-constraint
    pieces."""
    if a.vars != b.vars:
        raise FrameMismatch(f"variable order mismatch: {a.vars} vs {b.vars}")
    pieces = []
    current = [a]
    for con in _constraints_of(b):
        nxt = []
        for c in current:
            pieces += _apply_negation(c, con)
            nxt += _apply(c, con)
        current = nxt
    return pieces


def subtract_many(cells: list, holes: list) -> list:
    out = list(cells)
    for h in holes:
        out = [piece for c in out for piece in subtract(c, h)]
    return out


def complement(cells: list, names) -> list:
    """Disjoint cells covering the complement of the union inside the full
    integer lattice on the given variables."""
    return subtract_many([universe(names)], cells)


def from_constraints(names, cons) -> list:
    """Build disjoint cells from scratch: cons is a list of ('ineq', form),
    ('eq', form) or ('cong', form, m) records."""
    return _apply_all([universe(names)], cons)


def reorder(cell: PCell, new_vars) -> list:
    """Re-present the same point set with a different variable order."""
    new_vars = tuple(new_vars)
    if sorted(new_vars) != sorted(cell.vars):
        raise FrameMismatch(f"reorder must permute {cell.vars}, got {new_vars}")
    cons = []
    for v, vc in zip(cell.vars, cell.tower):
        var = AffineForm.var(v)
        if vc.mod > 1:
            cons.append(("cong", var.shift(-vc.res), vc.mod))
        if vc.lo is not None and vc.hi is not None and vc.lo == vc.hi:
            cons.append(("eq", var - vc.lo))
            continue
        if vc.lo is not None:
            cons.append(("ineq", vc.lo - var))
        if vc.hi is not None:
            cons.append(("ineq", var - vc.hi))
    return from_constraints(new_vars, cons)


def refine_residue(cell: PCell, j: int, modulus: int) -> list:
    """Split slot j into congruence classes modulo lcm(current, modulus)."""
    vc = cell.tower[j]
    L = lcm(vc.mod, modulus)
    return [cell.with_slot(j, VarCell(vc.lo, vc.hi, L, (vc.res + vc.mod * t) % L))
            for t in range(L // vc.mod)]


def _known_value_mod(cell: PCell, form: AffineForm, m: int):
    """If the numerator of the form is constant modulo den*m on the cell,
    return the pair (den, that constant).  Returns None when some
    variable's congruence class is too coarse."""
    M = form.den * m
    total = form.cnum
    for n, c in form.ints:
        vc = cell.tower[cell.index(n)]
        if (c * vc.mod) % M != 0:
            return None
        total += c * vc.res
    return form.den, total % M


def ensure_known_value_mod(cell: PCell, form: AffineForm, m: int) -> list:
    """Refine congruences until the form's value mod m is constant on each
    returned cell; yields (cell, den, numerator mod den*m) triples."""
    M = form.den * m
    cells = [cell]
    for n, c in form.ints:
        need = M // gcd(c, M)
        out = []
        for cc in cells:
            out += refine_residue(cc, cc.index(n), need)
        cells = out
    result = []
    for cc in cells:
        got = _known_value_mod(cc, form, m)
        if got is None:
            raise MotintError("residue refinement failed to pin the form")
        result.append((cc, got[0], got[1]))
    return result
