"""Integer cells for value-group variables.

A cell over an ordered variable tuple (v1, ..., vk) constrains each vi by
at most one affine lower bound, at most one affine upper bound, and one
congruence vi = res (mod m) with a constant residue.  Bounds may mention
only earlier variables.  Coefficients are rational; on the integer points
of a cell every bound evaluates to a rational that is compared exactly.

Cells are combined by inserting constraints one at a time.  Each insertion
returns a list of pairwise disjoint cells whose union is exactly the
constrained set, so intersection, subtraction, union and variable
reordering all come down to the three primitives add_ineq, add_eq and
add_cong.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import FrameMismatch, MotintError


# ---------------------------------------------------------------------------
# affine forms

@dataclass(frozen=True)
class AffineForm:
    """Rational affine combination of named integer variables."""

    terms: tuple            # ((name, Fraction), ...) sorted, coefficients nonzero
    const: Fraction

    @staticmethod
    def make(coeffs: dict | None = None, const=0) -> "AffineForm":
        coeffs = coeffs or {}
        items = tuple(sorted((n, Fraction(c)) for n, c in coeffs.items()
                             if Fraction(c) != 0))
        return AffineForm(items, Fraction(const))

    @staticmethod
    def var(name: str) -> "AffineForm":
        return AffineForm(((name, Fraction(1)),), Fraction(0))

    @staticmethod
    def const_form(c) -> "AffineForm":
        return AffineForm((), Fraction(c))

    def coeff(self, name: str) -> Fraction:
        for n, c in self.terms:
            if n == name:
                return c
        return Fraction(0)

    def names(self) -> tuple:
        return tuple(n for n, _ in self.terms)

    def is_constant(self) -> bool:
        return not self.terms

    def __add__(self, other: "AffineForm") -> "AffineForm":
        d = dict(self.terms)
        for n, c in other.terms:
            d[n] = d.get(n, Fraction(0)) + c
        return AffineForm.make(d, self.const + other.const)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + other.scale(-1)

    def scale(self, c) -> "AffineForm":
        c = Fraction(c)
        if c == 0:
            return AffineForm((), Fraction(0))
        return AffineForm(tuple((n, k * c) for n, k in self.terms), self.const * c)

    def shift(self, c) -> "AffineForm":
        return AffineForm(self.terms, self.const + Fraction(c))

    def drop(self, name: str) -> "AffineForm":
        return AffineForm(tuple((n, c) for n, c in self.terms if n != name), self.const)

    def substitute(self, name: str, repl: "AffineForm") -> "AffineForm":
        c = self.coeff(name)
        if c == 0:
            return self
        return self.drop(name) + repl.scale(c)

    def evaluate(self, env: dict) -> Fraction:
        total = self.const
        for n, c in self.terms:
            if n not in env:
                raise MotintError(f"unbound variable {n} in affine form")
            total += c * env[n]
        return total

    def denom_lcm(self) -> int:
        d = self.const.denominator
        for _, c in self.terms:
            d = lcm(d, c.denominator)
        return d

    def is_integral(self) -> bool:
        return self.denom_lcm() == 1

    def __str__(self) -> str:
        parts = []
        for n, c in self.terms:
            if c == 1:
                parts.append(n)
            elif c == -1:
                parts.append(f"-{n}")
            else:
                parts.append(f"{c}*{n}")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def to_json(self):
        return {"terms": {n: str(c) for n, c in self.terms}, "const": str(self.const)}

    @staticmethod
    def from_json(data) -> "AffineForm":
        return AffineForm.make({n: Fraction(c) for n, c in data["terms"].items()},
                               Fraction(data["const"]))


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
        if self.mod < 1:
            raise MotintError(f"modulus must be positive, got {self.mod}")
        if not 0 <= self.res < self.mod:
            raise MotintError(f"residue {self.res} out of range for modulus {self.mod}")

    def to_json(self):
        return {"lo": None if self.lo is None else self.lo.to_json(),
                "hi": None if self.hi is None else self.hi.to_json(),
                "mod": self.mod, "res": self.res}

    @staticmethod
    def from_json(data) -> "VarCell":
        lo = None if data["lo"] is None else AffineForm.from_json(data["lo"])
        hi = None if data["hi"] is None else AffineForm.from_json(data["hi"])
        return VarCell(lo, hi, data["mod"], data["res"])


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
            if vc.lo is not None and Fraction(x) < vc.lo.evaluate(env):
                return False
            if vc.hi is not None and Fraction(x) > vc.hi.evaluate(env):
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
    for n in form.names():
        idx = max(idx, cell.index(n))
    return idx


def _prune(cells: list) -> list:
    out = []
    for c in cells:
        if not _trivially_empty(c):
            out.append(c)
    return out


def _trivially_empty(cell: PCell) -> bool:
    for vc in cell.tower:
        if vc.lo is not None and vc.hi is not None:
            d = vc.hi - vc.lo
            if d.is_constant() and d.const < 0:
                return True
            if vc.lo == vc.hi and vc.lo.is_constant():
                v = vc.lo.const
                if v.denominator != 1 or (int(v) - vc.res) % vc.mod != 0:
                    return True
    return False


def add_ineq(cell: PCell, form: AffineForm) -> list:
    """Constrain by form <= 0.  Returns disjoint cells covering exactly the
    satisfying points of the cell."""
    if form.is_constant():
        return [cell] if form.const <= 0 else []
    j = _innermost(cell, form)
    name = cell.vars[j]
    a = form.coeff(name)
    rest = form.drop(name)
    vc = cell.tower[j]
    if a > 0:
        cand = rest.scale(Fraction(-1) / a)
        if vc.hi is None:
            return _prune([cell.with_slot(j, VarCell(vc.lo, cand, vc.mod, vc.res))])
        return _split_bound(cell, j, vc.hi, cand, upper=True)
    cand = rest.scale(Fraction(-1) / a)
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
    diff = old - new
    d = diff.denom_lcm()
    scaled = diff.scale(d)                       # integral values on points
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
    if not form.is_integral():
        raise MotintError(f"congruence form must be integral: {form}")
    if form.is_constant():
        return [cell] if form.const % m == 0 else []
    j = _innermost(cell, form)
    name = cell.vars[j]
    a = int(form.coeff(name))
    rest = form.drop(name)
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
    if form.is_constant():
        return [cell] if form.const == 0 else []
    d = form.denom_lcm()
    intform = form.scale(d)
    j = _innermost(cell, intform)
    name = cell.vars[j]
    a = int(intform.coeff(name))
    rest = intform.drop(name)
    if a < 0:
        a, rest = -a, rest.scale(-1)
    pin = rest.scale(Fraction(-1, a))
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
    return add_cong(cell, con[1], con[2])


def _apply_negation(cell: PCell, con) -> list:
    if con[0] == "ineq":
        form = con[1]
        d = form.denom_lcm()
        # not(form <= 0)  <=>  d*form >= 1
        return add_ineq(cell, form.scale(-d).shift(1))
    _, form, m = con
    out = []
    for r in range(1, m):
        out += add_cong(cell, form.shift(-r), m)
    return out


def intersect(a: PCell, b: PCell) -> list:
    """Disjoint cells covering the intersection; both cells must share the
    variable order."""
    if a.vars != b.vars:
        raise FrameMismatch(f"variable order mismatch: {a.vars} vs {b.vars}")
    cells = [a]
    for con in _constraints_of(b):
        cells = [c for base in cells for c in _apply(base, con)]
    return cells


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
    cells = [universe(names)]
    for con in cons:
        if con[0] == "ineq":
            cells = [c for base in cells for c in add_ineq(base, con[1])]
        elif con[0] == "eq":
            cells = [c for base in cells for c in add_eq(base, con[1])]
        elif con[0] == "cong":
            cells = [c for base in cells for c in add_cong(base, con[1], con[2])]
        else:
            raise MotintError(f"unknown constraint kind {con[0]}")
    return cells


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
    """If the scaled values of the form are constant modulo m on the cell,
    return that constant for d*form with d the coefficient denominator
    lcm: a pair (d, value of d*form mod d*m).  Returns None when some
    variable's congruence class is too coarse."""
    d = form.denom_lcm()
    g = form.scale(d)
    M = d * m
    total = g.const
    for n, c in g.terms:
        i = cell.index(n)
        vc = cell.tower[i]
        c = int(c)
        step = (c * vc.mod) % M
        if step != 0:
            return None
        total += c * vc.res
    return d, int(total) % M


def ensure_known_value_mod(cell: PCell, form: AffineForm, m: int) -> list:
    """Refine congruences until the form's value mod m is constant on each
    returned cell; yields (cell, d, value_of_d_form_mod_d_m) triples."""
    d = form.denom_lcm()
    M = d * m
    g = form.scale(d)
    cells = [cell]
    for n, c in g.terms:
        c = int(c)
        need = M // gcd(int(c), M)
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
