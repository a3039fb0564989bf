"""Integration over valued-field variables via explicit cell presentations.

A valued-field variable never enters a constructible-function frame.
Instead, a region of the field is presented as a finite disjoint union of
cells.  A ball cell records a rational center c, a depth n, a shell
coordinate z = ord(t-c), and an angular coordinate xi = ac_n(t-c); each
(z, xi) fiber is a single ball of Haar volume q^(-z-n).  A point cell is
the center itself and carries no volume.

Integrating a cell family multiplies the per-cell value by the fiber
volume L^(-z-n), sums the shell coordinate with the Presburger engine and
the angular coordinate with the residue-class engine, and discards point
cells into an explicit ledger.

The decomposer covers a declared fragment: boolean combinations of
conditions on ord(u*t + v) and ac_m(u*t + v) with exact rational u, v,
where order bounds are affine in value-group parameters and angular
conditions compare residue terms.  Everything is exact; distances between
centers are computed p-adically for the supplied context, while angular
data is kept as integer constants so one decomposition serves every
unramified extension of the base field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf

from . import formula as F
from . import ring_a as R
from .cells import (AffineForm, from_constraints, intersect, subtract_many,
                    universe)
from .errors import (CapExceeded, FrameMismatch, MotintError,
                     NotCellPresented, NotIntegrable, OutsideFragment,
                     SortError, ZeroDerivative)
from .padic import PContext, compile_formula, compiled
from .presburger import PFun, PTerm
from .qplus import one as unit_class
from .cplus import MotFun, CTerm, mu_vg_res, normal_form


# ---------------------------------------------------------------------------
# cell types


@dataclass(frozen=True)
class VFCell:
    """One cell of a decomposition in a single valued-field variable.

    A ball cell denotes {t : ord(t-center) = z, ac_depth(t-center) = xi}
    for z ranging over the cells in ``z_cells`` and xi satisfying
    ``xi_phi``; a point cell denotes {center} subject to the parameter
    condition ``cond``.  ``links`` records, for every other tracked
    center c, how ord(t-c) and ac_m(t-c) read off this cell's (z, xi)
    coordinates: a tuple (c, rel, dist, zval) with rel one of "below",
    "at", "above" relative to dist = ord(center - c), and zval the shell
    value when the cell is a single shell.
    """

    var: str
    kind: str                       # "ball" | "point"
    center: Fraction
    depth: int = 1
    xi_name: str = ""
    xi_phi: F.Formula = F.TRUE
    z_name: str = ""
    z_cells: tuple = ()
    cond: F.Formula = F.TRUE
    links: tuple = ()

    def __post_init__(self):
        if self.kind not in ("ball", "point"):
            raise MotintError(f"unknown cell kind {self.kind!r}")
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(self, "z_cells", tuple(self.z_cells))
        object.__setattr__(self, "links", tuple(self.links))
        if self.kind == "ball":
            if self.depth < 1:
                raise MotintError("ball cells need depth >= 1")
            if not self.xi_name or not self.z_name:
                raise MotintError("ball cells need shell and angular names")

    def to_json(self):
        out = {
            "var": self.var,
            "kind": self.kind,
            "center": str(self.center),
            "depth": self.depth,
        }
        if self.kind == "ball":
            out["xi_name"] = self.xi_name
            out["xi_phi"] = F.formula_str(self.xi_phi)
            out["z_name"] = self.z_name
            out["z_cells"] = [c.to_json() for c in self.z_cells]
            out["links"] = [
                {"center": str(c), "rel": rel, "dist": d,
                 "zval": zv}
                for c, rel, d, zv in self.links]
        else:
            out["cond"] = F.formula_str(self.cond)
        return out


@dataclass(frozen=True)
class CellDecomposition:
    """Disjoint cells covering a presented set, with per-cell values.

    The value attached to a ball cell is a constructible function over
    the base frame extended by that cell's (xi, z) coordinates; a point
    cell's value lives over the base frame alone.  Values cannot mention
    the valued-field variable itself, which makes fiber-constancy
    structural.  ``depth`` records the angular depth chosen for the run.
    """

    var: str
    base_res: tuple
    base_vg: tuple
    cells: tuple
    values: tuple
    depth: int = 1

    def __post_init__(self):
        object.__setattr__(self, "base_res", tuple(self.base_res))
        object.__setattr__(self, "base_vg", tuple(self.base_vg))
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.cells) != len(self.values):
            raise MotintError("one value per cell required")

    def with_values(self, values) -> "CellDecomposition":
        return CellDecomposition(self.var, self.base_res, self.base_vg,
                                 self.cells, tuple(values), self.depth)

    def to_json(self):
        return {
            "format": "motint.celldecomposition/1",
            "var": self.var,
            "base_res": [[n, d] for n, d in self.base_res],
            "base_vg": list(self.base_vg),
            "depth": self.depth,
            "cells": [c.to_json() for c in self.cells],
            "values": [v.to_json() for v in self.values],
        }


@dataclass(frozen=True)
class DiscardedLocus:
    """A zero-volume piece dropped during integration, kept for audit."""

    var: str
    center: Fraction
    where: str

    def to_json(self):
        return {"var": self.var, "center": str(self.center),
                "where": self.where}


@dataclass(frozen=True)
class IntegrationResult:
    """Outcome of an integration: value, flag, and the discard ledger."""

    value: MotFun | None
    integrable: bool
    discarded: tuple = ()

    def to_json(self):
        return {
            "format": "motint.integration/1",
            "integrable": self.integrable,
            "value": None if self.value is None else self.value.to_json(),
            "discarded": [d.to_json() for d in self.discarded],
        }


# ---------------------------------------------------------------------------
# affine analysis of valued-field terms


def _affine_chain(t, vals, spine, args):
    u, v = vals[0]
    for s, (ru, rv) in zip(spine, vals[1:]):
        if s.op == "+":
            u, v = u + ru, v + rv
        elif s.op == "-":
            u, v = u - ru, v - rv
        elif u == 0:
            u, v = v * ru, v * rv
        elif ru == 0:
            u, v = u * rv, v * rv
        else:
            _outside(f"term {F.term_str(s)} is not affine in the variable")
    return u, v


def _outside(msg: str):
    raise OutsideFragment(msg)


# (u, v) of each valued-field node but a variable (see _affine_in)
_AFFINE = {
    **dict.fromkeys((F.IntLit, F.RatLit), lambda x, v: (Fraction(0), Fraction(x.value))),
    F.Pi: lambda x, v: _outside("the uniformizer depends on the context; "
                                "write an explicit rational constant instead"),
    F.Neg: lambda x, v: (-v[0][0], -v[0][1]),
    F.Pow: lambda x, v: ((Fraction(0), v[0][1] ** x.exp) if v[0][0] == 0 else
                         _outside(f"term {F.term_str(x)} is not affine in the variable")),
    F.BinOp: _affine_chain,
}


def _affine_in(t: F.Term, var: str | None):
    """Read a valued-field term as u*var + v; (u, v) exact rationals."""
    def leaf(x):                # a variable, or a node of another sort
        if isinstance(x, F.Var):
            if x.var_sort != F.VF:
                _outside(f"expected a valued-field term, got {F.term_str(x)}")
            if var is None or x.name != var:
                _outside(f"valued-field variable {x.name} is not resolvable here")
            return (Fraction(1), Fraction(0))
        if type(x) in (F.Ord, F.Ac, F.Proj):
            _outside(f"unsupported valued-field term {F.term_str(x)}")
    return F.fold(t, _AFFINE, enter=leaf)


@lru_cache(maxsize=4096)
def _arg_of(t: F.Term):
    """The argument of an Ord or Ac term as (name, u, v), u*name + v with
    u, v exact rationals and name None for a constant; cached by node."""
    names = list(dict.fromkeys(u.name for u in F.walk(t.arg)
                               if isinstance(u, F.Var) and u.var_sort == F.VF))
    if len(names) > 1:
        raise OutsideFragment(f"{F.term_str(t)} mixes valued-field variables")
    name = names[0] if names else None
    u, v = _affine_in(t.arg, name)
    return name, u, v


# ---------------------------------------------------------------------------
# extended value-group values: an AffineForm, inf or -inf


def _x_ord(c: Fraction, ctx: PContext):
    """The order of a rational constant as an extended order."""
    o = ctx.ord(c)
    return o if o == inf else AffineForm.const_form(o)


def _x_add(a, b):
    if isinstance(a, AffineForm) and isinstance(b, AffineForm):
        return a + b
    if isinstance(a, AffineForm):
        return b
    if isinstance(b, AffineForm) or a == b:
        return a
    raise OutsideFragment("indeterminate difference of infinite orders")


def _x_scale(a, c: Fraction):
    c = Fraction(c)
    if isinstance(a, AffineForm):
        return a.scale(c)
    if c == 0:
        return AffineForm.const_form(0)
    return a if c > 0 else -a


# ---------------------------------------------------------------------------
# per-cell resolvers for ord(t - c) and ac_m(t - c)
#
# A resolver holds the context and reads one variable on one cell:
# ord_of(center) gives ord(t - center) as an extended order, and
# ac_of(center, m) gives ac_m(t - center) as a residue term.


class _BallResolver:
    def __init__(self, anchor: Fraction, depth: int, z_name: str,
                 xi_name: str, links: tuple, ctx: PContext):
        self.anchor = anchor
        self.depth = depth
        self.z_name = z_name
        self.xi_name = xi_name
        self.links = {c: (rel, d, zv) for c, rel, d, zv in links}
        self.ctx = ctx

    def _xi(self, m: int) -> F.Term:
        v = F.Var(self.xi_name, F.RES(self.depth))
        if m == self.depth:
            return v
        return F.Proj(self.depth, m, v)

    def _link(self, center: Fraction):
        if center not in self.links:
            raise OutsideFragment(
                f"center {center} was not tracked when the cell around "
                f"{self.anchor} was built")
        return self.links[center]

    def ord_of(self, center: Fraction):
        if center == self.anchor:
            return AffineForm.var(self.z_name)
        rel, dist, _ = self._link(center)
        if rel == "above":
            return AffineForm.const_form(dist)
        return AffineForm.var(self.z_name)

    def ac_of(self, center: Fraction, m: int) -> F.Term:
        if m > self.depth:
            raise MotintError(
                f"angular depth {m} exceeds the cell depth {self.depth}")
        if center == self.anchor:
            return self._xi(m)
        rel, dist, zval = self._link(center)
        if rel == "below" and (zval is None or dist - zval >= m):
            return self._xi(m)
        # read at the lower order of t - anchor and anchor - center
        p = self.ctx.p
        shift = zval if rel == "below" else dist
        diff = (self.anchor - center) / Fraction(p) ** shift
        r = F.IntLit(self.ctx.mod(diff, m), F.RES(m))
        if rel != "above":
            return F.BinOp("+", self._xi(m), r)
        # rel == "above": ord(t - center) = dist exactly
        if zval is None or zval - dist >= m:
            return r
        scale = F.IntLit(p ** (zval - dist), F.RES(m))
        return F.BinOp("+", r, F.BinOp("*", scale, self._xi(m)))


class _PointResolver:
    def __init__(self, center: Fraction, ctx: PContext):
        self.center = center
        self.ctx = ctx

    def ord_of(self, center: Fraction):
        return _x_ord(self.center - center, self.ctx)

    def ac_of(self, center: Fraction, m: int) -> F.Term:
        return F.IntLit(self.ctx.ac(self.center - center, m), F.RES(m))


# ---------------------------------------------------------------------------
# rewriting a fragment formula against resolvers

# The mini tree keeps value-group atoms as cell constraints and residue
# atoms as formulas so boolean structure can be split afterwards:
#   ("T",) | ("F",) | ("vg", con) | ("res", formula)
#   ("and", parts) | ("or", parts) | ("not", part)


def _vg_chain(t, vals, spine, args):
    out = vals[0]
    for i, (s, b) in enumerate(zip(spine, vals[1:]), 1):
        if s.op == "+":
            out = _x_add(out, b)
        elif s.op == "-":
            out = _x_add(out, _x_scale(b, -1))
        elif i == 1 and isinstance(args[0], F.IntLit):
            out = _x_scale(b, args[0].value)
        elif isinstance(args[i], F.IntLit):
            out = _x_scale(out, args[i].value)
        else:
            _outside(f"non-affine value-group product {F.term_str(s)}")
    return out


# extended affine form of each value-group node but ord (see _vg_leaf)
_VG_FORM = {
    F.Var: lambda t, vals: AffineForm.var(t.name),
    F.IntLit: lambda t, vals: AffineForm.const_form(t.value),
    F.Neg: lambda t, vals: _x_scale(vals[0], -1),
    F.BinOp: _vg_chain,
}


class _Rewriter:
    def __init__(self, resolvers: dict, ctx: PContext):
        self.rs = resolvers
        self.ctx = ctx

    # -- terms ---------------------------------------------------------

    def _arg(self, t: F.Term):
        """``_arg_of``, where a variable argument needs a resolver and a
        nonzero slope."""
        name, u, v = _arg_of(t)
        if name is None:
            return name, u, v
        if name not in self.rs:
            raise OutsideFragment(
                f"valued-field variable {name} is not resolvable here")
        if u == 0:
            raise OutsideFragment(f"degenerate term {F.term_str(t)}")
        return name, u, v

    def _resolve_ord(self, t: F.Ord):
        name, u, v = self._arg(t)
        if name is None:
            return _x_ord(v, self.ctx)
        return _x_add(self.rs[name].ord_of(-v / u), _x_ord(u, self.ctx))

    def _resolve_ac(self, t: F.Ac) -> F.Term:
        m = t.depth
        name, u, v = self._arg(t)
        if name is None:
            return F.IntLit(self.ctx.ac(v, m), F.RES(m))
        base = self.rs[name].ac_of(-v / u, m)
        mult = self.ctx.ac(u, m)
        if mult == 1:
            return base
        return F.BinOp("*", F.IntLit(mult, F.RES(m)), base)

    def vg_term(self, t: F.Term):
        """Value-group term -> extended affine form."""
        return F.fold(t, _VG_FORM, enter=self._vg_leaf)

    def _vg_leaf(self, t: F.Term):
        """An ord term resolved on the cell, or None for a node _VG_FORM reads."""
        if isinstance(t, F.Ord):
            return self._resolve_ord(t)
        if type(t) not in _VG_FORM:
            _outside(f"unsupported value-group term {F.term_str(t)}")

    def _res_leaf(self, t: F.Term):
        if isinstance(t, F.Ac):
            return self._resolve_ac(t)
        if isinstance(t, F.IntLit):
            # a residue literal means its class mod p^depth; reduce it, so
            # that literal equalities fold as evaluation reads them
            r = self.ctx.mod(t.value, t.lit_sort.depth)
            return t if r == t.value else F.IntLit(r, t.lit_sort)
        if isinstance(t, (F.Ord, F.RatLit, F.Pi)):
            raise OutsideFragment(
                f"unsupported residue term {F.term_str(t)}")
        return None

    def res_eq(self, f: F.Eq) -> F.Formula:
        """A residue equality with its literals reduced at p; two literals
        fold to true or false here, since F.simplify cannot know p."""
        a, b = (F.map_formula(t, self._res_leaf) for t in (f.left, f.right))
        if isinstance(a, F.IntLit) and isinstance(b, F.IntLit):
            return F.TRUE if a.value == b.value else F.FALSE
        return F.Eq(a, b)

    def res_formula(self, f: F.Formula) -> F.Formula:
        """Rewrite a residue-sorted subformula (no ord terms allowed)."""
        if isinstance(f, (F.TrueF, F.FalseF)):
            return f
        if isinstance(f, F.Eq):
            return self.res_eq(f)
        if isinstance(f, F.Not):
            return F.Not(self.res_formula(f.body))
        if isinstance(f, F.And):
            return F.And(tuple(self.res_formula(g) for g in f.parts))
        if isinstance(f, F.Or):
            return F.Or(tuple(self.res_formula(g) for g in f.parts))
        if isinstance(f, F.Quant):
            if f.var.var_sort.kind != "res":
                raise OutsideFragment(
                    "value-group quantifiers are outside the fragment")
            return F.Quant(f.q, f.var, f.lo, f.hi, self.res_formula(f.body))
        raise OutsideFragment(
            f"unsupported residue condition {F.formula_str(f)}")

    # -- formulas -------------------------------------------------------

    def _vg_eq(self, a, b):
        if isinstance(a, AffineForm) and isinstance(b, AffineForm):
            return ("vg", ("eq", a - b))
        return ("T",) if a == b else ("F",)

    def _vg_le(self, a, b):
        if a == -inf or b == inf:
            return ("T",)
        if a == inf or b == -inf:
            return ("F",)
        return ("vg", ("ineq", a - b))

    def mini(self, f: F.Formula):
        if isinstance(f, F.TrueF):
            return ("T",)
        if isinstance(f, F.FalseF):
            return ("F",)
        if isinstance(f, F.Not):
            return ("not", self.mini(f.body))
        if isinstance(f, F.And):
            return ("and", tuple(self.mini(g) for g in f.parts))
        if isinstance(f, F.Or):
            return ("or", tuple(self.mini(g) for g in f.parts))
        if isinstance(f, F.Quant):
            if f.var.var_sort.kind == "res" and any(
                    isinstance(t, F.Ord) for t in F.walk(f.body)):
                raise OutsideFragment(
                    "ord terms under a residue quantifier are outside "
                    "the fragment")
            return ("res", self.res_formula(f))
        if isinstance(f, F.Eq):
            s = f.left.sort()
            if s == F.VF:
                raise OutsideFragment(
                    "valued-field equality is outside the fragment; "
                    "express it through ord")
            if s == F.VG:
                return self._vg_eq(self.vg_term(f.left),
                                   self.vg_term(f.right))
            return ("res", self.res_eq(f))
        if isinstance(f, F.Le):
            return self._vg_le(self.vg_term(f.left), self.vg_term(f.right))
        if isinstance(f, F.Cong):
            a = self.vg_term(f.left)
            b = self.vg_term(f.right)
            if not (isinstance(a, AffineForm) and isinstance(b, AffineForm)):
                return ("F",)
            return ("vg", ("cong", a - b, f.modulus))
        raise OutsideFragment(f"unsupported condition {F.formula_str(f)}")


# ---------------------------------------------------------------------------
# mini-tree utilities


def _mini_res_atoms(m, out: list) -> None:
    if m[0] == "res":
        if m[1] not in out:
            out.append(m[1])
    elif m[0] in ("and", "or"):
        for part in m[1]:
            _mini_res_atoms(part, out)
    elif m[0] == "not":
        _mini_res_atoms(m[1], out)


def _mini_cells(m, sigma: dict, frame) -> list:
    if m[0] == "T":
        return [universe(frame)]
    if m[0] == "F":
        return []
    if m[0] == "vg":
        return from_constraints(frame, [m[1]])
    if m[0] == "res":
        return [universe(frame)] if sigma[m[1]] else []
    if m[0] == "and":
        acc = [universe(frame)]
        for part in m[1]:
            nxt = _mini_cells(part, sigma, frame)
            acc = [c for a in acc for b in nxt for c in intersect(a, b)]
            if not acc:
                return []
        return acc
    if m[0] == "or":
        covered: list = []
        for part in m[1]:
            pieces = _mini_cells(part, sigma, frame)
            covered = covered + subtract_many(pieces, covered)
        return covered
    if m[0] == "not":
        return subtract_many([universe(frame)],
                             _mini_cells(m[1], sigma, frame))
    raise MotintError(f"bad mini node {m[0]!r}")


def _form_to_vg_term(form: AffineForm) -> F.Term:
    """The numerator of the form (den * form) as a value-group term."""
    parts: list = []
    for name, c in form.ints:
        v = F.Var(name, F.VG)
        parts.append(v if c == 1 else F.BinOp("*", F.IntLit(c, F.VG), v))
    if form.cnum != 0 or not parts:
        parts.append(F.IntLit(form.cnum, F.VG))
    out = parts[0]
    for t in parts[1:]:
        out = F.BinOp("+", out, t)
    return out


def _con_to_formula(con) -> F.Formula:
    if con[0] == "ineq":
        return F.Le(_form_to_vg_term(con[1]), F.IntLit(0, F.VG))
    if con[0] == "eq":
        return F.Eq(_form_to_vg_term(con[1]), F.IntLit(0, F.VG))
    return F.Cong(_form_to_vg_term(con[1]), F.IntLit(0, F.VG),
                  con[2] * con[1].den)


def _mini_to_formula(m) -> F.Formula:
    if m[0] == "T":
        return F.TRUE
    if m[0] == "F":
        return F.FALSE
    if m[0] == "vg":
        return _con_to_formula(m[1])
    if m[0] == "res":
        return m[1]
    if m[0] == "and":
        return F.land(*(_mini_to_formula(p) for p in m[1]))
    if m[0] == "or":
        return F.lor(*(_mini_to_formula(p) for p in m[1]))
    return F.Not(_mini_to_formula(m[1]))


# ---------------------------------------------------------------------------
# scanning a condition for centers and depths


@lru_cache(maxsize=1024)
def _scan_var(f: F.Formula, var: str):
    """The centers (a tuple) and the angular depth a variable needs."""
    centers: list = []
    depth = 1
    for t in F.walk(f):
        if isinstance(t, (F.Ord, F.Ac)) and any(
                isinstance(u, F.Var) and u.name == var and u.var_sort == F.VF
                for u in F.walk(t.arg)):
            _, u, v = _arg_of(t)
            if u == 0:
                continue
            c = -v / u
            if c not in centers:
                centers.append(c)
            if isinstance(t, F.Ac):
                depth = max(depth, t.depth)
    return tuple(centers), depth


# ---------------------------------------------------------------------------
# the decomposer


def _piece_links(centers, i, piece, dists, depth):
    lo, hi = piece
    links = []
    for j, cj in enumerate(centers):
        if j == i:
            continue
        d = dists[(i, j)]
        if lo is not None and lo == hi:
            v = lo
            rel = "below" if v < d else ("at" if v == d else "above")
            links.append((cj, rel, d, v))
        elif hi is not None and hi < d:
            links.append((cj, "below", d, None))
        elif lo is not None and lo > d:
            links.append((cj, "above", d, None))
        else:
            raise MotintError("shell range straddles a center distance")
    return tuple(links)


def _piece_constraint(z_name, piece):
    lo, hi = piece
    cons = []
    zf = AffineForm.var(z_name)
    if lo is not None and lo == hi:
        cons.append(("eq", zf - AffineForm.const_form(lo)))
        return cons
    if lo is not None:
        cons.append(("ineq", AffineForm.const_form(lo) - zf))
    if hi is not None:
        cons.append(("ineq", zf - AffineForm.const_form(hi)))
    return cons


def _decompose(cond: F.Formula, var: str, ctx: PContext, base_res, base_vg,
               outer: dict, centers, depth: int) -> CellDecomposition:
    """Cells of ``var`` around ``centers`` (the origin when there are none)
    at angular ``depth``; the caller scans the condition for both."""
    p = ctx.p
    base_res = tuple(base_res)
    base_vg = tuple(base_vg)
    z_name = f"z_{var}"
    xi_name = f"xi_{var}"
    if z_name in base_vg or xi_name in [n for n, _ in base_res]:
        raise MotintError(
            f"shell names {z_name}/{xi_name} collide with the base frame")
    centers = sorted(centers) or [Fraction(0)]

    dists = {}
    for i, ci in enumerate(centers):
        for j, cj in enumerate(centers):
            if i != j:
                dists[(i, j)] = ctx.ord(ci - cj)

    frame = base_vg + (z_name,)
    ext_res = base_res + ((xi_name, depth),)
    cells_out: list = []
    values_out: list = []
    unit_val = MotFun.unit(ext_res, frame)
    xi_var = F.Var(xi_name, F.RES(depth))
    xi1 = xi_var if depth == 1 else F.Proj(depth, 1, xi_var)
    unit_cond = F.Not(F.Eq(xi1, F.IntLit(0, F.RES(1))))

    for i, ci in enumerate(centers):
        below = [dists[(i, j)] for j in range(i)]
        lo_bound = (max(below) + 1) if below else None
        window = sorted({w
                         for j in range(len(centers)) if j != i
                         for w in range(dists[(i, j)] - depth,
                                        dists[(i, j)] + depth + 1)
                         if lo_bound is None or w >= lo_bound})
        pieces: list = []
        cur = lo_bound
        for w in window:
            if cur is None or cur <= w - 1:
                pieces.append((cur, w - 1))
            pieces.append((w, w))
            cur = w + 1
        pieces.append((cur, None))

        for piece in pieces:
            links = _piece_links(centers, i, piece, dists, depth)
            res = _BallResolver(ci, depth, z_name, xi_name, links, ctx)
            rw = _Rewriter({**outer, var: res}, ctx)
            mini = rw.mini(cond)

            atoms: list = []
            _mini_res_atoms(mini, atoms)
            CapExceeded.check("residue atoms", len(atoms), "one cell of the "
                              "decomposition", lambda: "split the condition")

            structural = [unit_cond]
            lo, hi = piece
            if lo is not None and lo == hi:
                for cj, rel, d, zv in links:
                    j = centers.index(cj)
                    if j > i and rel == "at":
                        bad = (p - ctx.ac(ci - cj, 1)) % p
                        structural.append(
                            F.Not(F.Eq(xi1, F.IntLit(bad, F.RES(1)))))

            piece_cells = from_constraints(frame,
                                           _piece_constraint(z_name, piece))
            if not piece_cells:
                continue

            for sigma_bits in itertools.product(
                    (True, False), repeat=len(atoms)):
                sigma = dict(zip(atoms, sigma_bits))
                xi_parts = list(structural)
                for a, b in zip(atoms, sigma_bits):
                    xi_parts.append(a if b else F.simplify(F.Not(a)))
                xi_phi = F.simplify(F.land(*xi_parts))
                if isinstance(xi_phi, F.FalseF):
                    continue
                sat = _mini_cells(mini, sigma, frame)
                zc = [c for a in sat for b in piece_cells
                      for c in intersect(a, b)]
                if not zc:
                    continue
                cells_out.append(VFCell(var, "ball", ci, depth, xi_name,
                                        xi_phi, z_name, tuple(zc),
                                        F.TRUE, links))
                values_out.append(unit_val)

    base_unit = MotFun.unit(base_res, base_vg)
    for ci in centers:
        rw = _Rewriter({**outer, var: _PointResolver(ci, ctx)}, ctx)
        cond_pt = F.simplify(_mini_to_formula(rw.mini(cond)))
        if isinstance(cond_pt, F.FalseF):
            continue
        cells_out.append(VFCell(var, "point", ci, depth, cond=cond_pt))
        values_out.append(base_unit)

    return CellDecomposition(var, base_res, base_vg, tuple(cells_out),
                             tuple(values_out), depth)


def decompose_fragment(cond: F.Formula, var: str, ctx: PContext, *,
                       base_vg=()) -> CellDecomposition:
    """Decompose the solution set of a fragment condition in one
    valued-field variable into disjoint cells with unit values.

    The cells are built around the centers of the condition's ord and ac
    terms in ``var`` (the origin when there are none), at the largest
    angular depth among its ac terms.  Order bounds may mention the base
    value-group parameters; the base has no residue parameters.
    """
    F.check_sorts(cond)
    centers, depth = _scan_var(cond, var)
    return _decompose(cond, var, ctx, (), base_vg, {}, centers, depth)


# ---------------------------------------------------------------------------
# membership testing (for soundness checks)


def cell_contains(cell: VFCell, value, ctx: PContext, env=None) -> bool:
    """Exact membership of a field element in a cell.

    ``value`` is a Fraction or an exact PadicElem; ``env`` supplies the
    base parameters (value-group integers, residue elements).  The test
    of each cell is built once per (cell, context) and kept in the
    ``padic.compiled`` store: the center as a field element of ctx, and
    the compiled ``xi_phi`` (reading xi as the coefficient tuple of
    ac_depth(t - center)) or, for a point cell, the compiled ``cond``.
    """
    return compiled(cell, ctx, _cell_test)(ctx.vf(value), env or {})


def _cell_test(cell: VFCell, ctx: PContext):
    """The closure (value, env) -> bool behind ``cell_contains``."""
    center = ctx.vf(cell.center)
    if cell.kind == "point":
        cond = compile_formula(cell.cond, ctx)
        return lambda value, env: (value - center).is_zero() and cond(env)
    name, depth = cell.xi_name, cell.depth
    for v in F.free_vars(cell.xi_phi):
        if v.name == name and v.var_sort != F.RES(depth):
            raise SortError(f"{name} is {v.var_sort} in the angular "
                            f"condition, expected {F.RES(depth)}")
    xi_phi = compile_formula(cell.xi_phi, ctx, {name: name})
    z_name, z_cells = cell.z_name, cell.z_cells

    def test(value, env):
        diff = value - center
        if diff.is_zero():
            return False
        zenv = {n: v for n, v in env.items() if isinstance(v, int)} if env else {}
        zenv[z_name] = diff.ord()
        for c in z_cells:
            if c.contains(zenv):
                break
        else:
            return False
        xi = diff.ac_coeffs(depth)
        return xi_phi({**env, name: xi} if env else {name: xi})
    return test


# ---------------------------------------------------------------------------
# integration


def integrate_cell_family(dec: CellDecomposition) -> IntegrationResult:
    """Integrate the values over the valued-field variable of a family.

    Each ball cell contributes sum over (z, xi) of value * L^(-z-depth);
    the shell sum goes through the Presburger engine and the angular sum
    through the residue-class engine, which raises ``NotIntegrable`` when
    the shell sum diverges.  Point cells carry no volume and are reported
    in the discard ledger.

    Each contribution comes out of ``mu_vg_res`` in normal form.  With
    one ball cell it is the result: ``normal_form`` is idempotent, so a
    second normalization would return it unchanged.  Two or more are
    summed and normalized once more, which merges their terms.
    """
    contribs: list = []
    discarded: list = []
    for cell, value in zip(dec.cells, dec.values):
        if cell.kind == "point":
            discarded.append(DiscardedLocus(cell.var, cell.center,
                                            F.formula_str(cell.cond)))
            continue
        frame_vg = dec.base_vg + (cell.z_name,)
        frame_res = dec.base_res + ((cell.xi_name, cell.depth),)
        if value.res_vars != frame_res or value.vg_vars != frame_vg:
            raise FrameMismatch(
                f"cell value frame ({value.res_vars},{value.vg_vars}) does "
                f"not match ({frame_res},{frame_vg})")
        vol = AffineForm.make({cell.z_name: -1}, -cell.depth)
        pieces = tuple((zc, (PTerm(R.ONE, vol),)) for zc in cell.z_cells)
        shell = MotFun(frame_res, frame_vg,
                       (CTerm(cell.xi_phi, PFun(frame_vg, pieces),
                              unit_class()),))
        contribs.append(mu_vg_res(value * shell, vg_out=(cell.z_name,),
                                  res_out=(cell.xi_name,)))
    if len(contribs) == 1:
        return IntegrationResult(contribs[0], True, tuple(discarded))
    total = sum(contribs, MotFun.zero(dec.base_res, dec.base_vg))
    return IntegrationResult(normal_form(total), True, tuple(discarded))


def _split_stages(cond: F.Formula, order) -> list:
    """Assign each top-level conjunct to the innermost variable it uses."""
    parts = [cond] if not isinstance(cond, F.And) else list(cond.parts)
    staged: list = [[] for _ in order]
    for part in parts:
        vf = [v.name for v in F.free_vars(part) if v.var_sort == F.VF]
        bad = [n for n in vf if n not in order]
        if bad:
            raise NotCellPresented(
                f"condition mentions {bad[0]}, which is not in the "
                "integration order")
        idx = max((order.index(n) for n in vf), default=0)
        staged[idx].append(part)
    return staged


def integrate_iterated(cond: F.Formula, order, ctx: PContext, *,
                       weight=(), base_vg=(),
                       strict: bool = True) -> IntegrationResult:
    """Iterated integral over several valued-field variables.

    ``order`` lists the variables outermost first; integration proceeds
    innermost first, one variable at a time, decomposing each variable's
    conjuncts over the cells already chosen for the outer ones.  The
    whole condition is scanned once per variable: its cells are built
    around every center that the condition or the weight gives it, so
    that each of its cells reads ord and ac of every term in it.
    ``weight`` multiplies the integrand by a product of factors
    L^(-mult*ord(var - center)), given as (mult, var, center) triples.
    A divergent integral raises ``NotIntegrable``; with ``strict=False``
    it gives a result with no value and the loci discarded before the
    divergent family was reached.  The class rewrites of the normal forms
    on the way are recorded in the open ``qplus.RewriteLog``, if any.
    A multiplier past the degree cap raises ``CapExceeded``.
    """
    order = tuple(order)
    if not order or len(set(order)) != len(order):
        raise MotintError("integration order must list distinct variables")
    F.check_sorts(cond)
    base_vg = tuple(base_vg)
    staged = _split_stages(cond, order)
    weight = tuple((int(m), v, Fraction(c)) for m, v, c in weight)
    for m, v, _ in weight:
        CapExceeded.check("degree", abs(m), "a weight multiplier")
        if v not in order:
            raise MotintError(f"weight variable {v} is not being integrated")

    scans = {v: _scan_var(cond, v) for v in order}
    for _, v, c in weight:
        if c not in scans[v][0]:
            scans[v] = (scans[v][0] + (c,), scans[v][1])

    discarded: list = []

    def stage(idx: int, outer: dict, res_cur, vg_cur):
        var = order[idx]
        cond_i = F.land(*staged[idx]) if staged[idx] else F.TRUE
        dec = _decompose(cond_i, var, ctx, res_cur, vg_cur, outer,
                         *scans[var])
        ext_res = res_cur + ((f"xi_{var}", dec.depth),)
        ext_vg = vg_cur + (f"z_{var}",)
        values: list = []
        for cell in dec.cells:
            if cell.kind == "point":
                values.append(MotFun.unit(res_cur, vg_cur))
                continue
            rs = _BallResolver(cell.center, cell.depth, cell.z_name,
                               cell.xi_name, cell.links, ctx)
            wform = AffineForm.make()
            for m, wv, c in weight:
                if wv != var:
                    continue
                wform = wform - rs.ord_of(c).scale(m)
            val = MotFun.from_pfun(
                PFun(ext_vg, ((universe(ext_vg), (PTerm(R.ONE, wform),)),)),
                res_vars=ext_res)
            if idx + 1 < len(order):
                val = val * stage(idx + 1, {**outer, var: rs}, ext_res, ext_vg)
            values.append(val)
        out = integrate_cell_family(dec.with_values(values))
        discarded.extend(out.discarded)
        return out.value

    try:
        value = stage(0, {}, (), base_vg)
    except NotIntegrable:
        if strict:
            raise
        return IntegrationResult(None, False, tuple(discarded))
    return IntegrationResult(value, True, tuple(discarded))


# ---------------------------------------------------------------------------
# change of variables


def change_of_variables_1d(u, c, cond: F.Formula, var: str,
                           ctx: PContext, *, weight=()):
    """Pull a region and weight back along t -> u*t + c.

    Returns (new_cond, new_weight, factor) such that integrating the
    original data equals factor times the integral of the pulled-back
    data; the factor combines the Jacobian L^(-ord u) with the constant
    the weight factors pick up, using the convention that a zero
    argument integrates to zero.
    """
    u = Fraction(u)
    c = Fraction(c)
    if u == 0:
        raise ZeroDerivative("the map t -> u*t + c needs u != 0")
    image = F.BinOp("+", F.BinOp("*", F.RatLit(u), F.Var(var, F.VF)),
                    F.RatLit(c))
    new_cond = F.substitute(cond, {var: image})
    vu = ctx.ord(u)
    new_weight = []
    extra = 0
    for m, wv, ctr in weight:
        if wv == var:
            new_weight.append((m, wv, (Fraction(ctr) - c) / u))
            extra += int(m)
        else:
            new_weight.append((m, wv, Fraction(ctr)))
    factor = R.L_pow(-vu * (1 + extra))
    return new_cond, tuple(new_weight), factor
