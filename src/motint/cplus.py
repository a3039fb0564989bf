"""Constructible functions: Presburger data tensored with residue classes.

A function here lives over a base with residue parameters and value-group
variables.  It is a finite sum of terms, each one

    indicator(guard on residue parameters) * pf(value-group point) (x) rc

where pf is a Presburger function (a sum of pieces, which may overlap)
with coefficients in the ring of L-rational constants and rc is a formal
residue class.  The tensor is over the scalar subring: a factor of L or
L-1 may sit on either side, and the normal form fixes one side for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import formula as F
from . import ring_a as R
from .cells import intersect, subtract
from .errors import CapExceeded, FrameMismatch, MotintError, SortError
from .padic import GRElem, PContext, eval_formula
from .presburger import PFun, PTerm, sum_fibers
from .qplus import (ResClass, ResGen, RewriteLog, count_class, from_formula,
                    normal_form as class_normal_form, one as unit_class)


@dataclass(frozen=True)
class CTerm:
    guard: F.Formula
    pf: PFun
    rc: ResClass

    def to_json(self):
        return {"guard": F.formula_str(self.guard),
                "pf": self.pf.to_json(),
                "rc": self.rc.to_json()}


@dataclass(frozen=True)
class MotFun:
    """Sum of guarded tensor terms over a fixed frame."""

    res_vars: tuple            # ((name, depth), ...) residue parameters
    vg_vars: tuple             # value-group variable names, ordered
    terms: tuple               # CTerm entries

    def __post_init__(self):
        object.__setattr__(self, "res_vars", tuple(self.res_vars))
        object.__setattr__(self, "vg_vars", tuple(self.vg_vars))
        depths = dict(self.res_vars)
        kept = []
        for t in self.terms:
            if t.pf.vars != self.vg_vars:
                raise FrameMismatch(
                    f"term over {t.pf.vars} in a function over {self.vg_vars}")
            for v in F.free_vars(t.guard):
                if v.var_sort.kind != "res":
                    raise FrameMismatch(
                        f"guard variable {v.name} is not residue-sorted")
                if depths.get(v.name) != v.var_sort.depth:
                    raise FrameMismatch(
                        f"guard variable {v.name}:{v.var_sort.depth} is not "
                        f"a declared parameter")
            if not t.pf.is_zero_fun() and not t.rc.is_zero():
                kept.append(t)
        object.__setattr__(self, "terms", tuple(kept))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(res_vars=(), vg_vars=()) -> "MotFun":
        return MotFun(tuple(res_vars), tuple(vg_vars), ())

    @staticmethod
    def unit(res_vars=(), vg_vars=()) -> "MotFun":
        """The constant 1; one shared instance per frame (see ``_unit``)."""
        return _unit(tuple(res_vars), tuple(vg_vars))

    @staticmethod
    def from_pfun(pf: PFun, res_vars=()) -> "MotFun":
        return MotFun(tuple(res_vars), pf.vars,
                      (CTerm(F.TRUE, pf, unit_class()),))

    # -- semiring -----------------------------------------------------

    def _check(self, other: "MotFun") -> None:
        if self.res_vars != other.res_vars or self.vg_vars != other.vg_vars:
            raise FrameMismatch(
                f"({self.res_vars},{self.vg_vars}) vs "
                f"({other.res_vars},{other.vg_vars})")

    def __add__(self, other: "MotFun") -> "MotFun":
        self._check(other)
        return MotFun(self.res_vars, self.vg_vars, self.terms + other.terms)

    def __mul__(self, other: "MotFun") -> "MotFun":
        self._check(other)
        out = []
        for a in self.terms:
            for b in other.terms:
                g = F.simplify(F.land(a.guard, b.guard))
                if isinstance(g, F.FalseF):
                    continue
                out.append(CTerm(g, a.pf * b.pf, a.rc * b.rc))
        return MotFun(self.res_vars, self.vg_vars, tuple(out))

    def scale(self, c: R.ARat) -> "MotFun":
        return MotFun(self.res_vars, self.vg_vars,
                      tuple(CTerm(t.guard, t.pf.scale(c), t.rc)
                            for t in self.terms))

    def to_json(self):
        return {"format": "motint.motfun/1",
                "res_vars": [[n, d] for n, d in self.res_vars],
                "vg_vars": list(self.vg_vars),
                "terms": [t.to_json() for t in self.terms]}

    @staticmethod
    def from_json(data) -> "MotFun":
        res_vars = tuple((n, int(d)) for n, d in data["res_vars"])
        vg_vars = tuple(data["vg_vars"])
        defaults = {n: F.RES(d) for n, d in res_vars}
        terms = tuple(
            CTerm(F.parse_formula(t["guard"], defaults),
                  PFun.from_json(t["pf"]),
                  ResClass.from_json(t["rc"]))
            for t in data["terms"])
        return MotFun(res_vars, vg_vars, terms)


@lru_cache(maxsize=256)
def _unit(res_vars: tuple, vg_vars: tuple) -> MotFun:
    """``MotFun.unit`` per frame, at most 256 frames, least recently used
    first out; ``_unit.cache_clear()`` empties it.  Sharing is safe
    because a ``MotFun`` is frozen."""
    return MotFun.from_pfun(PFun.constant(vg_vars, R.ONE), res_vars)


# ---------------------------------------------------------------------------
# normal form

def _torus_factor(conjunct: F.Formula, name: str) -> bool:
    """Does the conjunct say exactly 'the depth-1 variable is a unit'?"""
    if not isinstance(conjunct, F.Not) or not isinstance(conjunct.body, F.Eq):
        return False
    eq = conjunct.body
    return any(isinstance(z_side, F.IntLit) and z_side.value == 0
               and isinstance(v_side, F.Var) and v_side.name == name
               for v_side, z_side in ((eq.left, eq.right),
                                      (eq.right, eq.left)))


def _extract_gen(gen: ResGen):
    """Move scalar content of one generator into a coefficient: its L-power,
    ground conjuncts, and full torus factors.  Returns (coef, ground parts,
    reduced generator or None).

    The generator is in qplus normal form, so every variable is mentioned
    and a variable read only through proj_{d,1} has depth 1 already; a
    torus conjunct mentions only its own variable, so removing it leaves
    the other variables' conjuncts alone and one pass suffices."""
    coef = R.L_pow(gen.lpow)
    parts = list(F.conjuncts(gen.phi))
    ground = [p for p in parts if not F.free_vars(p)]
    parts = [p for p in parts if F.free_vars(p)]
    vars_ = []
    for name, depth in gen.vars:
        touching = [p for p in parts
                    if name in {v.name for v in F.free_vars(p)}]
        if (depth == 1 and len(touching) == 1
                and _torus_factor(touching[0], name)):
            coef = coef * (R.L - R.ONE)
            parts.remove(touching[0])
        else:
            vars_.append((name, depth))
    if not vars_ and not parts:
        return coef, ground, None
    return coef, ground, ResGen(tuple(vars_), F.land(*parts) if parts
                                else F.TRUE, 0)


def _disjoint_pieces(pf: PFun) -> PFun:
    """The same function on pairwise disjoint pieces, folding the pieces
    in one at a time: a new piece splits into its overlaps with the pieces
    so far (both term lists) and each side's part off the other.

    When the overlap is empty, the old piece and the new piece's remainder
    are kept as they are, without the two subtractions: removing a
    disjoint cell leaves a point set as it was.  ``subtract`` may still
    cut a cell along a disjoint cell's constraints (into odd and even
    parts, say), which this skips; on the closed-form workload and the
    golden corpus no disjoint pair was cut, so their outputs are
    unchanged.  Empty pieces can multiply here, so the pieces held are
    checked against the pieces cap."""
    done = []
    for cell, terms in pf.pieces:
        rest, nxt = [cell], []
        for old, old_terms in done:
            common = intersect(old, cell)
            if not common:
                nxt.append((old, old_terms))
                continue
            nxt += [(c, old_terms + terms) for c in common]
            nxt += [(c, old_terms) for c in subtract(old, cell)]
            rest = [c for r in rest for c in subtract(r, old)]
            CapExceeded.check("pieces", len(nxt) + len(rest),
                              "making the pieces of a function disjoint")
        done = nxt + [(c, terms) for c in rest]
    return PFun(pf.vars, tuple(done))


def _canon_pfun(pf: PFun) -> PFun:
    """Canonical presentation: disjoint pieces (made only here), terms
    merged within each piece, pieces sorted."""
    pieces = []
    for cell, terms in _disjoint_pieces(pf).pieces:
        merged: dict = {}
        for t in terms:
            # constant factors and constant L-powers belong in the
            # coefficient, so that terms equal up to scalars share a key
            if any(not f.ints and f.den == 1 for f in t.factors):
                coef, keep = t.coef, []
                for f in t.factors:
                    if not f.ints and f.den == 1:
                        coef = coef * R.from_int(f.cnum)
                    else:
                        keep.append(f)
                t = PTerm(coef, t.lpow, tuple(keep))
            e, r = divmod(t.lpow.cnum, t.lpow.den)
            if e != 0 and r == 0:
                t = PTerm(t.coef * R.L_pow(e), t.lpow.shift(-e), t.factors)
            key = (t.lpow, tuple(sorted(t.factors, key=str)))
            if key in merged:
                merged[key] = PTerm(merged[key].coef + t.coef, t.lpow,
                                    key[1])
            else:
                merged[key] = PTerm(t.coef, t.lpow, key[1])
        out = tuple(sorted((t for t in merged.values() if not t.is_zero()),
                           key=lambda t: (str(t.lpow), str(t.coef),
                                          tuple(map(str, t.factors)))))
        if out:
            pieces.append((cell, out))
    pieces.sort(key=lambda p: str(p[0]))
    return PFun(pf.vars, tuple(pieces))


@lru_cache(maxsize=1024)
def _scalar_split(rc: ResClass) -> tuple:
    """Split a class into (coefficient, ground conjuncts, reduced generator)
    items with all scalar content extracted, iterating until stable.

    Returns the tuple of items and the tuple of rewrite events the class
    normal form recorded on the way, in a ``RewriteLog`` of its own.  Memoized on the class itself (equal
    classes share an entry), at most 1,024 entries, least recently used
    first out; ``_scalar_split.cache_clear()`` empties it."""
    with RewriteLog() as log:
        work = [(R.ONE, (), g) for g in class_normal_form(rc).gens]
        out = []
        while work:
            coef0, ground0, gen = work.pop()
            coef, ground, reduced = _extract_gen(gen)
            coef = coef0 * coef
            ground = ground0 + tuple(ground)
            if reduced is None:
                out.append((coef, ground, None))
                continue
            renorm = class_normal_form(ResClass((reduced,)))
            if renorm.gens == (reduced,):
                out.append((coef, ground, reduced))
            else:
                work.extend((coef, ground, g) for g in renorm.gens)
    return tuple(out), tuple(log.events)


def normal_form(a: MotFun) -> MotFun:
    """Canonical presentation: residue classes normalized with scalar
    content (L-powers, torus factors, closed conjuncts) moved to the
    Presburger side, terms grouped by guard and class, pieces made
    disjoint (nowhere else are they) and sorted.

    The class side is memoized: each term's class is split by
    ``_scalar_split``, an LRU cache keyed on the ``ResClass`` with room
    for 1,024 classes, and the rewrite events recorded on its first split
    are replayed into the open ``RewriteLog`` on every call, so a log
    sees the same events with a cold or a warm cache.  ``_scalar_split.cache_clear()``
    empties it.

    The normal form is idempotent: ``normal_form(normal_form(a))`` equals
    ``normal_form(a)`` (pinned by ``tests/test_cplus.py``).
    ``vfint.integrate_cell_family`` relies on it: it returns the normal
    form of a lone ball cell's contribution without normalizing it again.
    ``is_equal`` needs less, only that equal inputs have equal normal
    forms, to answer them without normalizing."""
    buckets: dict = {}
    for t in a.terms:
        items, events = _scalar_split(t.rc)
        RewriteLog.replay(events)
        for coef, ground, reduced in items:
            guard = F.simplify(F.land(t.guard, *ground))
            if isinstance(guard, F.FalseF):
                continue
            rc2 = unit_class() if reduced is None else ResClass((reduced,))
            pf2 = t.pf.scale(coef)
            key = (F.formula_str(guard),
                   tuple(g.key() for g in rc2.gens))
            if key in buckets:
                prev_guard, prev_pf, prev_rc = buckets[key]
                buckets[key] = (prev_guard, prev_pf + pf2, prev_rc)
            else:
                buckets[key] = (guard, pf2, rc2)
    terms = []
    for key in sorted(buckets):
        guard, pf, rc = buckets[key]
        pf = _canon_pfun(pf)
        if not pf.is_zero_fun():
            terms.append(CTerm(guard, pf, rc))
    return MotFun(a.res_vars, a.vg_vars, tuple(terms))


def is_equal(a: MotFun, b: MotFun) -> str:
    """'equal' when normal forms coincide, otherwise 'unknown'.  Equal
    inputs have equal normal forms, so they are answered without
    normalizing either one."""
    if a == b or normal_form(a) == normal_form(b):
        return "equal"
    return "unknown"


# ---------------------------------------------------------------------------
# specialization

def specialize(a: MotFun, ctx: PContext, env: dict | None = None) -> Fraction:
    """Evaluate at a prime-power context and a point of the base.

    A residue parameter takes a ``GRElem`` or an int, a value-group
    variable an int; anything else (a bool, a float, a str) raises
    ``SortError``."""
    env = env or {}
    res_env = {}
    for name, depth in a.res_vars:
        if name not in env:
            raise MotintError(f"no value for residue parameter {name}")
        val = env[name]
        if type(val) is int:
            val = ctx.residue_ring(depth).from_int(val)
        elif not isinstance(val, GRElem):
            raise SortError(f"{name} is {val!r}, expected an element of "
                            f"{ctx.residue_ring(depth)} (a GRElem or an int)")
        res_env[name] = val
    vg_env = {}
    for name in a.vg_vars:
        if name not in env:
            raise MotintError(f"no value for value-group variable {name}")
        val = env[name]
        if type(val) is not int:
            raise SortError(f"{name} is {val!r}, expected a value-group "
                            f"element (an int)")
        vg_env[name] = val
    total = Fraction(0)
    for t in a.terms:
        if not eval_formula(t.guard, res_env, ctx):
            continue
        val = t.pf.eval_theta(ctx.q, vg_env)
        if val:
            total += val * count_class(t.rc, ctx)
    return total


# ---------------------------------------------------------------------------
# integration over value-group and residue fibers

def _split_guard(guard: F.Formula, out_names: set):
    kept, moved = [], []
    for c in F.conjuncts(guard):
        names = {v.name for v in F.free_vars(c)}
        if names & out_names:
            if names <= out_names:
                moved.append(c)
            else:
                raise MotintError(
                    "a guard conjunct links integrated residue variables "
                    f"to kept parameters: {F.formula_str(c)}")
        else:
            kept.append(c)
    return F.land(*kept), F.land(*moved)


def mu_vg_res(a: MotFun, vg_out, res_out) -> MotFun:
    """Sum over the named value-group variables (an innermost block) and
    the named residue parameters.  Value-group sums go through the exact
    Presburger engine and raise NotIntegrable on divergence; residue
    parameters move into the class side as fresh fiber variables."""
    vg_out, res_out = tuple(vg_out), tuple(res_out)
    if vg_out and tuple(a.vg_vars[-len(vg_out):]) != vg_out:
        raise FrameMismatch(
            f"{vg_out} is not an innermost block of {a.vg_vars}")
    depths = dict(a.res_vars)
    unknown = [n for n in res_out if n not in depths]
    if unknown:
        raise FrameMismatch(f"not residue parameters: {unknown}")
    out_set = set(res_out)
    kept_res = tuple(rv for rv in a.res_vars if rv[0] not in out_set)
    kept_vg = a.vg_vars[:len(a.vg_vars) - len(vg_out)]
    out_vars = tuple((n, depths[n]) for n in res_out)
    terms = []
    for t in a.terms:
        pf = t.pf
        for _ in vg_out:
            pf = sum_fibers(pf)
        guard, moved = _split_guard(t.guard, out_set)
        rc = t.rc
        if out_vars:
            rc = rc * from_formula(out_vars, moved)
        terms.append(CTerm(guard, pf, rc))
    out = MotFun(kept_res, kept_vg, tuple(terms))
    return normal_form(out)
