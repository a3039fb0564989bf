"""Classes of residue-ring definable sets, with a positive semiring
structure.

A generator is a definable subset of a product of residue rings, written
as (variables, defining formula, power of L).  A class is a formal sum of
generators; addition is concatenation, multiplication renames apart and
conjoins.  Counting specializes a class at a prime power: each generator
contributes (residue field size)^lpow times its number of points.

The normal form applies counting-preserving rewrites:
  eq0  simplification, canonical renaming, dropping empty generators
  eq1  splitting a disjunction whose branches are syntactically disjoint
  eq2  merging two generators that differ by one complemented conjunct
  eq3  eliminating a variable seen only through projections (or not at
       all), trading depth for powers of L
Inside a ``with RewriteLog() as log:`` block every applied rewrite is
recorded in ``log.events``, for external auditing.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from . import formula as F
from .errors import MotintError, SortError
from .padic import PContext, count_points


# ---------------------------------------------------------------------------
# generators and classes

@dataclass(frozen=True)
class ResGen:
    """One generator: a definable subset of prod GR(p^depth_i, d), scaled
    by L^lpow."""

    vars: tuple              # ((name, depth), ...)
    phi: F.Formula
    lpow: int = 0

    def __post_init__(self):
        declared = dict(self.vars)
        if len(declared) != len(self.vars):
            raise MotintError(f"duplicate generator variables in {self.vars}")
        frame = F.frame_of(self.phi)
        if frame.vf or frame.vg:
            raise SortError("generator formulas live on residue sorts only")
        for name, depth in frame.res:
            if name not in declared:
                raise MotintError(f"free variable {name} is not declared")
            if declared[name] != depth:
                raise SortError(
                    f"{name} declared at depth {declared[name]}, used at {depth}")

    def rename(self, mapping: dict) -> "ResGen":
        repl = {old: F.Var(new, F.RES(dict(self.vars)[old]))
                for old, new in mapping.items()}
        new_vars = tuple((mapping.get(n, n), d) for n, d in self.vars)
        return ResGen(new_vars, F.substitute(self.phi, repl), self.lpow)

    def key(self) -> tuple:
        return (self.lpow, tuple(d for _, d in self.vars),
                F.formula_str(self.phi))

    def to_json(self):
        return {"vars": [[n, d] for n, d in self.vars],
                "phi": F.formula_str(self.phi),
                "lpow": self.lpow}

    @staticmethod
    def from_json(data) -> "ResGen":
        vars_ = tuple((n, int(d)) for n, d in data["vars"])
        defaults = {n: F.RES(d) for n, d in vars_}
        return ResGen(vars_, F.parse_formula(data["phi"], defaults),
                      int(data["lpow"]))


@dataclass(frozen=True)
class ResClass:
    """Formal sum of generators."""

    gens: tuple

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))

    def __add__(self, other: "ResClass") -> "ResClass":
        return ResClass(self.gens + other.gens)

    def __mul__(self, other: "ResClass") -> "ResClass":
        out = []
        for a in self.gens:
            for b in other.gens:
                out.append(_tensor(a, b))
        return ResClass(tuple(out))

    def is_zero(self) -> bool:
        return not self.gens

    def to_json(self):
        return {"format": "motint.resclass/1",
                "gens": [g.to_json() for g in self.gens]}

    @staticmethod
    def from_json(data) -> "ResClass":
        return ResClass(tuple(ResGen.from_json(g) for g in data["gens"]))


def zero() -> ResClass:
    return ResClass(())


_ONE = ResClass((ResGen((), F.TRUE, 0),))


def one() -> ResClass:
    """The class of the point, one shared instance (classes are frozen)."""
    return _ONE


def from_formula(names_depths, phi: F.Formula, lpow: int = 0) -> ResClass:
    return ResClass((ResGen(tuple(names_depths), phi, lpow),))


def _tensor(a: ResGen, b: ResGen) -> ResGen:
    taken = {n for n, _ in a.vars}
    mapping = {}
    for n, _ in b.vars:
        new = n
        k = 0
        while new in taken:
            k += 1
            new = f"{n}_{k}"
        taken.add(new)
        if new != n:
            mapping[n] = new
    b2 = b.rename(mapping) if mapping else b
    return ResGen(a.vars + b2.vars, F.land(a.phi, b2.phi), a.lpow + b.lpow)


# ---------------------------------------------------------------------------
# rewrite log

_LOG: ContextVar = ContextVar("rewrite log", default=None)


@dataclass
class RewriteLog:
    """The rewrites applied inside ``with RewriteLog() as log:``, in order,
    as (rule, before class, after class) events.  The open log is held in
    a ``contextvars`` context; an inner block shadows an outer one until
    it exits.  Outside every block nothing is recorded."""
    events: list = field(default_factory=list)

    def __enter__(self) -> RewriteLog:
        self._token = _LOG.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _LOG.reset(self._token)

    @staticmethod
    def replay(events) -> None:
        """Record the events, in order, into the open log, if any."""
        log = _LOG.get()
        if log is not None:
            log.events.extend(events)


def _log(rule: str, before, after) -> None:
    log = _LOG.get()
    if log is not None:
        if isinstance(before, ResGen):
            before = ResClass((before,))
        if isinstance(after, ResGen):
            after = ResClass((after,))
        log.events.append((rule, before, after))


# ---------------------------------------------------------------------------
# eq3: projection depth reduction and unconstrained variables

def _occurrences(phi: F.Formula, name: str) -> list:
    """How the variable occurs: 'bare' or the dst depth of an enclosing
    projection applied directly to it."""
    occs = []

    def visit(t):
        if isinstance(t, F.Var) and t.name == name:
            occs.append("bare")
        elif (isinstance(t, F.Proj) and isinstance(t.arg, F.Var)
              and t.arg.name == name):
            occs.append(t.dst)
            return t                # keeps the walk out of this projection
        return None

    F.map_formula(phi, visit, name)
    return occs


def _lower_projections(phi: F.Formula, name: str, dst: int) -> F.Formula:
    """Rewrite projections of the named variable into terms of a depth-dst
    variable of the same name; every occurrence must sit under one."""
    v = F.Var(name, F.RES(dst))

    def lower(t):
        if (isinstance(t, F.Proj) and isinstance(t.arg, F.Var)
                and t.arg.name == name):
            return v if t.dst == dst else F.Proj(dst, t.dst, v)
        return None

    return F.map_formula(phi, lower, name)


def _eq3_once(gen: ResGen) -> ResGen | None:
    """One depth-reduction step, or None when no rule applies."""
    for name, depth in gen.vars:
        occs = _occurrences(gen.phi, name)
        if not occs:
            after = ResGen(tuple((n, d) for n, d in gen.vars if n != name),
                           gen.phi, gen.lpow + depth)
            _log("eq3", gen, after)
            return after
        if "bare" in occs or depth == 1:
            continue
        top = max(occs)
        if top >= depth:
            continue
        phi2 = _lower_projections(gen.phi, name, top)
        after = ResGen(tuple((n, top if n == name else d) for n, d in gen.vars),
                       phi2, gen.lpow + (depth - top))
        _log("eq3", gen, after)
        return after
    return None


def _pin_once(gen: ResGen) -> ResGen | None:
    """Drop a variable pinned by a single graph conjunct.

    When some conjunct reads v = t with t not mentioning v and v occurring
    nowhere else, the fiber in the v direction is one point, so projecting
    v away is a bijection on points for every residue ring.
    """
    parts = F.conjuncts(gen.phi)
    declared = {n for n, _ in gen.vars}
    for i, part in enumerate(parts):
        if not isinstance(part, F.Eq):
            continue
        for v_side, t_side in ((part.left, part.right),
                               (part.right, part.left)):
            if not isinstance(v_side, F.Var) or v_side.name not in declared:
                continue
            name = v_side.name
            if name in {v.name for v in F.free_vars(t_side)}:
                continue
            rest = parts[:i] + parts[i + 1:]
            if any(name in {v.name for v in F.free_vars(r)} for r in rest):
                continue
            after = ResGen(tuple((n, d) for n, d in gen.vars if n != name),
                           F.land(*rest) if rest else F.TRUE, gen.lpow)
            _log("eq0", gen, after)
            return after
    return None


# ---------------------------------------------------------------------------
# eq0: canonical form of a single generator

def _components(gen: ResGen) -> list:
    """Partition the variables by co-occurrence in conjuncts; conjuncts
    with no variables attach to the first group."""
    names = [n for n, _ in gen.vars]
    parent = {n: n for n in names}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    parts = F.conjuncts(gen.phi)
    part_vars = []
    for p in parts:
        vs = [v.name for v in F.free_vars(p)]
        part_vars.append(vs)
        for a, b in zip(vs, vs[1:]):
            union(a, b)
    groups: dict = {}
    for n in names:
        groups.setdefault(find(n), []).append(n)
    out = []
    for members in groups.values():
        mset = set(members)
        sub = [p for p, vs in zip(parts, part_vars) if vs and set(vs) <= mset]
        out.append((tuple(members), sub))
    ground = [p for p, vs in zip(parts, part_vars) if not vs]
    return out, ground


def _canonical_gen(gen: ResGen) -> ResGen | None:
    """Simplify, split into components, rename each canonically, reassemble
    sorted.  Returns None for a provably empty generator."""
    phi = F.simplify(gen.phi)
    if isinstance(phi, F.FalseF):
        _log("eq0", gen, ResClass(()))
        return None
    base = ResGen(gen.vars, phi, gen.lpow)
    comps, ground = _components(base)
    if any(isinstance(g, F.FalseF) for g in ground):
        _log("eq0", gen, ResClass(()))
        return None
    # closed conjuncts (e.g. quantified solvability conditions) are kept
    # as a variable-free component
    ground = [g for g in ground if not isinstance(g, F.TrueF)]
    canon_comps = []
    if ground:
        gphi = F.simplify(F.land(*ground))
        canon_comps.append((((), F.formula_str(gphi)), (), gphi))
    for members, parts in comps:
        depths = dict(base.vars)
        sub = F.land(*parts) if parts else F.TRUE
        best = None
        for perm in permutations(members):
            mapping = {old: f"r{i + 1}" for i, old in enumerate(perm)}
            repl = {old: F.Var(new, F.RES(depths[old]))
                    for old, new in mapping.items()}
            cand_vars = tuple((mapping[old], depths[old]) for old in perm)
            cand_phi = F.simplify(F.substitute(sub, repl))
            key = (tuple(d for _, d in cand_vars), F.formula_str(cand_phi))
            if best is None or key < best[0]:
                best = (key, cand_vars, cand_phi)
        canon_comps.append(best)
    canon_comps.sort(key=lambda b: b[0])
    new_vars = []
    new_parts = []
    offset = 0
    for key, cvars, cphi in canon_comps:
        mapping = {f"r{i + 1}": f"r{offset + i + 1}" for i in range(len(cvars))}
        depths = dict(cvars)
        repl = {old: F.Var(new, F.RES(depths[old]))
                for old, new in mapping.items()}
        new_vars += [(mapping[n], d) for n, d in cvars]
        shifted = F.substitute(cphi, repl)
        if not isinstance(shifted, F.TrueF):
            new_parts.append(shifted)
        offset += len(cvars)
    after = ResGen(tuple(new_vars), F.land(*new_parts) if new_parts else F.TRUE,
                   gen.lpow)
    if after != gen:
        _log("eq0", gen, after)
    return after


# ---------------------------------------------------------------------------
# eq1: splitting syntactically disjoint disjunctions

def _complementary(a: F.Formula, b: F.Formula) -> bool:
    return F.simplify(F.Not(a)) == b or F.simplify(F.Not(b)) == a


def _eq1_once(gen: ResGen):
    parts = F.conjuncts(gen.phi)
    for i, p in enumerate(parts):
        if not isinstance(p, F.Or):
            continue
        branches = p.parts
        ok = True
        for x in range(len(branches)):
            for y in range(x + 1, len(branches)):
                cx = F.conjuncts(branches[x])
                cy = F.conjuncts(branches[y])
                if not any(_complementary(a, b) for a in cx for b in cy):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        rest = parts[:i] + parts[i + 1:]
        gens = tuple(ResGen(gen.vars, F.land(*(rest + (br,))), gen.lpow)
                     for br in branches)
        _log("eq1", gen, ResClass(gens))
        return gens
    return None


# ---------------------------------------------------------------------------
# eq2: merging complementary pairs

def _merge_pair(a: ResGen, b: ResGen) -> ResGen | None:
    if a.lpow != b.lpow:
        return None
    if a.vars == b.vars:
        pa, pb = set(F.conjuncts(a.phi)), set(F.conjuncts(b.phi))
        if len(pa) != len(pb):
            return None
        da, db = pa - pb, pb - pa
        if len(da) == 1 and len(db) == 1:
            x, y = next(iter(da)), next(iter(db))
            if _complementary(x, y):
                shared = tuple(sorted(pa & pb, key=F.formula_str))
                return ResGen(a.vars, F.land(*shared) if shared else F.TRUE,
                              a.lpow)
        return None
    # unit absorption: one side has a single extra variable whose sole
    # extra conjunct excludes exactly one point of its ring
    for small, big in ((a, b), (b, a)):
        extra = set(big.vars) - set(small.vars)
        if not (set(small.vars) <= set(big.vars) and len(extra) == 1):
            continue
        x, _ = next(iter(extra))
        ps, pg = set(F.conjuncts(small.phi)), set(F.conjuncts(big.phi))
        if not (ps <= pg and len(pg - ps) == 1):
            continue
        c = next(iter(pg - ps))
        if {v.name for v in F.free_vars(c)} != {x}:
            continue
        neg = F.simplify(F.Not(c))
        if not isinstance(neg, F.Eq):
            continue
        for v_side, t_side in ((neg.left, neg.right), (neg.right, neg.left)):
            if (isinstance(v_side, F.Var) and v_side.name == x
                    and x not in {v.name for v in F.free_vars(t_side)}):
                return ResGen(big.vars, small.phi, a.lpow)
    return None


def _eq2_once(gens: list):
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a, b = gens[i], gens[j]
            merged = _merge_pair(a, b)
            if merged is not None:
                _log("eq2", ResClass((a, b)), merged)
                return [g for k, g in enumerate(gens) if k not in (i, j)] + [merged]
    return None


# ---------------------------------------------------------------------------
# the normal form

def normal_form(rc: ResClass) -> ResClass:
    work = list(rc.gens)
    out = []
    while work:
        gen = work.pop()
        g = gen
        changed = True
        while changed and g is not None:
            changed = False
            step = _eq3_once(g)
            if step is not None:
                g = step
                changed = True
                continue
            step = _pin_once(g)
            if step is not None:
                g = step
                changed = True
                continue
            canon = _canonical_gen(g)
            if canon is None:
                g = None
                break
            if canon != g:
                g = canon
                changed = True
                continue
            split = _eq1_once(g)
            if split is not None:
                work.extend(split)
                g = None
                break
        if g is not None:
            out.append(g)
    while True:
        merged = _eq2_once(out)
        if merged is None:
            break
        # merged generators may expose further reductions
        again = normal_form(ResClass((merged[-1],)))
        out = merged[:-1] + list(again.gens)
    out.sort(key=lambda g: g.key())
    return ResClass(tuple(out))


def is_equal(a: ResClass, b: ResClass) -> str:
    """'equal' when normal forms coincide, otherwise 'unknown'."""
    if normal_form(a) == normal_form(b):
        return "equal"
    return "unknown"


# ---------------------------------------------------------------------------
# counting

def count_class(rc: ResClass, ctx: PContext) -> Fraction:
    """Specialize at a prime power: points are counted and powers of L
    become powers of the residue field size."""
    total = Fraction(0)
    q = ctx.q
    for g in rc.gens:
        n = count_points(g.phi, ctx)
        # declared variables the formula never mentions range freely
        free = {v.name for v in F.free_vars(g.phi)}
        slack = sum(depth for name, depth in g.vars if name not in free)
        total += Fraction(q) ** (g.lpow + slack) * n
    return total
