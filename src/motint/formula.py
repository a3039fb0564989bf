"""Three-sorted terms and formulas.

Sorts: the valued field (vf), one residue ring per depth n >= 1 (res(n),
the quotient by the n-th power of the maximal ideal), and the value group
together with Z-valued parameters (vg).

Terms: ring operations in vf and res(n); affine operations in vg; the
uniformizer pi; order ord(.): vf -> vg; angular component ac_n(.): vf ->
res(n); digit projections proj_n_m: res(n) -> res(m) for m <= n.

Formulas: equality at any sort, <= and congruence on vg, boolean
connectives, and quantifiers over res and vg sorts only.  Quantifying over
the valued field is rejected.

The concrete grammar is defined by the recursive-descent parser _Parser
below (entry points parse_formula and parse_term).  The printer emits a
canonical form on which print . parse is the identity.

Traversal: the tables behind _children and _rebuild are the only code
that reads the fields of a node in order to visit it.  walk_term,
iter_terms and map_term visit every node and ignore binders.  free_vars,
map_formula and substitute respect binders: free_vars skips variables
bound above them, map_formula leaves a quantifier that binds the named
variable as it is, and substitute renames a bound variable that would
capture.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import is_
from typing import Iterator, Mapping, Optional

from .errors import ParseError, SortError


# ---------------------------------------------------------------------------
# sorts

@dataclass(frozen=True)
class Sort:
    kind: str              # "vf" | "res" | "vg"
    depth: int = 0         # residue depth, 0 otherwise

    def __str__(self) -> str:
        if self.kind == "res":
            return f"res({self.depth})"
        return self.kind


VF = Sort("vf")
VG = Sort("vg")


def RES(n: int) -> Sort:
    if n < 1:
        raise SortError(f"residue depth must be >= 1, got {n}")
    return Sort("res", n)


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class Term:
    def sort(self) -> Sort:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Term):
    name: str
    var_sort: Sort

    def sort(self) -> Sort:
        return self.var_sort


@dataclass(frozen=True)
class IntLit(Term):
    value: int
    lit_sort: Sort

    def sort(self) -> Sort:
        return self.lit_sort


@dataclass(frozen=True)
class RatLit(Term):
    """Exact rational constant in the valued field."""
    value: Fraction

    def sort(self) -> Sort:
        return VF


@dataclass(frozen=True)
class Pi(Term):
    """The uniformizer."""

    def sort(self) -> Sort:
        return VF


@dataclass(frozen=True)
class BinOp(Term):
    op: str                # "+" | "-" | "*"
    left: Term
    right: Term

    def sort(self) -> Sort:
        return self.left.sort()


@dataclass(frozen=True)
class Neg(Term):
    arg: Term

    def sort(self) -> Sort:
        return self.arg.sort()


@dataclass(frozen=True)
class Pow(Term):
    base: Term
    exp: int               # exp >= 1

    def sort(self) -> Sort:
        return self.base.sort()


@dataclass(frozen=True)
class Ord(Term):
    arg: Term              # vf

    def sort(self) -> Sort:
        return VG


@dataclass(frozen=True)
class Ac(Term):
    depth: int
    arg: Term              # vf

    def sort(self) -> Sort:
        return RES(self.depth)


@dataclass(frozen=True)
class Proj(Term):
    src: int
    dst: int               # dst <= src
    arg: Term              # res(src)

    def sort(self) -> Sort:
        return RES(self.dst)


# ---------------------------------------------------------------------------
# formulas

@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Le(Formula):
    """left <= right on the value group."""
    left: Term
    right: Term


@dataclass(frozen=True)
class Cong(Formula):
    """left = right mod modulus, on the value group."""
    left: Term
    right: Term
    modulus: int


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Quant(Formula):
    q: str                 # "exists" | "forall"
    var: Var               # res or vg sort
    lo: Optional[Term]     # vg bounds, optional
    hi: Optional[Term]
    body: Formula

    def __post_init__(self):
        if self.var.var_sort == VF:
            raise SortError("quantification over the valued field is not supported")
        if self.var.var_sort.kind == "res" and (self.lo is not None or self.hi is not None):
            raise SortError("bounds are only meaningful for value-group quantifiers")


def land(*parts: Formula) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.parts)
        elif isinstance(p, TrueF):
            continue
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def lor(*parts: Formula) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, Or):
            flat.extend(p.parts)
        elif isinstance(p, FalseF):
            continue
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def conjuncts(phi: Formula) -> tuple:
    """The parts of a conjunction; () for true, (phi,) for anything else."""
    if isinstance(phi, And):
        return phi.parts
    if isinstance(phi, TrueF):
        return ()
    return (phi,)


# ---------------------------------------------------------------------------
# frames and traversal

@dataclass(frozen=True)
class Frame:
    """Free variables by sort, in first-appearance order."""
    vf: tuple
    res: tuple             # pairs (name, depth)
    vg: tuple

    @property
    def shape(self) -> tuple:
        return (len(self.vf), tuple(d for _, d in self.res), len(self.vg))


# Per node type: its direct subterms and subformulas in field order (a
# quantifier has (lo, hi, body), with None for a missing bound), and the
# node rebuilt from new ones.  Leaves have no entry.
_CHILDREN = {
    **dict.fromkeys((BinOp, Eq, Le, Cong), lambda x: (x.left, x.right)),
    **dict.fromkeys((Neg, Ord, Ac, Proj), lambda x: (x.arg,)),
    Pow: lambda x: (x.base,),
    Not: lambda x: (x.body,),
    **dict.fromkeys((And, Or), lambda x: x.parts),
    Quant: lambda x: (x.lo, x.hi, x.body),
}
_REBUILD = {
    **dict.fromkeys((Neg, Ord, Eq, Le, Not), lambda x, k: type(x)(*k)),
    **dict.fromkeys((And, Or), lambda x, k: type(x)(tuple(k))),
    BinOp: lambda x, k: BinOp(x.op, *k),
    Pow: lambda x, k: Pow(k[0], x.exp),
    Ac: lambda x, k: Ac(x.depth, k[0]),
    Proj: lambda x, k: Proj(x.src, x.dst, k[0]),
    Cong: lambda x, k: Cong(k[0], k[1], x.modulus),
    Quant: lambda x, k: Quant(x.q, x.var, *k),
}


def _children(x) -> tuple:
    get = _CHILDREN.get(type(x))
    return () if get is None else get(x)


def _rebuild(x, kids):
    return _REBUILD[type(x)](x, kids)


def walk_term(t: Term) -> Iterator[Term]:
    """Depth-first, left-to-right over a term and all its subterms."""
    yield t
    for c in _children(t):
        yield from walk_term(c)


def iter_terms(f: Formula) -> Iterator[Term]:
    """Depth-first, left-to-right over all terms and subterms of a
    formula, bound variables included."""
    for c in _children(f):
        if isinstance(c, Term):
            yield from walk_term(c)
        elif c is not None:
            yield from iter_terms(c)


def free_vars(x) -> list:
    """Free variables of a term or formula in first-appearance order, as
    Var (name and sort)."""
    out: list[Var] = []
    seen: set[tuple] = set()

    def walk(y, bnd: frozenset):
        if isinstance(y, Var):
            key = (y.name, y.var_sort)
            if y.name not in bnd and key not in seen:
                seen.add(key)
                out.append(y)
        elif isinstance(y, Quant):
            for b in (y.lo, y.hi):
                if b is not None:
                    walk(b, bnd)
            walk(y.body, bnd | {y.var.name})
        else:
            for c in _children(y):
                walk(c, bnd)

    walk(x, frozenset())
    return out


def map_term(t: Term, fn) -> Term:
    """Top-down rewrite: fn(u) returns a replacement for u, or None to
    rebuild u from its rewritten children.  Unchanged nodes are returned
    as they are."""
    u = fn(t)
    if u is not None:
        return u
    kids = _children(t)
    if not kids:
        return t
    new = [map_term(c, fn) for c in kids]
    return t if all(map(is_, new, kids)) else _rebuild(t, new)


def map_formula(f: Formula, fn, name: str | None = None) -> Formula:
    """Apply map_term(., fn) to every term of f (or to f, if a term),
    quantifier bounds included.  A quantifier that binds `name` is left
    as it is."""
    if isinstance(f, Term):
        return map_term(f, fn)
    if isinstance(f, Quant) and f.var.name == name:
        return f
    kids = _children(f)
    if not kids:
        return f
    new = [c if c is None else map_formula(c, fn, name) for c in kids]
    return f if all(map(is_, new, kids)) else _rebuild(f, new)


def frame_of(f: Formula) -> Frame:
    vf, res, vg = [], [], []
    for v in free_vars(f):
        if v.var_sort == VF:
            vf.append(v.name)
        elif v.var_sort.kind == "res":
            res.append((v.name, v.var_sort.depth))
        else:
            vg.append(v.name)
    return Frame(tuple(vf), tuple(res), tuple(vg))


def check_sorts(f: Formula) -> None:
    """Validate local sort rules of a built formula."""

    def t_sort(t: Term) -> Sort:
        if isinstance(t, (Var, IntLit)):
            return t.sort()
        if isinstance(t, RatLit):
            return VF
        if isinstance(t, Pi):
            return VF
        if isinstance(t, Neg):
            s = t_sort(t.arg)
            return s
        if isinstance(t, Pow):
            s = t_sort(t.base)
            if s == VG:
                raise SortError("powers are not value-group terms")
            if t.exp < 1:
                raise SortError("power exponent must be >= 1")
            return s
        if isinstance(t, BinOp):
            ls, rs = t_sort(t.left), t_sort(t.right)
            if ls != rs:
                raise SortError(f"operands of {t.op} have sorts {ls} and {rs}")
            if t.op == "*" and ls == VG:
                if not isinstance(t.left, IntLit) and not isinstance(t.right, IntLit):
                    raise SortError("value-group product needs an integer literal factor")
            return ls
        if isinstance(t, Ord):
            if t_sort(t.arg) != VF:
                raise SortError("ord applies to valued-field terms")
            return VG
        if isinstance(t, Ac):
            if t_sort(t.arg) != VF:
                raise SortError("ac applies to valued-field terms")
            return RES(t.depth)
        if isinstance(t, Proj):
            if t_sort(t.arg) != RES(t.src):
                raise SortError(f"proj_{t.src}_{t.dst} applied to {t_sort(t.arg)}")
            if not (1 <= t.dst <= t.src):
                raise SortError(f"bad projection proj_{t.src}_{t.dst}")
            return RES(t.dst)
        raise SortError(f"unknown term {t!r}")

    def walk(g: Formula):
        if isinstance(g, (TrueF, FalseF)):
            return
        if isinstance(g, Eq):
            if t_sort(g.left) != t_sort(g.right):
                raise SortError(f"equality across sorts {t_sort(g.left)} and {t_sort(g.right)}")
        elif isinstance(g, (Le, Cong)):
            if t_sort(g.left) != VG or t_sort(g.right) != VG:
                raise SortError("order and congruence atoms live on the value group")
            if isinstance(g, Cong) and g.modulus < 1:
                raise SortError("congruence modulus must be >= 1")
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, Quant):
            for b in (g.lo, g.hi):
                if b is not None and t_sort(b) != VG:
                    raise SortError("quantifier bounds live on the value group")
            walk(g.body)
        else:
            raise SortError(f"unknown formula {g!r}")

    walk(f)


# ---------------------------------------------------------------------------
# substitution

def _fresh(name: str, taken: set) -> str:
    base = name.rstrip("0123456789")
    k = 1
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def substitute(f: Formula, repl: Mapping[str, Term]) -> Formula:
    """Capture-avoiding substitution of free variables by terms, in a
    formula or a term."""
    if not repl:
        return f
    if isinstance(f, Quant):
        inner = {k: v for k, v in repl.items() if k != f.var.name}
        clash = {u.name for t in inner.values() for u in walk_term(t)
                 if isinstance(u, Var)}
        var = f.var
        body = f.body
        if var.name in clash:
            taken = clash | {v.name for v in free_vars(body)} | set(inner)
            var = Var(_fresh(var.name, taken), var.var_sort)
            body = substitute(body, {f.var.name: var})
        lo, hi = (b if b is None else substitute(b, inner) for b in (f.lo, f.hi))
        return Quant(f.q, var, lo, hi, substitute(body, inner))
    if isinstance(f, (Not, And, Or)):
        return _rebuild(f, [substitute(g, repl) for g in _children(f)])
    return map_formula(f, lambda u: repl.get(u.name) if isinstance(u, Var) else None)


# ---------------------------------------------------------------------------
# printer

_TERM_ATOM = 3
_TERM_MUL = 2
_TERM_ADD = 1


def term_str(t: Term, prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IntLit):
        s = str(t.value)
        return s if t.value >= 0 or prec < _TERM_MUL else f"({s})"
    if isinstance(t, RatLit):
        v = t.value
        if v.denominator == 1:
            s = str(v.numerator)
        else:
            s = f"{v.numerator}/{v.denominator}"
        return s if v >= 0 or prec < _TERM_MUL else f"({s})"
    if isinstance(t, Pi):
        return "pi"
    if isinstance(t, Ord):
        return f"ord({term_str(t.arg)})"
    if isinstance(t, Ac):
        return f"ac_{t.depth}({term_str(t.arg)})"
    if isinstance(t, Proj):
        return f"proj_{t.src}_{t.dst}({term_str(t.arg)})"
    if isinstance(t, Neg):
        s = f"-{term_str(t.arg, _TERM_ATOM)}"
        return s if prec < _TERM_MUL else f"({s})"
    if isinstance(t, Pow):
        s = f"{term_str(t.base, _TERM_ATOM)}^{t.exp}"
        return s
    if isinstance(t, BinOp):
        if t.op == "*":
            s = f"{term_str(t.left, _TERM_MUL)}*{term_str(t.right, _TERM_MUL + 1)}"
            return s if prec <= _TERM_MUL else f"({s})"
        s = f"{term_str(t.left, _TERM_ADD)} {t.op} {term_str(t.right, _TERM_ADD + 1)}"
        return s if prec <= _TERM_ADD else f"({s})"
    raise SortError(f"unknown term {t!r}")


_F_OR = 1
_F_AND = 2
_F_NOT = 3


def formula_str(f: Formula, prec: int = 0) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Eq):
        return f"{term_str(f.left)} = {term_str(f.right)}"
    if isinstance(f, Le):
        return f"{term_str(f.left)} <= {term_str(f.right)}"
    if isinstance(f, Cong):
        return f"{term_str(f.left)} = {term_str(f.right)} mod {f.modulus}"
    if isinstance(f, Not):
        if isinstance(f.body, Eq):
            return f"{term_str(f.body.left)} != {term_str(f.body.right)}"
        if isinstance(f.body, Cong):
            b = f.body
            return f"{term_str(b.left)} != {term_str(b.right)} mod {b.modulus}"
        return f"!({formula_str(f.body, 0)})"
    if isinstance(f, And):
        s = " && ".join(formula_str(p, _F_AND + 1) for p in f.parts)
        return s if prec <= _F_AND else f"({s})"
    if isinstance(f, Or):
        s = " || ".join(formula_str(p, _F_OR + 1) for p in f.parts)
        return s if prec <= _F_OR else f"({s})"
    if isinstance(f, Quant):
        rng = ""
        if f.lo is not None or f.hi is not None:
            lo = term_str(f.lo) if f.lo is not None else "-inf"
            hi = term_str(f.hi) if f.hi is not None else "+inf"
            rng = f" in [{lo}, {hi}]"
        s = f"{f.q} {f.var.name} : {f.var.var_sort}{rng} . {formula_str(f.body, 0)}"
        return s if prec == 0 else f"({s})"
    raise SortError(f"unknown formula {f!r}")


# ---------------------------------------------------------------------------
# simplification (boolean layer only; terms are left alone)

def _key(f: Formula) -> str:
    return formula_str(f)


def simplify(f: Formula) -> Formula:
    if isinstance(f, Not):
        b = simplify(f.body)
        if isinstance(b, TrueF):
            return FALSE
        if isinstance(b, FalseF):
            return TRUE
        if isinstance(b, Not):
            return b.body
        return Not(b)
    if isinstance(f, (And, Or)):
        is_and = isinstance(f, And)
        parts: list[Formula] = []
        for p in f.parts:
            p = simplify(p)
            if isinstance(p, And) and is_and:
                parts.extend(p.parts)
            elif isinstance(p, Or) and not is_and:
                parts.extend(p.parts)
            else:
                parts.append(p)
        absorb = FalseF if is_and else TrueF
        unit = TrueF if is_and else FalseF
        if any(isinstance(p, absorb) for p in parts):
            return FALSE if is_and else TRUE
        parts = [p for p in parts if not isinstance(p, unit)]
        seen: dict[str, Formula] = {}
        for p in parts:
            seen.setdefault(_key(p), p)
        parts = sorted(seen.values(), key=_key)
        keys = set(seen)
        for p in parts:
            comp = p.body if isinstance(p, Not) else Not(p)
            if _key(comp) in keys:
                return FALSE if is_and else TRUE
        if not parts:
            return TRUE if is_and else FALSE
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts)) if is_and else Or(tuple(parts))
    if isinstance(f, Eq) and f.left == f.right:
        return TRUE
    if isinstance(f, Eq) and isinstance(f.left, IntLit) and isinstance(f.right, IntLit):
        diff = abs(f.left.value - f.right.value)
        if diff == 0:
            return TRUE
        # a residue literal stands for its class mod p^depth: the atom is
        # false at every p only when no p^depth >= 2^depth divides diff
        sort = f.left.lit_sort
        return FALSE if sort.kind != "res" or diff < 2 ** sort.depth else f
    if isinstance(f, Le) and isinstance(f.left, IntLit) and isinstance(f.right, IntLit):
        return TRUE if f.left.value <= f.right.value else FALSE
    if isinstance(f, Cong):
        if f.modulus == 1:
            return TRUE
        if isinstance(f.left, IntLit) and isinstance(f.right, IntLit):
            return TRUE if (f.left.value - f.right.value) % f.modulus == 0 else FALSE
    if isinstance(f, Quant):
        b = simplify(f.body)
        if isinstance(b, (TrueF, FalseF)) and f.lo is None and f.hi is None:
            # res sorts are nonempty; unbounded vg is nonempty
            return b
        return Quant(f.q, f.var, f.lo, f.hi, b)
    return f


# ---------------------------------------------------------------------------
# parser

_TOKENS = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>&&|\|\||!=|<=|>=|\*\*|[-+*^=<>!().,:\[\]/]))"
)

_KEYWORDS = {"exists", "forall", "true", "false", "mod", "in", "inf", "vf", "vg", "res", "ord", "pi"}
_AC = re.compile(r"^ac_(\d+)$")
_PROJ = re.compile(r"^proj_(\d+)_(\d+)$")


class _Lexer:
    def __init__(self, text: str):
        self.toks: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKENS.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip() == "":
                    break
                raise ParseError(f"bad input at {text[pos:pos + 20]!r}")
            self.toks.append(m.group("num") or m.group("name") or m.group("op"))
            pos = m.end()
        self.toks.append("$")
        self.i = 0

    def peek(self, k: int = 0) -> str:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else "$"

    def take(self, expect: str | None = None) -> str:
        t = self.peek()
        if expect is not None and t != expect:
            raise ParseError(f"expected {expect!r}, found {t!r}")
        self.i += 1
        return t


class _Cell:
    """Union-find node carrying an optional sort."""

    __slots__ = ("parent", "value")

    def __init__(self):
        self.parent: Optional[_Cell] = None
        self.value: Optional[Sort] = None

    def find(self) -> "_Cell":
        c = self
        while c.parent is not None:
            c = c.parent
        if self is not c:
            self.parent = c
        return c


def _unify(a: _Cell, b: _Cell) -> None:
    ra, rb = a.find(), b.find()
    if ra is rb:
        return
    if ra.value is not None and rb.value is not None:
        if ra.value != rb.value:
            raise SortError(f"sort clash: {ra.value} vs {rb.value}")
    ra.parent = rb
    if rb.value is None:
        rb.value = ra.value


def _set(a: _Cell, s: Sort) -> None:
    r = a.find()
    if r.value is None:
        r.value = s
    elif r.value != s:
        raise SortError(f"sort clash: {r.value} vs {s}")


class _Node:
    """Mutable pre-term produced by the parser, resolved after inference."""

    __slots__ = ("kind", "args", "cell")

    def __init__(self, kind: str, *args):
        self.kind = kind
        self.args = list(args)
        self.cell = _Cell()


class _Parser:
    def __init__(self, text: str, defaults: Mapping[str, Sort] | None, default_sort: Sort | None):
        self.lx = _Lexer(text)
        self.defaults = dict(defaults or {})
        self.default_sort = default_sort
        self.env: list[dict[str, _Cell]] = [{}]
        self.free: dict[str, _Cell] = {}
        self.nodes: list[_Node] = []

    # -- variables ---------------------------------------------------------
    def var_cell(self, name: str) -> _Cell:
        for scope in reversed(self.env):
            if name in scope:
                return scope[name]
        if name not in self.free:
            self.free[name] = _Cell()
        return self.free[name]

    def node(self, kind: str, *args) -> _Node:
        n = _Node(kind, *args)
        self.nodes.append(n)
        return n

    # -- terms ---------------------------------------------------------------
    def primary(self) -> _Node:
        t = self.lx.peek()
        if t == "(":
            self.lx.take()
            n = self.term()
            self.lx.take(")")
            return n
        if t == "-":
            self.lx.take()
            n = self.node("neg", self.primary_pow())
            _unify(n.cell, n.args[0].cell)
            return n
        if t == "pi":
            self.lx.take()
            n = self.node("pi")
            _set(n.cell, VF)
            return n
        if t == "ord":
            self.lx.take()
            self.lx.take("(")
            arg = self.term()
            self.lx.take(")")
            _set(arg.cell, VF)
            n = self.node("ord", arg)
            _set(n.cell, VG)
            return n
        m = _AC.match(t)
        if m:
            self.lx.take()
            depth = int(m.group(1))
            self.lx.take("(")
            arg = self.term()
            self.lx.take(")")
            _set(arg.cell, VF)
            n = self.node("ac", depth, arg)
            _set(n.cell, RES(depth))
            return n
        m = _PROJ.match(t)
        if m:
            self.lx.take()
            src, dst = int(m.group(1)), int(m.group(2))
            if not (1 <= dst <= src):
                raise ParseError(f"bad projection proj_{src}_{dst}")
            self.lx.take("(")
            arg = self.term()
            self.lx.take(")")
            _set(arg.cell, RES(src))
            n = self.node("proj", src, dst, arg)
            _set(n.cell, RES(dst))
            return n
        if t.isdigit():
            self.lx.take()
            if self.lx.peek() == "/" and self.lx.peek(1).isdigit():
                self.lx.take()
                den = int(self.lx.take())
                if den == 0:
                    raise ParseError("rational literal with zero denominator")
                n = self.node("rat", Fraction(int(t), den))
                _set(n.cell, VF)
                return n
            return self.node("int", int(t))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t) and t not in _KEYWORDS:
            self.lx.take()
            n = self.node("var", t)
            _unify(n.cell, self.var_cell(t))
            return n
        raise ParseError(f"unexpected token {t!r} in term")

    def primary_pow(self) -> _Node:
        n = self.primary()
        while self.lx.peek() in ("^", "**"):
            self.lx.take()
            e = self.lx.take()
            if not e.isdigit():
                raise ParseError(f"integer exponent expected, found {e!r}")
            exp = int(e)
            if exp < 1:
                raise ParseError("power exponent must be >= 1")
            m = self.node("pow", exp, n)
            _unify(m.cell, n.cell)
            n = m
        return n

    def mul_term(self) -> _Node:
        n = self.primary_pow()
        while self.lx.peek() == "*":
            self.lx.take()
            rhs = self.primary_pow()
            m = self.node("*", n, rhs)
            _unify(n.cell, rhs.cell)
            _unify(m.cell, n.cell)
            n = m
        return n

    def term(self) -> _Node:
        n = self.mul_term()
        while self.lx.peek() in ("+", "-"):
            op = self.lx.take()
            rhs = self.mul_term()
            m = self.node(op, n, rhs)
            _unify(n.cell, rhs.cell)
            _unify(m.cell, n.cell)
            n = m
        return n

    # -- formulas ------------------------------------------------------------
    def atom_or_group(self) -> object:
        if self.lx.peek() == "(":
            save = (self.lx.i, len(self.nodes), len(self.env))
            try:
                self.lx.take()
                f = self.formula()
                self.lx.take(")")
                if self.lx.peek() in ("=", "!=", "<=", ">=", "<", ">", "+", "-", "*", "^", "**"):
                    raise ParseError("parenthesized formula in term position")
                return f
            except ParseError:
                # backtrack: the parens opened a term, not a formula
                self.lx.i = save[0]
                del self.nodes[save[1]:]
                del self.env[save[2]:]
        return self.atom()

    def atom(self) -> object:
        left = self.term()
        op = self.lx.peek()
        if op not in ("=", "!=", "<=", ">=", "<", ">"):
            raise ParseError(f"comparison expected, found {op!r}")
        self.lx.take()
        right = self.term()
        if op in ("=", "!="):
            if self.lx.peek() == "mod":
                self.lx.take()
                m = self.lx.take()
                if not m.isdigit() or int(m) < 1:
                    raise ParseError(f"positive modulus expected, found {m!r}")
                _set(left.cell, VG)
                _set(right.cell, VG)
                a = ("cong", left, right, int(m))
            else:
                _unify(left.cell, right.cell)
                a = ("eq", left, right)
            return a if op == "=" else ("not", a)
        _set(left.cell, VG)
        _set(right.cell, VG)
        if op == "<=":
            return ("le", left, right)
        if op == ">=":
            return ("le", right, left)
        if op == "<":
            return ("lt", left, right)
        return ("lt", right, left)

    def not_formula(self) -> object:
        t = self.lx.peek()
        if t == "!":
            self.lx.take()
            return ("not", self.not_formula())
        if t == "true":
            self.lx.take()
            return ("true",)
        if t == "false":
            self.lx.take()
            return ("false",)
        if t in ("exists", "forall"):
            return self.quantifier()
        return self.atom_or_group()

    def quantifier(self) -> object:
        q = self.lx.take()
        name = self.lx.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name in _KEYWORDS:
            raise ParseError(f"variable name expected after {q}, found {name!r}")
        self.lx.take(":")
        st = self.lx.take()
        if st == "vg":
            sort = VG
        elif st == "res":
            self.lx.take("(")
            d = self.lx.take()
            if not d.isdigit() or int(d) < 1:
                raise ParseError(f"residue depth expected, found {d!r}")
            sort = RES(int(d))
            self.lx.take(")")
        elif st == "vf":
            raise ParseError("quantification over the valued field is not supported")
        else:
            raise ParseError(f"sort expected after ':', found {st!r}")
        lo = hi = None
        if self.lx.peek() == "in":
            if sort != VG:
                raise ParseError("bounds are only meaningful for vg quantifiers")
            self.lx.take()
            self.lx.take("[")
            if self.lx.peek() == "-" and self.lx.peek(1) == "inf":
                self.lx.take(), self.lx.take()
            else:
                lo = self.term()
                _set(lo.cell, VG)
            self.lx.take(",")
            if self.lx.peek() == "+" and self.lx.peek(1) == "inf":
                self.lx.take(), self.lx.take()
            else:
                hi = self.term()
                _set(hi.cell, VG)
            self.lx.take("]")
        self.lx.take(".")
        cell = _Cell()
        _set(cell, sort)
        self.env.append({name: cell})
        body = self.formula()
        self.env.pop()
        return ("quant", q, name, sort, lo, hi, body)

    def and_formula(self) -> object:
        parts = [self.not_formula()]
        while self.lx.peek() == "&&":
            self.lx.take()
            parts.append(self.not_formula())
        return parts[0] if len(parts) == 1 else ("and", parts)

    def formula(self) -> object:
        parts = [self.and_formula()]
        while self.lx.peek() == "||":
            self.lx.take()
            parts.append(self.and_formula())
        return parts[0] if len(parts) == 1 else ("or", parts)

    # -- resolution ----------------------------------------------------------
    def resolve_sorts(self) -> None:
        for name, cell in self.free.items():
            r = cell.find()
            if r.value is None:
                if name in self.defaults:
                    r.value = self.defaults[name]
                elif self.default_sort is not None:
                    r.value = self.default_sort
        for n in self.nodes:
            r = n.cell.find()
            if r.value is None and n.kind == "int":
                r.value = VG
        for n in self.nodes:
            if n.cell.find().value is None:
                what = n.args[0] if n.kind == "var" else n.kind
                raise SortError(f"cannot infer a sort for {what!r}; "
                                f"annotate via defaults or add context")

    def build_term(self, n: _Node) -> Term:
        s = n.cell.find().value
        if n.kind == "var":
            return Var(n.args[0], s)
        if n.kind == "int":
            return IntLit(n.args[0], s)
        if n.kind == "rat":
            v: Fraction = n.args[0]
            return RatLit(v)
        if n.kind == "pi":
            return Pi()
        if n.kind == "neg":
            return Neg(self.build_term(n.args[0]))
        if n.kind == "pow":
            return Pow(self.build_term(n.args[1]), n.args[0])
        if n.kind in ("+", "-", "*"):
            return BinOp(n.kind, self.build_term(n.args[0]), self.build_term(n.args[1]))
        if n.kind == "ord":
            return Ord(self.build_term(n.args[0]))
        if n.kind == "ac":
            return Ac(n.args[0], self.build_term(n.args[1]))
        if n.kind == "proj":
            return Proj(n.args[0], n.args[1], self.build_term(n.args[2]))
        raise ParseError(f"unknown pre-term {n.kind!r}")

    def build_formula(self, f: object) -> Formula:
        tag = f[0] if isinstance(f, tuple) else None
        if tag == "true":
            return TRUE
        if tag == "false":
            return FALSE
        if tag == "eq":
            return Eq(self.build_term(f[1]), self.build_term(f[2]))
        if tag == "le":
            return Le(self.build_term(f[1]), self.build_term(f[2]))
        if tag == "lt":
            # a < b on integers is a <= b - 1, folded when b is a literal
            left, right = self.build_term(f[1]), self.build_term(f[2])
            if isinstance(right, IntLit):
                return Le(left, IntLit(right.value - 1, VG))
            if isinstance(left, IntLit):
                return Le(IntLit(left.value + 1, VG), right)
            return Le(BinOp("+", left, IntLit(1, VG)), right)
        if tag == "cong":
            return Cong(self.build_term(f[1]), self.build_term(f[2]), f[3])
        if tag == "not":
            return Not(self.build_formula(f[1]))
        if tag == "and":
            return And(tuple(self.build_formula(p) for p in f[1]))
        if tag == "or":
            return Or(tuple(self.build_formula(p) for p in f[1]))
        if tag == "quant":
            _, q, name, sort, lo, hi, body = f
            return Quant(
                q, Var(name, sort),
                self.build_term(lo) if lo is not None else None,
                self.build_term(hi) if hi is not None else None,
                self.build_formula(body),
            )
        raise ParseError(f"unknown pre-formula {f!r}")


def parse_formula(text: str, defaults: Mapping[str, Sort] | None = None,
                  default_sort: Sort | None = None) -> Formula:
    """Parse a formula; variable sorts are inferred from context.

    defaults maps variable names to sorts used when inference leaves them
    open; default_sort applies to any remaining unsorted variable.
    """
    p = _Parser(text, defaults, default_sort)
    pre = p.formula()
    if p.lx.peek() != "$":
        raise ParseError(f"trailing input: {p.lx.peek()!r}")
    p.resolve_sorts()
    out = p.build_formula(pre)
    check_sorts(out)
    return out


def parse_term(text: str, defaults: Mapping[str, Sort] | None = None,
               default_sort: Sort | None = None) -> Term:
    p = _Parser(text, defaults, default_sort)
    pre = p.term()
    if p.lx.peek() != "$":
        raise ParseError(f"trailing input: {p.lx.peek()!r}")
    p.resolve_sorts()
    return p.build_term(pre)
