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
below (entry points parse_formula and parse_term).  It builds the AST
directly, in one pass, and infers sorts by union-find: each variable and
integer literal holds a cell until the end of the parse, and each
operator and comparison unifies the cells of its operands.  The printer
emits a canonical form on which print . parse is the identity.

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


def _flatten(cls, unit: Formula, parts) -> Formula:
    """The cls-connective of parts, with nested cls nodes spliced in and
    the unit dropped; the unit itself when nothing is left."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, cls):
            flat.extend(p.parts)
        elif not isinstance(p, type(unit)):
            flat.append(p)
    if not flat:
        return unit
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


def land(*parts: Formula) -> Formula:
    return _flatten(And, TRUE, parts)


def lor(*parts: Formula) -> Formula:
    return _flatten(Or, FALSE, parts)


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


def check_sorts(f: Formula | Term) -> None:
    """Validate the local sort rules of a built formula or term."""

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

    if isinstance(f, Term):
        t_sort(f)
    else:
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


def _int(digits: str) -> int:
    """The int of a digit string; a literal longer than the interpreter's
    int-string limit is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too "
                         "long") from None


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

    def __init__(self, value: Optional[Sort] = None):
        self.parent: Optional[_Cell] = None
        self.value = value

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


def _cell(t: Term) -> _Cell:
    """The sort cell of a term being parsed: that of its first leaf under
    + - * ^ and negation, or a cell fixed to the sort of any other node."""
    while isinstance(t, (BinOp, Neg, Pow)):
        t = _children(t)[0]
    if isinstance(t, Var):
        return t.var_sort
    if isinstance(t, IntLit):
        return t.lit_sort
    return _Cell(t.sort())


class _Parser:
    """Recursive descent straight to Term and Formula nodes.  Until resolve,
    a Var holds its variable's _Cell as var_sort and an IntLit a fresh
    _Cell as lit_sort; resolve writes the inferred sorts in place."""

    def __init__(self, text: str, defaults: Mapping[str, Sort] | None, default_sort: Sort | None):
        self.lx = _Lexer(text)
        self.defaults = dict(defaults or {})
        self.default_sort = default_sort
        self.env: list[dict[str, _Cell]] = [{}]
        self.free: dict[str, _Cell] = {}

    # -- variables ---------------------------------------------------------
    def var_cell(self, name: str) -> _Cell:
        for scope in reversed(self.env):
            if name in scope:
                return scope[name]
        if name not in self.free:
            self.free[name] = _Cell()
        return self.free[name]

    # -- terms ---------------------------------------------------------------
    def argument(self, sort: Sort) -> Term:
        """A parenthesized function argument of the given sort."""
        self.lx.take("(")
        arg = self.term()
        self.lx.take(")")
        _set(_cell(arg), sort)
        return arg

    def primary(self) -> Term:
        t = self.lx.peek()
        if t == "(":
            self.lx.take()
            n = self.term()
            self.lx.take(")")
            return n
        if t == "-":
            self.lx.take()
            return Neg(self.primary_pow())
        if t == "pi":
            self.lx.take()
            return Pi()
        if t == "ord":
            self.lx.take()
            return Ord(self.argument(VF))
        m = _AC.match(t)
        if m:
            self.lx.take()
            depth = _int(m.group(1))
            arg = self.argument(VF)
            RES(depth)     # rejects depth 0 here, before anything after it
            return Ac(depth, arg)
        m = _PROJ.match(t)
        if m:
            self.lx.take()
            src, dst = _int(m.group(1)), _int(m.group(2))
            if not (1 <= dst <= src):
                raise ParseError(f"bad projection proj_{src}_{dst}")
            return Proj(src, dst, self.argument(RES(src)))
        if t.isdigit():
            self.lx.take()
            if self.lx.peek() == "/" and self.lx.peek(1).isdigit():
                self.lx.take()
                den = _int(self.lx.take())
                if den == 0:
                    raise ParseError("rational literal with zero denominator")
                return RatLit(Fraction(_int(t), den))
            return IntLit(_int(t), _Cell())
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t) and t not in _KEYWORDS:
            self.lx.take()
            return Var(t, self.var_cell(t))
        raise ParseError(f"unexpected token {t!r} in term")

    def primary_pow(self) -> Term:
        n = self.primary()
        while self.lx.peek() in ("^", "**"):
            self.lx.take()
            e = self.lx.take()
            if not e.isdigit():
                raise ParseError(f"integer exponent expected, found {e!r}")
            exp = _int(e)
            if exp < 1:
                raise ParseError("power exponent must be >= 1")
            n = Pow(n, exp)
        return n

    def chain(self, ops: tuple, operand) -> Term:
        """operand (op operand)*, left-associated; the operands share a
        sort, so the first one's cell is taken once, at the first op."""
        n = operand()
        cell = None
        while self.lx.peek() in ops:
            op = self.lx.take()
            rhs = operand()
            cell = cell or _cell(n)
            _unify(cell, _cell(rhs))
            n = BinOp(op, n, rhs)
        return n

    def mul_term(self) -> Term:
        return self.chain(("*",), self.primary_pow)

    def term(self) -> Term:
        return self.chain(("+", "-"), self.mul_term)

    # -- formulas ------------------------------------------------------------
    def atom_or_group(self) -> Formula:
        if self.lx.peek() == "(":
            pos, depth = self.lx.i, len(self.env)
            try:
                self.lx.take()
                f = self.formula()
                self.lx.take(")")
                if self.lx.peek() in ("=", "!=", "<=", ">=", "<", ">", "+", "-", "*", "^", "**"):
                    raise ParseError("parenthesized formula in term position")
                return f
            except ParseError:
                # backtrack: the parens opened a term, not a formula
                self.lx.i = pos
                del self.env[depth:]
        return self.atom()

    def atom(self) -> Formula:
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
                if not m.isdigit() or _int(m) < 1:
                    raise ParseError(f"positive modulus expected, found {m!r}")
                _set(_cell(left), VG)
                _set(_cell(right), VG)
                a = Cong(left, right, _int(m))
            else:
                _unify(_cell(left), _cell(right))
                a = Eq(left, right)
            return a if op == "=" else Not(a)
        _set(_cell(left), VG)
        _set(_cell(right), VG)
        if op in (">=", ">"):
            left, right = right, left
        if op in ("<=", ">="):
            return Le(left, right)
        # a < b on integers is a <= b - 1, folded when b is a literal
        if isinstance(right, IntLit):
            return Le(left, IntLit(right.value - 1, VG))
        if isinstance(left, IntLit):
            return Le(IntLit(left.value + 1, VG), right)
        return Le(BinOp("+", left, IntLit(1, VG)), right)

    def not_formula(self) -> Formula:
        t = self.lx.peek()
        if t == "!":
            self.lx.take()
            return Not(self.not_formula())
        if t == "true":
            self.lx.take()
            return TRUE
        if t == "false":
            self.lx.take()
            return FALSE
        if t in ("exists", "forall"):
            return self.quantifier()
        return self.atom_or_group()

    def bound(self, sign: str) -> Optional[Term]:
        """A vg quantifier bound, or None for sign + "inf"."""
        if self.lx.peek() == sign and self.lx.peek(1) == "inf":
            self.lx.take(), self.lx.take()
            return None
        b = self.term()
        _set(_cell(b), VG)
        return b

    def quantifier(self) -> Formula:
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
            if not d.isdigit() or _int(d) < 1:
                raise ParseError(f"residue depth expected, found {d!r}")
            sort = RES(_int(d))
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
            lo = self.bound("-")
            self.lx.take(",")
            hi = self.bound("+")
            self.lx.take("]")
        self.lx.take(".")
        self.env.append({name: _Cell(sort)})
        body = self.formula()
        self.env.pop()
        return Quant(q, Var(name, sort), lo, hi, body)

    def connective(self, tok: str, cls, operand) -> Formula:
        parts = [operand()]
        while self.lx.peek() == tok:
            self.lx.take()
            parts.append(operand())
        return parts[0] if len(parts) == 1 else cls(tuple(parts))

    def and_formula(self) -> Formula:
        return self.connective("&&", And, self.not_formula)

    def formula(self) -> Formula:
        return self.connective("||", Or, self.and_formula)

    # -- resolution ----------------------------------------------------------
    def resolve(self, out: Formula | Term) -> Formula | Term:
        """Finish a parse: reject trailing input, apply the defaults to open
        free variables, give vg to open integer literals, and write every
        sort into its leaf.  The leaves are fresh, so writing in place
        changes no other tree."""
        if self.lx.peek() != "$":
            raise ParseError(f"trailing input: {self.lx.peek()!r}")
        for name, cell in self.free.items():
            r = cell.find()
            if r.value is None:
                if name in self.defaults:
                    r.value = self.defaults[name]
                elif self.default_sort is not None:
                    r.value = self.default_sort
        # leaves left to right, each with its field and cell (explicit
        # stack: nested generators are slow on long sums)
        leaves, stack = [], [out]
        while stack:
            x = stack.pop()
            if isinstance(x, Var):
                field = "var_sort"
            elif isinstance(x, IntLit):
                field = "lit_sort"
            else:
                stack.extend(reversed(_children(x)))
                continue
            cell = getattr(x, field)
            if isinstance(cell, _Cell):
                leaves.append((x, field, cell.find()))
        for x, field, r in leaves:
            if r.value is None and field == "lit_sort":
                r.value = VG
        for x, field, r in leaves:
            if r.value is None:
                raise SortError(f"cannot infer a sort for {x.name!r}; "
                                f"annotate via defaults or add context")
            object.__setattr__(x, field, r.value)
        check_sorts(out)
        return out


def parse_formula(text: str, defaults: Mapping[str, Sort] | None = None,
                  default_sort: Sort | None = None) -> Formula:
    """Parse a formula; variable sorts are inferred from context.

    defaults maps variable names to sorts used when inference leaves them
    open; default_sort applies to any remaining unsorted variable.
    """
    return _parse(text, defaults, default_sort, _Parser.formula)


def parse_term(text: str, defaults: Mapping[str, Sort] | None = None,
               default_sort: Sort | None = None) -> Term:
    """Parse a term, with the same sort inference and rules as
    parse_formula."""
    return _parse(text, defaults, default_sort, _Parser.term)


def _parse(text: str, defaults, default_sort, start) -> Formula | Term:
    """Parse from the rule ``start`` and resolve sorts; both recurse once
    per level of nesting, so input that overflows the stack is a ParseError."""
    p = _Parser(text, defaults, default_sort)
    try:
        return p.resolve(start(p))
    except RecursionError:
        raise ParseError("the input nests too deeply to parse") from None
