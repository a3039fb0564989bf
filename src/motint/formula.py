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

Traversal: _CHILDREN and _REBUILD are the only code that reads the fields
of a node to visit it, and terms are visited only by loops with an
explicit stack, so a term of any length is read without recursion: walk,
the pre-order walk over every node, and fold, the post-order fold, in
which a table maps each node type to a handler that builds a node's value
from its children's, and a chain of + and - or of * reaches its handler
as one node.  check_sorts, formula_str (term_str), free_vars and
map_formula are tables over fold, and so are the term compilers of padic,
vfint and zeta.  walk ignores binders.  free_vars skips variables bound
above them, map_formula leaves a quantifier that binds the named variable
as it is, and substitute renames a bound variable that would capture.

Interning: a node is built through one table that maps the key (type,
*fields), children compared by identity, to the live node of that value,
so equal nodes are one object, == is `is`, and the hash is the identity
hash: neither reads a field, on a term of any length (the parser's drafts
alone are built outside it, and never leave the parse).  The table holds
its nodes weakly, so a node lives as long as its users do, and it has no
cache_clear: emptied under live nodes, it would give one value two
objects.  free_vars and frame_of are caches keyed by node.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import chain as _join
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

_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_raw = type.__call__                 # a node outside the table: a parser draft


class _Interned(type):
    """Metaclass of the nodes: one live node per key (type, *fields)."""

    def __call__(cls, *values):
        key = (cls, *values)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = _raw(cls, *values)
        return node


def _reduce(node):
    """copy and pickle rebuild a node through the table, so a copy is it."""
    return type(node), tuple(getattr(node, f.name) for f in fields(node))


@dataclass(frozen=True, eq=False)
class Term(metaclass=_Interned):
    __reduce__ = _reduce

    def sort(self) -> Sort:
        """+ - * ^ and negation take the sort of their first leaf, found
        by one loop down the left spine; other nodes have their own."""
        t = self
        while type(t) in (BinOp, Neg, Pow):
            t = _CHILDREN[type(t)](t)[0]
        if t is self:
            raise NotImplementedError
        return t.sort()


@dataclass(frozen=True, eq=False)
class Var(Term):
    name: str
    var_sort: Sort

    def sort(self) -> Sort:
        return self.var_sort


@dataclass(frozen=True, eq=False)
class IntLit(Term):
    value: int
    lit_sort: Sort

    def sort(self) -> Sort:
        return self.lit_sort


@dataclass(frozen=True, eq=False)
class RatLit(Term):
    """Exact rational constant in the valued field."""
    value: Fraction

    def sort(self) -> Sort:
        return VF


@dataclass(frozen=True, eq=False)
class Pi(Term):
    """The uniformizer."""

    def sort(self) -> Sort:
        return VF


@dataclass(frozen=True, eq=False)
class BinOp(Term):
    op: str                # "+" | "-" | "*"
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Neg(Term):
    arg: Term


@dataclass(frozen=True, eq=False)
class Pow(Term):
    base: Term
    exp: int               # exp >= 1


@dataclass(frozen=True, eq=False)
class Ord(Term):
    arg: Term              # vf

    def sort(self) -> Sort:
        return VG


@dataclass(frozen=True, eq=False)
class Ac(Term):
    depth: int
    arg: Term              # vf

    def sort(self) -> Sort:
        return RES(self.depth)


@dataclass(frozen=True, eq=False)
class Proj(Term):
    src: int
    dst: int               # dst <= src
    arg: Term              # res(src)

    def sort(self) -> Sort:
        return RES(self.dst)


# ---------------------------------------------------------------------------
# formulas

@dataclass(frozen=True, eq=False)
class Formula(metaclass=_Interned):
    __reduce__ = _reduce


@dataclass(frozen=True, eq=False)
class TrueF(Formula):
    pass


@dataclass(frozen=True, eq=False)
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True, eq=False)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Le(Formula):
    """left <= right on the value group."""
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Cong(Formula):
    """left = right mod modulus, on the value group."""
    left: Term
    right: Term
    modulus: int


@dataclass(frozen=True, eq=False)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    parts: tuple


@dataclass(frozen=True, eq=False)
class Or(Formula):
    parts: tuple


@dataclass(frozen=True, eq=False)
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


def _chain(t: BinOp) -> tuple:
    """(spine, args) of the chain topped by t: t and the BinOps down its
    left spine whose operator is of t's kind, * or + and -, from the
    lowest up, and the operands they join, left to right; spine[k] joins
    args[:k + 2]."""
    kind = "*" if t.op == "*" else "+-"
    spine = [t]
    while type(t.left) is BinOp and t.left.op in kind:
        t = t.left
        spine.append(t)
    spine.reverse()
    return spine, [t.left] + [s.right for s in spine]


def walk(x) -> Iterator:
    """Pre-order, left to right, over a term or formula and every node
    below it, the inner BinOps of chains and bound variables included."""
    todo = [x]
    while todo:
        u = todo.pop()
        if u is not None:
            yield u
            kids = _CHILDREN.get(type(u))
            if kids is not None:
                todo.extend(reversed(kids(u)))


def fold(x, table: Mapping, enter=None):
    """Post-order fold of a term or formula: table[type(u)](u, vals) is the
    value of node u from its children's values (None for a missing
    quantifier bound); a type the table lacks is a SortError.  A chain is
    one node: table[BinOp](u, vals, spine, args) gets its top BinOp u, its
    operands args with their values vals, and its spine, the BinOps that
    join them.  A value enter(u) that is not None is u's, and u's children
    are not visited; enter is not asked about inner BinOps."""
    # the frame being filled: a node, its handler, the children to visit
    # from position i on, the values got and its chain; stack holds the rest
    node = h = chain = None
    kids, i, got = (x,), 0, []
    stack: list = []
    handler, children = table.get, _CHILDREN.get
    while True:
        if i < len(kids):
            u = kids[i]
            i += 1
            if u is None:
                got.append(None)
                continue
            if enter is not None:
                v = enter(u)
                if v is not None:
                    got.append(v)
                    continue
            cls = type(u)
            hu = handler(cls)
            if hu is None:
                raise SortError(f"no rule for a {cls.__name__} node here")
            if cls is BinOp:
                uchain = _chain(u)
                ukids = uchain[1]
            else:
                ukids = children(cls)
                if ukids is None:
                    got.append(hu(u, ()))
                    continue
                uchain, ukids = None, ukids(u)
            stack.append((node, h, kids, i, got, chain))
            node, h, kids, i, got, chain = u, hu, ukids, 0, [], uchain
            continue
        if not stack:
            return got[0]
        v = h(node, got) if chain is None else h(node, got, *chain)
        node, h, kids, i, got, chain = stack.pop()
        got.append(v)


def _remap(u, vals, *chain):
    """u rebuilt from its children's values: u itself when none is new,
    since a node is interned."""
    if not chain:
        return _REBUILD[type(u)](u, vals) if vals else u
    out = vals[0]
    for s, v in zip(chain[0], vals[1:]):
        out = BinOp(s.op, out, v)
    return out


_REMAP = dict.fromkeys((*_CHILDREN, Var, IntLit, RatLit, Pi, TrueF, FalseF), _remap)


# the free variable occurrences of each node, in order
_FREE = {
    **dict.fromkeys(_REMAP, lambda u, vals, *chain: tuple(_join(*vals))),
    **dict.fromkeys((IntLit, RatLit, Pi, TrueF, FalseF), lambda u, vals: ()),
    **dict.fromkeys((Neg, Pow, Ord, Ac, Proj, Not), lambda u, vals: vals[0]),
    Var: lambda u, vals: (u,),
    Quant: lambda u, vals: (*(vals[0] or ()), *(vals[1] or ()), *(
        v for v in vals[2] if v.name != u.var.name)),
}


@lru_cache(maxsize=4096)
def free_vars(x) -> tuple:
    """Free variables of a term or formula in first-appearance order, as
    Var (name and sort), folded once per node while the cache holds it:
    4,096 nodes, least recently used first out, until ``cache_clear()``."""
    return tuple(dict.fromkeys(fold(x, _FREE)))


def map_formula(f: Formula, fn, name: str | None = None) -> Formula:
    """Top-down rewrite of every term of f (or of f, if a term), quantifier
    bounds included: fn(u) is a replacement for the term u, or None to
    rebuild u from its rewritten children (fn is not asked about inner
    BinOps).  A quantifier that binds `name`, and a node that does not
    change, are left as they are."""
    def enter(u):
        if isinstance(u, Term):
            return fn(u)
        return u if isinstance(u, Quant) and u.var.name == name else None
    return fold(f, _REMAP, enter)


@lru_cache(maxsize=4096)
def frame_of(f: Formula) -> Frame:
    """The free variables of f by sort, cached like free_vars."""
    fv = free_vars(f)
    return Frame(tuple(v.name for v in fv if v.var_sort == VF),
                 tuple((v.name, v.var_sort.depth) for v in fv if v.var_sort.kind == "res"),
                 tuple(v.name for v in fv if v.var_sort == VG))


def _need(ok: bool, msg: str) -> None:
    if not ok:
        raise SortError(msg)


def _check_chain(u, vals, spine, args):
    s = vals[0]
    for i in range(1, len(vals)):
        op = spine[i - 1].op
        if vals[i] != s:
            raise SortError(f"operands of {op} have sorts {s} and {vals[i]}")
        # the left factor of a product is a literal only at the first one
        _need(op != "*" or s != VG or isinstance(args[i], IntLit)
              or (i == 1 and isinstance(args[0], IntLit)),
              "value-group product needs an integer literal factor")
    return s


# the sort of each term and None for a formula, each rule checked in order
_SORTS = {
    **dict.fromkeys((Var, IntLit, RatLit, Pi), lambda u, v: u.sort()),
    **dict.fromkeys((TrueF, FalseF, Not, And, Or), lambda u, v: None),
    Neg: lambda u, v: v[0],
    Pow: lambda u, v: (_need(v[0] != VG, "powers are not value-group terms")
                       or _need(u.exp >= 1, "power exponent must be >= 1") or v[0]),
    BinOp: _check_chain,
    Ord: lambda u, v: _need(v[0] == VF, "ord applies to valued-field terms") or VG,
    Ac: lambda u, v: (_need(v[0] == VF, "ac applies to valued-field terms")
                      or RES(u.depth)),
    Proj: lambda u, v: (_need(v[0] == RES(u.src), f"proj_{u.src}_{u.dst} applied to {v[0]}")
                        or _need(1 <= u.dst <= u.src, f"bad projection proj_{u.src}_{u.dst}")
                        or RES(u.dst)),
    Eq: lambda u, v: _need(v[0] == v[1], f"equality across sorts {v[0]} and {v[1]}"),
    Le: lambda u, v: _need(v[0] == v[1] == VG, "order and congruence atoms live "
                           "on the value group"),
    Cong: lambda u, v: (_SORTS[Le](u, v)
                        or _need(u.modulus >= 1, "congruence modulus must be >= 1")),
    Quant: lambda u, v: _need(all(b in (None, VG) for b in v[:2]),
                              "quantifier bounds live on the value group"),
}


def check_sorts(f: Formula | Term) -> None:
    """Validate the local sort rules of a built formula or term."""
    fold(f, _SORTS)


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
    def enter(u):
        if isinstance(u, Var):
            return repl.get(u.name)
        if not isinstance(u, Quant):
            return None
        inner = {k: v for k, v in repl.items() if k != u.var.name}
        clash = {x.name for t in inner.values() for x in walk(t) if isinstance(x, Var)}
        var, body = u.var, u.body
        if var.name in clash:
            taken = clash | {v.name for v in free_vars(body)} | set(inner)
            var = Var(_fresh(var.name, taken), var.var_sort)
            body = substitute(body, {u.var.name: var})
        lo, hi = (b if b is None else substitute(b, inner) for b in (u.lo, u.hi))
        return Quant(u.q, var, lo, hi, substitute(body, inner))
    return fold(f, _REMAP, enter) if repl else f


# ---------------------------------------------------------------------------
# printer

_ATOM, _MUL, _ADD = 3, 2, 1          # binding levels of terms
_AND, _OR = 2, 1                     # of formulas; a quantifier's is 0


def _tight(v: tuple, prec: int) -> str:
    """A printed operand (text, binding level), in parentheses when it
    binds less tightly than its place needs."""
    s, level = v
    return s if level >= prec else f"({s})"


def _print_chain(u, vals, spine, args) -> tuple:
    if u.op == "*":
        # -(3*n), not (-3)*n: a value-group product takes no negation
        neg = [isinstance(a, IntLit) and a.value < 0 for a in args]
        vals = [(str(-a.value), _ATOM) if n else v
                for a, v, n in zip(args, vals, neg)]
        rest = [_tight(v, _MUL + 1) for v in vals[1:]]
        text = "*".join([_tight(vals[0], _MUL)] + rest)
        return (f"-({text})", _ADD) if sum(neg) % 2 else (text, _MUL)
    rest = [f" {s.op} {_tight(v, _ADD + 1)}" for s, v in zip(spine, vals[1:])]
    return "".join([_tight(vals[0], _ADD)] + rest), _ADD


# (text, binding level) of each node; a negative number binds as a sum, and
# a negated equality or congruence prints as a != b
_PRINT = {
    Var: lambda u, v: (u.name, _ATOM),
    **dict.fromkeys((IntLit, RatLit), lambda u, v: (
        str(u.value), _ATOM if u.value >= 0 else _ADD)),
    Pi: lambda u, v: ("pi", _ATOM),
    Ord: lambda u, v: (f"ord({v[0][0]})", _ATOM),
    Ac: lambda u, v: (f"ac_{u.depth}({v[0][0]})", _ATOM),
    Proj: lambda u, v: (f"proj_{u.src}_{u.dst}({v[0][0]})", _ATOM),
    Neg: lambda u, v: (f"-{_tight(v[0], _ATOM)}", _ADD),
    Pow: lambda u, v: (f"{_tight(v[0], _ATOM)}^{u.exp}", _ATOM),
    BinOp: _print_chain,
    TrueF: lambda u, v: ("true", _ATOM),
    FalseF: lambda u, v: ("false", _ATOM),
    Eq: lambda u, v: (f"{v[0][0]} = {v[1][0]}", _ATOM),
    Le: lambda u, v: (f"{v[0][0]} <= {v[1][0]}", _ATOM),
    Cong: lambda u, v: (f"{v[0][0]} = {v[1][0]} mod {u.modulus}", _ATOM),
    Not: lambda u, v: (v[0][0].replace(" = ", " != ", 1) if type(u.body) in (Eq, Cong)
                       else f"!({v[0][0]})", _ATOM),
    And: lambda u, v: (" && ".join(_tight(p, _AND + 1) for p in v), _AND),
    Or: lambda u, v: (" || ".join(_tight(p, _OR + 1) for p in v), _OR),
    Quant: lambda u, v: (f"{u.q} {u.var.name} : {u.var.var_sort}" + (
        "" if v[0] is v[1] is None else
        f" in [{v[0][0] if v[0] else '-inf'}, {v[1][0] if v[1] else '+inf'}]")
        + f" . {v[2][0]}", 0),
}


def formula_str(f: Formula | Term) -> str:
    """The canonical text of a formula or a term."""
    return fold(f, _PRINT)[0]


term_str = formula_str


# ---------------------------------------------------------------------------
# simplification (boolean layer only; terms are left alone)

def simplify(f: Formula) -> Formula:
    if isinstance(f, Not):
        b = simplify(f.body)
        if isinstance(b, (TrueF, FalseF)):
            return TRUE if isinstance(b, FalseF) else FALSE
        return b.body if isinstance(b, Not) else Not(b)
    if isinstance(f, (And, Or)):
        # flattened, without units and repeats, sorted by text; the
        # absorbing value if a part is, or two parts are complementary
        absorb, unit = (FALSE, TRUE) if isinstance(f, And) else (TRUE, FALSE)
        seen: dict[str, Formula] = {}
        for p in map(simplify, f.parts):
            for q in (p.parts if type(p) is type(f) else (p,)):
                if isinstance(q, type(absorb)):
                    return absorb
                if not isinstance(q, type(unit)):
                    seen.setdefault(formula_str(q), q)
        if any(formula_str(p.body if isinstance(p, Not) else Not(p)) in seen
               for p in seen.values()):
            return absorb
        parts = [seen[k] for k in sorted(seen)]
        if len(parts) < 2:
            return parts[0] if parts else unit
        return type(f)(tuple(parts))
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
    """The sort cell of a term being parsed: until resolve, the sort of a
    variable or integer literal is its cell; any other sort gets a fixed
    cell."""
    s = t.sort()
    return s if isinstance(s, _Cell) else _Cell(s)


class _Parser:
    """Recursive descent straight to draft nodes, built by _raw outside the
    intern table: until resolve, a Var holds its variable's _Cell as
    var_sort and an IntLit a fresh _Cell as lit_sort.  resolve rebuilds
    every draft through the table, with the inferred sorts."""

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
            return _raw(Neg, self.primary_pow())
        if t == "pi":
            self.lx.take()
            return Pi()
        if t == "ord":
            self.lx.take()
            return _raw(Ord, self.argument(VF))
        m = _AC.match(t)
        if m:
            self.lx.take()
            depth = _int(m.group(1))
            arg = self.argument(VF)
            RES(depth)     # rejects depth 0 here, before anything after it
            return _raw(Ac, depth, arg)
        m = _PROJ.match(t)
        if m:
            self.lx.take()
            src, dst = _int(m.group(1)), _int(m.group(2))
            if not (1 <= dst <= src):
                raise ParseError(f"bad projection proj_{src}_{dst}")
            return _raw(Proj, src, dst, self.argument(RES(src)))
        if t.isdigit():
            self.lx.take()
            if self.lx.peek() == "/" and self.lx.peek(1).isdigit():
                self.lx.take()
                den = _int(self.lx.take())
                if den == 0:
                    raise ParseError("rational literal with zero denominator")
                return RatLit(Fraction(_int(t), den))
            return _raw(IntLit, _int(t), _Cell())
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t) and t not in _KEYWORDS:
            self.lx.take()
            return _raw(Var, t, self.var_cell(t))
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
            n = _raw(Pow, n, exp)
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
            n = _raw(BinOp, op, n, rhs)
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
                a = _raw(Cong, left, right, _int(m))
            else:
                _unify(_cell(left), _cell(right))
                a = _raw(Eq, left, right)
            return a if op == "=" else _raw(Not, a)
        _set(_cell(left), VG)
        _set(_cell(right), VG)
        if op in (">=", ">"):
            left, right = right, left
        if op in ("<=", ">="):
            return _raw(Le, left, right)
        # a < b on integers is a <= b - 1, folded when b is a literal
        if isinstance(right, IntLit):
            return _raw(Le, left, _raw(IntLit, right.value - 1, VG))
        if isinstance(left, IntLit):
            return _raw(Le, _raw(IntLit, left.value + 1, VG), right)
        return _raw(Le, _raw(BinOp, "+", left, _raw(IntLit, 1, VG)), right)

    def not_formula(self) -> Formula:
        t = self.lx.peek()
        if t == "!":
            self.lx.take()
            return _raw(Not, self.not_formula())
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
        return _raw(Quant, q, Var(name, sort), lo, hi, body)

    def connective(self, tok: str, cls, operand) -> Formula:
        parts = [operand()]
        while self.lx.peek() == tok:
            self.lx.take()
            parts.append(operand())
        return parts[0] if len(parts) == 1 else _raw(cls, tuple(parts))

    def and_formula(self) -> Formula:
        return self.connective("&&", And, self.not_formula)

    def formula(self) -> Formula:
        return self.connective("||", Or, self.and_formula)

    # -- resolution ----------------------------------------------------------
    def resolve(self, out: Formula | Term) -> Formula | Term:
        """Finish a parse: reject trailing input, apply the defaults to open
        free variables, give vg to open integer literals, and rebuild the
        drafts through the intern table, every leaf holding its sort."""
        if self.lx.peek() != "$":
            raise ParseError(f"trailing input: {self.lx.peek()!r}")
        for name, cell in self.free.items():
            r = cell.find()
            if r.value is None:
                if name in self.defaults:
                    r.value = self.defaults[name]
                elif self.default_sort is not None:
                    r.value = self.default_sort
        for x in walk(out):
            if type(x) is IntLit and isinstance(x.lit_sort, _Cell):
                r = x.lit_sort.find()
                r.value = r.value or VG

        def leaf(x):
            if type(x) not in (Var, IntLit):
                return None
            sort = x.sort()
            sort = sort.find().value if isinstance(sort, _Cell) else sort
            if sort is None:
                raise SortError(f"cannot infer a sort for {x.name!r}; "
                                f"annotate via defaults or add context")
            return type(x)(x.name if type(x) is Var else x.value, sort)
        out = fold(out, _REMAP, leaf)
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
    """Parse from the rule ``start`` and resolve sorts.  The parser recurses
    once per level of nesting (parentheses, negation, connectives,
    quantifiers), so input that overflows the stack is a ParseError; a
    chain of + - or * is read in a loop and has no limit."""
    p = _Parser(text, defaults, default_sort)
    try:
        return p.resolve(start(p))
    except RecursionError:
        raise ParseError("the input nests too deeply to parse") from None
