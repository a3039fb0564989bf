import copy
from fractions import Fraction
import pickle

import pytest

from hypothesis import given
from hypothesis import strategies as st

from motint.errors import ParseError, SortError
from motint.formula import (
    VF, VG, RES, Ac, And, BinOp, Cong, Eq, FALSE, Formula, IntLit, Le, Neg,
    Not, Or, Ord, Pi, Pow, Proj, Quant, RatLit, TRUE, Term, Var, check_sorts,
    formula_str, frame_of, free_vars, land, lor, parse_formula,
    parse_term, simplify, substitute, term_str, walk,
)
from motint.padic import PadicElem, PContext, eval_formula
from test_differential import SETTINGS


def shape(frame) -> tuple:
    return (len(frame.vf), tuple(d for _, d in frame.res), len(frame.vg))


def test_parse_sorts_from_context():
    f = parse_formula("ord(x) >= 0 || x = 0")
    fr = frame_of(f)
    assert shape(fr) == (1, (), 0)
    assert fr.vf == ("x",)

    g = parse_formula("ac_2(x) = xi && ord(x) = z")
    fr = frame_of(g)
    assert shape(fr) == (1, (2,), 1)
    assert fr.res == (("xi", 2),)
    assert fr.vg == ("z",)


def test_parse_structure():
    f = parse_formula("ord(x) >= 0 || x = 0")
    assert isinstance(f, Or)
    le, eq = f.parts
    assert isinstance(le, Le) and isinstance(eq, Eq)
    # a >= b is stored as Le(b, a)
    assert isinstance(le.left, IntLit) and le.left.value == 0
    assert isinstance(le.right, Ord)


def test_parse_congruence_and_strict_inequalities():
    f = parse_formula("z = 2 mod 6")
    assert f == Cong(Var("z", VG), IntLit(2, VG), 6)
    g = parse_formula("z != 2 mod 6")
    assert g == Not(Cong(Var("z", VG), IntLit(2, VG), 6))
    h = parse_formula("z < 3")
    assert h == Le(Var("z", VG), IntLit(2, VG))
    k = parse_formula("z > i")
    assert k == Le(BinOp("+", Var("i", VG), IntLit(1, VG)), Var("z", VG))


def test_parse_defaults():
    f = parse_formula("x^2 = 0", default_sort=RES(2))
    assert f == Eq(Pow(Var("x", RES(2)), 2), IntLit(0, RES(2)))
    g = parse_formula("x = y", defaults={"x": RES(1), "y": RES(1)})
    assert shape(frame_of(g)) == (0, (1, 1), 0)
    with pytest.raises(SortError):
        parse_formula("x = y")          # nothing pins the sorts down


def test_parse_rational_literals_and_pi():
    f = parse_formula("ord(x - 1/2) >= 3")
    ord_term = f.right
    assert isinstance(ord_term, Ord)
    assert ord_term.arg == BinOp("-", Var("x", VF), RatLit(Fraction(1, 2)))
    g = parse_formula("x*pi + 1 = 0")
    assert frame_of(g).vf == ("x",)


def test_parse_quantifiers():
    f = parse_formula("exists xi : res(1) . ac_1(x) = xi")
    assert isinstance(f, Quant) and f.q == "exists"
    assert f.var == Var("xi", RES(1))
    assert shape(frame_of(f)) == (1, (), 0)   # xi is bound

    g = parse_formula("exists z : vg in [0, i] . ord(x) = z")
    assert g.lo == IntLit(0, VG) and g.hi == Var("i", VG)

    h = parse_formula("forall z : vg in [-inf, 3] . z <= 4")
    assert h.lo is None and h.hi == IntLit(3, VG)

    with pytest.raises(ParseError):
        parse_formula("exists x : vf . x = 0")


def test_sort_errors():
    with pytest.raises(SortError):
        parse_formula("ord(x) = x")          # vg meets vf
    with pytest.raises(SortError):
        parse_formula("ac_1(x) = ac_2(y)")   # depths differ
    with pytest.raises(SortError):
        parse_formula("z * w = 0", defaults={"z": VG, "w": VG})
    with pytest.raises(SortError):
        check_sorts(Eq(Var("x", VF), Var("z", VG)))
    with pytest.raises(SortError):
        Quant("exists", Var("x", VF), None, None, TRUE)


def test_parse_errors():
    for bad in ["ord(x", "x + = 0", "z <=", "x = 0 mod 0", "exists : vg . z = 0", ""]:
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_long_literals_are_parse_errors():
    # longer than the interpreter's int-string limit (4,300 digits)
    long = "9" * 5000
    for bad in (f"x = {long}", f"x = 1/{long}", f"x^{long} = 0",
                f"ord(t) = 0 mod {long}", f"ac_{long}(t) = 0"):
        with pytest.raises(ParseError, match="too long"):
            parse_formula(bad)


def test_parse_term_applies_the_sort_rules():
    # the same rules as inside a formula: a value-group product needs a
    # literal factor, and the value group has no powers
    with pytest.raises(SortError, match="integer literal factor"):
        parse_term("ord(x)*ord(y)")
    with pytest.raises(SortError, match="powers are not value-group terms"):
        parse_term("n^2", default_sort=VG)
    assert parse_term("2*ord(x)").sort() == VG


def test_parenthesized_formula_vs_term():
    f = parse_formula("(ord(x) >= 0 && z = 1) || x = 0")
    assert isinstance(f, Or)
    g = parse_formula("(x + 1)*y = 0", default_sort=VF)
    assert frame_of(g).vf == ("x", "y")


ROUND_TRIP_CORPUS = [
    "ord(x) >= 0 || x = 0",
    "ac_2(x) = xi && ord(x) = z",
    "ord(x*y) = i",
    "z = 2 mod 6",
    "z != 2 mod 6",
    "x != 0",
    "!(ord(x) <= 3 && ord(y) <= 4)",
    "exists xi : res(1) . ac_1(x) = xi",
    "exists z : vg in [0, 5] . ord(x) = z",
    "forall z : vg in [-inf, 3] . z <= 4",
    "exists z : vg in [0, +inf] . ord(x - 3) = z",
    "true",
    "false",
    "proj_2_1(xi) = 1",
    "ac_3(x - 1/2) = 5 && ord(x) = 0",
    "pi*x = 1",
    "x^2 + x = 0",
    "ord(x) + ord(y) <= i + 1",
    "2*z <= i",
    "z = -1",
    "-x = 1",
    "(ord(x) >= 0 && ord(y) >= 0) || x = 0",
    "x = 0 && (y = 0 || ord(y) = 1)",
    "ac_1(x) != 0",
    "ord(x - 1) >= 1 && ord(x) = 0",
]


def test_print_parse_round_trip():
    # canonical print is a fixed point of parse . print
    cases = list(ROUND_TRIP_CORPUS)
    # pump the corpus above 50 by conjoining and disjoining pairs
    for i in range(len(ROUND_TRIP_CORPUS) - 1):
        cases.append(f"({ROUND_TRIP_CORPUS[i]}) && ({ROUND_TRIP_CORPUS[i + 1]})")
        cases.append(f"({ROUND_TRIP_CORPUS[i]}) || x9 = 0 || ord(x9) >= 1")
    assert len(cases) >= 50
    for text in cases:
        f = parse_formula(text, default_sort=VF)
        once = formula_str(f)
        g = parse_formula(once, default_sort=VF)
        assert formula_str(g) == once, text
        assert g == f, text


def test_term_printing():
    t = parse_term("x - (y + 1)*z", default_sort=VF)
    assert term_str(t) == "x - (y + 1)*z"
    u = parse_term("ord(x*y)")
    assert term_str(u) == "ord(x*y)"
    v = parse_term("x^2*y^3", default_sort=VF)
    assert term_str(v) == "x^2*y^3"


def test_free_vars_order_and_shadowing():
    f = parse_formula("ord(y) = z && exists z : vg . ord(x) = z")
    names = [v.name for v in free_vars(f)]
    assert names == ["y", "z", "x"]
    assert [v.name for v in free_vars(parse_term("ord(x*y) + z"))] == ["x", "y", "z"]


def test_substitute_basic():
    f = parse_formula("ord(x) = z")
    g = substitute(f, {"x": BinOp("-", Var("t", VF), RatLit(Fraction(1, 2)))})
    assert formula_str(g) == "ord(t - 1/2) = z"


def test_substitute_capture_avoiding():
    f = parse_formula("exists z : vg in [w, 5] . ord(x) = z + w")
    g = substitute(f, {"w": Var("z", VG)})
    assert isinstance(g, Quant)
    assert g.var.name != "z"                      # bound variable renamed
    assert formula_str(g).count("exists") == 1
    # the substituted z stays free, in the bound as in the body
    assert ("z", VG) in {(v.name, v.var_sort) for v in free_vars(g)}
    assert formula_str(g) == "exists z1 : vg in [z, 5] . ord(x) = z1 + z"


def test_simplify():
    a = parse_formula("ord(x) >= 0")
    assert simplify(lor(a, Not(a))) == TRUE
    assert simplify(land(a, Not(a))) == FALSE
    assert simplify(land(TRUE, a)) == a
    assert simplify(lor(FALSE, a)) == a
    assert simplify(Not(Not(a))) == a
    assert simplify(land(a, a)) == a
    assert simplify(parse_formula("3 = 3 mod 1")) == TRUE
    assert simplify(parse_formula("1 = 2", default_sort=VG)) == FALSE
    assert simplify(parse_formula("x = x", default_sort=VF)) == TRUE


def test_connective_helpers():
    a = parse_formula("ord(x) >= 0")
    b = parse_formula("ord(y) >= 0")
    assert land(a) == a
    assert land() == TRUE
    assert lor() == FALSE
    assert isinstance(land(a, land(b, a)), And)
    assert len(land(a, land(b, a)).parts) == 3


def test_check_sorts_on_vg_products():
    ok = parse_formula("2*z <= i")
    check_sorts(ok)
    bad = BinOp("*", Var("z", VG), Var("i", VG))
    with pytest.raises(SortError):
        check_sorts(Le(bad, IntLit(0, VG)))


def test_check_sorts_reports_the_first_fault_in_fold_order():
    # a + b + ord(c) with b and c of the value group has two faults: the
    # fold reaches ord(c) before it joins the chain, so ord's error wins
    a, d = Var("a", VF), Var("d", VF)
    b, c = Var("b", VG), Var("c", VG)
    with pytest.raises(SortError,
                       match="^ord applies to valued-field terms$"):
        check_sorts(Eq(BinOp("+", BinOp("+", a, b), Ord(c)), d))
    with pytest.raises(SortError, match="operands of \\+ have sorts vf and vg"):
        check_sorts(Eq(BinOp("+", BinOp("+", a, b), Ord(a)), d))


def test_proj_validation():
    with pytest.raises(ParseError):
        parse_formula("proj_1_2(xi) = 0")
    f = parse_formula("proj_2_1(xi) = 1")
    assert frame_of(f).res == (("xi", 2),)


DEEP = 2000


@pytest.mark.parametrize("inner", [
    "(" * DEEP + "x" + ")" * DEEP,
    "-" * DEEP + "x",
], ids=["parentheses", "negation"])
def test_deep_nesting_is_a_parse_error(inner):
    # the parser recurses once per level of nesting; an input that
    # overflows the interpreter's stack is a ParseError, not a traceback
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_formula(f"ord({inner}) >= 0")
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_term(inner, default_sort=VF)


def test_deep_formula_nesting_is_a_parse_error():
    for deep in ("!" * DEEP + "x = 0", "(" * DEEP + "x = 0" + ")" * DEEP):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_formula(deep)


def test_long_chain_still_parses():
    chain = " + ".join(["x"] * 20000)
    f = parse_formula(f"ord({chain}) >= 0")
    assert formula_str(f).count("x") == 20000
    assert term_str(parse_term(chain, default_sort=VF)).count("x") == 20000


# ---------------------------------------------------------------------------
# interning: one object per value

def one_of_each_node() -> list:
    """One node of every node type, every field built afresh."""
    x, r = Var("x", VF), Var("r", RES(2))
    n, one = Var("n", VG), IntLit(1, VG)
    eq = Eq(Ac(2, x), r)
    return [x, one, RatLit(Fraction(1, 2)), Pi(), BinOp("+", x, Pi()),
            Neg(x), Pow(x, 2), Ord(x), eq.left, Proj(2, 1, r), TRUE, FALSE, eq,
            Le(one, Ord(x)), Cong(n, one, 3), Not(eq), And((eq, TRUE)),
            Or((eq, FALSE)), Quant("exists", n, None, one, Le(n, Ord(x)))]


def test_every_node_type_is_built_once_per_value():
    node_types = {*Term.__subclasses__(), *Formula.__subclasses__()}
    first, second = one_of_each_node(), one_of_each_node()
    assert {type(u) for u in first} == node_types
    for a, b in zip(first, second):
        assert a is b, a
        assert a == b and hash(a) == hash(b)
        assert copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
    assert Var("x", VF) != Var("x", VG) and IntLit(1, VG) != IntLit(2, VG)


def test_parsing_the_same_text_twice_gives_the_same_object():
    for text in ("ord(t - 1) >= 2 && ac_2(t - 1) = 3 && ord(t) <= 4",
                 "exists s : res(1) . s*s = -proj_2_1(ac_2(t))^2",
                 "forall n : vg in [0, k] . n = 0 mod 2 || n < k",
                 "!(z < 3 && 2 < z) || ord(pi*t - 1/2) > z"):
        f = parse_formula(text)
        assert f is parse_formula(text)
        # no draft node of the parser is left in the result
        for u in walk(f):
            assert copy.copy(u) is u and copy.copy(getattr(u, "var", u)) is \
                getattr(u, "var", u), u
    # a literal's sort is inferred, so the same text may give two values
    assert parse_formula("x = 1", default_sort=VG) is not \
        parse_formula("x = 1", default_sort=RES(1))


def test_free_vars_are_computed_once_per_value():
    text = "ac_2(x) = xi && ord(x) = z && exists s : res(1) . s = proj_2_1(xi)"
    free_vars.cache_clear()
    frame_of.cache_clear()
    for _ in range(3):
        assert frame_of(parse_formula(text)).res == (("xi", 2),)
        assert [v.name for v in free_vars(parse_formula(text))] == ["x", "xi", "z"]
    assert free_vars.cache_info().misses == frame_of.cache_info().misses == 1


def test_hash_and_equality_on_a_long_chain_do_not_recurse():
    # under the default recursion limit, a 20,000-term chain built twice
    # is one object, and == and hash read no field of it
    def chain(last):
        t = Var("x", VF)
        for _ in range(19998):
            t = BinOp("+", t, Var("x", VF))
        return Eq(BinOp("+", t, last), IntLit(0, VF))
    a, b, c = chain(Var("x", VF)), chain(Var("x", VF)), chain(Pi())
    assert a is b and a == b and hash(a) == hash(b)
    assert a != c and {a: 1}.get(c) is None
    assert parse_formula(formula_str(a), {"x": VF}) is a


# ---------------------------------------------------------------------------
# the chain view on generated terms of every sort

NAMES = {RES(1): "x", RES(2): "y", VG: "n", VF: "t"}
SORTS = {name: sort for sort, name in NAMES.items()}
GRID = [PContext(p, d) for p in (2, 3) for d in (1, 2)]


@st.composite
def vf_atoms(draw):
    """A nonzero valued-field leaf, so that ord of it is finite."""
    kind = draw(st.sampled_from(["var", "int", "rat", "pi"]))
    if kind == "var":
        return Var("t", VF)
    if kind == "pi":
        return Pi()
    k = draw(st.integers(-6, 6).filter(bool))
    return IntLit(k, VF) if kind == "int" else RatLit(Fraction(k, draw(st.sampled_from([5, 7]))))


@st.composite
def terms(draw, sort, size):
    """A term of the given sort: left- and right-nested chains of + - and
    * with two to six operands, powers, negations and negative literals."""
    if size <= 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(["var", "lit", "lit"] + ["call"] * (sort != VF)))
        if kind == "var":
            return Var(NAMES[sort], sort)
        if kind == "lit":
            return draw(vf_atoms()) if sort == VF else IntLit(draw(st.integers(-5, 7)), sort)
        if sort == VG:
            return Ord(draw(vf_atoms()))
        if sort == RES(1) and draw(st.booleans()):
            return Proj(2, 1, draw(terms(RES(2), size - 1)))
        return Ac(sort.depth, draw(terms(VF, size - 1)))
    kind = draw(st.sampled_from(["+-", "+-", "*", "neg"] + ["pow"] * (sort != VG)))
    if kind == "neg":
        return Neg(draw(terms(sort, size - 1)))
    if kind == "pow":
        return Pow(draw(terms(sort, size - 1)), draw(st.integers(1, 3)))
    n = draw(st.integers(2, 6))
    args = [draw(terms(sort, size - 1)) for _ in range(n)]
    ops = [draw(st.sampled_from(kind)) for _ in range(n - 1)]
    if sort == VG and kind == "*":
        # one factor, first or second, may be any term; the others are literals
        at = draw(st.integers(0, 1))
        args = [a if i == at else IntLit(draw(st.integers(-3, 3)), VG)
                for i, a in enumerate(args)]
        return rebuild_left(args, ops)
    if draw(st.booleans()):
        return rebuild_left(args, ops)
    out = args[-1]
    for a, op in zip(reversed(args[:-1]), reversed(ops)):
        out = BinOp(op, a, out)
    return out


def rebuild_left(args, ops):
    out = args[0]
    for op, a in zip(ops, args[1:]):
        out = BinOp(op, out, a)
    return out


def chain_of(t):
    """The operands and operators of the chain topped by t."""
    kind = "*" if t.op == "*" else "+-"
    args, ops = [t.right], [t.op]
    while isinstance(t.left, BinOp) and t.left.op in kind:
        t = t.left
        args.append(t.right)
        ops.append(t.op)
    return [t.left] + args[::-1], ops[::-1]


def balanced(items):
    """A balanced tree of (sign, term) items whose first sign is +."""
    if len(items) == 1:
        return items[0][1]
    mid = len(items) // 2
    left, right = items[:mid], items[mid:]
    if right[0][0] == "-":
        right = [("+" if s == "-" else "-", a) for s, a in right]
        return BinOp("-", balanced(left), balanced(right))
    return BinOp("+", balanced(left), balanced(right))


def product_tree(args):
    if len(args) == 1:
        return args[0]
    mid = len(args) // 2
    return BinOp("*", product_tree(args[:mid]), product_tree(args[mid:]))


def reassociate(t):
    """t with each chain rebuilt as a balanced tree; a value-group product
    keeps its shape, since only its first two factors may be a term."""
    if isinstance(t, BinOp):
        args, ops = chain_of(t)
        args = [reassociate(a) for a in args]
        if t.op != "*":
            return balanced(list(zip(["+"] + ops, args)))
        return rebuild_left(args, ops) if t.sort() == VG else product_tree(args)
    if isinstance(t, Neg):
        return Neg(reassociate(t.arg))
    if isinstance(t, Pow):
        return Pow(reassociate(t.base), t.exp)
    if isinstance(t, Ac):
        return Ac(t.depth, reassociate(t.arg))
    if isinstance(t, Proj):
        return Proj(t.src, t.dst, reassociate(t.arg))
    return t                       # a leaf; ord is only taken of leaves here


ANY_SORT = st.sampled_from([RES(1), RES(2), VG, VF]).flatmap(lambda s: terms(s, 3))


@SETTINGS
@given(ANY_SORT)
def test_chains_print_and_parse(t):
    # the printed text is a fixed point of parse . print, and without
    # negative literals (read back as negations) or integral rational ones
    # (read back as integers) the parse is the tree
    f = Eq(t, Var(NAMES[t.sort()], t.sort()))
    text = formula_str(f)
    g = parse_formula(text, SORTS)
    assert formula_str(g) == text
    if not any(isinstance(u, (IntLit, RatLit))
               and (u.value < 0 or isinstance(u, RatLit) and u.value.denominator == 1)
               for u in walk(t)):
        assert g == f


@SETTINGS
@given(st.sampled_from(GRID), ANY_SORT, st.data())
def test_reassociated_chains_evaluate_equal(ctx, t, data):
    f = Eq(t, reassociate(t))
    for _ in range(3):
        coeffs = st.lists(st.integers(-50, 50), min_size=ctx.d, max_size=ctx.d)
        nums = data.draw(coeffs.filter(any))
        env = {"x": ctx.residue_ring(1).make(data.draw(coeffs)),
               "y": ctx.residue_ring(2).make(data.draw(coeffs)),
               "n": data.draw(st.integers(-5, 5)),
               "t": PadicElem.exact(ctx.p, ctx.d, [Fraction(k, 6) for k in nums])}
        assert eval_formula(f, env, ctx), (formula_str(f), env)
