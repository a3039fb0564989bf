from fractions import Fraction

import pytest

from motint.errors import ParseError, SortError
from motint.formula import (
    VF, VG, RES, And, BinOp, Cong, Eq, FALSE, IntLit, Le, Not,
    Or, Ord, Pow, Quant, RatLit, TRUE, Var, check_sorts,
    formula_str, frame_of, free_vars, land, lor, parse_formula,
    parse_term, simplify, substitute, term_str,
)


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


def test_proj_validation():
    with pytest.raises(ParseError):
        parse_formula("proj_1_2(xi) = 0")
    f = parse_formula("proj_2_1(xi) = 1")
    assert frame_of(f).res == (("xi", 2),)


DEEP = 2000


@pytest.mark.parametrize("inner", [
    " + ".join(["x"] * DEEP),
    "(" * DEEP + "x" + ")" * DEEP,
    "-" * DEEP + "x",
], ids=["chain", "parentheses", "negation"])
def test_deep_nesting_is_a_parse_error(inner):
    # parsing and sort checking recurse once per level; an input that
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
    chain = " + ".join(["x"] * 900)
    f = parse_formula(f"ord({chain}) >= 0")
    assert formula_str(f).count("x") == 900
    assert term_str(parse_term(chain, default_sort=VF)).count("x") == 900
