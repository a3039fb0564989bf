"""Stdlib ast checks over the package and the tests: every imported name
is used, no package module reaches into another one's private
(underscore) names, every ``lru_cache`` of the package wraps a
module-level function, every public name and public method of the
package has a caller outside the tests, every name the benchmark's
tracing shim pins exists, resource limits have one path (no function
takes a ``cap`` parameter and only ``CapExceeded.check`` constructs
``CapExceeded``), the symbolic side reads a constant at p only through
its context, and every formula node class is a frozen dataclass with
identity equality that nothing writes after construction."""

import ast
from collections import Counter
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "motint").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_detected():
    src = "import os\nfrom a import b, c as d\nx = d\n__all__ = ['b']\n"
    assert unused_imports(src) == [(1, "os")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reaches(source: str) -> list:
    """(line, name) for each underscore name of another motint module that
    a package module imports, or reads as an attribute of a module alias
    (``from . import ring_a as R`` then ``R._reduce``)."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("motint")):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                if node.module in (None, "motint"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("motint."):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_private_reaches_are_detected():
    src = ("from . import ring_a as R\nfrom .cells import _split, AffineForm\n"
           "from .errors import __doc__\nx = R._reduce(R.ONE)\ny = self._z\n")
    assert private_reaches(src) == [(2, "_split"), (4, "_reduce")]


def test_no_private_names_across_modules():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in PACKAGE
             for line, name in private_reaches(path.read_text())]
    assert not found, "private names used across modules:\n" + "\n".join(found)


CACHES = ("lru_cache", "cache")


def misplaced_caches(source: str) -> list:
    """(line, text) for each ``functools`` cache that is not a decorator
    of a module-level function: the benchmark empties a cache before each
    pass only if it is a module attribute, so a cache on a method, a
    nested function or a call would stay warm from one pass to the next."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in CACHES}
    allowed = {id(node)
               for top in tree.body
               if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
               for deco in top.decorator_list
               for node in ast.walk(deco)}
    return sorted((node.lineno, ast.unparse(node))
                  for node in ast.walk(tree)
                  if ((isinstance(node, ast.Name) and node.id in names)
                      or (isinstance(node, ast.Attribute)
                          and node.attr in CACHES
                          and isinstance(node.value, ast.Name)
                          and node.value.id == "functools"))
                  and id(node) not in allowed)


def test_misplaced_caches_are_detected():
    src = ("import functools\nfrom functools import lru_cache\n"
           "@lru_cache(maxsize=8)\ndef f(x):\n    return x\n"
           "@functools.lru_cache\ndef g(x):\n    return x\n"
           "class C:\n    @lru_cache\n    def m(self):\n        pass\n"
           "def h():\n    @functools.cache\n    def inner():\n        pass\n"
           "k = lru_cache(maxsize=None)(len)\n"
           "cache = {}\n")
    assert misplaced_caches(src) == [(10, "lru_cache"),
                                     (14, "functools.cache"),
                                     (17, "lru_cache")]


def test_caches_wrap_module_level_functions():
    found = [f"{path.relative_to(ROOT)}:{line}: {text}"
             for path in PACKAGE
             for line, text in misplaced_caches(path.read_text())]
    assert not found, "caches the benchmark cannot clear:\n" + "\n".join(found)



# ---------------------------------------------------------------------------
# the library surface: every public name has a caller outside the tests

BENCH = sorted((ROOT / "bench").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def identifiers(node, strings: bool = False) -> set:
    """Names a node reads: plain names, attributes and imported names, and
    with ``strings`` every string constant too."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out |= {alias.name for alias in sub.names}
        elif (strings and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str)):
            out.add(sub.value)
    return out


def uncalled_public_names(package: dict, outside: set) -> list:
    """(file, name) for each public top-level def or class of the package
    sources ({file: source}) that no other top-level statement of the
    package reads and that ``outside`` does not hold."""
    trees = {path: ast.parse(source) for path, source in package.items()}
    reads = [(node, identifiers(node))
             for tree in trees.values() for node in tree.body]
    return [(path, node.name)
            for path, tree in trees.items() for node in tree.body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
            and node.name not in outside
            and not any(node.name in names
                        for other, names in reads if other is not node)]


def test_uncalled_public_names_are_detected():
    package = {"a.py": ("def f():\n    return f()\n"
                        "def g():\n    pass\n"
                        "class C:\n    pass\n"
                        "class D:\n    pass\n"),
               "b.py": "from a import g\ndef _h():\n    return D.x\n"}
    assert uncalled_public_names(package, {"C"}) == [("a.py", "f")]


def test_public_names_have_callers_outside_the_tests():
    package = {path.relative_to(ROOT): path.read_text() for path in PACKAGE}
    found = [f"{path}: {name}"
             for path, name in uncalled_public_names(package, outside_reads())]
    assert not found, "public names that only tests call:\n" + "\n".join(found)


def outside_reads() -> set:
    """Names read by the acceptance tests and by the benchmark, whose
    tracing shim names its targets by string."""
    outside = identifiers(ast.parse(ACCEPTANCE.read_text()))
    for path in BENCH:
        outside |= identifiers(ast.parse(path.read_text()), strings=True)
    return outside


# public methods that no caller reaches, each with its reason
METHODS_ALLOWED = {
    # the ring-level value check of a closed form (ROADMAP item 7)
    "RatSeries.expand",
    # the accessor the cells module doctest shows
    "AffineForm.const",
}
METHODS_EXEMPT = {"to_json", "from_json"}


def attribute_reads(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def public_methods(package: dict) -> list:
    """(file, class, method def) for each public method or property of a
    public top-level class of the package sources ({file: source})."""
    return [(path, cls.name, node)
            for path, source in package.items()
            for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, FUNCTIONS) and not node.name.startswith("_")
            and node.name not in METHODS_EXEMPT]


def uncalled_public_methods(package: dict, outside: set) -> list:
    """(file, "Class.method") for each public method or property of a
    public class of the package sources that no code of the package reads
    as an attribute outside its own body and that ``outside`` does not
    hold.  Dunders, ``to_json`` and ``from_json`` are exempt.

    Like the rule on top-level names this matches names, not objects: a
    method hides behind any attribute read of the same name, whatever it
    is read from.  So ``PFun.extend`` hid behind ``list.extend`` while the
    package had it.
    """
    reads = sum((attribute_reads(ast.parse(source))
                 for source in package.values()), Counter())
    return [(path, f"{cls}.{node.name}")
            for path, cls, node in public_methods(package)
            if node.name not in outside
            and reads[node.name] <= attribute_reads(node)[node.name]]


def test_uncalled_public_methods_are_detected():
    package = {"a.py": ("class C:\n"
                        "    def f(self):\n        return self.f()\n"
                        "    def g(self):\n        pass\n"
                        "    @property\n    def h(self):\n        pass\n"
                        "    def k(self):\n        pass\n"
                        "    def to_json(self):\n        pass\n"
                        "    def __len__(self):\n        return 0\n"
                        "class _D:\n    def m(self):\n        pass\n"),
               "b.py": "def use(c):\n    return c.g(), c.h\n"}
    assert uncalled_public_methods(package, {"k"}) == [("a.py", "C.f")]


def test_public_methods_have_callers_outside_the_tests():
    package = {path.relative_to(ROOT): path.read_text() for path in PACKAGE}
    defined = {f"{cls}.{node.name}" for _, cls, node in public_methods(package)}
    assert METHODS_ALLOWED <= defined, "allowed methods that are gone"
    found = [f"{path}: {name}"
             for path, name in uncalled_public_methods(package, outside_reads())
             if name not in METHODS_ALLOWED]
    assert not found, \
        "public methods that only tests call:\n" + "\n".join(found)


def shim_targets() -> list:
    """(owner, attribute) of every entry of ``SPANNED`` and ``COUNTED`` in
    bench/tracing.py; the owner is "module" or "module:Class"."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    return [(owner, attr)
            for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED")
                    for t in node.targets)
            for _, owner, attr in ast.literal_eval(node.value)]


def test_names_the_tracing_shim_pins_exist():
    # the shim reads each target from the owner's __dict__
    targets = shim_targets()
    assert ("padic:GRElem", "__mul__") in targets
    missing = []
    for owner, attr in targets:
        module, _, cls = owner.partition(":")
        holder = importlib.import_module(f"motint.{module}")
        if cls:
            holder = vars(holder).get(cls)
        if holder is None or attr not in vars(holder):
            missing.append(f"{owner} {attr}")
    assert not missing, "names the tracing shim pins are gone:\n" + \
        "\n".join(missing)


# ---------------------------------------------------------------------------
# resource limits: one table and one check, no cap threaded through calls;
# the rewrite log is a scope too, so no log is threaded through calls either


def cap_sites(source: str) -> tuple:
    """([(line, function)] for each parameter named ``cap`` or ``log`` of
    a function or lambda, [(line, enclosing definitions)] for each
    ``CapExceeded(...)`` call, the definitions joined by dots)."""
    params, builds = [], []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, FUNCTIONS + (ast.Lambda,)):
                a = child.args
                name = getattr(child, "name", "lambda")
                params.extend((child.lineno, name)
                              for arg in a.posonlyargs + a.args + a.kwonlyargs
                              + [a.vararg, a.kwarg]
                              if arg is not None and arg.arg in ("cap", "log"))
            if isinstance(child, DEFINITIONS):
                inner = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.Call) and "CapExceeded" in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                builds.append((child.lineno, where))
            visit(child, inner)

    visit(ast.parse(source), "")
    return params, builds


def test_cap_sites_are_detected():
    src = ("class CapExceeded(Exception):\n"
           "    @staticmethod\n"
           "    def check(n):\n"
           "        raise CapExceeded(n)\n"
           "def f(x, *, cap=None):\n"
           "    g = lambda env, cap: errors.CapExceeded.check(cap)\n"
           "    raise errors.CapExceeded('x')\n"
           "def normal_form(rc, log=None):\n"
           "    return lambda log: rc\n")
    assert cap_sites(src) == ([(5, "f"), (6, "lambda"), (8, "normal_form"),
                               (9, "lambda")],
                              [(4, "CapExceeded.check"), (7, "f")])


def test_one_cap_check_and_no_cap_parameters():
    params, builds = [], []
    for path in PACKAGE:
        found = cap_sites(path.read_text())
        params += [f"{path.name}:{line}: {name}" for line, name in found[0]]
        builds += [f"{path.name}: {where}" for _, where in found[1]]
    assert not params, \
        "functions with a cap or log parameter:\n" + "\n".join(params)
    assert builds == ["errors.py: CapExceeded.check"], builds


# ---------------------------------------------------------------------------
# valuation through the context: vfint and zeta read the order, angular
# component or residue of a constant at p only through PContext.ord, .ac
# and .mod, never through a helper of padic that takes a bare prime

VALUATION_HELPERS = {"vp_int", "rational_ord", "rational_ac", "rational_mod"}
SYMBOLIC = ("vfint.py", "zeta.py")
# the cylinder counter is oracle work: orders of residue coordinates
VALUATION_ALLOWED = {("vp_int", "_count_cylinders")}


def valuation_reads(source: str) -> list:
    """[(line, helper, enclosing definitions)] for each read of a valuation
    helper, as a name (under its import alias, if any) or an attribute;
    the definitions are joined by dots."""
    tree = ast.parse(source)
    alias = {a.asname or a.name: a.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names if a.name in VALUATION_HELPERS}
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id in alias:
                found.append((child.lineno, alias[child.id], where))
            elif (isinstance(child, ast.Attribute)
                  and child.attr in VALUATION_HELPERS):
                found.append((child.lineno, child.attr, where))
            inner = where
            if isinstance(child, DEFINITIONS):
                inner = f"{where}.{child.name}" if where else child.name
            visit(child, inner)

    visit(tree, "")
    return sorted(found)


def test_valuation_reads_are_detected():
    src = ("from .padic import PContext, rational_ord, vp_int as v\n"
           "from . import padic\n"
           "def f(c, p):\n    return rational_ord(c, p)\n"
           "def _count_cylinders(n, p):\n    return [v(k, p) for k in n]\n"
           "class R:\n    def g(self, c):\n"
           "        return padic.rational_ac(c, 2, 1)\n"
           "def h(ctx: PContext, c):\n    return ctx.ord(c), ctx.mod(c, 1)\n")
    assert valuation_reads(src) == [(4, "rational_ord", "f"),
                                    (6, "vp_int", "_count_cylinders"),
                                    (9, "rational_ac", "R.g")]


def test_symbolic_side_reads_constants_through_the_context():
    found = [f"{name}:{line}: {helper} in {where or 'the module'}"
             for name in SYMBOLIC
             for line, helper, where in valuation_reads(
                 (ROOT / "src" / "motint" / name).read_text())
             if (helper, where) not in VALUATION_ALLOWED]
    assert not found, ("valuation read with a bare prime, not through "
                       "the context:\n" + "\n".join(found))
    gone = VALUATION_HELPERS - {"vp_int"}
    left = [f"{path.name}: {name}" for path in PACKAGE
            for name in sorted(gone & identifiers(ast.parse(path.read_text())))]
    assert not left, "bare-prime helpers still in the library:\n" + \
        "\n".join(left)


# ---------------------------------------------------------------------------
# formula nodes: interned, so equality is identity and nothing writes a node


def node_class_faults(source: str) -> list:
    """(line, text) for each class of the source that is ``Term``,
    ``Formula`` or derives from one of them and is not decorated
    ``dataclass(frozen=True, eq=False)``, and for each call of
    ``object.__setattr__``."""
    tree = ast.parse(source)
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    nodes = {"Term", "Formula"}
    for cls in classes:          # bases come before the classes they found
        if any(isinstance(b, ast.Name) and b.id in nodes for b in cls.bases):
            nodes.add(cls.name)
    want = "dataclass(frozen=True, eq=False)"
    found = [(cls.lineno, cls.name) for cls in classes if cls.name in nodes
             and want not in map(ast.unparse, cls.decorator_list)]
    return sorted(found + [(node.lineno, ast.unparse(node))
                           for node in ast.walk(tree)
                           if isinstance(node, ast.Call)
                           and ast.unparse(node.func) == "object.__setattr__"])


def test_node_class_faults_are_detected():
    src = ("@dataclass(frozen=True, eq=False)\nclass Term:\n    pass\n"
           "@dataclass(frozen=True)\nclass Formula:\n    pass\n"
           "@dataclass(frozen=True, eq=False)\nclass Var(Term):\n    pass\n"
           "class Eq(Formula):\n"
           "    def __post_init__(self):\n"
           "        object.__setattr__(self, 'left', 1)\n"
           "@dataclass(frozen=True)\nclass Sort:\n    pass\n")
    assert node_class_faults(src) == [
        (5, "Formula"), (10, "Eq"), (12, "object.__setattr__(self, 'left', 1)")]


def test_formula_nodes_are_frozen_identity_dataclasses():
    source = (ROOT / "src" / "motint" / "formula.py").read_text()
    assert not node_class_faults(source)
