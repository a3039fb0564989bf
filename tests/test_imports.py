"""Stdlib ast checks over the package and the tests: every imported name
is used, no package module reaches into another one's private
(underscore) names, every ``lru_cache`` of the package wraps a
module-level function, every public name and public method of the
package has a caller outside the tests, and every name the benchmark's
tracing shim pins exists."""

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
