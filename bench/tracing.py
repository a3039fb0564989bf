"""Tracing shim for the traced benchmark run.

The shim wraps the public entry points of each ``motint`` layer from the
outside: it rebinds every module attribute (and class attribute) that holds
a wrapped function, so names imported with ``from .x import y`` are caught
too, in the library and in the job code alike, and it restores the
originals on ``uninstall``.  Nothing in the
library is edited, and with tracing off the shim is never installed.

Each wrapped entry records a span (name, parent span, start, end) in
compact in-memory arrays; a span is opened only for the outermost call
when an entry calls itself or another entry of the same span name.  Self
time is computed from the spans after the run: a span's duration minus
the durations of its direct children, which nest inside it.  Hot scalar
operations are counted, never spanned.  Size counters (pieces, cells,
generators, denominator degrees, series terms) are read off arguments and
results at the same boundaries.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (span name, owner path, attribute) for spanned entry points.  The owner
# path is "module" or "module:Class".  Several entries may share a span name.
SPANNED = [
    ("formula.parse", "formula", "parse_formula"),
    ("formula.parse", "formula", "parse_term"),
    ("ring_a.add", "ring_a:ARat", "__add__"),
    ("ring_a.add", "ring_a:ARat", "__sub__"),
    ("ring_a.mul", "ring_a:ARat", "__mul__"),
    ("ring_a.div", "ring_a:ARat", "__truediv__"),
    ("ring_a.pow", "ring_a:ARat", "__pow__"),
    ("ring_a.theta", "ring_a", "theta"),
    ("ring_a.is_nonneg", "ring_a", "is_nonneg"),
    ("ring_a.parse", "ring_a", "parse_ratfunc"),
    ("polynomials.gcd", "polynomials", "gcd_primitive"),
    ("polynomials.divmod", "polynomials", "divmod_exact"),
    ("polynomials.squarefree", "polynomials", "squarefree_decomposition"),
    ("polynomials.sturm", "polynomials", "sturm_sequence"),
    ("polynomials.roots", "polynomials", "count_roots_right_of"),
    ("cells.intersect", "cells", "intersect"),
    ("cells.subtract", "cells", "subtract"),
    ("cells.subtract_many", "cells", "subtract_many"),
    ("cells.constrain", "cells", "add_ineq"),
    ("cells.constrain", "cells", "add_cong"),
    ("cells.constrain", "cells", "add_eq"),
    ("cells.constrain", "cells", "from_constraints"),
    ("cells.reorder", "cells", "reorder"),
    ("cells.complement", "cells", "complement"),
    ("presburger.sum_fibers", "presburger", "sum_fibers"),
    ("presburger.eval", "presburger:PFun", "eval_arat"),
    ("presburger.eval", "presburger:PFun", "eval_theta"),
    ("presburger.add", "presburger:PFun", "__add__"),
    ("presburger.mul", "presburger:PFun", "__mul__"),
    ("presburger.reorder", "presburger:PFun", "reorder"),
    ("qplus.normal_form", "qplus", "normal_form"),
    ("qplus.count_class", "qplus", "count_class"),
    ("qplus.from_formula", "qplus", "from_formula"),
    ("cplus.normal_form", "cplus", "normal_form"),
    ("cplus.is_equal", "cplus", "is_equal"),
    ("cplus.specialize", "cplus", "specialize"),
    ("cplus.mu_vg_res", "cplus", "mu_vg_res"),
    ("cplus.mul", "cplus:MotFun", "__mul__"),
    ("vfint.integrate", "vfint", "integrate_iterated"),
    ("vfint.integrate", "vfint", "integrate_cell_family"),
    ("vfint.decompose", "vfint", "decompose_fragment"),
    ("vfint.cell_contains", "vfint", "cell_contains"),
    ("zeta.series", "zeta", "zmot_monomial"),
    ("zeta.series", "zeta", "series_from_parameter"),
    ("zeta.series", "zeta:RatSeries", "expand_counts"),
    ("zeta.count", "zeta", "zprime_count"),
    ("padic.eval_formula", "padic", "eval_formula"),
    ("padic.count_points", "padic", "count_points"),
]

# (counter name, owner path, attribute) for hot operations: counted only.
COUNTED = [
    ("zeta.evals", "zeta:Poly", "eval_residue"),
    ("padic.gr_mul.calls", "padic:GRElem", "__mul__"),
]

# Size counters read off arguments and results: (owner, attribute) ->
# function of (tracer, args, result).  "_max" counters keep the largest
# value seen; the others are summed.


def _arat_deg(tr, args, out):
    tr.high("ring_a.denom_deg_max", len(out.denom) - 1)


def _setop(tr, args, out):
    tr.add("cells.setop.calls", 1)
    tr.add("cells.cells_in", len(args[0]) if isinstance(args[0], list) else 1)
    tr.add("cells.cells_out", len(out))


def _sum_fibers(tr, args, out):
    n_in, n_out = len(args[0].pieces), len(out.pieces)
    tr.add("presburger.pieces_in", n_in)
    tr.add("presburger.pieces_out", n_out)
    tr.high("presburger.pieces_max", max(n_in, n_out))


def _qplus_nf(tr, args, out):
    tr.add("qplus.gens_out", len(out.gens))


def _cell_family(tr, args, out):
    tr.add("vfint.cells_out", len(args[0].cells))
    tr.add("vfint.discarded", len(out.discarded))


def _series(tr, args, out):
    tr.add("zeta.numer_terms", len(out.numerator))
    tr.add("zeta.denom_factors", len(out.denominator))


RESULT_HOOKS = {
    ("ring_a:ARat", "__add__"): _arat_deg,
    ("ring_a:ARat", "__sub__"): _arat_deg,
    ("ring_a:ARat", "__mul__"): _arat_deg,
    ("ring_a:ARat", "__truediv__"): _arat_deg,
    ("ring_a:ARat", "__pow__"): _arat_deg,
    ("cells", "intersect"): _setop,
    ("cells", "subtract"): _setop,
    ("cells", "subtract_many"): _setop,
    ("presburger", "sum_fibers"): _sum_fibers,
    ("qplus", "normal_form"): _qplus_nf,
    ("vfint", "integrate_cell_family"): _cell_family,
    ("zeta", "series_from_parameter"): _series,
}


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    module = sys.modules[f"motint.{mod_name}"]
    return getattr(module, cls_name) if cls_name else module


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self.counts: dict = {}
        self._patches: list = []

    # -- counters -----------------------------------------------------------

    def add(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def high(self, name: str, v: int) -> None:
        if v > self.counts.get(name, 0):
            self.counts[name] = v

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, name: str, fn, hook):
        nid = self._name_id(name)
        calls = name + ".calls"
        stack, names_arr = self._stack, self.span_name
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        counts = self.counts

        def wrapper(*args, **kwargs):
            if stack and names_arr[stack[-1]] == nid:
                out = fn(*args, **kwargs)
            else:
                counts[calls] = counts.get(calls, 0) + 1
                idx = len(starts)
                names_arr.append(nid)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(idx)
                starts.append(perf_counter())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter()
                    stack.pop()
            if hook is not None:
                hook(self, args, out)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed entry point and rebind each module's name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict = {}
        for name, owner, attr in SPANNED:
            target = _resolve(owner)
            fn = target.__dict__[attr]
            wrapped[id(fn)] = (fn, self._spanned(
                name, fn, RESULT_HOOKS.get((owner, attr))))
        for name, owner, attr in COUNTED:
            fn = _resolve(owner).__dict__[attr]
            wrapped[id(fn)] = (fn, self._counted(name, fn))
        # rebind every binding of each original, in every loaded module and
        # in the classes they define, so direct imports (in the library and
        # in the benchmark's own job code) are wrapped as well
        for mod_name, module in list(sys.modules.items()):
            if not isinstance(getattr(module, "__dict__", None), dict):
                continue
            holders = [module] + [v for v in list(vars(module).values())
                                  if isinstance(v, type)
                                  and v.__module__ == mod_name]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    hit = wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((holder, attr, value))
                        setattr(holder, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, value = self._patches.pop()
            setattr(holder, attr, value)

    # -- analysis -----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, for slicing spans by pass."""
        return len(self.span_start)

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict:
        """Self seconds per span name over spans lo..hi; the spans of a
        pass are closed, so every child lies in the same slice."""
        hi = len(self.span_start) if hi is None else hi
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            par = parents[i]
            if par >= lo:
                child[par - lo] += ends[i] - starts[i]
        out: dict = {}
        for i in range(lo, hi):
            name = self.names[self.span_name[i]]
            own = ends[i] - starts[i] - child[i - lo]
            out[name] = out.get(name, 0.0) + own
        return out

    def write_spans(self, path: str, lo: int = 0, hi: int | None = None) -> None:
        """Write spans lo..hi as gzipped tab-separated lines."""
        hi = len(self.span_start) if hi is None else hi
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            base = self.span_start[lo] if hi > lo else 0.0
            for i in range(lo, hi):
                par = self.span_parent[i]
                fh.write(f"{i - lo}\t{self.names[self.span_name[i]]}\t"
                         f"{par - lo if par >= lo else -1}\t"
                         f"{self.span_start[i] - base:.9f}\t"
                         f"{self.span_end[i] - base:.9f}\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]

