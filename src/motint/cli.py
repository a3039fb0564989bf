"""Command-line front end.

One binary with subcommands wiring the parsers, the summation and
integration engines, the counting oracle, and the interpolation check.

Every option has one channel, the flag on the subcommand that reads it:
each subcommand declares ``--json`` and those of the shared flags
(``--p --d --level --imax --cap --q --method``) that it reads, and any
other flag is a usage error.  Reports are deterministic for given flags,
and JSON output is key-sorted; ``--cap`` sets the points cap for the run.

Exit status: 0 on success (including a verification that matched
everywhere), 2 when a verification ran to completion and found a
mismatch, 1 on any error (bad usage, bad input, resource caps); with
``--json`` every error, usage errors included, is a JSON error object,
and a ``CapExceeded`` one also holds ``needed`` and ``cap``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import formula as F
from . import ring_a as R
from .cplus import specialize
from .errors import (CapExceeded, MotintError, NotIntegrable, ParseError,
                     UnsupportedH, points_cap)
from .padic import PContext, count_points, is_prime
from .presburger import PFun, sum_fibers
from .vfint import integrate_iterated
from .zeta import (parse_poly, scalar_of, verify_meuser, zmot_monomial,
                   zprime_count)


# ---------------------------------------------------------------------------
# small parsing helpers


def _sort_of(text: str) -> F.Sort:
    if text == "vf":
        return F.VF
    if text == "vg":
        return F.VG
    if text.startswith("res:"):
        try:
            return F.RES(int(text[4:]))
        except ValueError:
            raise ParseError(f"bad residue depth in sort {text!r}") from None
    raise ParseError(f"unknown sort {text!r} (use vf, vg, or res:N)")


def _parse_sorts(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        name, sep, sort = item.partition("=")
        if not sep or not name.strip():
            raise ParseError(f"bad sort assignment {item!r} (use name=sort)")
        out[name.strip()] = _sort_of(sort.strip())
    return out


def _parse_point(text: str) -> dict:
    env = {}
    for item in text.split(","):
        name, sep, value = item.partition("=")
        if not sep:
            raise ParseError(f"bad point entry {item!r} (use name=integer)")
        try:
            env[name.strip()] = int(value)
        except ValueError:
            raise ParseError(f"point value for {name.strip()!r} must be an "
                             f"integer, got {value!r}") from None
    return env


def _parse_weight(items) -> tuple:
    """Weights 'mult:var:center' with integer mult and rational center."""
    out = []
    for item in items or ():
        parts = item.split(":")
        if len(parts) != 3:
            raise ParseError(f"bad weight {item!r} (use mult:var:center)")
        try:
            mult = int(parts[0])
            center = Fraction(parts[2])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad weight numbers in {item!r}") from None
        out.append((mult, parts[1].strip(), center))
    return tuple(out)


def _parse_grid(text: str, fallback_p, fallback_d) -> list:
    """Grid syntax 'p=2,3;d=1,2' -> sorted (p, d) pairs."""
    ps, ds = None, None
    if text:
        for group in text.split(";"):
            key, sep, values = group.partition("=")
            key = key.strip()
            if not sep or key not in ("p", "d"):
                raise ParseError(f"bad grid group {group!r} (use p=..;d=..)")
            try:
                parsed = [int(v) for v in values.split(",") if v.strip()]
            except ValueError:
                raise ParseError(f"bad grid values {values!r}") from None
            if not parsed:
                raise ParseError(f"empty grid group {group!r}")
            if key == "p":
                ps = parsed
            else:
                ds = parsed
    if ps is None:
        ps = [fallback_p if fallback_p is not None else 2]
    if ds is None:
        ds = [fallback_d if fallback_d is not None else 1]
    for p in ps:
        if not is_prime(p):
            raise ParseError(f"grid p must be prime, got {p}")
    for d in ds:
        if d < 1:
            raise ParseError(f"grid d must be >= 1, got {d}")
    return [(p, d) for p in sorted(set(ps)) for d in sorted(set(ds))]


def _fun_str(fun) -> str:
    s = scalar_of(fun)
    return str(s) if s is not None else "<class-valued>"


# ---------------------------------------------------------------------------
# subcommands: each returns (exit_status, report_dict, text_lines)


def _cmd_parse(args) -> tuple:
    given = [opt for opt in ("formula", "ratfunc", "poly")
             if getattr(args, opt) is not None]
    if len(given) != 1:
        raise ParseError("parse needs exactly one of --formula, --ratfunc, "
                         "--poly")
    kind = given[0]
    text = getattr(args, kind)
    if kind == "formula":
        defaults = _parse_sorts(args.sorts)
        default_sort = _sort_of(args.default_sort) if args.default_sort else None
        f = F.parse_formula(text, defaults, default_sort)
        free = [{"name": v.name, "sort": str(v.var_sort)}
                for v in F.free_vars(f)]
        report = {"kind": "formula", "input": text,
                  "canonical": F.formula_str(f), "free_vars": free}
        lines = [report["canonical"]]
        lines += [f"  {v['name']} : {v['sort']}" for v in free]
    elif kind == "ratfunc":
        a = R.parse_ratfunc(text)
        report = {"kind": "ratfunc", "input": text, "canonical": str(a),
                  "is_nonneg": R.is_nonneg(a)}
        lines = [report["canonical"]]
    else:
        h = parse_poly(text)
        mono = h.as_monomial()
        report = {"kind": "poly", "input": text, "canonical": str(h),
                  "variables": list(h.variables()),
                  "monomial": mono is not None}
        lines = [report["canonical"]]
    return 0, report, lines


def _load_pfun(path: str) -> PFun:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:         # bad JSON, or an int past the digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    return PFun.from_json(data)


def _cmd_sum(args) -> tuple:
    pf = _load_pfun(args.file)
    if args.var is not None:
        if args.var not in pf.vars:
            raise ParseError(f"{args.file} has no variable {args.var!r}")
        out = sum_fibers(pf, args.var)
    else:
        out = pf
        while out.vars:
            out = sum_fibers(out)
    report = {"vars_in": list(pf.vars), "vars_out": list(out.vars),
              "result": out.to_json()}
    if not out.vars:
        return 0, report, _value_lines(report, out.eval_arat({}), args.q)
    return 0, report, [f"summed to a function of {', '.join(out.vars)} "
                       f"({len(out.pieces)} pieces)"]


def _value_lines(report: dict, value, q) -> list:
    """Put a value of A and, when q is given, its theta_q into the report;
    return the text lines."""
    report["value"] = str(value)
    lines = [str(value)]
    if q is not None:
        theta = R.number_str(R.theta(value, q))
        report["theta"] = {str(q): theta}
        lines.append(f"theta_{q} = {theta}")
    return lines


def _cmd_count(args) -> tuple:
    ctx = PContext(args.p, args.d)
    f = F.parse_formula(args.formula, _parse_sorts(args.sorts),
                        F.RES(args.level))
    free = F.free_vars(f)
    bad = [v.name for v in free if v.var_sort.kind != "res"]
    if bad:
        raise ParseError(
            f"count needs residue-sorted free variables; {', '.join(bad)} "
            f"are not (quantify value-group variables with bounded "
            f"quantifiers)")
    count = count_points(f, ctx)
    report = {"formula": F.formula_str(f), "p": args.p, "d": args.d,
              "level": args.level,
              "free_vars": [v.name for v in free],
              "assignments": ctx.q ** sum(v.var_sort.depth for v in free),
              "count": count}
    return 0, report, [str(count)]


def _integrate_common(args, weight) -> tuple:
    ctx = PContext(args.p, args.d)
    order = tuple(v.strip() for v in args.order.split(",") if v.strip())
    if not order:
        raise ParseError("empty --order")
    cond = F.parse_formula(args.cond, _parse_sorts(args.sorts), F.VF)
    strict = not args.lenient
    out = integrate_iterated(cond, order, ctx, weight=weight, strict=strict)
    report = {"condition": F.formula_str(cond), "order": list(order),
              "p": args.p, "d": args.d,
              "weight": [[m, v, R.number_str(c)] for m, v, c in weight],
              "result": out.to_json(),
              "value": _fun_str(out.value) if out.integrable else None}
    lines = [f"value = {report['value']}" if out.integrable
             else "not integrable in some direction"]
    if out.discarded:
        lines.append(f"discarded {len(out.discarded)} measure-zero loci")
    if args.count:
        if not out.integrable:
            raise NotIntegrable("cannot count a value that is not "
                                "integrable in some direction")
        spec = R.number_str(specialize(out.value, ctx))
        report["counted"] = {"q": ctx.q, "value": spec}
        lines.append(f"N at q={ctx.q}: {spec}")
    return 0, report, lines


def _cmd_vol(args) -> tuple:
    return _integrate_common(args, ())


def _cmd_integrate(args) -> tuple:
    return _integrate_common(args, _parse_weight(args.weight))


def _cmd_eval(args) -> tuple:
    pf = _load_pfun(args.file)
    env = _parse_point(args.point)
    missing = [v for v in pf.vars if v not in env]
    if missing:
        raise ParseError(f"point misses variables: {', '.join(missing)}")
    report = {"point": {k: env[k] for k in sorted(env)}}
    return 0, report, _value_lines(report, pf.eval_arat(env), args.q)


def _cmd_theta(args) -> tuple:
    if args.q is None:
        raise ParseError("theta needs --q")
    a = R.parse_ratfunc(args.expr)
    value = R.number_str(R.theta(a, args.q))
    report = {"expr": str(a), "q": args.q, "value": value}
    return 0, report, [value]


def _cmd_zeta_motivic(args) -> tuple:
    ctx = None if args.p is None else PContext(args.p, 1)
    rs = zmot_monomial(parse_poly(args.H), ctx)
    report = {"h": args.H, "series": rs.to_json(), "display": str(rs)}
    return 0, report, [str(rs)]


def _cmd_zeta_count(args) -> tuple:
    if args.p is None or args.imax is None:
        raise ParseError("zeta-count needs --p and --imax")
    cl = zprime_count(args.H, args.p, args.d, args.imax, method=args.method)
    report = {"h": args.H, "p": args.p, "d": args.d, "method": args.method,
              "coefficients": cl.to_json()}
    lines = [f"{i}\t{v}" for i, v in enumerate(cl.values)]
    return 0, report, lines


def _cmd_verify_meuser(args) -> tuple:
    if args.imax is None:
        raise ParseError("verify-meuser needs --imax")
    h = parse_poly(args.H)
    grid = _parse_grid(args.grid, args.p, args.d)
    try:
        series = zmot_monomial(h)      # one closed form for the whole grid
    except UnsupportedH:
        series = None                  # coefficient valuation depends on p

    entries = []
    for p, d in grid:
        rs = series if series is not None else zmot_monomial(h, PContext(p, d))
        entries.append(verify_meuser(h, p, d, args.imax, series=rs,
                                     method=args.method))
    all_match = all(e["all_match"] for e in entries)
    report = {"h": str(h), "i_max": args.imax, "entries": entries,
              "all_match": all_match}
    lines = [f"H = {h}   i_max = {args.imax}"]
    for e in entries:
        if e["all_match"]:
            lines.append(f"p={e['p']} d={e['d']} q={e['q']}: "
                         f"match ({len(e['rows'])} coefficients)")
        else:
            bad = next(r for r in e["rows"] if not r["match"])
            lines.append(f"p={e['p']} d={e['d']} q={e['q']}: MISMATCH at "
                         f"i={bad['i']}: motivic {bad['motivic']} vs "
                         f"counted {bad['counted']}")
    lines.append("all match: " + ("yes" if all_match else "NO"))
    return (0 if all_match else 2), report, lines


# ---------------------------------------------------------------------------
# parser


# The shared flags, each declared only on the subcommands that read it:
# argparse keywords, then the check a given value must pass and the message
# when it fails.
_SHARED = {
    "p": (dict(type=int, help="residue characteristic"),
          is_prime, "p must be prime, got {}"),
    "d": (dict(type=int, help="unramified extension degree"),
          lambda v: v >= 1, "d must be >= 1, got {}"),
    "level": (dict(type=int, help="residue-ring level"),
              lambda v: v >= 1, "level must be >= 1, got {}"),
    "imax": (dict(type=int, help="largest series index"),
             lambda v: v >= 0, "imax must be >= 0, got {}"),
    "cap": (dict(type=int, help="points cap: ring elements, quantifier "
                 "values, counting evaluations and term products (default "
                 "10^8)"),
            lambda v: v >= 1, "cap must be >= 1, got {}"),
    "q": (dict(type=int, help="residue-field size for theta"),
          lambda v: v >= 2, "q must be >= 2, got {}"),
    "method": (dict(choices=("auto", "shells", "cylinder", "enumerate"),
                    help="counting method: cylinder refines residue "
                    "classes a + p^l O^n level by level and credits a "
                    "class on which H vanishes mod p^l in one Hensel "
                    "step when the gradient of H at a is nonzero mod "
                    "p^l; enumerate walks every residue tuple; shells "
                    "takes monomials only; auto picks shells for "
                    "monomials, else cylinder"),
               None, None),
}


def _check_shared(args: argparse.Namespace) -> None:
    for name, (_, ok, message) in _SHARED.items():
        value = getattr(args, name, None)
        if ok is not None and value is not None and not ok(value):
            raise ParseError(message.format(value))


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures are ParseErrors, so that they
    exit 1 and follow --json like every other error."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    top = _Parser(prog="motint",
                  description="exact motivic integration calculus with a "
                              "p-adic counting oracle")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, fn, help_text, shared="", **defaults):
        # no abbreviations: "--p" must not stand for "--poly" or "--point"
        sp = sub.add_parser(name, help=help_text, description=help_text,
                            allow_abbrev=False)
        sp.add_argument("--json", action="store_true",
                        help="emit a key-sorted JSON report")
        for flag in shared.split():
            sp.add_argument("--" + flag, default=defaults.get(flag),
                            **_SHARED[flag][0])
        sp.set_defaults(fn=fn)
        return sp

    sp = add("parse", _cmd_parse, "parse and echo the canonical form of a "
             "formula, a coefficient-ring expression, or a polynomial",
             "cap")
    sp.add_argument("--formula", help="three-sorted formula text")
    sp.add_argument("--ratfunc", help="coefficient-ring expression in L")
    sp.add_argument("--poly", help="polynomial valued-field term")
    sp.add_argument("--sorts", help="variable sorts, e.g. 'x=vf,i=vg,s=res:1'")
    sp.add_argument("--default-sort", help="sort for unannotated variables "
                    "(vf, vg, or res:N)")

    sp = add("sum", _cmd_sum, "sum a constructible function over its "
             "integer variables", "q")
    sp.add_argument("--file", required=True,
                    help="JSON file holding a motint.pfun/1 object")
    sp.add_argument("--var", help="sum over this variable only")

    sp = add("count", _cmd_count, "count residue-ring solutions of a formula",
             "p d level cap", p=2, d=1, level=1)
    sp.add_argument("--formula", required=True)
    sp.add_argument("--sorts", help="variable sorts, e.g. 'x=res:2'")

    sp = add("vol", _cmd_vol, "motivic volume of a valued-field condition",
             "p d cap", p=2, d=1)
    sp.add_argument("--cond", required=True, help="condition on VF variables")
    sp.add_argument("--order", required=True,
                    help="integration order, outermost first, e.g. 't,x'")
    sp.add_argument("--sorts", help="extra variable sorts")
    sp.add_argument("--lenient", action="store_true",
                    help="return a value even when some direction diverges")
    sp.add_argument("--count", action="store_true",
                    help="also apply the counting morphism at (p, d)")

    sp = add("eval", _cmd_eval, "evaluate a constructible function at an "
             "integer point", "q")
    sp.add_argument("--file", required=True,
                    help="JSON file holding a motint.pfun/1 object")
    sp.add_argument("--point", required=True,
                    help="comma list name=integer")

    sp = add("integrate", _cmd_integrate, "integrate a weighted condition "
             "over valued-field variables", "p d cap", p=2, d=1)
    sp.add_argument("--cond", required=True)
    sp.add_argument("--order", required=True,
                    help="integration order, outermost first")
    sp.add_argument("--weight", action="append", metavar="MULT:VAR:CENTER",
                    help="multiply the integrand by L^(-MULT*ord(VAR-CENTER))"
                         "; repeatable")
    sp.add_argument("--sorts", help="extra variable sorts")
    sp.add_argument("--lenient", action="store_true",
                    help="return a value even when some direction diverges")
    sp.add_argument("--count", action="store_true",
                    help="also apply the counting morphism at (p, d)")

    sp = add("theta", _cmd_theta, "evaluate a coefficient-ring expression "
             "at L = q", "q")
    sp.add_argument("--expr", required=True)

    sp = add("zeta-motivic", _cmd_zeta_motivic, "closed-form rational series "
             "of the valuation-level family of a monomial", "p cap")
    sp.add_argument("--H", required=True, help="monomial valued-field term, "
                    "e.g. 'x^2*y^3'; a coefficient that is not a unit "
                    "needs --p")

    sp = add("zeta-count", _cmd_zeta_count, "exact level-volume coefficients "
             "of the counting series", "p d imax cap method", d=1,
             method="auto")
    sp.add_argument("--H", required=True, help="polynomial valued-field term "
                    "in +, -, * and ^, e.g. '(x + y)^2 - 3/2*z'")

    sp = add("verify-meuser", _cmd_verify_meuser, "check the counting series "
             "against the specialized closed form on a (p, d) grid",
             "p d imax cap method", method="auto")
    sp.add_argument("--H", required=True, help="monomial valued-field term, "
                    "e.g. 'x*y' or '4*x^2'")
    sp.add_argument("--grid", help="grid spec like 'p=2,3;d=1,2' "
                    "(defaults to --p/--d)")

    return top


# ---------------------------------------------------------------------------
# entry point


def _emit(report: dict, lines, json_out: bool) -> None:
    if json_out:
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # the reader closed standard output early: point it at os.devnull,
        # so that the flush at exit cannot fail again (the recipe of the
        # Python signal documentation), and exit without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    json_out = "--json" in argv      # read before parsing: usage errors too
    try:
        args = _build_parser().parse_args(argv)
        json_out = args.json
        _check_shared(args)
        with points_cap(getattr(args, "cap", None)):
            status, report, lines = args.fn(args)
        _emit(report, lines, json_out)
        return status
    except MotintError as exc:
        error = {"error": {"code": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, CapExceeded):
            error["error"].update(needed=exc.needed, cap=exc.cap)
        if json_out:
            print(json.dumps(error, sort_keys=True, indent=2, default=str))
        else:
            print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
