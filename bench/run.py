"""Benchmark of the motint library: one workload per run.

    python3 bench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``motint`` from ``src/`` of
that checkout and nothing else.  Each run is one fresh interpreter, one
thread and a closed loop: one caller runs the seeded job list job after
job, checks every answer, and repeats the whole list (a pass) until
``--seconds`` have gone by.  The library's ``lru_cache``s are cleared
before every pass, so each pass starts as cold as a command-line call.

With ``--trace 0`` the library runs unmodified and the run reports the
end-to-end metrics.  With ``--trace 1`` untraced passes for half the time
are followed by traced passes (the shim in ``tracing.py`` wraps each
layer's entry points), and the run reports the per-layer metrics and the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-job times and
sizes, and the traced spans, go to ``.bench_out/`` in the checkout.  The
exit status is 0 when every check passed, 1 otherwise.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_SECONDS = 38
SETUP_PROBES = 9
MIN_TRACED_PASSES = 2

WORKLOADS = {
    "closed-form": "Symbolic side: zmot_monomial and integrate_iterated in two "
                   "orders. Time is in ring_a, polynomials, cells, presburger, "
                   "cplus and vfint, almost none in padic.",
    "counting": "Counting side: cylinder zprime_count, residue counts and "
                "membership through padic.eval_formula. Almost all padic and "
                "formula evaluation; ring_a and cells stay flat.",
    "sums": "PFun sums in two variable orders plus point reads: presburger "
            "and cells both ways, so cost moved from sums onto evaluation or "
            "canonical comparison shows.",
}

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("job_p90_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better); see README.md for the end-to-end metric each moves
PER_LAYER = [
    ("ring_a.add.calls", "count", "lower"),
    ("ring_a.mul.calls", "count", "lower"),
    ("ring_a.self_s", "s", "lower"),
    ("ring_a.denom_deg_max", "count", "lower"),
    ("polynomials.gcd.calls", "count", "lower"),
    ("polynomials.self_s", "s", "lower"),
    ("cells.setop.calls", "count", "lower"),
    ("cells.self_s", "s", "lower"),
    ("cells.out_per_in", "ratio", "lower"),
    ("presburger.sum_fibers.calls", "count", "lower"),
    ("presburger.sum_fibers.self_s", "s", "lower"),
    ("presburger.pieces_in", "count", "lower"),
    ("presburger.pieces_out", "count", "lower"),
    ("presburger.pieces_max", "count", "lower"),
    ("presburger.eval.calls", "count", "lower"),
    ("presburger.eval.self_s", "s", "lower"),
    ("presburger.self_s", "s", "lower"),
    ("qplus.normal_form.calls", "count", "lower"),
    ("qplus.self_s", "s", "lower"),
    ("qplus.gens_out", "count", "lower"),
    ("cplus.normal_form.calls", "count", "lower"),
    ("cplus.normal_form.self_s", "s", "lower"),
    ("cplus.is_equal.self_s", "s", "lower"),
    ("cplus.specialize.self_s", "s", "lower"),
    ("vfint.integrate.self_s", "s", "lower"),
    ("vfint.cells_out", "count", "lower"),
    ("vfint.discarded", "count", "lower"),
    ("zeta.series.self_s", "s", "lower"),
    ("zeta.numer_terms", "count", "lower"),
    ("zeta.denom_factors", "count", "lower"),
    ("zeta.count.self_s", "s", "lower"),
    ("zeta.evals", "count", "lower"),
    ("padic.eval_formula.calls", "count", "lower"),
    ("padic.eval_formula.self_s", "s", "lower"),
    ("padic.gr_mul.calls", "count", "lower"),
    ("padic.self_s", "s", "lower"),
    ("formula.parse.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]

# layers whose combined self time each workload is chosen to keep small
SPLIT = {"symbolic_share": ("ring_a", "polynomials", "cells"),
         "padic_share": ("padic",)}


def spec() -> dict:
    """The benchmark's BENCHMARK.json, from the tables above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# set-up


def import_library():
    """Import motint from this checkout's src/ (never from elsewhere)."""
    if not (SRC / "motint" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'motint'} not found; run from a checkout "
                 "that holds the library sources")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import motint.cli    # noqa: F401  (imports every layer)
    import motint
    if Path(motint.__file__).resolve().parent != (SRC / "motint").resolve():
        sys.exit(f"bench: imported motint from {motint.__file__}, "
                 f"not from {SRC}")


def setup(workload: str, seed: int) -> list:
    import_library()
    import workloads
    return workloads.make_jobs(workload, seed)


def probe_setup(workload: str, seed: int, count: int) -> list:
    """Set-up seconds of fresh interpreters: from spawn to jobs ready."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        out.append(ready - t0)
    return out


def clear_caches() -> None:
    """Empty every lru_cache of the library, so each pass starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "motint" or name.startswith("motint."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# ---------------------------------------------------------------------------
# passes


def run_pass(jobs: list, tracer=None) -> dict:
    """Run every job once, in order; returns times, outcomes and sizes."""
    from workloads import Mismatch
    times, errors, sizes, counts = [], [], [], []
    lo = tracer.mark() if tracer is not None else 0
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.counts.clear()
        t0 = time.perf_counter()
        error = None
        try:
            got = job.run()
        except job.expect as exc:
            got = {"error": type(exc).__name__}
        except Mismatch as exc:
            got, error = {}, f"wrong value: {exc}"
        except Exception as exc:        # any unexpected error fails the job
            got, error = {}, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        errors.append(error)
        sizes.append(got)
        if tracer is not None:
            counts.append(dict(tracer.counts))
    wall = time.perf_counter() - start
    hi = tracer.mark() if tracer is not None else 0
    return {"wall": wall, "times": times, "errors": errors, "sizes": sizes,
            "counts": counts, "spans": (lo, hi)}


def run_passes(jobs: list, start: float, seconds: float, tracer=None,
               min_passes: int = 1, before=None) -> list:
    """Passes until ``seconds`` after ``start``: a pass is started only when
    it should end nearer the deadline than stopping now would.  ``before``
    is called before each pass."""
    passes = []
    while len(passes) < min_passes or time.perf_counter() - start \
            + passes[-1]["wall"] / 2 < seconds:
        if before is not None:
            before()
        clear_caches()
        passes.append(run_pass(jobs, tracer))
    return passes


def repeat_problems(passes: list, key: str) -> list:
    """Jobs whose sizes or counts differ between passes."""
    first = passes[0][key]
    return [i for p in passes[1:] for i, x in enumerate(p[key])
            if x != first[i]]


def percentile(values: list, k: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def write_jobs(path: Path, workload: str, seed: int, jobs: list,
               passes: list, key: str) -> dict:
    """Per-job times and sizes, and sizes summed per workload."""
    totals: dict = {}
    rows = []
    for i, job in enumerate(jobs):
        sizes = passes[0][key][i]
        for k, v in sizes.items():
            if isinstance(v, int):
                totals[k] = max(totals.get(k, 0), v) if k.endswith("_max") \
                    else totals.get(k, 0) + v
        rows.append({"kind": job.kind, "input": job.label,
                     "time_s": [p["times"][i] for p in passes],
                     "error": passes[0]["errors"][i], "sizes": sizes})
    OUT.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "passes": len(passes),
                   "totals": totals, "jobs": rows}, fh, indent=1)
    return totals


def outcome(passes: list) -> tuple:
    attempted = sum(len(p["errors"]) for p in passes)
    failures = [(i, e) for p in passes for i, e in enumerate(p["errors"]) if e]
    return attempted, failures


def untraced(args, jobs) -> tuple:
    # one set-up probe before each pass, so that the probes sample the
    # machine over the whole run; more at the end if the passes were few
    probes: list = []
    passes = run_passes(jobs, time.perf_counter(), args.seconds, before=lambda:
                        probes.extend(probe_setup(args.workload, args.seed, 1)))
    probes += probe_setup(args.workload, args.seed, SETUP_PROBES - len(probes))
    times = [t for p in passes for t in p["times"]]
    metrics = {
        "setup_s": statistics.median(probes),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "job_p50_s": statistics.median(times),
        "job_p90_s": percentile(times, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = {"setup_s": f"median of {len(probes)} fresh set-ups",
             "wall_s": f"median of {len(passes)} passes of {len(jobs)} jobs",
             "job_p50_s": f"{len(times)} samples",
             "job_p90_s": f"{len(times)} samples, "
                          f"{len(times) - int(0.9 * len(times))} beyond"}
    problems = [f"sizes of job {i} differ between passes"
                for i in repeat_problems(passes, "sizes")]
    totals = write_jobs(OUT / f"{args.workload}-seed{args.seed}-untraced.json",
                        args.workload, args.seed, jobs, passes, "sizes")
    return passes, metrics, notes, problems, totals


def traced(args, jobs) -> tuple:
    import workloads
    from tracing import Tracer, layer_of

    # half the time untraced, half traced, for the overhead of tracing
    start = time.perf_counter()
    base = run_passes(jobs, start, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        clear_caches()
        lo = tracer.mark()
        jobs = workloads.make_jobs(args.workload, args.seed)
        setup_self = tracer.self_times(lo)
        passes = run_passes(jobs, start, args.seconds, tracer,
                            MIN_TRACED_PASSES)
        selfs = [tracer.self_times(*p["spans"]) for p in passes]
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz")

    # counters of one pass: sums, except "_max" counters, which keep the top
    counts: dict = {}
    for job_counts in passes[0]["counts"]:
        for k, v in job_counts.items():
            counts[k] = max(counts.get(k, 0), v) if k.endswith("_max") \
                else counts.get(k, 0) + v

    def self_s(pred) -> float:
        return statistics.median(sum((v for k, v in s.items() if pred(k)),
                                     0.0) for s in selfs)

    wall = statistics.median(p["wall"] for p in passes)
    base_wall = statistics.median(p["wall"] for p in base)
    metrics: dict = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(".self_s"):
            head = name[:-len(".self_s")]
            if "." in head:                         # one entry point
                metrics[name] = self_s(lambda k, h=head: k == h)
            else:                                   # a whole layer
                metrics[name] = self_s(lambda k, h=head: layer_of(k) == h)
        elif unit == "count":
            metrics[name] = counts.get(name, 0)
    metrics["formula.parse.self_s"] = setup_self.get("formula.parse", 0.0) \
        + self_s(lambda k: k == "formula.parse")
    cells_in = counts.get("cells.cells_in", 0)
    metrics["cells.out_per_in"] = counts.get("cells.cells_out", 0) / cells_in \
        if cells_in else 0.0
    metrics["trace_overhead_frac"] = (wall - base_wall) / base_wall
    notes = {"trace_overhead_frac": f"median traced pass {wall:.3f} s vs "
                                    f"untraced {base_wall:.3f} s"}
    for share, layers in SPLIT.items():
        part = self_s(lambda k, ls=layers: layer_of(k) in ls)
        notes[share] = f"{part / wall:.4f} of traced wall ({part:.3f} s)"
    problems = [f"counters of job {i} differ between traced passes"
                for i in repeat_problems(passes, "counts")]
    totals = write_jobs(OUT / f"{args.workload}-seed{args.seed}-traced.json",
                        args.workload, args.seed, jobs, passes, "counts")
    return base + passes, metrics, notes, problems, totals


# ---------------------------------------------------------------------------
# entry point


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    jobs = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"ready": time.perf_counter()}))
        return 0
    run = traced if args.trace else untraced
    passes, metrics, notes, problems, totals = run(args, jobs)

    attempted, failures = outcome(passes)
    for i, err in failures[:10]:
        print(f"FAILED job {i} ({jobs[i].kind}: {jobs[i].label}): {err}")
    for msg in problems[:10]:
        print(f"NOT REPEATABLE: {msg}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: {len(passes)} passes "
          f"of {len(jobs)} jobs, closed loop, one thread")
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:30s} {value:14.6f} {units[name]:6s} {note}")
    print(f"  {'fail_frac':30s} {len(failures) / attempted:14.6f} {'ratio':6s} "
          f"{len(failures)} of {attempted} jobs")
    for name in SPLIT:
        if name in notes:
            print(f"  {name:30s} {notes[name]}")
    print("  sizes summed over one pass: " + ", ".join(
        f"{k}={v}" for k, v in sorted(totals.items())))
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
