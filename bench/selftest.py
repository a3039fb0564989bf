"""Fast self-test of the benchmark itself (a few seconds).

    python3 bench/selftest.py

It runs a few jobs of every workload, checks that a corrupted expected
value and a wrong library answer are caught, that an unexpected exception
counts as a failure while an expected typed error does not, that the
tracing shim restores every binding it replaced and that its counters
repeat exactly, within a run and across two fresh interpreters, and that
BENCHMARK.json matches the tables in run.py.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run                                            # noqa: E402

run.import_library()

import workloads as W                                 # noqa: E402
from tracing import SPANNED, Tracer, _resolve         # noqa: E402
from motint.errors import MotintError, UnsupportedH   # noqa: E402

SEED = 7
PER_KIND = 2
failures: list = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def few(jobs: list, per_kind: int = PER_KIND) -> list:
    """The first jobs of each kind, in the seeded order."""
    seen: dict = {}
    out = []
    for job in jobs:
        if seen.get(job.kind, 0) < per_kind:
            seen[job.kind] = seen.get(job.kind, 0) + 1
            out.append(job)
    return out


def traced_counts() -> list:
    """Per-job counters of a traced pass over the first jobs of each kind."""
    jobs = [j for name in W.WORKLOADS for j in few(W.make_jobs(name, SEED), 1)]
    tracer = Tracer()
    tracer.install()
    try:
        run.clear_caches()
        return run.run_pass(jobs, tracer)["counts"]
    finally:
        tracer.uninstall()


def counts_in_fresh_process(hash_seed: str) -> list:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--counts"],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, timeout=300)
    return json.loads(proc.stdout) if proc.returncode == 0 else []


def main() -> int:
    # every workload: a few jobs of each kind pass their checks
    for name in W.WORKLOADS:
        jobs = few(W.make_jobs(name, SEED))
        res = run.run_pass(jobs)
        bad = [e for e in res["errors"] if e]
        check(not bad and len(jobs) >= 2,
              f"{name}: {len(jobs)} jobs pass ({bad[:1]})")

    # a corrupted recorded value fails its check
    cat = W.load_catalogue()
    broken = copy.deepcopy(cat)
    broken["cylinder"] = broken["cylinder"][:1]
    vals = broken["cylinder"][0]["values"]
    vals[-1] = str(Fraction(vals[-1]) + 1)
    broken["residue"] = [dict(e, count=e["count"] + 1)
                         for e in cat["residue"][:1]]
    saved = W.MEMBERSHIP_JOBS
    W.MEMBERSHIP_JOBS = 0
    try:
        jobs = W.counting(SEED, broken)
    finally:
        W.MEMBERSHIP_JOBS = saved
    res = run.run_pass(jobs)
    wrong = [e for e in res["errors"] if e and e.startswith("wrong value")]
    check(len(jobs) == 2 and len(wrong) == 2,
          "corrupted cylinder and residue counts are reported wrong")

    # a wrong answer from the library fails the closed-form check
    job = next(j for j in W.closed_form(SEED) if j.kind == "zmot")
    real = W.zprime_count

    def halved(*args, **kwargs):
        out = real(*args, **kwargs)
        return type(out)(out.i_max, (out.values[0] / 2,) + out.values[1:])

    W.zprime_count = halved
    try:
        res = run.run_pass([job])
    finally:
        W.zprime_count = real
    check(str(res["errors"][0]).startswith("wrong value"),
          f"a corrupted shell count fails the closed-form check "
          f"({res['errors'][0]})")

    # an unexpected exception counts as failed; an expected typed one not
    def boom():
        raise RuntimeError("boom")

    def typed():
        raise UnsupportedH("expected")

    ok_job = few(W.make_jobs("sums", SEED), 1)[0]
    jobs = [ok_job, W.Job("boom", "raises RuntimeError", boom),
            W.Job("typed", "raises UnsupportedH", typed, (MotintError,)),
            W.Job("typed", "raises UnsupportedH unexpectedly", typed)]
    attempted, failed = run.outcome([run.run_pass(jobs)])
    check(attempted == 4 and [i for i, _ in failed] == [1, 3],
          f"fail_frac counts unexpected errors: {len(failed)}/{attempted}")

    # the tracing shim restores every binding and its counts repeat
    originals = {(o, a): _resolve(o).__dict__[a] for _, o, a in SPANNED}
    jobs = few(W.make_jobs("closed-form", SEED), 1) \
        + few(W.make_jobs("counting", SEED), 1)
    tracer = Tracer()
    tracer.install()
    try:
        passes = []
        for _ in range(2):
            run.clear_caches()
            passes.append(run.run_pass(jobs, tracer))
    finally:
        tracer.uninstall()
    restored = all(_resolve(o).__dict__[a] is fn
                   for (o, a), fn in originals.items())
    check(restored, "uninstall restores every wrapped entry point")
    zmot = [i for i, j in enumerate(jobs) if j.kind == "zmot"][0]
    check(not run.repeat_problems(passes, "counts")
          and passes[0]["counts"][zmot].get("zeta.series.calls", 0) >= 1,
          "traced counters repeat exactly across passes")
    selfs = tracer.self_times()
    total = sum(selfs.values())
    walls = sum(p["wall"] for p in passes)
    check(0 < total <= walls, f"self times sum to {total:.3f} s "
          f"within {walls:.3f} s of traced wall")

    # counters repeat across processes, whatever the string-hash seed
    one, two = counts_in_fresh_process("1"), counts_in_fresh_process("2")
    check(bool(one) and one == two,
          "traced counters repeat exactly across two fresh runs")

    # BENCHMARK.json is what run.py describes
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        check(json.load(fh) == run.spec(), "BENCHMARK.json matches run.spec()")

    print("selftest: " + ("PASS" if not failures else
                          f"{len(failures)} FAILED"))
    return 0 if not failures else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--counts"]:
        print(json.dumps(traced_counts()))
        sys.exit(0)
    sys.exit(main())
