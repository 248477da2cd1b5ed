#!/usr/bin/env python3
"""Benchmark of the movsurf implicitization pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload generic --seed 0 --seconds 50 --trace 0

One process, one thread, one client in a closed loop: the seeded jobs of the
workload go through the library path of `movsurf implicitize` one after
another (load_jobspec, check_all, then pipeline(phi, config, report=report)
with the command-line defaults), in passes over the whole job list.  With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json; with --trace 1
it makes one traced pass and prints the per-layer metrics.
The last line of standard output is the JSON result; a per-job log goes to
standard error.  See README.md in this directory.
"""

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

from checker import Outcome, check_outcome, poly_digest  # noqa: E402
from jobs import INPUT_DIR, JOB_FIELDS, WORKLOADS, make_jobs  # noqa: E402
import spans  # noqa: E402

LAYERS = ("ring", "linalg", "syzygy", "basepoints", "implicitize", "cli")
SIZES = ("small", "medium", "large")
SETUP_REPEATS = 7
DEFAULT_SEED = 0


def setup(workload, seed, jobdir, tr=None):
    """Import movsurf afresh, generate the jobs, write and parse job files."""
    for name in [n for n in sys.modules
                 if n == "movsurf" or n.startswith("movsurf.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{name: importlib.import_module("movsurf." + name)
                              for name in LAYERS})
    jobs = make_jobs(workload, seed)
    specs = []
    for job in jobs:
        path = jobdir / (job["name"] + ".json")
        path.write_text(json.dumps({f: job[f] for f in JOB_FIELDS}))
        if tr is None:
            specs.append(mods.cli.load_jobspec(str(path)))
            continue
        tr.job = job["name"]
        with tr.span("cli.load_jobspec"):
            specs.append(mods.cli.load_jobspec(str(path)))
    return mods, jobs, specs


def cli_config(mods, spec):
    """The configuration `movsurf implicitize --input job.json` runs with."""
    return mods.implicitize.PipelineConfig(
        check=mods.basepoints.CheckConfig(window=3, sat_bound=None,
                                          seed=spec.seed, coord_bound=10),
        det_backend="auto", samples=100, verify_seed=spec.seed, force=False,
        assert_one_to_one=spec.assert_one_to_one)


def classify(mods, spec, report, result, exc):
    if exc is None:
        return Outcome("implicit",
                       coordinate_change=report.coordinate_change is not None,
                       terms=dict(result.polynomial.terms), k=result.k,
                       verified=result.verification.ok,
                       phi=[dict(f.terms) for f in result.phi.a])
    change = report is not None and report.coordinate_change is not None
    if isinstance(exc, mods.implicitize.ConditionError) and report is not None:
        if not report.all_passed:
            return Outcome("refused", failure=report.failure,
                           coordinate_change=change)
        if not spec.assert_one_to_one:
            return Outcome("not_one_to_one", coordinate_change=change)
        return Outcome("condition", coordinate_change=change, detail=str(exc))
    if isinstance(exc, mods.implicitize.VerificationError):
        return Outcome("verification", coordinate_change=change,
                       detail=str(exc))
    return Outcome("error", detail="".join(
        traceback.format_exception_only(type(exc), exc)).strip())


def run_job(mods, spec):
    """(check seconds, job seconds, report, result, exception)."""
    config = cli_config(mods, spec)
    report = result = exc = None
    t0 = time.perf_counter()
    t1 = None
    try:
        report = mods.basepoints.check_all(spec.phi, config.check)
        t1 = time.perf_counter()
        result = mods.implicitize.pipeline(spec.phi, config, report=report)
    except Exception as e:  # an outcome to check, not a crash of the run
        exc = e
    t2 = time.perf_counter()
    return (t1 or t2) - t0, t2 - t0, report, result, exc


def run_pass(mods, specs):
    t0 = time.perf_counter()
    rows = [run_job(mods, spec) for spec in specs]
    return time.perf_counter() - t0, rows


def pass_times(jobs, wall, rows):
    times = {"solve_s": wall, "check_s": sum(row[0] for row in rows)}
    for size in SIZES:
        times["solve_s." + size] = sum(
            row[1] for job, row in zip(jobs, rows) if job["size"] == size)
    return times


class Tally:
    """Checks outcomes and counts jobs attempted, failed and unexpected."""

    def __init__(self, workload, seed):
        self.seed = seed
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.digests = (digests.get(workload, {}) if seed == DEFAULT_SEED
                        else {})
        self.attempted = self.failed = self.unexpected = 0

    def check(self, mods, job, spec, row):
        check_s, job_s, report, result, exc = row
        outcome = classify(mods, spec, report, result, exc)
        problems = check_outcome(job, outcome, self.seed,
                                 self.digests.get(job["name"]))
        self.attempted += 1
        if problems:
            self.failed += 1
            if not job.get("known_defect") or outcome.kind == "error":
                self.unexpected += 1
        print("%-18s %-6s check %7.3f s  job %7.3f s  %-14s %s" % (
            job["name"], job["size"], check_s, job_s, outcome.kind,
            "; ".join(problems) or "ok"), file=sys.stderr)
        return outcome


def calib():
    """A fixed pure-Python Fraction loop; a diagnostic of host speed."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 40000):
        acc += Fraction(i % 97, i % 89 + 1)
    return time.perf_counter() - t0


def outcome_key(outcome):
    terms = sorted(outcome.terms.items()) if outcome.terms else None
    return outcome.kind, outcome.failure, terms


def measure(args, mods, jobs, specs, tally):
    """Untraced passes for --seconds; medians of the end-to-end times."""
    passes = []
    start = time.perf_counter()
    while True:
        wall, rows = run_pass(mods, specs)
        passes.append(pass_times(jobs, wall, rows))
        for job, spec, row in zip(jobs, specs, rows):
            tally.check(mods, job, spec, row)
        if time.perf_counter() - start + wall > args.seconds:
            break
    print("passes: %d" % len(passes), file=sys.stderr)
    return {name: statistics.median(p[name] for p in passes)
            for name in passes[0]}


def traced(args, mods, jobs, specs, tally, tr):
    """A traced pass of the recomposed pipeline, then pipeline() untraced on
    the battery reports it produced.  The battery runs once, traced: its
    probes wrap a few dozen coarse calls per job, so its span stands in for
    the untraced battery time.  Returns the per-layer metrics and the number
    of jobs on which the two pipelines disagree."""
    t0 = time.perf_counter()
    recomposed = []
    with spans.probes(tr, mods):
        for job, spec in zip(jobs, specs):
            tr.job = job["name"]
            report = result = exc = None
            with tr.span("job", kind="job"):
                try:
                    report, result = spans.recompose(tr, mods, spec.phi,
                                                     cli_config(mods, spec))
                except Exception as e:  # compared with pipeline()'s outcome
                    exc = e
                    report = getattr(e, "report", None)
            recomposed.append((report, result, exc))
    wall_t = time.perf_counter() - t0
    host = statistics.median(calib() for _ in range(3))

    check_spans = [rec for rec in tr.spans
                   if rec["name"] == "basepoints.check_all"]
    battery_s = sum(rec["end"] - rec["start"] for rec in check_spans)
    untraced_s = battery_s
    mismatches = 0
    for job, spec, (report, result, exc) in zip(jobs, specs, recomposed):
        got = classify(mods, spec, report, result, exc)
        config = cli_config(mods, spec)
        ref_result = ref_exc = None
        t1 = time.perf_counter()
        try:
            ref_result = mods.implicitize.pipeline(spec.phi, config,
                                                   report=report)
        except Exception as e:  # an outcome to check, not a crash of the run
            ref_exc = e
        job_s = time.perf_counter() - t1
        untraced_s += job_s
        check_s = sum(rec["end"] - rec["start"] for rec in check_spans
                      if rec["job"] == job["name"])
        ref = tally.check(mods, job, spec,
                          (check_s, check_s + job_s, report, ref_result,
                           ref_exc))
        if outcome_key(got) != outcome_key(ref):
            mismatches += 1
            print("%s: recomposed pipeline gives %s, pipeline() gives %s"
                  % (job["name"], got.kind, ref.kind), file=sys.stderr)

    metrics = spans.layer_metrics(tr.spans)
    metrics["trace.coverage"] = spans.primary_total(tr.spans) / untraced_s
    metrics["trace.overhead_s"] = wall_t - untraced_s
    metrics["host.calib_s"] = host
    OUT.joinpath("spans-%s-%d.json" % (args.workload, args.seed)).write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "traced_s": wall_t, "untraced_s": untraced_s,
                    "spans": tr.spans}))
    return metrics, mismatches


def record_digests(args, mods, jobs, specs):
    """Write the digests of this workload's outputs at the default seed."""
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    _, rows = run_pass(mods, specs)
    digests[args.workload] = {
        job["name"]: poly_digest(row[3].polynomial.terms)
        for job, row in zip(jobs, rows)
        if job["expect"]["outcome"] == "implicit" and row[4] is None}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record-digests", action="store_true",
                    help="write digests.json entries at the default seed")
    args = ap.parse_args(argv)
    if not (SRC / "movsurf" / "__init__.py").is_file() or not INPUT_DIR.is_dir():
        print("perfbench: %s or %s is missing; run from a full checkout"
              % (SRC / "movsurf", INPUT_DIR), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    tr = spans.Tracer() if args.trace else None
    setup_times = []
    with tempfile.TemporaryDirectory(dir=OUT) as jobdir:
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            mods, jobs, specs = setup(args.workload, args.seed, Path(jobdir),
                                      tr if i == SETUP_REPEATS - 1 else None)
            setup_times.append(time.perf_counter() - t0)
    if args.record_digests:
        record_digests(args, mods, jobs, specs)
        return 0

    tally = Tally(args.workload, args.seed)
    mismatches = 0
    if args.trace:
        values, mismatches = traced(args, mods, jobs, specs, tally, tr)
        wanted = bench["per_layer"]
    else:
        values = measure(args, mods, jobs, specs, tally)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
        values["ok_rate"] = 1 - tally.failed / tally.attempted
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": tally.unexpected == 0 and mismatches == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
