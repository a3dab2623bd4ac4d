"""trace-lab benchmark.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  The program is imported from ./src; the
benchmark refuses to run (exit 2) when it is missing.  Every job runs in this
one single-threaded process through ``tracelab.cli.run``.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes, at least two of each, prints the
per-layer metrics and ``trace.overhead_s``, checks that the work counts of the
traced passes repeat exactly, and writes the spans to .bench_out/.  Both
modes check every output (oracles.py) and print one JSON object as the last
line of stdout.

--record-expected rewrites perfbench/expected.json, the per-job output digests
for the default and the held-out seed; use it only when a workload changes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
EXPECTED_PATH = HERE / "expected.json"

JOB_TIMEOUT_S = 40
SETUP_STEP_S = 0.05
WORKLOAD_NAMES = ("catalog", "sweep-edge", "single-ops")

sys.dont_write_bytecode = True


class JobTimeout(Exception):
    pass


def _import_program():
    """Import tracelab from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tracelab" / "__init__.py").is_file():
        print(f"error: {src / 'tracelab'} not found; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import tracelab

    if Path(tracelab.__file__).resolve().parent != (src / "tracelab").resolve():
        print(f"error: imported tracelab from {tracelab.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return tracelab


def environment(seed):
    from tracelab.verify import default_caps

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "caps": default_caps(),
    }


# -- running jobs ---------------------------------------------------------------


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(cli, job):
    """(seconds, exit code or None, stdout, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(job.argv))
        error = None
    except JobTimeout:
        code, error = None, f"timed out after {JOB_TIMEOUT_S} s"
    except Exception as exc:  # a crash in one job is a failed job, not a failed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return seconds, code, out.getvalue(), error


def run_pass(cli, workload, tracer=None):
    """One pass over the job list: (pass seconds, [(seconds, code, stdout, error)])."""
    gc.collect()
    results = []
    t0 = time.perf_counter()
    for index, job in enumerate(workload.jobs):
        if tracer is not None:
            tracer.job = index
        results.append(run_job(cli, job))
    return time.perf_counter() - t0, results


def run_traced_pass(cli, workload, tracer):
    """One pass with `tracer` installed: (run_pass's result, tracer)."""
    tracer.install()
    try:
        return run_pass(cli, workload, tracer), tracer
    finally:
        tracer.uninstall()


def repeat(step, seconds, minimum):
    """Results of step(), called at least `minimum` times and then while the
    next call, if as slow as the slowest so far, would end within `seconds`."""
    results = []
    start = time.perf_counter()
    slowest = 0.0
    while True:
        t0 = time.perf_counter()
        results.append(step())
        t1 = time.perf_counter()
        slowest = max(slowest, t1 - t0)
        if len(results) >= minimum and t1 + slowest - start > seconds:
            return results


def build_rings(workload):
    """Build every ring of the workload once from its spec."""
    from tracelab import cli, finalg, numsgp

    built = []
    for document in workload.rings:
        spec = cli.parse_ring_spec(document)
        if spec.kind == "artinian":
            built.append(finalg.algebra_from_presentation(spec.p, spec.variables, spec.relations))
        else:
            built.append(numsgp.semigroup_new(spec.generators))
    for i, j in workload.products:
        finalg.product_algebra(built[i], built[j])


def time_setup(workload):
    """Seconds of each build_rings round, repeated for at least SETUP_STEP_S seconds."""
    times = []
    while sum(times) < SETUP_STEP_S:
        gc.collect()
        t0 = time.perf_counter()
        build_rings(workload)
        times.append(time.perf_counter() - t0)
    return times


# -- correctness gate -------------------------------------------------------------


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def gate(workload, passes, expected):
    """Check every job attempt.  Returns (failed attempts, failure lines, job digests).

    An attempt fails when it raised or timed out, when its output differs
    from the first pass (nondeterminism), when an oracle rejects it, or when
    the seed has committed digests and the output's digest differs.
    """
    from oracles import check_job, digest

    committed = expected.get(workload.name, {}).get(str(workload.seed))
    failures = []
    failed = 0
    digests = []
    verdicts = {}
    for j, job in enumerate(workload.jobs):
        first = None
        for p, (_, results) in enumerate(passes):
            _, code, stdout, error = results[j]
            if error is None:
                d = digest(code, stdout)
                if d not in verdicts:
                    verdicts[d] = check_job(job.check, code, stdout)
                    if verdicts[d] is None and committed is not None and committed[j] != d:
                        verdicts[d] = f"digest {d[:12]} differs from the committed {committed[j][:12]}"
                if first is None:
                    first = d
                    digests.append(d)
                elif d != first:
                    error = f"output differs from pass 0 ({d[:12]} != {first[:12]})"
                error = error or verdicts[d]
            elif first is None:
                digests.append("error")
                first = "error"
            if error is not None:
                failed += 1
                failures.append(f"job {j} pass {p} ({' '.join(job.argv[:2])}): {error}")
    return failed, failures, digests


def skipped_ratio(workload, passes):
    """Skipped suite checks over all suite checks, from the first pass's JSON reports."""
    skipped = total = 0
    for job, (_, code, stdout, error) in zip(workload.jobs, passes[0][1]):
        if error is None and "--suite" in job.argv:
            try:
                reports = json.loads(stdout)["reports"]
            except (json.JSONDecodeError, KeyError):
                continue  # the gate counts this job as failed
            for report in reports:
                for check in report["checks"]:
                    total += 1
                    skipped += check["status"] == "skipped"
    return skipped / total if total else 0.0, skipped, total


# -- metrics ----------------------------------------------------------------------------


def tail(values):
    """(value, percentile, samples beyond): the highest percentile of the samples
    that has at least ten samples beyond it; with ten samples or fewer, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_times):
    """Each job and the set-up is timed as its fastest repetition (min of N),
    and a pass as the sum of its jobs' fastest times.

    The host's speed drifts by 15-35% over minutes, so medians of passes
    spread that much between runs.  A job's fastest repetition spreads less,
    and is what a faster program moves; summing them needs only each job,
    not a whole pass, to meet a quiet stretch of the host."""
    fastest = [min(results[j][0] for _, results in passes) for j in range(len(passes[0][1]))]
    value, pct, beyond = tail(fastest)
    metrics = {
        "wall_s": (sum(fastest), "s"),
        "job_p50_s": (statistics.median(fastest), "s"),
        "job_tail_s": (value, "s"),
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    notes = {
        "wall_s": f"sum over {len(fastest)} jobs of each job's fastest of {len(passes)} passes; "
        f"fastest whole pass {min(p[0] for p in passes):.6f} s",
        "job_p50_s": f"median of the same {len(fastest)} job times",
        "job_tail_s": f"p{pct:.1f} of the same {len(fastest)} job times, {beyond} beyond it",
        "setup_s": f"fastest of {len(setup_times)} set-up rounds, run before each pass",
    }
    return metrics, notes


def _median_of(tracers, fn):
    return statistics.median(fn(t) for t in tracers)


def per_layer(tracers, overhead_s):
    first = tracers[0].work_counts()

    def count(name):
        return first.get(name, 0)

    def self_s(name):
        return _median_of(tracers, lambda t: t.stats[name][2])

    def total_s(name):
        return _median_of(tracers, lambda t: t.stats[name][1])

    def ratio(a, b):
        return count(a) / count(b) if count(b) else 0.0

    m = {}
    for name in ("linalg.rref", "linalg.reduce_vector", "finalg.mul", "finalg.hom_module",
                 "numsgp.ideal_sum", "numsgp.ideal_colon"):
        m[f"{name}.calls"] = (count(f"{name}.calls"), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["linalg.is_invertible.calls"] = (count("linalg.is_invertible.calls"), "count")
    m["polyfp.buchberger.calls"] = (count("polyfp.buchberger.calls"), "count")
    m["polyfp.buchberger.self_s"] = (self_s("polyfp.buchberger"), "s")
    m["polyfp.normal_form.calls"] = (count("polyfp.normal_form.calls"), "count")
    m["finalg.algebra_from_presentation.s"] = (total_s("finalg.algebra_from_presentation"), "s")
    m["finalg.enumerate_ideals.s"] = (total_s("finalg.enumerate_ideals"), "s")
    m["finalg.subspaces_visited"] = (count("finalg.subspaces_visited"), "count")
    m["finalg.ideals_found"] = (count("finalg.ideals_found"), "count")
    m["finalg.ideal_yield"] = (ratio("finalg.ideals_found", "finalg.subspaces_visited"), "ratio")
    m["finalg.elements_swept"] = (count("finalg.elements_swept"), "count")
    m["finalg.hom_dim_total"] = (count("finalg.hom_dim_total"), "count")
    m["finalg.trace_ideal.calls"] = (count("finalg.trace_ideal.calls"), "count")
    m["finalg.trace_ideal.s"] = (total_s("finalg.trace_ideal"), "s")
    m["finalg.is_isomorphic.calls"] = (count("finalg.is_isomorphic.calls"), "count")
    m["finalg.is_isomorphic.s"] = (total_s("finalg.is_isomorphic"), "s")
    m["finalg.iso_maps_per_call"] = (ratio("linalg.is_invertible.calls", "finalg.is_isomorphic.calls"), "maps/call")
    m["numsgp.semigroup_new.s"] = (total_s("numsgp.semigroup_new"), "s")
    m["numsgp.gaps_built"] = (count("numsgp.gaps_built"), "count")
    m["numsgp.enumerate_normalized_ideals.s"] = (total_s("numsgp.enumerate_normalized_ideals"), "s")
    m["numsgp.ideals_found"] = (count("numsgp.ideals_found"), "count")
    for name in ("numsgp.trace", "numsgp.contains", "numsgp.from_members"):
        m[f"{name}.calls"] = (count(f"{name}.calls"), "count")
    m["verify.lp_suite.self_s"] = (self_s("verify.lp_suite"), "s")
    m["verify.identity_suite.self_s"] = (self_s("verify.identity_suite"), "s")
    for status in ("pass", "fail", "skipped"):
        m[f"verify.checks.{status}"] = (count(f"verify.checks.{status}"), "count")
    m["verify.emit_reports.s"] = (total_s("verify.emit_reports"), "s")
    m["verify.report_bytes"] = (count("verify.report_bytes"), "bytes")
    m["cli.run.self_s"] = (self_s("cli.run"), "s")
    m["cli.parse_ring_spec.s"] = (total_s("cli.parse_ring_spec"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def count_mismatches(tracers):
    """Work counts of later traced passes that differ from the first pass."""
    first = tracers[0].work_counts()
    lines = []
    for k, tracer in enumerate(tracers[1:], start=1):
        counts = tracer.work_counts()
        for name in sorted(set(first) | set(counts)):
            if first.get(name) != counts.get(name):
                lines.append(f"traced pass {k}: {name} = {counts.get(name)}, pass 0 had {first.get(name)}")
    return lines


# -- main ----------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_expected and args.workload is None:
        parser.error("--workload is required")
    return args


def record_expected(cli, workloads):
    """Write the per-job digests of the default and the held-out seed, after the oracles pass."""
    table = {}
    for name in WORKLOAD_NAMES:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            workload = workloads.build(name, seed)
            failed, failures, digests = gate(workload, [run_pass(cli, workload)], {})
            if failed:
                raise SystemExit(f"error: {name} seed {seed}: {failures[0]}")
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} jobs")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    from tracelab import cli

    import workloads
    from tracer import SPAN_CAP, Tracer

    if args.record_expected:
        record_expected(cli, workloads)
        return 0
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.build(args.workload, seed)
    env = environment(seed)
    print(f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']!r}, seed {seed}, caps {env['caps']}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"layers: {workload.layers}")
    print(f"jobs per pass: {len(workload.jobs)}, rings: {len(workload.rings)}")

    record = {"workload": workload.name, "env": env, "trace": args.trace, "seconds": args.seconds}
    if args.trace == 0:
        # Set-up rounds run before every pass, so that they sample the same
        # stretch of the host's drift as the passes do.
        rounds = repeat(lambda: (time_setup(workload), run_pass(cli, workload)), args.seconds, 3)
        passes = [p for _, p in rounds]
        measured, notes = end_to_end(passes, [t for times, _ in rounds for t in times])
        extra_lines = []
    else:
        # Alternate untraced and traced passes, so that drift in the host's
        # speed falls on both sides of trace.overhead_s alike.
        rounds = repeat(lambda: (run_pass(cli, workload), run_traced_pass(cli, workload, Tracer())), args.seconds, 2)
        untraced = [p for p, _ in rounds]
        traced = [p for _, (p, _) in rounds]
        tracers = [t for _, (_, t) in rounds]
        overhead = min(p[0] for p in traced) - min(p[0] for p in untraced)
        passes = untraced + traced
        measured, notes = per_layer(tracers, overhead), {}
        extra_lines = count_mismatches(tracers)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv"
        with open(spans_path, "w", encoding="utf-8") as handle:
            handle.write("pass\tjob\tspan\tparent\tname\tstart\tend\n")
            for k, tracer in enumerate(tracers):
                tracer.write_spans(handle, k)
        dropped = sum(t.dropped for t in tracers)
        print(f"spans: {spans_path.relative_to(ROOT)} ({dropped} dropped past {SPAN_CAP} per traced pass)")
        print(f"passes: {len(untraced)} untraced, {len(traced)} traced")

    failed, failures, digests = gate(workload, passes, load_expected())
    attempted = sum(len(results) for _, results in passes)
    ratio, skipped, total = skipped_ratio(workload, passes)
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    for line in failures[:20]:
        print(f"FAILED {line}")
    for line in extra_lines:
        print(f"WORK COUNT MISMATCH {line}")
    correct = failed == 0 and not extra_lines
    print(f"passes: {len(passes)}, jobs attempted: {attempted}, failed: {failed}")
    print(f"error_ratio = {failed / attempted:.6f} ratio ({failed}/{attempted})")
    print(f"skipped_ratio = {ratio:.6f} ratio ({skipped}/{total} suite checks)")
    for name, (value, unit) in measured.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name} = {value} {unit}{note}")
    print(f"output digest: {combined}")
    print(f"correct: {str(correct).lower()}")

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()}
    record.update(
        {
            "attempted": attempted,
            "failed": failed,
            "error_ratio": failed / attempted,
            "skipped_ratio": ratio,
            "output_digest": combined,
            "job_digests": digests,
            "notes": notes,
            "failures": failures,
            "work_count_mismatches": extra_lines,
            "metrics": metrics,
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{workload.name}-seed{seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
