"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that
1. the metric names and units run.py prints, in both modes, match BENCHMARK.json;
2. the correctness gate rejects corrupted outputs, and accepts the real ones;
3. the tracing wrappers restore the original functions, so an untraced run
   after a traced one is unaffected.
Prints one line per check and exits 1 when any fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_metric_names():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "catalog", "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"--trace {trace}: exit {proc.returncode}, keys {sorted(result)}")
            continue
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if printed != declared:
            problems.append(f"--trace {trace}: printed {sorted(printed.items() - declared.items())}, "
                            f"declared {sorted(declared.items() - printed.items())}")
        if not result["correct"]:
            problems.append(f"--trace {trace}: run reported incorrect output")
    return problems


def check_gate(cli):
    from oracles import check_job
    from workloads import Job, Workload

    cases = [
        (("catalog", "--suite", "all", "--format", "json"), ("catalog",)),
        (("semigroup", "--gens", "3,4", "--suite", "lp", "--format", "json"), ("semigroup-lp", (3, 4))),
        (("semigroup", "--gens", "2,7", "--suite", "lp", "--format", "json"), ("semigroup-lp", (2, 7))),
        (("artinian", "--spec", '{"kind":"artinian","field":2,"vars":["x","y"],"relations":["x^2","x*y","y^2"]}',
          "--suite", "lp", "--format", "json"), ("artinian-lp", ("x", "y"), ("x^2", "x*y", "y^2"))),
        (("artinian", "--spec", '{"kind":"artinian","field":3,"vars":["t"],"relations":["t^2"]}',
          "--suite", "identities", "--format", "json"), ("identities",)),
        (("semigroup", "--gens", "7,10", "--op", "trace", "--ideal", "0,13"), ("semigroup-op", (7, 10), "trace", ("0,13",))),
        (("semigroup", "--gens", "7,10", "--op", "endo", "--ideal", "0,3"), ("semigroup-op", (7, 10), "endo", ("0,3",))),
        (("artinian", "--spec", '{"kind":"artinian","field":2,"vars":["x","y"],"relations":["x^3","y^4"]}',
          "--op", "colon", "--ideal-gens", "x^2", "--ideal-gens", "y"),
         ("artinian-op", 2, ("x", "y"), ("x^3", "y^4"), "colon", ("x^2", "y"))),
    ]
    problems = []
    for argv, check in cases:
        _, code, out, error = run.run_job(cli, Job(argv, check))
        if error or check_job(check, code, out) is not None:
            problems.append(f"{' '.join(argv[:3])}: real output rejected ({error or check_job(check, code, out)})")
        for corrupted in _corruptions(out):
            if check_job(check, code, corrupted) is None:
                problems.append(f"{' '.join(argv[:3])}: corrupted output accepted: {corrupted[:60]!r}")
        if check_job(check, 2, out) is None:
            problems.append(f"{' '.join(argv[:3])}: exit code 2 accepted")

    # The gate counts a corrupted attempt and a nondeterministic one as failed.
    argv, check = cases[0]
    workload = Workload("catalog", 0, (Job(argv, check),), ())
    _, code, out, _ = run.run_job(cli, Job(argv, check))
    good = (0.0, [(0.0, code, out, None)])
    bad = (0.0, [(0.0, code, out.replace("holds", "fails", 1), None)])
    for passes, want in (([good, good], 0), ([good, bad], 1), ([bad], 1)):
        failed, _, _ = run.gate(workload, passes, {})
        if failed != want:
            problems.append(f"gate counted {failed} failed attempts, expected {want}")
    return problems


def _corruptions(out):
    """Outputs that differ from `out` in the ways a broken engine could."""
    flips = [("monomial ideals pass", "counterexample found"), ("counterexample found", "monomial ideals pass"),
             ('"fails"', '"holds"'), ('"status": "pass"', '"status": "fail"'), ("all identities hold", "identity violated")]
    variants = [out.replace(a, b, 1) for a, b in flips if a in out]
    text = out.strip()
    if ", " in text:
        variants.append(text.rsplit(", ", 1)[0] + "\n")  # one row lost
    if "|" in text:
        variants.append(text.replace("|", "1 |", 1) + "\n")  # a member added
    if text.replace(",", "").isdigit():
        variants.append(text + ",999\n")  # an extra generator
    return [v for v in variants if v != out]


def check_wrappers_restored(cli):
    import hashlib

    from oracles import CATALOG_SHA256
    from tracer import Tracer
    from workloads import Job

    tracer = Tracer()
    tracer.install()
    installed = [(owner, name, owner.__dict__[name], original) for owner, name, original in tracer._patches]
    job = Job(("catalog", "--suite", "all", "--format", "json"), ("catalog",))
    run.run_job(cli, job)
    calls = tracer.work_counts()
    tracer.uninstall()
    problems = []
    for owner, name, wrapper, original in installed:
        where = f"{getattr(owner, '__name__', owner)}.{name}"
        if wrapper is original:
            problems.append(f"{where} was not wrapped")
        if owner.__dict__[name] is not original:
            problems.append(f"{where} was not restored")
    if not calls.get("cli.run.calls"):
        problems.append("traced run recorded no cli.run call")
    _, code, out, _ = run.run_job(cli, job)
    if hashlib.sha256(out.encode()).hexdigest() != CATALOG_SHA256 or code != 0:
        problems.append("untraced catalog after a traced one differs from the seed-state report")
    if tracer.work_counts() != calls:
        problems.append("an untraced run after uninstall still reached the tracer")
    return problems


def main() -> int:
    run._import_program()
    from tracelab import cli

    failed = False
    for name, check in (("metric names and units match BENCHMARK.json", check_metric_names),
                        ("gate rejects corrupted outputs", lambda: check_gate(cli)),
                        ("tracing wrappers are restored", lambda: check_wrappers_restored(cli))):
        problems = check()
        print(f"{'ok  ' if not problems else 'FAIL'} {name}")
        for line in problems:
            print(f"     {line}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
