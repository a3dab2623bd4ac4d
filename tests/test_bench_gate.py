"""The benchmark's correctness gate on its three workloads.

One pass of the catalog, sweep-edge and single-ops workloads at the default
and the held-out seed runs in process through cli.run, as perfbench/run.py
runs it.  Every output must pass its oracle in perfbench/oracles.py and match
its committed digest in perfbench/expected.json.  perfbench/ is only read: its
modules are imported without writing bytecode.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tracelab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """(workloads, oracles, expected digests), imported from perfbench/ without writing to it."""
    files_before = sorted(PERFBENCH.rglob("*"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import oracles
        import workloads

        yield workloads, oracles, json.loads((PERFBENCH / "expected.json").read_text())
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("oracles", None)
    assert sorted(PERFBENCH.rglob("*")) == files_before


@pytest.mark.parametrize("name", ["catalog", "sweep-edge", "single-ops"])
def test_cheap_workloads_pass_the_benchmark_gate(perfbench, name):
    workloads, oracles, expected = perfbench
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        workload = workloads.build(name, seed)
        digests = []
        for job in workload.jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(list(job.argv))
            assert oracles.check_job(job.check, code, out.getvalue()) is None, (seed, job.argv)
            digests.append(oracles.digest(code, out.getvalue()))
        assert digests == expected[name][str(seed)], seed
