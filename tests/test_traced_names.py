"""The benchmark's tracer patches engine functions and methods by name, so a
rename or deletion of one of them fails here and not only in the benchmark;
its hooks read the results of some of them, so they run here on three jobs."""

import contextlib
import inspect
import io
import sys
from pathlib import Path

import pytest

import tracelab.cli  # noqa: F401  (imports every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py, imported without writing bytecode; perfbench/ must not change."""
    files_before = sorted(PERFBENCH.rglob("*"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracer

        yield tracer
    finally:
        sys.modules.pop("tracer", None)
    assert sorted(PERFBENCH.rglob("*")) == files_before


def _bindings():
    """Every name bound in a tracelab module or on a class defined there."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "tracelab" or name.startswith("tracelab."):
            out[name] = dict(vars(module))
            for cls_name, cls in vars(module).items():
                if inspect.isclass(cls) and cls.__module__ == name:
                    out[f"{name}.{cls_name}"] = dict(vars(cls))
    return out


def test_tracer_installs_and_restores_every_traced_name(tracer):
    before = _bindings()
    trace = tracer.Tracer()
    trace.install()
    try:
        assert len(trace._patches) > len(tracer.TARGETS)
        assert _bindings() != before
    finally:
        trace.uninstall()
    assert _bindings() == before


# the work counts of the three jobs, which the hooks and the call counts give
PINNED = {
    "finalg.hom_module.calls": 80,
    "finalg.hom_dim_total": 176,
    "finalg.ideals_found": 72,
    "finalg.subspaces_visited": 3474,
    "finalg.is_isomorphic.calls": 29,
    "linalg.is_invertible.calls": 44,
    "numsgp.gaps_built": 28,
    "numsgp.ideals_found": 50,  # 45 over the catalog's semigroups, 5 for <3,4>: --suite all enumerates once
}


def test_tracer_hooks_read_the_traced_results(tracer):
    jobs = [
        ["catalog", "--suite", "identities", "--format", "json"],
        ["artinian", "--spec", '{"kind":"artinian","field":3,"vars":["x","y"],"relations":["x^2","y^2"]}',
         "--op", "iso", "--ideal-gens", "x", "--ideal-gens", "y"],
        ["semigroup", "--gens", "3,4", "--suite", "all", "--format", "json"],
    ]
    trace = tracer.Tracer()
    trace.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [tracelab.cli.run(argv) for argv in jobs]
    finally:
        trace.uninstall()
    assert codes == [0, 0, 1]
    counts = trace.work_counts()
    assert {name: counts[name] for name in PINNED} == PINNED

