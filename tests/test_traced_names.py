"""The benchmark's tracer patches engine functions and methods by name, so a
rename or deletion of one of them fails here and not only in the benchmark."""

import inspect
import sys
from pathlib import Path

import tracelab.cli  # noqa: F401  (imports every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_tracer_installs_and_restores_every_traced_name(monkeypatch):
    files_before = sorted(PERFBENCH.rglob("*"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracer

        before = _bindings()
        trace = tracer.Tracer()
        trace.install()
        try:
            assert len(trace._patches) > len(tracer.TARGETS)
            assert _bindings() != before
        finally:
            trace.uninstall()
        assert _bindings() == before
    finally:
        sys.modules.pop("tracer", None)
    assert sorted(PERFBENCH.rglob("*")) == files_before
