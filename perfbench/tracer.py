"""Out-of-band tracing of trace-lab's layers, from outside the program.

``Tracer.install`` replaces the public functions of linalg, polyfp, finalg,
numsgp, verify and cli with timing wrappers, and ``uninstall`` puts every
original back.  Module-level functions are replaced under every name that a
tracelab module binds them to (verify and cli import engine functions by name,
and finalg imports buchberger by name); methods are replaced on their class.

Each call becomes a span (name, start, end, parent span, job id).  Spans are
kept in memory, up to SPAN_CAP, and written out by ``write_spans``.  Calls,
inclusive time and self time (duration minus the time covered by child spans)
are totalled per name for every call, also past the cap.
"""

from __future__ import annotations

import sys
import time
from array import array

SPAN_CAP = 200_000

# (module, attribute or Class.method, span name)
TARGETS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "reduce_vector", "linalg.reduce_vector"),
    ("linalg", "is_invertible", "linalg.is_invertible"),
    ("polyfp", "buchberger", "polyfp.buchberger"),
    ("polyfp", "normal_form", "polyfp.normal_form"),
    ("finalg", "FinAlgebra.mul", "finalg.mul"),
    ("finalg", "FinAlgebra.is_ideal", "finalg.is_ideal"),
    ("finalg", "FinAlgebra.enumerate_ideals", "finalg.enumerate_ideals"),
    ("finalg", "FinAlgebra.hom_module", "finalg.hom_module"),
    ("finalg", "FinAlgebra.trace_ideal", "finalg.trace_ideal"),
    ("finalg", "FinAlgebra.is_isomorphic", "finalg.is_isomorphic"),
    ("finalg", "algebra_from_presentation", "finalg.algebra_from_presentation"),
    ("finalg", "product_algebra", "finalg.product_algebra"),
    ("numsgp", "semigroup_new", "numsgp.semigroup_new"),
    ("numsgp", "enumerate_normalized_ideals", "numsgp.enumerate_normalized_ideals"),
    ("numsgp", "trace", "numsgp.trace"),
    ("numsgp", "ideal_sum", "numsgp.ideal_sum"),
    ("numsgp", "ideal_colon", "numsgp.ideal_colon"),
    ("numsgp", "RelativeIdeal.contains", "numsgp.contains"),
    ("numsgp", "RelativeIdeal.from_members", "numsgp.from_members"),
    ("verify", "run_artinian_lp_suite", "verify.lp_suite"),
    ("verify", "run_semigroup_lp_suite", "verify.lp_suite"),
    ("verify", "run_identity_suite", "verify.identity_suite"),
    ("verify", "emit_reports", "verify.emit_reports"),
    ("cli", "run", "cli.run"),
    ("cli", "parse_ring_spec", "cli.parse_ring_spec"),
)


class Tracer:
    def __init__(self):
        self.job = -1
        self.names = []
        self.stats = {}  # name -> [calls, inclusive seconds of outermost calls, self seconds]
        self.counts = {}  # work counts that are not call counts
        self.active = {}  # name -> number of open spans
        self.dropped = 0
        self._next_id = 0
        self._stack = []  # [span id, seconds covered by child spans] per open span
        self._span_cols = {k: array("q") for k in ("id", "name", "parent", "job")}
        self._span_times = {k: array("d") for k in ("start", "end")}
        self._patches = []

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: sys.modules[f"tracelab.{m}"] for m in ("linalg", "polyfp", "finalg", "numsgp", "verify", "cli")}
        bindings = [m for n, m in sys.modules.items() if n == "tracelab" or n.startswith("tracelab.")]
        for module_name, attr, span_name in TARGETS:
            module = modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(span_name, original.__func__))
                else:
                    replacement = self._wrap(span_name, original)
                self._patch(cls, meth, replacement)
            else:
                original = getattr(module, attr)
                replacement = self._wrap(span_name, original)
                for mod in bindings:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, replacement)
        finalg = modules["finalg"]
        self._patch(finalg.FinAlgebra, "all_elements", self._counting_generator(
            finalg.FinAlgebra.__dict__["all_elements"], "finalg.elements_swept"))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn):
        if name not in self.stats:
            self.stats[name] = [0, 0.0, 0.0]
            self.active[name] = 0
            self.names.append(name)
        stats, active, stack = self.stats[name], self.active, self._stack
        name_idx = self.names.index(name)
        after = _AFTER.get(name)
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            outer = active[name] == 0
            active[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                active[name] -= 1
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                if outer:
                    stats[1] += d
                stats[2] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                tracer._record(sid, name_idx, parent, t0, t1)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_generator(self, fn, counter):
        counts = self.counts
        counts.setdefault(counter, 0)

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, sid, name_idx, parent, t0, t1):
        if len(self._span_times["start"]) >= SPAN_CAP:
            self.dropped += 1
            return
        cols = self._span_cols
        cols["id"].append(sid)
        cols["name"].append(name_idx)
        cols["parent"].append(parent)
        cols["job"].append(self.job)
        self._span_times["start"].append(t0)
        self._span_times["end"].append(t1)

    def bump(self, counter, amount=1):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- output ---------------------------------------------------------------

    def work_counts(self) -> dict:
        """Every count that must repeat exactly on the same inputs."""
        out = {f"{name}.calls": s[0] for name, s in self.stats.items()}
        out.update(self.counts)
        return out

    def write_spans(self, handle, pass_index):
        cols, times = self._span_cols, self._span_times
        for i in range(len(times["start"])):
            handle.write(
                f"{pass_index}\t{cols['job'][i]}\t{cols['id'][i]}\t{cols['parent'][i]}\t"
                f"{self.names[cols['name'][i]]}\t{times['start'][i]:.9f}\t{times['end'][i]:.9f}\n"
            )


def _after_enumerate_ideals(tracer, args, result):
    if args[0].factors is None:  # products recurse into their factors
        tracer.bump("finalg.ideals_found", len(result))


def _after_is_ideal(tracer, args, result):
    if tracer.active["finalg.enumerate_ideals"]:
        tracer.bump("finalg.subspaces_visited")


def _after_emit_reports(tracer, args, result):
    for report in args[0]:
        for check in report.checks:
            tracer.bump(f"verify.checks.{check.status}")
    tracer.bump("verify.report_bytes", len(result.encode()))


_AFTER = {
    "finalg.enumerate_ideals": _after_enumerate_ideals,
    "finalg.is_ideal": _after_is_ideal,
    "finalg.hom_module": lambda t, a, r: t.bump("finalg.hom_dim_total", r.dim),
    "numsgp.semigroup_new": lambda t, a, r: t.bump("numsgp.gaps_built", len(r.gaps)),
    "numsgp.enumerate_normalized_ideals": lambda t, a, r: t.bump("numsgp.ideals_found", len(r)),
    "verify.emit_reports": _after_emit_reports,
}
