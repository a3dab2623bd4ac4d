"""Theorem suites: run engine computations against the classification claims
and produce deterministic, witness-carrying reports.

Positive semigroup verdicts are always labeled "monomial ideals pass", never a
blanket claim about all ideals: the semigroup engine quantifies over monomial
ideals only, so a failure is a genuine disproof while a pass is evidence for
the monomial slice.  Skipped checks (cap or budget overruns) never count as
passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import linalg, numsgp
from .errors import EnumerationCapExceededError, SearchBudgetExceededError
from .finalg import DEFAULT_HOM_CAP_EXPONENT, FinAlgebra, IdealSubspace, algebra_from_presentation, product_algebra
from .numsgp import (
    NumericalSemigroup,
    canonical_ideal,
    dual,
    enumerate_normalized_ideals,
    filtration_length,
    ideal_colon,
    ideal_sum,
    is_reflexive,
    is_symmetric,
    is_translate,
    maximal_ideal,
    semigroup_as_ideal,
    semigroup_new,
    trace,
)

ENGINE_VERSION = "0.1.0"


def default_caps() -> dict:
    """Caps used by the suites: subspace-enumeration dimension (None = the
    per-field default), gap-set size, and the exponent of the 2^h budget for
    isomorphism searches."""
    return {"dim": None, "gaps": numsgp.DEFAULT_GAP_CAP, "hom": DEFAULT_HOM_CAP_EXPONENT}


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    anchor: str
    witness: dict | None = None  # {"reason": ...} for a skipped check

    def to_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "witness": self.witness,
            "anchor": self.anchor,
        }


@dataclass
class VerificationReport:
    ring: str
    suite: str
    checks: list = field(default_factory=list)
    caps: dict = field(default_factory=default_caps)
    verdict: str | None = None
    engine_version: str = ENGINE_VERSION

    @property
    def summary(self):
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            counts[c.status] += 1
        return counts

    @property
    def has_failures(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_dict(self):
        return {
            "ring": self.ring,
            "suite": self.suite,
            "verdict": self.verdict,
            "engine_version": self.engine_version,
            "caps": self.caps,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }


def _check(name, ok, anchor, witness=None):
    return CheckResult(name, "pass" if ok else "fail", anchor, witness)


def _skip(name, anchor, reason):
    return CheckResult(name, "skipped", anchor, {"reason": reason})


def _first(witnesses):
    """(ok, witness) of a check that fails on the first witness of a lazy
    stream, so that its work stops there."""
    for witness in witnesses:
        return False, witness
    return True, None


def _suite(checks, enumerate_ideals, capped, groups):
    """Append one suite's checks to the list checks.

    groups(ideals) yields groups of (name, anchor, outcome) entries, and
    outcome() gives (ok, witness); it may read the checks made before it.  A
    SearchBudgetExceededError skips the entry's whole group with its reason.
    When enumerate_ideals() exceeds its cap, the capped (name, anchor) pairs
    are skipped with that reason instead.
    """
    try:
        ideals = enumerate_ideals()
    except EnumerationCapExceededError as exc:
        checks.extend(_skip(name, anchor, str(exc)) for name, anchor in capped)
        return
    for group in groups(ideals):
        start = len(checks)
        try:
            for name, anchor, outcome in group:
                ok, witness = outcome()
                checks.append(_check(name, ok, anchor, witness))
        except SearchBudgetExceededError as exc:
            checks[start:] = [_skip(name, anchor, str(exc)) for name, anchor, _ in group]


_IDENTITY_SUITE = (("identity-suite", "engine-invariants"),)
_ENDOMORPHISM_ANCHOR = "reflexive-self-trace-ideals-are-traces-of-their-endomorphism-rings"


# ---------------------------------------------------------------------------
# artinian suites
# ---------------------------------------------------------------------------

_ARTINIAN_CONDITIONS = (
    ("ring-is-artinian-gorenstein", "gorenstein-socle-criterion"),
    ("every-ideal-equals-its-trace", "trace-fixed-ideals"),
    ("every-principal-ideal-equals-its-trace", "principal-trace-fixed-ideals"),
    ("every-ideal-isomorphic-to-its-trace", "trace-isomorphism-for-all-ideals"),
    ("every-principal-ideal-isomorphic-to-its-trace", "principal-trace-isomorphism"),
    ("five-way-equivalence", "depth-zero-trace-classification"),
)


class IdealRecord(NamedTuple):
    """One row of an artinian algebra's ideal table."""

    ideal: IdealSubspace
    trace: IdealSubspace
    generator: tuple | None  # the least generator of a principal ideal, else None


def ideal_table(algebra: FinAlgebra, cap_dim=None) -> list:
    """One IdealRecord per ideal, in the order of algebra.enumerate_ideals.

    Both artinian suites read it: `--suite all` and the catalog build it once
    per algebra for both, a suite run alone builds its own.  enumerate_ideals
    checks its caps before any work, so an algebra over a cap raises
    EnumerationCapExceededError here before anything is traced.
    """
    ideals = algebra.enumerate_ideals(cap_dim)
    return [IdealRecord(i, algebra.trace_ideal(i), algebra.least_generator(i)) for i in ideals]


def _table_source(algebra, caps, table):
    """What _suite enumerates for an artinian suite: the given table, or a new one."""
    return (lambda: table) if table is not None else partial(ideal_table, algebra, caps["dim"])


def _principal(table):
    """The records of the principal ideals, in the order of their least generators."""
    return sorted((r for r in table if r.generator is not None), key=lambda r: r.generator)


def run_artinian_lp_suite(algebra: FinAlgebra, caps: dict | None = None, table=None) -> VerificationReport:
    """Depth-zero classification suite.

    Evaluates, over every ideal: equality with its trace, isomorphism with its
    trace, the same two conditions for principal ideals only, and the socle
    criterion; then asserts the five-way equivalence of those conditions.  An
    isomorphism search over its budget skips both isomorphism conditions and
    the equivalence.  table is the algebra's ideal_table under caps["dim"],
    or None to build one.
    """
    caps = caps or default_caps()
    report = VerificationReport(ring=algebra.label, suite="lp", caps=caps, verdict="undecided")

    def gorenstein():
        gor = algebra.is_gorenstein()
        if not algebra.is_local:
            return gor, None
        socle = algebra.annihilator(algebra.radical())
        return gor, {"socle": algebra.format_ideal(socle), "socle_dimension": socle.dim}

    def witness(ideal, tr):
        return {"ideal": algebra.format_ideal(ideal), "trace": algebra.format_ideal(tr)}

    def unequal(records):
        return lambda: _first(witness(ideal, tr) for ideal, tr, _ in records if ideal != tr)

    def non_isomorphic(records):
        return lambda: _first(
            witness(ideal, tr) for ideal, tr, _ in records if not algebra.is_isomorphic(ideal, tr, caps["hom"])
        )

    def groups(table):
        principal = _principal(table)

        def equivalence():
            conditions = [c.status == "pass" for c in report.checks]
            report.verdict = "holds" if conditions[3] else "fails"
            return len(set(conditions)) == 1, {"conditions": conditions, "ideal_count": len(table)}

        outcomes = (gorenstein, unequal(table), unequal(principal))
        outcomes += (non_isomorphic(table), non_isomorphic(principal), equivalence)
        entries = [(name, anchor, outcome) for (name, anchor), outcome in zip(_ARTINIAN_CONDITIONS, outcomes)]
        return [[entry] for entry in entries[:3]] + [entries[3:]]

    _suite(report.checks, _table_source(algebra, caps, table), _ARTINIAN_CONDITIONS, groups)
    return report


def _isomorphism_classes(algebra, ideals, hom_cap):
    """Partition ideals into isomorphism classes (lists of ideals)."""
    classes = []
    for ideal in ideals:
        for cls in classes:
            if cls[0].dim == ideal.dim and algebra.is_isomorphic(cls[0], ideal, hom_cap):
                cls.append(ideal)
                break
        else:
            classes.append([ideal])
    return classes


def _annihilator_by_rows(algebra, ideal):
    """{r : r*v = 0 for every rref row v of the ideal}: one kernel of the
    stacked transposed multiplication matrices, an oracle for annihilator()
    that does not cut R down generator by generator."""
    p, d = algebra.field.p, algebra.dim
    rows = [column for v in ideal.matrix for column in zip(*algebra.action(v))]
    return IdealSubspace(p, d, linalg.right_kernel(rows, d, p))


def _artinian_identities(algebra, hom_cap, table):
    """The groups of the artinian identity suite."""
    fmt = algebra.format_ideal
    ideals = [r.ideal for r in table]
    trace_of = {r.ideal: r.trace for r in table}

    def contained():
        return _first({"ideal": fmt(r.ideal)} for r in table if not r.ideal.is_subspace_of(r.trace))

    def idempotent():
        # tr(I) is an ideal, so its trace is in the table; one that is not
        # there is no ideal, hence not its own trace.
        return _first({"ideal": fmt(r.ideal)} for r in table if trace_of.get(r.trace) != r.trace)

    def double_annihilator():
        # Both sides depend only on the ideal (v), so the first element of the
        # all_elements order that fails is the least generator of its ideal.
        for _, via_hom, v in _principal(table):
            via_ann = algebra.trace_principal_via_ann(v)
            if via_hom != via_ann:
                element = algebra.format_element(v)
                yield {"element": element, "trace": fmt(via_hom), "double_annihilator": fmt(via_ann)}

    yield [("trace-containment", "every-ideal-lies-in-its-trace", contained)]
    yield [("trace-idempotence", "trace-of-a-trace-ideal-is-itself", idempotent)]
    yield [
        (
            "principal-trace-equals-double-annihilator",
            "principal-trace-is-the-double-annihilator",
            lambda: _first(double_annihilator()),
        )
    ]

    unit = algebra.unit_ideal()

    def colon():
        return _first(
            {"ideal": fmt(j)}
            for j in ideals
            if algebra.annihilator(j) != _annihilator_by_rows(algebra, j) or algebra.colon_in_ring(j, unit) != j
        )

    yield [("colon-annihilator-agreement", "colon-definitional-cross-checks", colon)]

    classes = []  # filled by same_trace, which runs first in its group

    def same_trace():
        classes.extend(_isomorphism_classes(algebra, ideals, hom_cap))
        return _first(
            {"ideal": fmt(cls[0]), "isomorphic_ideal": fmt(other)}
            for cls in classes
            for other in cls[1:]
            if trace_of[other] != trace_of[cls[0]]
        )

    def same_hom_dimension():
        return _first(
            {"ideal": fmt(cls[0]), "isomorphic_ideal": fmt(cls[1]), "target": fmt(j)}
            for cls in classes
            if len(cls) > 1
            for j in ideals
            if algebra.hom_module(cls[0], j).dim != algebra.hom_module(cls[1], j).dim
        )

    yield [
        ("trace-isomorphism-invariance", "isomorphic-modules-share-a-trace", same_trace),
        ("hom-dimension-isomorphism-invariance", "hom-spaces-see-only-the-isomorphism-class", same_hom_dimension),
    ]

    def product_of_traces(ideal):
        parts = zip(algebra.local_factors(), algebra.factor_ideals(ideal))
        return algebra.product_ideal([f.trace_ideal(i) for f, i in parts])

    def factorization():
        return _first({"ideal": fmt(ideal)} for ideal, tr, _ in table if tr != product_of_traces(ideal))

    if algebra.factors is not None:
        yield [("product-trace-factorization", "trace-of-a-product-is-the-product-of-traces", factorization)]


# ---------------------------------------------------------------------------
# semigroup suites
# ---------------------------------------------------------------------------


def run_semigroup_lp_suite(sgp: NumericalSemigroup, caps: dict | None = None) -> VerificationReport:
    """Monomial-ideal trace-translate suite for a numerical semigroup ring.

    Checks, for every normalized monomial ideal E, whether trace(E) is a
    translate of E; the verdict is "monomial ideals pass" or "counterexample
    found" together with the first failing pair.  Cross-checks the verdict
    against the multiplicity-two classification.
    """
    caps = caps or default_caps()
    report = VerificationReport(ring=sgp.label, suite="lp", caps=caps, verdict="undecided")

    def translate(ideal, text):
        tr = trace(ideal)
        offset = is_translate(ideal, tr).offset
        return offset is not None, {"E": text, "trace": tr.format(), "offset": offset}

    def classification():
        counterexample = next((c.witness for c in report.checks if c.status == "fail"), None)
        report.verdict = "counterexample found" if counterexample else "monomial ideals pass"
        m = maximal_ideal(sgp)
        m2_offset = is_translate(m, ideal_sum(m, m)).offset
        witness = {
            "multiplicity": sgp.multiplicity,
            "symmetric": is_symmetric(sgp),
            "m2_translate_offset": m2_offset,
            "verdict": report.verdict,
            "counterexample": counterexample,
        }
        return (not counterexample) == (sgp.multiplicity <= 2), witness

    def groups(ideals):
        for e in ideals:
            text = e.format()
            yield [(f"trace-is-translate[{text}]", "monomial-trace-isomorphism", partial(translate, e, text))]
        anchor = "dimension-one-multiplicity-two-classification"
        yield [("verdict-matches-multiplicity-classification", anchor, classification)]

    capped = (("trace-is-translate", "monomial-trace-isomorphism"),)
    _suite(report.checks, lambda: enumerate_normalized_ideals(sgp, caps["gaps"]), capped, groups)
    return report


def _semigroup_identities(sgp, ideals):
    """The groups of the semigroup identity suite."""
    s_ideal = semigroup_as_ideal(sgp)
    data = [(e, trace(e), dual(e)) for e in ideals]

    def idempotent():
        return _first({"E": e.format()} for e, tr, _ in data if trace(tr) != tr)

    def uncontained():
        for e, tr, dl in data:
            if not e.shift(dl.min).is_subset_of(tr):
                yield {"E": e.format(), "trace": tr.format(), "offset": dl.min}
            elif dl.contains(0) and not e.is_subset_of(tr):
                yield {"E": e.format(), "trace": tr.format(), "offset": 0}

    def self_colon():
        return _first({"E": e.format()} for e, tr, dl in data if (tr == e) != (ideal_colon(e, e) == dl))

    def triple_dual():
        return _first({"E": e.format()} for e, _, dl in data if dual(dual(dl)) != dl)

    def unrecovered():
        for e, tr, _ in data:
            if is_reflexive(e) and tr == e:
                endo = ideal_colon(e, e)
                if trace(endo) != e:
                    yield {"E": e.format(), "endomorphism_ideal": endo.format()}

    yield [("trace-idempotence", "trace-of-a-trace-ideal-is-itself", idempotent)]
    yield [("trace-containment", "every-ideal-lies-in-its-trace", lambda: _first(uncontained()))]
    yield [("self-trace-iff-self-colon-equals-dual", "trace-fixed-iff-endomorphisms-equal-dual", self_colon)]
    yield [("triple-dual-stability", "duals-are-reflexive", triple_dual)]
    yield [("endomorphism-ring-trace-recovery", _ENDOMORPHISM_ANCHOR, lambda: _first(unrecovered()))]

    m = maximal_ideal(sgp)
    m_trace = trace(m)

    def maximal_endomorphism():
        witness = {"I": m.format(), "trace_of_I": m_trace.format()}
        if not (is_reflexive(m) and m_trace == m):
            return True, witness
        endo = ideal_colon(m, m)
        recovered = trace(endo)
        witness["endomorphism_ideal"] = endo.format()
        witness["endomorphism_generators"] = list(numsgp.endo_semigroup(m.normalized()).generators)
        witness["trace_of_endomorphism_ideal"] = recovered.format()
        return recovered == m, witness

    def free_dual():
        return _first(
            {"E": e.format(), "dual": dl.format(), "trace": tr.format()}
            for e, tr, dl in data
            if is_translate(s_ideal, dl) and not is_translate(e, tr)
        )

    yield [("maximal-ideal-endomorphism-trace", _ENDOMORPHISM_ANCHOR, maximal_endomorphism)]
    yield [("principal-dual-implies-trace-translate", "free-dual-forces-trace-isomorphism", free_dual)]

    e_mult = sgp.multiplicity
    symmetric = is_symmetric(sgp)

    def square():
        square_translate = bool(is_translate(m, ideal_sum(m, m)))
        ok = square_translate if e_mult <= 2 else not (symmetric and square_translate)
        return ok, {"multiplicity": e_mult, "symmetric": symmetric, "m2_translate": square_translate}

    def growth():
        lengths = [filtration_length(sgp, n) for n in range(0, sgp.conductor + e_mult + 3)]
        diffs = [b - a for a, b in zip(lengths, lengths[1:])]
        ok = lengths[0] == 1 and len(diffs) >= 2 and diffs[-1] == e_mult and diffs[-2] == e_mult
        return ok, {"lengths": lengths, "multiplicity": e_mult}

    def reflection():
        frob = sgp.frobenius
        reflects = all(sgp.contains(z) != sgp.contains(frob - z) for z in range(0, frob + 1))
        witness = {"symmetric": symmetric, "gap_reflection": reflects, "K": canonical_ideal(sgp).format()}
        return symmetric == reflects, witness

    anchor = "square-isomorphic-maximal-ideal-forces-multiplicity-two"
    yield [("multiplicity-two-square-isomorphism", anchor, square)]
    yield [("multiplicity-equals-filtration-growth", "multiplicity-is-the-growth-rate-of-power-colengths", growth)]
    yield [("symmetry-gap-reflection-agreement", "canonical-translate-iff-gap-reflection", reflection)]


def run_identity_suite(target, caps: dict | None = None, table=None) -> VerificationReport:
    """Engine-invariant suite for a FinAlgebra or a NumericalSemigroup.  For
    a FinAlgebra, table is its ideal_table under caps["dim"], or None to
    build one."""
    caps = caps or default_caps()
    if isinstance(target, FinAlgebra):
        ideals = _table_source(target, caps, table)
        groups = partial(_artinian_identities, target, caps["hom"])
    elif isinstance(target, NumericalSemigroup):
        ideals = partial(enumerate_normalized_ideals, target, caps["gaps"])
        groups = partial(_semigroup_identities, target)
    else:
        raise TypeError(f"no identity suite for {type(target).__name__}")
    report = VerificationReport(ring=target.label, suite="identities", caps=caps)
    _suite(report.checks, ideals, _IDENTITY_SUITE, groups)
    if report.has_failures:
        report.verdict = "identity violated"
    else:
        report.verdict = "undecided" if report.summary["skipped"] else "all identities hold"
    return report


# ---------------------------------------------------------------------------
# built-in catalog
# ---------------------------------------------------------------------------

ARTINIAN_CATALOG = (
    ("F_2", 2, (), (), True),
    ("F_2[x]/(x^2)", 2, ("x",), ("x^2",), True),
    ("F_2[x]/(x^3)", 2, ("x",), ("x^3",), True),
    ("F_2[x]/(x^4)", 2, ("x",), ("x^4",), True),
    ("F_2[x]/(x^5)", 2, ("x",), ("x^5",), True),
    ("F_3[x]/(x^3)", 3, ("x",), ("x^3",), True),
    ("F_2[x,y]/(x^2, y^2)", 2, ("x", "y"), ("x^2", "y^2"), True),
    ("F_2[x,y]/(x^2, x*y, y^2)", 2, ("x", "y"), ("x^2", "x*y", "y^2"), False),
    ("F_2[x,y]/(x^2, y^3)", 2, ("x", "y"), ("x^2", "y^3"), True),
    (
        "F_2[x,y,z]/(x, y, z)^2",
        2,
        ("x", "y", "z"),
        ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2"),
        False,
    ),
)

SEMIGROUP_CATALOG = (
    ((1,), True),
    ((2, 3), True),
    ((2, 5), True),
    ((2, 7), True),
    ((2, 9), True),
    ((3, 4), False),
    ((3, 5), False),
    ((4, 5), False),
    ((3, 4, 5), False),
)


def build_artinian_catalog():
    """(label, algebra, expected_gorenstein) for the built-in artinian rings."""
    out = []
    for label, p, variables, relations, expected in ARTINIAN_CATALOG:
        out.append((label, algebra_from_presentation(p, variables, relations, label=label), expected))
    return out


def build_semigroup_catalog():
    """(label, semigroup, expected_monomial_pass) for the built-in semigroups."""
    out = []
    for gens, expected in SEMIGROUP_CATALOG:
        sgp = semigroup_new(gens)
        out.append((sgp.label, sgp, expected))
    return out


def catalog_product_algebra() -> FinAlgebra:
    left = algebra_from_presentation(2, ("x",), ("x^2",), label="F_2[x]/(x^2)")
    right = algebra_from_presentation(2, (), (), label="F_2")
    return product_algebra(left, right)


def _coherence_report(label, lp, caps, carried, matches, witness):
    """catalog-lp report: the suite's check named `carried`, then whether the
    verdict matches the catalog's expectation (skipped when undecided)."""
    report = VerificationReport(ring=label, suite="catalog-lp", caps=caps, verdict=lp.verdict)
    report.checks.extend(c for c in lp.checks if c.name == carried)
    if lp.verdict == "undecided":
        report.checks.append(_skip("verdict-matches-expected", "catalog-classification", "suite undecided"))
    else:
        report.checks.append(_check("verdict-matches-expected", matches, "catalog-classification", witness))
    return report


def run_suites(ring, suite: str = "all", caps: dict | None = None) -> list:
    """The lp report, the identities report, or both ("all"), of one
    FinAlgebra or NumericalSemigroup.

    For "all" on a FinAlgebra both suites read one ideal_table.  When its
    enumeration is over a cap, each suite raises that again and skips its own
    checks.
    """
    caps = caps or default_caps()
    if suite not in ("lp", "identities", "all"):
        raise ValueError(f"unknown suite {suite!r}")
    artinian = isinstance(ring, FinAlgebra)
    table = None
    if artinian and suite == "all":
        try:
            table = ideal_table(ring, caps["dim"])
        except EnumerationCapExceededError:
            pass
    reports = []
    if suite != "identities":
        reports.append(run_artinian_lp_suite(ring, caps, table) if artinian else run_semigroup_lp_suite(ring, caps))
    if suite != "lp":
        reports.append(run_identity_suite(ring, caps, table))
    return reports


def run_catalog(suite: str = "all", caps: dict | None = None):
    """Run the requested suites over the built-in catalog.

    The per-ring reports here carry the theorem-level coherence checks (does
    the computed verdict match the classification and the expectation?); the
    raw per-ideal condition checks stay available through the single-ring
    suites.
    """
    caps = caps or default_caps()
    reports = []
    for label, algebra, expected in build_artinian_catalog():
        for report in run_suites(algebra, suite, caps):
            if report.suite == "lp":
                gor = next(c for c in report.checks if c.name == "ring-is-artinian-gorenstein").status == "pass"
                matches = report.verdict == ("holds" if expected else "fails") and gor == expected
                witness = {"expected_gorenstein": expected, "gorenstein": gor, "verdict": report.verdict}
                report = _coherence_report(label, report, caps, "five-way-equivalence", matches, witness)
            reports.append(report)
    for label, sgp, expected in build_semigroup_catalog():
        for report in run_suites(sgp, suite, caps):
            if report.suite == "lp":
                expected_verdict = "monomial ideals pass" if expected else "counterexample found"
                witness = {"expected": expected_verdict, "verdict": report.verdict}
                carried = "verdict-matches-multiplicity-classification"
                matches = report.verdict == expected_verdict
                report = _coherence_report(label, report, caps, carried, matches, witness)
            reports.append(report)
    if suite in ("identities", "all"):
        reports.append(run_identity_suite(catalog_product_algebra(), caps))
    return reports


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


_CONTAINERS = (dict, list, tuple)


@lru_cache(maxsize=None)
def _flat_encoder(depth):
    """The C-backed encoder whose item separator is the newline and indent
    that json.dumps(..., indent=2) puts between the items of a container at
    nesting depth `depth`."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": "))


def _dict_key(key):
    """A dict key as json.dumps writes it: a string, or the JSON text of an
    int, float, bool or None key, quoted."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
        key = _flat_encoder(0).encode(key)
    return encode_basestring_ascii(key)


def _to_json(obj, depth=0):
    """json.dumps(obj, indent=2, sort_keys=True) for obj at nesting depth
    `depth`, byte for byte.

    That call runs the pure-Python encoder, since the C one takes no indent.
    A container whose values are all scalars or empty containers is written
    by one call of the C encoder, whose separator already holds the indent,
    and the brackets are laid out around it; deeper containers recurse."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _flat_encoder(depth).encode(obj)
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    inner = "\n" + "  " * (depth + 1)
    if all(not isinstance(v, _CONTAINERS) or not v for v in values):
        body = _flat_encoder(depth).encode(obj)[1:-1]
    elif is_dict:
        body = ("," + inner).join(f"{_dict_key(k)}: {_to_json(v, depth + 1)}" for k, v in sorted(obj.items()))
    else:
        body = ("," + inner).join(_to_json(v, depth + 1) for v in obj)
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}{inner}{body}\n{'  ' * depth}{closing}"


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    """The report as text or JSON.  The JSON is byte-identical to
    json.dumps(report.to_dict(), indent=2, sort_keys=True) plus a newline."""
    if fmt == "json":
        return _to_json(report.to_dict()) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"ring: {report.ring}", f"suite: {report.suite}"]
    if report.verdict is not None:
        lines.append(f"verdict: {report.verdict}")
    lines.append(
        "caps: dim={dim} gaps={gaps} hom={hom}".format(
            dim="default" if report.caps.get("dim") is None else report.caps["dim"],
            gaps=report.caps.get("gaps"),
            hom=report.caps.get("hom"),
        )
    )
    tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}
    for c in report.checks:
        line = f"  [{tag[c.status]}] {c.name}"
        if c.status == "fail" and c.witness is not None:
            line += f"  witness={json.dumps(c.witness, sort_keys=True)}"
        if c.status == "skipped" and c.witness["reason"]:
            line += f"  reason={c.witness['reason']}"
        lines.append(line)
    s = report.summary
    lines.append(f"summary: pass={s['pass']} fail={s['fail']} skipped={s['skipped']}")
    return "\n".join(lines) + "\n"


def emit_reports(reports, fmt: str = "text") -> str:
    """The reports as text, or as JSON byte-identical to
    json.dumps({"reports": [...]}, indent=2, sort_keys=True) plus a newline."""
    if fmt == "json":
        return _to_json({"reports": [r.to_dict() for r in reports]}) + "\n"
    return "\n".join(emit_report(r, "text") for r in reports)


def reports_have_failures(reports) -> bool:
    return any(r.has_failures for r in reports)
