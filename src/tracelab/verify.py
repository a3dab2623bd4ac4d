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

from . import numsgp
from .errors import EnumerationCapExceededError, SearchBudgetExceededError
from .finalg import DEFAULT_HOM_CAP_EXPONENT, FinAlgebra, algebra_from_presentation, product_algebra
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
    witness: dict | None = None
    reason: str | None = None

    def to_dict(self):
        witness = self.witness
        if self.status == "skipped":
            witness = dict(witness or {})
            witness["reason"] = self.reason or ""
        return {
            "name": self.name,
            "status": self.status,
            "witness": witness,
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
    return CheckResult(name, "skipped", anchor, None, reason)


# ---------------------------------------------------------------------------
# artinian suites
# ---------------------------------------------------------------------------

_ARTINIAN_CONDITIONS = (
    ("ring-is-artinian-gorenstein", "gorenstein-socle-criterion"),
    ("every-ideal-equals-its-trace", "trace-fixed-ideals"),
    ("every-principal-ideal-equals-its-trace", "principal-trace-fixed-ideals"),
    ("every-ideal-isomorphic-to-its-trace", "trace-isomorphism-for-all-ideals"),
    ("every-principal-ideal-isomorphic-to-its-trace", "principal-trace-isomorphism"),
)


def _principal_traces(algebra, traces):
    """(least generator, ideal, trace) for the principal ideals among the
    (ideal, trace) pairs, in the order of their least generators."""
    triples = [(algebra.least_generator(ideal), ideal, tr) for ideal, tr in traces]
    return sorted((t for t in triples if t[0] is not None), key=lambda t: t[0])


def run_artinian_lp_suite(algebra: FinAlgebra, caps: dict | None = None) -> VerificationReport:
    """Depth-zero classification suite.

    Evaluates, over every ideal: equality with its trace, isomorphism with its
    trace, the same two conditions for principal ideals only, and the socle
    criterion; then asserts the five-way equivalence of those conditions.
    """
    caps = caps or default_caps()
    report = VerificationReport(ring=algebra.label, suite="lp", caps=caps)
    try:
        ideals = algebra.enumerate_ideals(caps["dim"])
    except EnumerationCapExceededError as exc:
        for name, anchor in _ARTINIAN_CONDITIONS:
            report.checks.append(_skip(name, anchor, str(exc)))
        report.checks.append(_skip("five-way-equivalence", "depth-zero-trace-classification", str(exc)))
        report.verdict = "undecided"
        return report

    traces = [(ideal, algebra.trace_ideal(ideal)) for ideal in ideals]
    principal_traces = _principal_traces(algebra, traces)

    gor = algebra.is_gorenstein()
    gor_witness = None
    if algebra.is_local:
        socle = algebra.annihilator(algebra.maximal_ideal)
        gor_witness = {"socle": algebra.format_ideal(socle), "socle_dimension": socle.dim}

    def first_failure(pairs):
        for ideal, tr in pairs:
            if ideal != tr:
                return {"ideal": algebra.format_ideal(ideal), "trace": algebra.format_ideal(tr)}
        return None

    w2 = first_failure(traces)
    w3 = first_failure((ideal, tr) for _, ideal, tr in principal_traces)

    def first_non_isomorphic(pairs):
        for ideal, tr in pairs:
            if not algebra.is_isomorphic(ideal, tr, caps["hom"]):
                return {"ideal": algebra.format_ideal(ideal), "trace": algebra.format_ideal(tr)}
        return None

    budget_reason = None
    try:
        w4 = first_non_isomorphic(traces)
        w5 = first_non_isomorphic((ideal, tr) for _, ideal, tr in principal_traces)
    except SearchBudgetExceededError as exc:
        budget_reason = str(exc)
        w4 = w5 = None

    conditions = [gor, w2 is None, w3 is None, w4 is None, w5 is None]
    witnesses = [gor_witness, w2, w3, w4, w5]
    for (name, anchor), ok, witness in zip(_ARTINIAN_CONDITIONS, conditions, witnesses):
        if budget_reason and name.endswith("isomorphic-to-its-trace"):
            report.checks.append(_skip(name, anchor, budget_reason))
        else:
            report.checks.append(_check(name, ok, anchor, witness))
    if budget_reason:
        report.checks.append(
            _skip("five-way-equivalence", "depth-zero-trace-classification", budget_reason)
        )
        report.verdict = "undecided"
    else:
        report.checks.append(
            _check(
                "five-way-equivalence",
                len(set(conditions)) == 1,
                "depth-zero-trace-classification",
                {"conditions": conditions, "ideal_count": len(ideals)},
            )
        )
        report.verdict = "holds" if conditions[3] else "fails"
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


def _artinian_identity_checks(algebra, caps):
    checks = []
    try:
        ideals = algebra.enumerate_ideals(caps["dim"])
    except EnumerationCapExceededError as exc:
        return [_skip("identity-suite", "engine-invariants", str(exc))]

    traces = [(ideal, algebra.trace_ideal(ideal)) for ideal in ideals]

    bad = next((i for i, t in traces if not i.is_subspace_of(t)), None)
    checks.append(
        _check(
            "trace-containment",
            bad is None,
            "every-ideal-lies-in-its-trace",
            None if bad is None else {"ideal": algebra.format_ideal(bad)},
        )
    )

    bad = next((i for i, t in traces if algebra.trace_ideal(t) != t), None)
    checks.append(
        _check(
            "trace-idempotence",
            bad is None,
            "trace-of-a-trace-ideal-is-itself",
            None if bad is None else {"ideal": algebra.format_ideal(bad)},
        )
    )

    # Both sides depend only on the ideal (v), so the first element of the
    # all_elements order that fails is the least generator of its ideal.
    mismatch = None
    for v, _, via_hom in _principal_traces(algebra, traces):
        via_ann = algebra.trace_principal_via_ann(v)
        if via_hom != via_ann:
            mismatch = {
                "element": algebra.format_element(v),
                "trace": algebra.format_ideal(via_hom),
                "double_annihilator": algebra.format_ideal(via_ann),
            }
            break
    checks.append(
        _check(
            "principal-trace-equals-double-annihilator",
            mismatch is None,
            "principal-trace-is-the-double-annihilator",
            mismatch,
        )
    )

    zero, unit = algebra.zero_ideal(), algebra.unit_ideal()
    bad = next(
        (
            j
            for j in ideals
            if algebra.colon_in_ring(zero, j) != algebra.annihilator(j)
            or algebra.colon_in_ring(j, unit) != j
        ),
        None,
    )
    checks.append(
        _check(
            "colon-annihilator-agreement",
            bad is None,
            "colon-definitional-cross-checks",
            None if bad is None else {"ideal": algebra.format_ideal(bad)},
        )
    )

    try:
        classes = _isomorphism_classes(algebra, ideals, caps["hom"])
        trace_of = dict(traces)
        trace_bad = None
        hom_bad = None
        for cls in classes:
            if len(cls) < 2:
                continue
            for other in cls[1:]:
                if trace_of[other] != trace_of[cls[0]]:
                    trace_bad = {
                        "ideal": algebra.format_ideal(cls[0]),
                        "isomorphic_ideal": algebra.format_ideal(other),
                    }
                    break
            for j in ideals:
                if algebra.hom_module(cls[0], j).dim != algebra.hom_module(cls[1], j).dim:
                    hom_bad = {
                        "ideal": algebra.format_ideal(cls[0]),
                        "isomorphic_ideal": algebra.format_ideal(cls[1]),
                        "target": algebra.format_ideal(j),
                    }
                    break
        checks.append(
            _check(
                "trace-isomorphism-invariance",
                trace_bad is None,
                "isomorphic-modules-share-a-trace",
                trace_bad,
            )
        )
        checks.append(
            _check(
                "hom-dimension-isomorphism-invariance",
                hom_bad is None,
                "hom-spaces-see-only-the-isomorphism-class",
                hom_bad,
            )
        )
    except SearchBudgetExceededError as exc:
        checks.append(_skip("trace-isomorphism-invariance", "isomorphic-modules-share-a-trace", str(exc)))
        checks.append(
            _skip("hom-dimension-isomorphism-invariance", "hom-spaces-see-only-the-isomorphism-class", str(exc))
        )

    if algebra.factors is not None:
        bad = None
        for ideal, tr in traces:
            parts = zip(algebra.local_factors(), algebra.factor_ideals(ideal))
            if tr != algebra.product_ideal([f.trace_ideal(i) for f, i in parts]):
                bad = {"ideal": algebra.format_ideal(ideal)}
                break
        checks.append(
            _check(
                "product-trace-factorization",
                bad is None,
                "trace-of-a-product-is-the-product-of-traces",
                bad,
            )
        )
    return checks


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
    report = VerificationReport(ring=sgp.label, suite="lp", caps=caps)
    try:
        ideals = enumerate_normalized_ideals(sgp, caps["gaps"])
    except EnumerationCapExceededError as exc:
        report.checks.append(_skip("trace-is-translate", "monomial-trace-isomorphism", str(exc)))
        report.verdict = "undecided"
        return report

    first_witness = None
    all_pass = True
    for ideal in ideals:
        tr = trace(ideal)
        witness = is_translate(ideal, tr)
        ok = bool(witness)
        payload = {"E": ideal.format(), "trace": tr.format(), "offset": witness.offset}
        if not ok and first_witness is None:
            first_witness = payload
        all_pass &= ok
        report.checks.append(
            _check(f"trace-is-translate[{ideal.format()}]", ok, "monomial-trace-isomorphism", payload)
        )

    report.verdict = "monomial ideals pass" if all_pass else "counterexample found"
    m = maximal_ideal(sgp)
    m2_offset = is_translate(m, ideal_sum(m, m)).offset
    report.checks.append(
        _check(
            "verdict-matches-multiplicity-classification",
            all_pass == (sgp.multiplicity <= 2),
            "dimension-one-multiplicity-two-classification",
            {
                "multiplicity": sgp.multiplicity,
                "symmetric": is_symmetric(sgp),
                "m2_translate_offset": m2_offset,
                "verdict": report.verdict,
                "counterexample": first_witness,
            },
        )
    )
    return report


def _semigroup_identity_checks(sgp, caps):
    checks = []
    try:
        ideals = enumerate_normalized_ideals(sgp, caps["gaps"])
    except EnumerationCapExceededError as exc:
        return [_skip("identity-suite", "engine-invariants", str(exc))]

    s_ideal = semigroup_as_ideal(sgp)
    data = [(e, trace(e), dual(e)) for e in ideals]

    bad = next((e for e, tr, _ in data if trace(tr) != tr), None)
    checks.append(
        _check(
            "trace-idempotence",
            bad is None,
            "trace-of-a-trace-ideal-is-itself",
            None if bad is None else {"E": bad.format()},
        )
    )

    bad = None
    for e, tr, dl in data:
        integral = e.shift(dl.min)
        if not integral.is_subset_of(tr):
            bad = {"E": e.format(), "trace": tr.format(), "offset": dl.min}
            break
        if dl.contains(0) and not e.is_subset_of(tr):
            bad = {"E": e.format(), "trace": tr.format(), "offset": 0}
            break
    checks.append(_check("trace-containment", bad is None, "every-ideal-lies-in-its-trace", bad))

    bad = next(
        (e for e, tr, dl in data if (tr == e) != (ideal_colon(e, e) == dl)),
        None,
    )
    checks.append(
        _check(
            "self-trace-iff-self-colon-equals-dual",
            bad is None,
            "trace-fixed-iff-endomorphisms-equal-dual",
            None if bad is None else {"E": bad.format()},
        )
    )

    bad = next((e for e, _, dl in data if dual(dual(dl)) != dl), None)
    checks.append(
        _check(
            "triple-dual-stability",
            bad is None,
            "duals-are-reflexive",
            None if bad is None else {"E": bad.format()},
        )
    )

    bad = None
    for e, tr, _ in data:
        if is_reflexive(e) and tr == e:
            endo = ideal_colon(e, e)
            if trace(endo) != e:
                bad = {"E": e.format(), "endomorphism_ideal": endo.format()}
                break
    checks.append(
        _check(
            "endomorphism-ring-trace-recovery",
            bad is None,
            "reflexive-self-trace-ideals-are-traces-of-their-endomorphism-rings",
            bad,
        )
    )

    m = maximal_ideal(sgp)
    m_trace = trace(m)
    witness = {"I": m.format(), "trace_of_I": m_trace.format()}
    ok = True
    if is_reflexive(m) and m_trace == m:
        endo = ideal_colon(m, m)
        recovered = trace(endo)
        witness.update(
            {
                "endomorphism_ideal": endo.format(),
                "endomorphism_generators": list(numsgp.endo_semigroup(m.normalized()).generators),
                "trace_of_endomorphism_ideal": recovered.format(),
            }
        )
        ok = recovered == m
    checks.append(
        _check(
            "maximal-ideal-endomorphism-trace",
            ok,
            "reflexive-self-trace-ideals-are-traces-of-their-endomorphism-rings",
            witness,
        )
    )

    bad = None
    for e, tr, dl in data:
        if is_translate(s_ideal, dl) and not is_translate(e, tr):
            bad = {"E": e.format(), "dual": dl.format(), "trace": tr.format()}
            break
    checks.append(
        _check(
            "principal-dual-implies-trace-translate",
            bad is None,
            "free-dual-forces-trace-isomorphism",
            bad,
        )
    )

    e_mult = sgp.multiplicity
    symmetric = is_symmetric(sgp)
    m2 = ideal_sum(m, m)
    square_translate = bool(is_translate(m, m2))
    square_bound_ok = True
    if e_mult <= 2 and not square_translate:
        square_bound_ok = False
    if symmetric and square_translate and e_mult > 2:
        square_bound_ok = False
    checks.append(
        _check(
            "multiplicity-two-square-isomorphism",
            square_bound_ok,
            "square-isomorphic-maximal-ideal-forces-multiplicity-two",
            {
                "multiplicity": e_mult,
                "symmetric": symmetric,
                "m2_translate": square_translate,
            },
        )
    )

    lengths = [filtration_length(sgp, n) for n in range(0, sgp.conductor + e_mult + 3)]
    diffs = [b - a for a, b in zip(lengths, lengths[1:])]
    ok = lengths[0] == 1 and len(diffs) >= 2 and diffs[-1] == e_mult and diffs[-2] == e_mult
    checks.append(
        _check(
            "multiplicity-equals-filtration-growth",
            ok,
            "multiplicity-is-the-growth-rate-of-power-colengths",
            {"lengths": lengths, "multiplicity": e_mult},
        )
    )

    frob = sgp.frobenius
    reflection = all(sgp.contains(z) != sgp.contains(frob - z) for z in range(0, frob + 1))
    checks.append(
        _check(
            "symmetry-gap-reflection-agreement",
            symmetric == reflection,
            "canonical-translate-iff-gap-reflection",
            {"symmetric": symmetric, "gap_reflection": reflection, "K": canonical_ideal(sgp).format()},
        )
    )
    return checks


def run_identity_suite(target, caps: dict | None = None) -> VerificationReport:
    """Engine-invariant suite for a FinAlgebra or a NumericalSemigroup."""
    caps = caps or default_caps()
    if isinstance(target, FinAlgebra):
        checks = _artinian_identity_checks(target, caps)
    elif isinstance(target, NumericalSemigroup):
        checks = _semigroup_identity_checks(target, caps)
    else:
        raise TypeError(f"no identity suite for {type(target).__name__}")
    report = VerificationReport(ring=target.label, suite="identities", checks=checks, caps=caps)
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


def run_catalog(suite: str = "all", caps: dict | None = None):
    """Run the requested suites over the built-in catalog.

    The per-ring reports here carry the theorem-level coherence checks (does
    the computed verdict match the classification and the expectation?); the
    raw per-ideal condition checks stay available through the single-ring
    suites.
    """
    caps = caps or default_caps()
    if suite not in ("lp", "identities", "all"):
        raise ValueError(f"unknown suite {suite!r}")
    reports = []
    for label, algebra, expected in build_artinian_catalog():
        if suite in ("lp", "all"):
            lp = run_artinian_lp_suite(algebra, caps)
            gor = next(c for c in lp.checks if c.name == "ring-is-artinian-gorenstein").status == "pass"
            matches = lp.verdict == ("holds" if expected else "fails") and gor == expected
            witness = {"expected_gorenstein": expected, "gorenstein": gor, "verdict": lp.verdict}
            reports.append(_coherence_report(label, lp, caps, "five-way-equivalence", matches, witness))
        if suite in ("identities", "all"):
            reports.append(run_identity_suite(algebra, caps))
    for label, sgp, expected in build_semigroup_catalog():
        if suite in ("lp", "all"):
            lp = run_semigroup_lp_suite(sgp, caps)
            expected_verdict = "monomial ideals pass" if expected else "counterexample found"
            witness = {"expected": expected_verdict, "verdict": lp.verdict}
            carried = "verdict-matches-multiplicity-classification"
            reports.append(_coherence_report(label, lp, caps, carried, lp.verdict == expected_verdict, witness))
        if suite in ("identities", "all"):
            reports.append(run_identity_suite(sgp, caps))
    if suite in ("identities", "all"):
        reports.append(run_identity_suite(catalog_product_algebra(), caps))
    return reports


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
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
        if c.status == "skipped" and c.reason:
            line += f"  reason={c.reason}"
        lines.append(line)
    s = report.summary
    lines.append(f"summary: pass={s['pass']} fail={s['fail']} skipped={s['skipped']}")
    return "\n".join(lines) + "\n"


def emit_reports(reports, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2, sort_keys=True) + "\n"
    return "\n".join(emit_report(r, "text") for r in reports)


def reports_have_failures(reports) -> bool:
    return any(r.has_failures for r in reports)
