import collections
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracelab
from tracelab import verify
from tracelab.finalg import FinAlgebra, HomBasis, algebra_from_presentation, product_algebra
from tracelab.numsgp import (
    is_translate,
    parse_ideal_text,
    semigroup_new,
    trace,
)
from tracelab.verify import (
    CheckResult,
    VerificationReport,
    IdealRecord,
    _principal,
    build_artinian_catalog,
    build_semigroup_catalog,
    catalog_product_algebra,
    default_caps,
    emit_reports,
    report_chunks,
    run_artinian_lp_suite,
    run_catalog,
    run_identity_suite,
    run_semigroup_lp_suite,
    run_suites,
)


def _status(report, name):
    return next(c.status for c in report.checks if c.name == name)


# --- artinian lp suite -----------------------------------------------------------

def test_artinian_suite_gorenstein_ring():
    report = run_artinian_lp_suite(algebra_from_presentation(2, ("x",), ("x^2",)))
    assert report.verdict == "holds"
    assert all(c.status == "pass" for c in report.checks)
    assert len(report.checks) == 6


def test_artinian_suite_field():
    report = run_artinian_lp_suite(algebra_from_presentation(2, (), ()))
    assert report.verdict == "holds"
    assert not report.has_failures


def test_artinian_suite_non_gorenstein_witness(fat_point):
    report = run_artinian_lp_suite(fat_point)
    assert report.verdict == "fails"
    assert _status(report, "ring-is-artinian-gorenstein") == "fail"
    assert _status(report, "five-way-equivalence") == "pass"
    witness = next(c.witness for c in report.checks if c.name == "every-ideal-equals-its-trace")
    assert witness == {"ideal": "x", "trace": "x, y"}


def test_artinian_suite_cap_produces_skips(chain_algebra):
    report = run_artinian_lp_suite(chain_algebra, {"dim": 2, "gaps": 24, "hom": 22})
    assert report.verdict == "undecided"
    assert all(c.status == "skipped" for c in report.checks)
    assert report.summary == {"pass": 0, "fail": 0, "skipped": len(report.checks)}


def test_artinian_suite_decides_without_search(fat_point):
    # trace containment forces a dimension gap whenever I != tr(I), so the
    # lp conditions resolve through the fast paths even with a zero budget
    report = run_artinian_lp_suite(fat_point, {"dim": None, "gaps": 24, "hom": 0})
    assert report.verdict == "fails"
    assert _status(report, "every-ideal-equals-its-trace") == "fail"
    assert _status(report, "every-ideal-isomorphic-to-its-trace") == "fail"


def test_identity_suite_hom_budget_skips(fat_point):
    report = run_identity_suite(fat_point, {"dim": None, "gaps": 24, "hom": 0})
    skipped = {c.name for c in report.checks if c.status == "skipped"}
    assert skipped == {
        "trace-isomorphism-invariance",
        "hom-dimension-isomorphism-invariance",
    }
    assert not report.has_failures
    assert report.verdict == "undecided"


def test_identity_suite_gap_cap_is_undecided():
    report = run_identity_suite(semigroup_new((3, 4)), {"dim": None, "gaps": 1, "hom": 22})
    assert [c.status for c in report.checks] == ["skipped"]
    assert report.verdict == "undecided"
    assert run_identity_suite(semigroup_new((3, 4))).verdict == "all identities hold"


# --- semigroup lp suite -----------------------------------------------------------

def test_semigroup_suite_multiplicity_two_passes():
    report = run_semigroup_lp_suite(semigroup_new((2, 3)))
    assert report.verdict == "monomial ideals pass"
    assert not report.has_failures


def test_semigroup_suite_trivial_semigroup():
    report = run_semigroup_lp_suite(semigroup_new((1,)))
    assert report.verdict == "monomial ideals pass"
    translate_checks = [c for c in report.checks if c.name.startswith("trace-is-translate")]
    assert len(translate_checks) == 1


def test_semigroup_suite_counterexample_witness():
    report = run_semigroup_lp_suite(semigroup_new((3, 4)))
    assert report.verdict == "counterexample found"
    failing = [c for c in report.checks if c.status == "fail"]
    assert failing[0].witness == {"E": "0 | 3", "trace": "3,4 | 6", "offset": None}
    assert _status(report, "verdict-matches-multiplicity-classification") == "pass"


def test_semigroup_suite_cap_skips():
    report = run_semigroup_lp_suite(semigroup_new((3, 4)), {"dim": None, "gaps": 1, "hom": 22})
    assert report.verdict == "undecided"
    assert all(c.status == "skipped" for c in report.checks)


def test_semigroup_witness_replays():
    sgp = semigroup_new((3, 4))
    report = run_semigroup_lp_suite(sgp)
    witness = next(c.witness for c in report.checks if c.status == "fail")
    replayed = parse_ideal_text(sgp, witness["E"])
    recomputed = trace(replayed)
    assert recomputed.format() == witness["trace"]
    assert is_translate(replayed, recomputed).offset is None


def _count_semigroup_work(monkeypatch):
    """From then on, the ideal lists that verify's enumerate_normalized_ideals
    returns, and a Counter of verify's trace calls by id of the argument.
    Every argument is kept alive, so that no id is reused."""
    enumerations, traced, arguments = [], collections.Counter(), []
    enumerate_ideals, trace_of = verify.enumerate_normalized_ideals, verify.trace

    def counted_enumeration(*args):
        enumerations.append(enumerate_ideals(*args))
        return enumerations[-1]

    def counted_trace(ideal):
        arguments.append(ideal)
        traced[id(ideal)] += 1
        return trace_of(ideal)

    monkeypatch.setattr(verify, "enumerate_normalized_ideals", counted_enumeration)
    monkeypatch.setattr(verify, "trace", counted_trace)
    return enumerations, traced


@pytest.mark.parametrize(
    "gens, ideals, distinct_traces",
    [((3, 4), 5, 4), ((5, 12), 364, 123), ((3, 4, 5), 4, 2)],
    ids=lambda value: ",".join(map(str, value)) if isinstance(value, tuple) else str(value),
)
def test_suite_all_enumerates_once_and_traces_each_ideal_once(monkeypatch, gens, ideals, distinct_traces):
    enumerations, traced = _count_semigroup_work(monkeypatch)
    run_suites(semigroup_new(gens), "all")
    [found] = enumerations
    assert len(found) == ideals
    assert [traced[id(e)] for e in found] == [1] * ideals
    # The other calls: trace-idempotence traces each distinct trace once, and
    # the identity suite traces the maximal ideal and, in its two
    # endomorphism-ring checks, the endomorphism ideals of S and of m.
    assert sum(traced.values()) == ideals + distinct_traces + 1 + 2


def test_catalog_enumerates_each_semigroup_once(monkeypatch):
    enumerations, traced = _count_semigroup_work(monkeypatch)
    run_catalog("all")
    assert len(enumerations) == 9  # the lp and identity suites of a semigroup share one table
    assert all(traced[id(e)] == 1 for found in enumerations for e in found)


# --- identity suites ---------------------------------------------------------------

def test_identity_suite_semigroup_example():
    report = run_identity_suite(semigroup_new((3, 4)))
    assert not report.has_failures
    check = next(c for c in report.checks if c.name == "maximal-ideal-endomorphism-trace")
    assert check.witness["I"] == "3,4 | 6"
    assert check.witness["endomorphism_ideal"] == "0 | 3"
    assert check.witness["endomorphism_generators"] == [3, 4, 5]
    assert check.witness["trace_of_endomorphism_ideal"] == "3,4 | 6"


def test_identity_suite_artinian(chain_algebra):
    report = run_identity_suite(chain_algebra)
    assert not report.has_failures
    names = {c.name for c in report.checks}
    assert "principal-trace-equals-double-annihilator" in names
    assert "trace-containment" in names


def test_identity_suite_product_includes_factorization():
    report = run_identity_suite(catalog_product_algebra())
    assert not report.has_failures
    assert any(c.name == "product-trace-factorization" for c in report.checks)


def test_invariance_witnesses_name_the_first_failing_class(monkeypatch):
    # Every line of F_2[x,y,z]/(x,y,z)^2 is one isomorphism class, and every
    # plane another.  Alter trace and Hom on the second line and the second
    # plane: the line class comes first, so it is the witness.
    algebra = next(a for label, a, _ in build_artinian_catalog() if label == "F_2[x,y,z]/(x, y, z)^2")
    ideals = algebra.enumerate_ideals()
    altered = ([i for i in ideals if i.dim == 1][1], [i for i in ideals if i.dim == 2][1])
    trace_ideal, hom_module = FinAlgebra.trace_ideal, FinAlgebra.hom_module

    def altered_trace(self, ideal):
        return self.unit_ideal() if self is algebra and ideal in altered else trace_ideal(self, ideal)

    def altered_hom(self, domain, codomain):
        hom = hom_module(self, domain, codomain)
        return HomBasis(domain, codomain, hom.maps[1:]) if self is algebra and domain in altered else hom

    monkeypatch.setattr(FinAlgebra, "trace_ideal", altered_trace)
    monkeypatch.setattr(FinAlgebra, "hom_module", altered_hom)
    witnesses = {c.name: c.witness for c in run_identity_suite(algebra).checks if c.status == "fail"}
    assert witnesses["trace-isomorphism-invariance"] == {"ideal": "x", "isomorphic_ideal": "x + z"}
    assert witnesses["hom-dimension-isomorphism-invariance"] == {
        "ideal": "x",
        "isomorphic_ideal": "x + z",
        "target": "x",
    }


def test_colon_annihilator_agreement_sees_a_wrong_annihilator(monkeypatch, chain_algebra):
    # annihilator(j) is the colon 0 : j, so a colon that returns R for every
    # proper nonzero j must fail against the row-by-row annihilator.
    colon_in_ring = FinAlgebra.colon_in_ring

    def wrong_colon(self, left, right):
        if left.dim == 0 and 0 < right.dim < self.dim:
            return self.unit_ideal()
        return colon_in_ring(self, left, right)

    monkeypatch.setattr(FinAlgebra, "colon_in_ring", wrong_colon)
    check = next(c for c in run_identity_suite(chain_algebra).checks if c.name == "colon-annihilator-agreement")
    assert check.status == "fail"
    assert check.witness == {"ideal": "x^2"}


# --- principal ideals against the element sweep ------------------------------------

def _oracle_principal_ideals(algebra):
    """Distinct principal ideals, each with the first element of the
    all_elements sweep that generates it, in sweep order."""
    seen, keys = [], set()
    for v in algebra.all_elements():
        ideal = algebra.ideal_generate([v])
        if ideal.matrix not in keys:
            keys.add(ideal.matrix)
            seen.append((v, ideal))
    return seen


def _suite_principal_ideals(algebra):
    """The (generator, ideal) list the artinian suites walk; traces are not needed here."""
    table = [IdealRecord(ideal, None, algebra.least_generator(ideal)) for ideal in algebra.enumerate_ideals()]
    return [(r.generator, r.ideal) for r in _principal(table)]


def test_principal_ideals_match_the_element_sweep_on_the_catalog():
    algebras = [algebra for _, algebra, _ in build_artinian_catalog()] + [catalog_product_algebra()]
    for algebra in algebras:
        assert _suite_principal_ideals(algebra) == _oracle_principal_ideals(algebra), algebra.label


def test_principal_ideals_match_the_element_sweep_on_binomial_algebras(binomial_algebras):
    algebras = binomial_algebras(seed=5, count=110)
    assert {a.field.p for a in algebras} == {2, 3, 5, 7}
    products = [
        product_algebra(a, b)
        for a, b in zip(algebras, algebras[1:])
        if a.field.p == b.field.p and a.field.p ** (a.dim + b.dim) <= 1024
    ]
    assert len(products) >= 10
    for algebra in algebras + products:
        assert _suite_principal_ideals(algebra) == _oracle_principal_ideals(algebra), algebra.label


# --- reports and emission -------------------------------------------------------------

def _emitted_json(report):
    """The one report's JSON object, as emit_reports writes it."""
    [payload] = json.loads(emit_reports([report], "json"))["reports"]
    return payload


def test_empty_report_summary():
    report = VerificationReport(ring="r", suite="s")
    assert report.summary == {"pass": 0, "fail": 0, "skipped": 0}
    text = emit_reports([report], "text")
    assert "summary: pass=0 fail=0 skipped=0" in text


def test_json_report_schema_and_witness():
    report = run_semigroup_lp_suite(semigroup_new((3, 4)))
    payload = _emitted_json(report)
    assert set(payload) >= {"ring", "suite", "checks", "summary"}
    for check in payload["checks"]:
        assert set(check) == {"name", "status", "witness", "anchor"}
        assert check["status"] in ("pass", "fail", "skipped")
    blob = json.dumps(payload)
    assert '"0 | 3"' in blob and '"3,4 | 6"' in blob
    assert payload["summary"] == {"pass": 5, "fail": 1, "skipped": 0}


def test_text_report_gorenstein_pass_lines():
    report = run_artinian_lp_suite(algebra_from_presentation(2, ("x",), ("x^2",)))
    text = emit_reports([report], "text")
    assert text.count("[PASS]") == 6
    assert "[FAIL]" not in text


def test_skipped_checks_are_visible_and_not_passes():
    report = run_semigroup_lp_suite(semigroup_new((3, 4)), {"dim": None, "gaps": 1, "hom": 22})
    payload = _emitted_json(report)
    assert payload["summary"]["pass"] == 0
    assert payload["summary"]["skipped"] >= 1
    assert all(c["witness"]["reason"] for c in payload["checks"] if c["status"] == "skipped")


def test_check_result_serialization_round_trip():
    check = CheckResult("name", "fail", "anchor", {"k": 1})
    assert _emitted_json(VerificationReport("r", "s", [check]))["checks"] == [
        {
            "name": "name",
            "status": "fail",
            "witness": {"k": 1},
            "anchor": "anchor",
        }
    ]
    with pytest.raises(AttributeError):
        check.reason = "a check has no field but its four"


def _oracle(report):
    """The report's JSON document, built as a dict from its fields."""
    return {
        "ring": report.ring,
        "suite": report.suite,
        "verdict": report.verdict,
        "engine_version": tracelab.__version__,
        "caps": report.caps,
        "checks": [
            {"name": c.name, "status": c.status, "witness": c.witness, "anchor": c.anchor} for c in report.checks
        ],
        "summary": report.summary,
    }


def _dumps(reports):
    return json.dumps({"reports": [_oracle(r) for r in reports]}, indent=2, sort_keys=True) + "\n"


def _assert_emitted_as_by_json_dumps(reports):
    for report in reports:
        assert emit_reports([report], "json") == _dumps([report])
    chunks = list(report_chunks(reports, "json"))
    assert len(chunks) > sum(len(r.checks) for r in reports)  # at least one chunk per check
    assert "".join(chunks) == _dumps(reports)
    assert emit_reports(reports, "json") == "".join(chunks)


_TEXT = st.text(st.sampled_from('a"\\/\x00\x01\x1f\n\t\x7f\xe9\u2028\U0001f600') | st.characters(), max_size=6)
_SCALARS = st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | st.floats() | _TEXT
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers() | st.booleans() | st.floats(allow_nan=False), inner, max_size=3)
    | st.dictionaries(st.none(), inner, max_size=1),
    max_leaves=6,
)
_CHECKS = st.builds(
    CheckResult,
    _TEXT,
    st.sampled_from(("pass", "fail", "skipped")),
    _TEXT,
    st.none() | st.dictionaries(_TEXT, _JSON, max_size=3),
)
_REPORTS = st.builds(
    VerificationReport,
    _TEXT,
    _TEXT,
    st.lists(_CHECKS, max_size=3),
    st.dictionaries(_TEXT, _JSON, max_size=3),
    st.none() | _TEXT,
)


@settings(max_examples=25, deadline=None)
@given(st.lists(_REPORTS, max_size=2))
def test_json_emission_is_byte_identical_to_json_dumps(reports):
    _assert_emitted_as_by_json_dumps(reports)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(_TEXT, _SCALARS, min_size=1, max_size=6)
    | st.dictionaries(st.integers() | st.booleans(), _SCALARS, min_size=1, max_size=4),
    st.integers(0, 6),
)
def test_a_witness_of_scalars_is_written_as_json_dumps_writes_it(witness, depth):
    """The one-join writer of str, int, bool and None values, and the C
    encoder it hands a float to, at each nesting depth."""
    expected = json.dumps(witness, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
    assert verify._to_json(witness, depth) == expected


def test_an_unknown_format_is_refused():
    report = run_semigroup_lp_suite(semigroup_new((3, 4)))
    for emit in (emit_reports, lambda reports, fmt: list(report_chunks(reports, fmt))):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            emit([report], "xml")


def test_json_emission_of_nested_witnesses_and_real_reports():
    nested = CheckResult(
        "c\u00e9\x00",
        "fail",
        'a"\\',
        {"outer": {"inner": {"deep": [1, (), {}, [None, True]]}, "empty": {}}, "n": -(2**70), "t": (1, "x")},
    )
    flat = CheckResult("flat", "pass", "anchor", {"k": [], "v": False})
    report = VerificationReport("ring", "suite", [nested, flat, CheckResult("none", "skipped", "a")])
    _assert_emitted_as_by_json_dumps([])
    _assert_emitted_as_by_json_dumps([report, VerificationReport("", "")])
    _assert_emitted_as_by_json_dumps([run_semigroup_lp_suite(semigroup_new((3, 4)))])


# --- catalog ---------------------------------------------------------------------------

def test_catalog_classifications():
    expected_gorenstein = {
        "F_2": True,
        "F_2[x]/(x^2)": True,
        "F_2[x]/(x^3)": True,
        "F_2[x]/(x^4)": True,
        "F_2[x]/(x^5)": True,
        "F_3[x]/(x^3)": True,
        "F_2[x,y]/(x^2, y^2)": True,
        "F_2[x,y]/(x^2, x*y, y^2)": False,
        "F_2[x,y]/(x^2, y^3)": True,
        "F_2[x,y,z]/(x, y, z)^2": False,
    }
    catalog = build_artinian_catalog()
    assert {label: expected for label, _, expected in catalog} == expected_gorenstein
    for label, algebra, expected in catalog:
        assert algebra.is_gorenstein() == expected, label


def test_catalog_semigroup_expectations():
    catalog = build_semigroup_catalog()
    assert [
        (label, expected) for label, _, expected in catalog
    ] == [
        ("<1>", True),
        ("<2,3>", True),
        ("<2,5>", True),
        ("<2,7>", True),
        ("<2,9>", True),
        ("<3,4>", False),
        ("<3,5>", False),
        ("<4,5>", False),
        ("<3,4,5>", False),
    ]


def test_catalog_run_is_green_and_deterministic():
    reports = run_catalog("all")
    assert not any(r.has_failures for r in reports)
    first = emit_reports(reports, "json")
    second = emit_reports(run_catalog("all"), "json")
    assert first == second


def test_catalog_enumerates_and_traces_each_artinian_ring_once(count_calls):
    counts = count_calls("enumerate_ideals", "trace_ideal")
    run_catalog("all")
    # One enumeration per catalog ring, and one for the product and each of
    # its two factors.  Each of the 67 ideals of the catalog rings and the 6
    # of the product is traced once, and each of the 5 distinct ideals of the
    # product's two factors once more (product-trace-factorization), where
    # tracing both components of each of the 6 product ideals took 12.
    assert counts == {"enumerate_ideals": 13, "trace_ideal": 67 + 6 + 5}


def test_catalog_computes_each_ideals_module_data_once(count_calls):
    counts = count_calls(
        "_compute_generating_rows",
        "_compute_minimal_generators",
        "_compute_annihilator",
        "ideal_generate",
        "_hom_system",
        "colon_in_ring",
    )
    run_catalog("all")
    # Each ideal keeps its data for its algebra, so the 172 Hom systems of a
    # pass build one record per domain.  Each of the 85 records carries its
    # presentation, of which 78 were built when it was kept apart: 7 ideals
    # are read only by least_generator or as an isomorphism's codomain.  The
    # double-annihilator oracle takes each principal ideal from the table,
    # whose annihilator the colon check keeps, and builds no ideal from a
    # generator.  The Hom systems were 186 while is_isomorphic solved before
    # every exit: 14 pairs with unequal annihilators, whose Hom space k*t
    # bounds within the budget, now answer before the solve.
    assert counts == {
        "_compute_generating_rows": 166,
        "_compute_minimal_generators": 85,
        "_compute_annihilator": 143,
        "ideal_generate": 0,
        "_hom_system": 172,
        "colon_in_ring": 216,
    }


def test_catalog_lp_only():
    reports = run_catalog("lp")
    assert all(r.suite == "catalog-lp" for r in reports)
    assert len(reports) == 19  # 10 artinian + 9 semigroups
    for report in reports:
        assert {c.name for c in report.checks} <= {
            "five-way-equivalence",
            "verdict-matches-expected",
            "verdict-matches-multiplicity-classification",
        }


# --- the README's list of checks -------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_every_check_with_its_anchor():
    text = README.read_text()
    section = text[text.index("## What the suites check") :]
    section = section[: section.index("\n## ")]
    listed = dict(re.findall(r"- `([^`]+)`\s+\(`([^`]+)`\)", section))
    capped = {"dim": 2, "gaps": 1, "hom": 0}
    reports = run_catalog("all") + run_catalog("all", capped)
    for caps in (default_caps(), capped):
        reports += [run_artinian_lp_suite(algebra, caps) for _, algebra, _ in build_artinian_catalog()]
        reports += [run_semigroup_lp_suite(sgp, caps) for _, sgp, _ in build_semigroup_catalog()]
    emitted = {(re.sub(r"\[.*\]$", "[E]", c.name), c.anchor) for report in reports for c in report.checks}
    assert {"identity-suite", "trace-is-translate", "trace-is-translate[E]"} <= {name for name, _ in emitted}
    assert {name: listed.get(name) for name, _ in emitted} == dict(emitted)
