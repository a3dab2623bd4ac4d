"""Acceptance suite.

One test per acceptance criterion; every assertion is exact (integer/set
equality, zero tolerance).  Run with `pytest tests/test_acceptance.py -v` to
get one pass/fail line per criterion.
"""

import itertools
import json
import time

from tracelab.finalg import algebra_from_presentation, product_algebra
from tracelab.numsgp import (
    dual,
    endo_semigroup,
    enumerate_normalized_ideals,
    filtration_lengths,
    ideal_colon,
    ideal_sum,
    is_translate,
    maximal_ideal,
    parse_ideal_text,
    semigroup_new,
    trace,
)
from tracelab.verify import (
    build_artinian_catalog,
    build_semigroup_catalog,
    emit_reports,
    run_catalog,
    run_semigroup_lp_suite,
)
from tracelab.cli import run as cli_run


def _five_conditions(algebra):
    """(gorenstein, all trace-fixed, principal trace-fixed, all trace-iso,
    principal trace-iso), each computed exhaustively from the engine."""
    ideals = algebra.enumerate_ideals()
    principal = []
    seen = set()
    for v in algebra.all_elements():
        ideal = algebra.ideal_generate([v])
        if ideal.matrix not in seen:
            seen.add(ideal.matrix)
            principal.append(ideal)
    c2 = all(algebra.trace_ideal(i) == i for i in ideals)
    c3 = all(algebra.trace_ideal(i) == i for i in principal)
    c4 = all(algebra.is_isomorphic(i, algebra.trace_ideal(i)) for i in ideals)
    c5 = all(algebra.is_isomorphic(i, algebra.trace_ideal(i)) for i in principal)
    return algebra.is_gorenstein(), c2, c3, c4, c5


def test_criterion_1_depth_zero_five_way_equivalence():
    start = time.monotonic()
    gorenstein_labels = set()
    for label, algebra, expected_gorenstein in build_artinian_catalog():
        conditions = _five_conditions(algebra)
        assert len(set(conditions)) == 1, (label, conditions)
        assert conditions[0] == expected_gorenstein, label
        if conditions[0]:
            gorenstein_labels.add(label)
    assert gorenstein_labels == {
        "F_2",
        "F_2[x]/(x^2)",
        "F_2[x]/(x^3)",
        "F_2[x]/(x^4)",
        "F_2[x]/(x^5)",
        "F_3[x]/(x^3)",
        "F_2[x,y]/(x^2, y^2)",
        "F_2[x,y]/(x^2, y^3)",
    }
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"catalog equivalence run took {elapsed:.1f}s"
    print(f"criterion 1 PASS: five-way equivalence on 10 rings in {elapsed:.2f}s")


def test_criterion_2_semigroup_verdicts_and_witness():
    start = time.monotonic()
    expected = {
        "<1>": "monomial ideals pass",
        "<2,3>": "monomial ideals pass",
        "<2,5>": "monomial ideals pass",
        "<2,7>": "monomial ideals pass",
        "<2,9>": "monomial ideals pass",
        "<3,4>": "counterexample found",
        "<3,5>": "counterexample found",
        "<4,5>": "counterexample found",
        "<3,4,5>": "counterexample found",
    }
    for label, sgp, _ in build_semigroup_catalog():
        report = run_semigroup_lp_suite(sgp)
        assert report.verdict == expected[label], label
    s34 = semigroup_new((3, 4))
    report = run_semigroup_lp_suite(s34)
    witness = next(c.witness for c in report.checks if c.status == "fail")
    assert witness["E"] == "0 | 3"
    assert witness["trace"] == "3,4 | 6"
    # the specific pair fails the translation test when checked directly
    e = parse_ideal_text(s34, "0 | 3")
    assert trace(e) == parse_ideal_text(s34, "3,4 | 6")
    assert is_translate(e, trace(e)).offset is None
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"semigroup suites took {elapsed:.1f}s"
    print(f"criterion 2 PASS: verdicts and <3,4> witness in {elapsed:.2f}s")


def test_criterion_3_oracle_agreement():
    for label, algebra, _ in build_artinian_catalog():
        for v in algebra.all_elements():
            ideal = algebra.ideal_generate([v])
            via_hom = algebra.trace_ideal(ideal)
            via_ann = algebra.double_annihilator(ideal)
            assert via_hom == via_ann, (label, algebra.format_element(v))
    for label, sgp, _ in build_semigroup_catalog():
        for e in enumerate_normalized_ideals(sgp):
            self_colon = ideal_colon(e, e)
            assert (trace(e) == e) == (self_colon == dual(e)), (label, e.format())
    print("criterion 3 PASS: principal double-annihilator oracle and colon criterion agree")


def test_criterion_4_trace_idempotence_and_containment():
    for label, algebra, _ in build_artinian_catalog():
        for ideal in algebra.enumerate_ideals():
            tr = algebra.trace_ideal(ideal)
            assert ideal.is_subspace_of(tr), label
            assert algebra.trace_ideal(tr) == tr, label
    for label, sgp, _ in build_semigroup_catalog():
        for e in enumerate_normalized_ideals(sgp):
            tr = trace(e)
            assert trace(tr) == tr, (label, e.format())
            d = dual(e)
            # containment for the integral representative of the class of E
            assert e.shift(d.min).is_subset_of(tr), (label, e.format())
            if d.contains(0):
                assert e.is_subset_of(tr), (label, e.format())
    print("criterion 4 PASS: trace containment and idempotence in both engines")


def test_criterion_5_endomorphism_ring_of_the_maximal_ideal():
    s34 = semigroup_new((3, 4))
    m = maximal_ideal(s34)
    endo = ideal_colon(m, m)
    assert endo == parse_ideal_text(s34, "0 | 3")
    assert endo_semigroup(m.normalized()).generators == (3, 4, 5)
    assert trace(endo) == m
    print("criterion 5 PASS: <3,4> maximal ideal recovered as the trace of <3,4,5>")


def test_criterion_6_product_trace_factorization():
    left = algebra_from_presentation(2, ("x",), ("x^2",))
    right = algebra_from_presentation(2, (), ())
    prod = product_algebra(left, right)
    pairs = list(itertools.product(left.enumerate_ideals(), right.enumerate_ideals()))
    assert len(pairs) == 6
    for pair in pairs:
        lhs = prod.trace_ideal(prod.product_ideal(pair))
        rhs = prod.product_ideal(
            [left.trace_ideal(pair[0]), right.trace_ideal(pair[1])]
        )
        assert lhs == rhs, [left.format_ideal(pair[0]), right.format_ideal(pair[1])]
    print("criterion 6 PASS: trace in the product equals the product of traces (6 pairs)")


def _embedding_dimension(sgp):
    """Number of minimal generators, from membership alone: the nonzero
    members that are not a sum of two nonzero members.  Every minimal
    generator lies below conductor + multiplicity."""
    members = [z for z in range(1, sgp.conductor + sgp.multiplicity + 1) if sgp.contains(z)]
    return sum(
        1 for z in members if not any(sgp.contains(z - a) for a in members if a < z)
    )


def _symmetric_by_membership(sgp):
    """S is symmetric when z in S exactly if F - z is not, for 0 <= z <= F."""
    f = sgp.frobenius
    return all(sgp.contains(z) != sgp.contains(f - z) for z in range(f + 1))


def test_criterion_7_square_translate_classification_and_filtration_count():
    # m + m is a translate of m exactly when S has maximal embedding dimension
    # (embedding dimension = multiplicity), and the offset is then the
    # multiplicity.  For symmetric (Gorenstein) S this is multiplicity <= 2.
    violations = []
    for label, sgp, _ in build_semigroup_catalog():
        m = maximal_ideal(sgp)
        offset = is_translate(m, ideal_sum(m, m)).offset
        translate = offset is not None
        edim = _embedding_dimension(sgp)
        if translate != (edim == sgp.multiplicity):
            violations.append(
                f"{label}: m+m translate={translate} but embedding dimension={edim}, "
                f"multiplicity={sgp.multiplicity}"
            )
        if translate and offset != sgp.multiplicity:
            violations.append(f"{label}: m+m = m+{offset}, multiplicity={sgp.multiplicity}")
        if _symmetric_by_membership(sgp) and translate != (sgp.multiplicity <= 2):
            violations.append(
                f"{label}: symmetric, m+m translate={translate} but multiplicity={sgp.multiplicity}"
            )
    # <3,4,5> refutes the unconditional claim "translate => multiplicity <= 2".
    s345 = semigroup_new((3, 4, 5))
    m345 = maximal_ideal(s345)
    assert not _symmetric_by_membership(s345)
    assert is_translate(m345, ideal_sum(m345, m345)).offset == 3
    # R = k[[x,y]]/(y^2 - x^(2k+1)) has associated graded ring k[x,y]/(y^2),
    # Hilbert function 1, 2, 2, ..., so length(R/m^(n+1)) = 2n + 1.
    for k in (1, 2, 3, 4):
        sgp = semigroup_new((2, 2 * k + 1))
        for n, count in enumerate(filtration_lengths(sgp, k + 3)):
            if count != 2 * n + 1:
                violations.append(
                    f"<2,{2 * k + 1}>: length(R/m^{n + 1}) = {count}, expected {2 * n + 1}"
                )
    assert not violations, "; ".join(violations)
    print("criterion 7 PASS: square-translate classification and filtration counts")


def test_criterion_8_deterministic_reports(tmp_path):
    first = emit_reports(run_catalog("all"), "json")
    second = emit_reports(run_catalog("all"), "json")
    assert first == second
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_run(["catalog", "--suite", "all", "--format", "json", "--out", str(out1)]) == 0
    assert cli_run(["catalog", "--suite", "all", "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    json.loads(first)  # the emitted document is well-formed JSON
    print("criterion 8 PASS: byte-identical catalog reports across runs")
