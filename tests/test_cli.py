import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import _binomial_presentations

import tracelab
from tracelab import cli, finalg, linalg, polyfp
from tracelab.cli import RingSpec, build_parser, parse_ring_spec, run
from tracelab.errors import SpecError
from tracelab.finalg import FinAlgebra, algebra_from_presentation
from tracelab.verify import ARTINIAN_CATALOG, catalog_product_algebra


# --- ring spec parsing ------------------------------------------------------------

def test_parse_artinian_spec():
    spec = parse_ring_spec('{"kind":"artinian","field":2,"vars":["x"],"relations":["x^3"]}')
    assert spec == RingSpec(kind="artinian", p=2, variables=("x",), relations=("x^3",))


def test_parse_semigroup_spec():
    spec = parse_ring_spec('{"kind":"semigroup","generators":[3,4]}')
    assert spec == RingSpec(kind="semigroup", generators=(3, 4))


@pytest.mark.parametrize(
    "document,code",
    [
        ("{not json", "malformed-json"),
        ('{"kind":"semigroup","generators":[2,4]}', "gcd-not-one"),
        ('{"kind":"artinian","field":4,"vars":[],"relations":[]}', "non-prime-field"),
        ('{"kind":"dedekind"}', "unknown-kind"),
        ('{"generators":[2,3]}', "bad-schema"),
        ('{"kind":"artinian","vars":[]}', "bad-schema"),
        ('{"kind":"semigroup","generators":"34"}', "bad-schema"),
        ('{"kind":"semigroup","generators":[3.9,4]}', "bad-schema"),
        ('{"kind":"artinian","field":2.7,"vars":[],"relations":[]}', "bad-schema"),
        ('{"kind":"artinian","field":2,"vars":"xy","relations":[]}', "bad-schema"),
        ('{"kind":"artinian","field":2,"vars":["x"],"relations":"x^2"}', "bad-schema"),
        ('{"kind":"artinian","field":318665857834031151167461,"vars":[],"relations":[]}', "non-prime-field"),
    ],
)
def test_parse_errors_carry_distinct_codes(document, code):
    with pytest.raises(SpecError) as err:
        parse_ring_spec(document)
    assert err.value.code == code


def test_spec_round_trip():
    catalog_specs = {
        '{"kind":"artinian","field":2,"vars":["x"],"relations":["x^3"]}':
            RingSpec(kind="artinian", p=2, variables=("x",), relations=("x^3",)),
        '{"kind":"artinian","field":3,"vars":["x"],"relations":["x^3"]}':
            RingSpec(kind="artinian", p=3, variables=("x",), relations=("x^3",)),
        '{"kind":"semigroup","generators":[3,4]}': RingSpec(kind="semigroup", generators=(3, 4)),
        '{"kind":"semigroup","generators":[2,9]}': RingSpec(kind="semigroup", generators=(2, 9)),
    }
    for document, spec in catalog_specs.items():
        assert parse_ring_spec(document) == spec


# --- single operations ---------------------------------------------------------------

def test_semigroup_trace_op(capsys):
    code = run(["semigroup", "--gens", "3,4", "--op", "trace", "--ideal", "0,5"])
    assert code == 0
    assert capsys.readouterr().out == "3,4 | 6\n"


def test_semigroup_colon_and_dual_ops(capsys):
    assert run(["semigroup", "--gens", "3,4", "--op", "colon", "--ideal", "0,5", "--ideal", "0,5"]) == 0
    assert capsys.readouterr().out == "0 | 3\n"
    assert run(["semigroup", "--gens", "2,3", "--op", "dual", "--ideal", "0,1"]) == 0
    assert capsys.readouterr().out == "| 2\n"


def test_semigroup_endo_and_iso_ops(capsys):
    assert run(["semigroup", "--gens", "3,4", "--op", "endo", "--ideal", "3,4"]) == 0
    assert capsys.readouterr().out == "3,4,5\n"
    assert run(["semigroup", "--gens", "2,3", "--op", "iso", "--ideal", "0", "--ideal", "7"]) == 0
    assert capsys.readouterr().out == "7\n"
    assert run(["semigroup", "--gens", "3,4", "--op", "iso", "--ideal", "0,5", "--ideal", "3,4"]) == 0
    assert capsys.readouterr().out == "none\n"
    assert run(["semigroup", "--gens", "3,4", "--op", "iso", "--ideal", "0,5", "--ideal", "0,5"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_semigroup_enumerate_json(capsys):
    assert run(["semigroup", "--gens", "2,3", "--op", "enumerate", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"result": ["0 | 2", "| 0"]}


def test_artinian_ops(tmp_path, capsys):
    spec = tmp_path / "ring.json"
    spec.write_text('{"kind":"artinian","field":2,"vars":["x"],"relations":["x^3"]}')
    assert run(["artinian", "--spec", str(spec), "--op", "trace", "--ideal-gens", "x"]) == 0
    assert capsys.readouterr().out == "x, x^2\n"
    assert run(["artinian", "--spec", str(spec), "--op", "ann", "--ideal-gens", "x^2"]) == 0
    assert capsys.readouterr().out == "x, x^2\n"
    assert run(
        ["artinian", "--spec", str(spec), "--op", "colon", "--ideal-gens", "x^2", "--ideal-gens", "x"]
    ) == 0
    assert capsys.readouterr().out == "x, x^2\n"
    assert run(["artinian", "--spec", str(spec), "--op", "enumerate"]) == 0
    assert capsys.readouterr().out == "0\nx^2\nx, x^2\n1, x, x^2\n"


def test_artinian_inline_spec(capsys):
    document = '{"kind":"artinian","field":2,"vars":["x","y"],"relations":["x^2","y^2"]}'
    assert run(["artinian", "--spec", document, "--op", "iso", "--ideal-gens", "x", "--ideal-gens", "y"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_runs_share_one_parser_but_not_their_ideal_lists(capsys):
    assert build_parser() is build_parser()
    square = '{"kind":"artinian","field":2,"vars":["x","y"],"relations":["x^2","y^2"]}'
    chain = '{"kind":"artinian","field":2,"vars":["x"],"relations":["x^3"]}'
    for argv, out in (
        (["semigroup", "--gens", "3,4", "--op", "colon", "--ideal", "0,5", "--ideal", "0,5"], "0 | 3\n"),
        (["semigroup", "--gens", "3,4", "--op", "trace", "--ideal", "0,5"], "3,4 | 6\n"),
        (["semigroup", "--gens", "2,3", "--op", "enumerate"], "0 | 2\n| 0\n"),
        (["artinian", "--spec", square, "--op", "iso", "--ideal-gens", "x", "--ideal-gens", "y"], "false\n"),
        (["artinian", "--spec", square, "--op", "trace", "--ideal-gens", "x*y"], "x*y\n"),
        (["artinian", "--spec", chain, "--op", "enumerate"], "0\nx^2\nx, x^2\n1, x, x^2\n"),
    ):
        assert run(argv) == 0, argv
        assert capsys.readouterr().out == out


# --- suites and exit codes --------------------------------------------------------------

def test_artinian_suite_exit_one_with_witness(capsys):
    document = '{"kind":"artinian","field":2,"vars":["x","y"],"relations":["x^2","x*y","y^2"]}'
    code = run(["artinian", "--spec", document, "--suite", "lp"])
    out = capsys.readouterr().out
    assert code == 1
    assert '"ideal": "x"' in out
    assert "verdict: fails" in out


def test_semigroup_suite_pass_exit_zero(capsys):
    assert run(["semigroup", "--gens", "2,3", "--suite", "lp"]) == 0
    assert "monomial ideals pass" in capsys.readouterr().out


def _artinian_document(p, variables, relations):
    return json.dumps({"kind": "artinian", "field": p, "vars": list(variables), "relations": list(relations)})


def _suites_alone_and_together(capsys, document, *flags):
    """Exit codes and output of --suite all, and of --suite lp and --suite
    identities run alone and joined as emit_reports joins two reports, in
    JSON and in text; the two sides must be equal."""
    for fmt in ("json", "text"):
        runs = {}
        for suite in ("lp", "identities", "all"):
            code = run(["artinian", "--spec", document, "--suite", suite, "--format", fmt, *flags])
            runs[suite] = code, capsys.readouterr().out
        (lp_code, lp), (identities_code, identities) = runs["lp"], runs["identities"]
        if fmt == "json":
            reports = json.loads(lp)["reports"] + json.loads(identities)["reports"]
            alone = json.dumps({"reports": reports}, indent=2, sort_keys=True) + "\n"
        else:
            alone = lp + "\n" + identities
        assert runs["all"] == (max(lp_code, identities_code), alone), (document, fmt)
    return runs


CATALOG_PRESENTATIONS = [(p, variables, relations) for _, p, variables, relations, _ in ARTINIAN_CATALOG]


def test_suite_all_prints_what_the_suites_print_alone(capsys):
    presentations = CATALOG_PRESENTATIONS + [spec[:3] for spec in _binomial_presentations(seed=23, count=20)]
    for presentation in presentations:
        _suites_alone_and_together(capsys, _artinian_document(*presentation))


def test_suite_all_on_the_catalog_product(capsys, monkeypatch):
    product = catalog_product_algebra()
    monkeypatch.setattr(cli, "algebra_from_presentation", lambda *args: product)
    runs = _suites_alone_and_together(capsys, _artinian_document(2, ("x",), ("x^2",)))
    assert "product-trace-factorization" in runs["all"][1]


def test_suite_all_enumerates_and_traces_once(capsys, count_calls):
    counts = count_calls("enumerate_ideals", "trace_ideal")
    assert run(["artinian", "--spec", _artinian_document(2, ("x",), ("x^3",)), "--suite", "all"]) == 0
    capsys.readouterr()
    assert counts == {"enumerate_ideals": 1, "trace_ideal": 4}  # 0, (x^2), (x) and R


def test_a_repeated_op_does_the_same_work(capsys, monkeypatch):
    """No state survives a cli.run call: the second of two equal artinian
    --op trace runs divides, extends and combines exactly as often as the
    first.  A cache kept between calls would make an in-process benchmark read
    faster than a one-shot process."""
    calls = collections.Counter()
    for module, name in ((polyfp, "normal_form"), (finalg, "normal_form"), (linalg, "extend"), (linalg, "combine")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _o=original, _n=name: calls.update([_n]) or _o(*args))
    spec = _artinian_document(2, ("x", "y", "z"), ("x^3", "y^3", "z^3"))
    runs = []
    for _ in range(2):
        calls.clear()
        assert run(["artinian", "--spec", spec, "--op", "trace", "--ideal-gens", "x*y"]) == 0
        runs.append(dict(calls))
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    assert runs[0] == runs[1] and set(runs[0]) == {"normal_form", "extend", "combine"}, runs


def test_suite_all_over_the_dimension_cap_skips_each_suites_checks(capsys):
    for presentation in CATALOG_PRESENTATIONS[2:]:
        runs = _suites_alone_and_together(capsys, _artinian_document(*presentation), "--cap-dim", "2")
        code, out = runs["all"]
        assert code == 0
        assert out.count("[SKIP]") == 7  # the six lp conditions and identity-suite
        assert "[SKIP] identity-suite  reason=dimension" in out


def test_suite_all_shares_an_injected_trace_fault(capsys, monkeypatch):
    original = FinAlgebra.trace_ideal
    monkeypatch.setattr(
        FinAlgebra, "trace_ideal", lambda self, ideal: self.unit_ideal() if ideal.dim else original(self, ideal)
    )
    runs = _suites_alone_and_together(capsys, _artinian_document(2, ("x",), ("x^3",)))
    assert runs["lp"][0] == runs["identities"][0] == 1
    out = runs["all"][1]
    assert "[FAIL] every-ideal-equals-its-trace" in out
    assert "[FAIL] principal-trace-equals-double-annihilator" in out


def test_catalog_exit_zero_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["catalog", "--suite", "all", "--format", "json", "--out", str(out1)]) == 0
    assert run(["catalog", "--suite", "all", "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (
        hashlib.sha256(out1.read_bytes()).hexdigest()
        == "403fdbd2e8a34d0da9489193336faf84b3912bf359f1c89c5b663344728ef60e"
    )
    payload = json.loads(out1.read_text())
    assert len(payload["reports"]) == 39


def test_one_version_string(capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert run(["catalog", "--suite", "lp", "--format", "json"]) == 0
    reported = {r["engine_version"] for r in json.loads(capsys.readouterr().out)["reports"]}
    assert reported == {tracelab.__version__} == {project["version"]}


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run(["semigroup", "--gens", "2,4", "--op", "enumerate"]) == 2
    assert "gcd-not-one" in capsys.readouterr().err
    assert run(["semigroup", "--gens", "3,x", "--suite", "lp"]) == 2
    assert "bad-schema" in capsys.readouterr().err
    assert run(["semigroup", "--gens", "2,3"]) == 2  # nothing to do
    capsys.readouterr()
    assert run(["semigroup", "--gens", "2,3", "--op", "colon", "--ideal", "0"]) == 2
    capsys.readouterr()
    assert run(["artinian", "--spec", "/nonexistent.json", "--suite", "lp"]) == 2
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    assert run(["semigroup", "--gens", "2,3", "--op", "trace", "--ideal", "0", "--suite", "lp"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "document,engine_error",
    [
        ('{"kind":"artinian","field":2,"vars":["x","x"],"relations":["x^2"]}', "StructureError"),
        ('{"kind":"artinian","field":2,"vars":["x"],"relations":["x^^2"]}', "PolynomialSyntaxError"),
        ('{"kind":"artinian","field":2,"vars":["x"],"relations":[]}', "NotZeroDimensionalError"),
        ('{"kind":"artinian","field":2,"vars":["x"],"relations":["x^2+x"]}', "NotLocalError"),
        ('{"kind":"artinian","field":2,"vars":["x"],"relations":["x^100000000000"]}', "StructureError"),
    ],
)
def test_ring_construction_errors_carry_the_engine_class(capsys, document, engine_error):
    assert run(["artinian", "--spec", document, "--suite", "lp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[{engine_error}]: ")


@pytest.mark.parametrize("template", ["x^{}", "{}*x"])
def test_integers_past_the_digit_limit_exit_two(capsys, template):
    # int() refuses more than 4300 digits; as an exponent or a coefficient,
    # in a relation or in --ideal-gens, that is a syntax error
    text = template.format("9" * 5000)
    relation = json.dumps({"kind": "artinian", "field": 2, "vars": ["x"], "relations": [text]})
    chain = '{"kind":"artinian","field":2,"vars":["x"],"relations":["x^3"]}'
    for argv in (["--spec", relation, "--op", "enumerate"], ["--spec", chain, "--op", "trace", "--ideal-gens", text]):
        assert run(["artinian", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[PolynomialSyntaxError]: ")


def _spec_error(capsys, argv):
    """The exit code and the stable spec code of a run that must print no report."""
    code = run(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.partition("]")[0]


@pytest.mark.parametrize(
    "document",
    [
        # json.loads raises ValueError for an integer of more than 4300 digits
        '{"kind":"semigroup","generators":[3,' + "4" * 5000 + "]}",
        # and RecursionError for nesting past the recursion limit
        '{"kind":' + "[" * 100_000,
    ],
    ids=["digit-limit", "recursion-limit"],
)
def test_json_past_the_parser_limits_is_malformed_json(capsys, document):
    assert _spec_error(capsys, ["semigroup", "--spec", document, "--suite", "lp"]) == (2, "error[malformed-json")


def test_a_spec_file_that_is_not_utf8_is_bad_schema(capsys, tmp_path):
    path = tmp_path / "ring.json"
    path.write_bytes(b'{"kind":"semigroup","generators":[3,4],"note":"\xff"}')
    assert _spec_error(capsys, ["semigroup", "--spec", str(path), "--suite", "lp"]) == (2, "error[bad-schema")


def test_huge_exponents_in_ideal_generators_are_quick(capsys):
    # x^2 = y and y^3 = 0 make x nilpotent; its power comes by square-and-multiply
    spec = '{"kind":"artinian","field":2,"vars":["x","y"],"relations":["x^2+y","y^3"]}'
    start = time.monotonic()
    assert run(["artinian", "--spec", spec, "--op", "trace", "--ideal-gens", "x^1000000000000000000"]) == 0
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().out == "0\n"


def test_locality_is_certified_at_the_origin(capsys):
    # F_2[x]/(x^2+1) is local, but x is a unit there: it is refused, and the
    # same ring presented in u = x + 1 is accepted
    shifted = '{"kind":"artinian","field":2,"vars":["x"],"relations":["x^2+1"]}'
    assert run(["artinian", "--spec", shifted, "--op", "enumerate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[NotLocalError]: ")
    origin = '{"kind":"artinian","field":2,"vars":["u"],"relations":["u^2"]}'
    assert run(["artinian", "--spec", origin, "--op", "enumerate"]) == 0
    assert capsys.readouterr().out == "0\nu\n1, u\n"


def test_semigroup_beyond_the_gap_cap_is_undecided_quickly(capsys):
    start = time.monotonic()
    assert run(["semigroup", "--gens", "1000,1001", "--suite", "all", "--format", "json"]) == 0
    assert time.monotonic() - start < 5.0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["verdict"] for r in reports] == ["undecided", "undecided"]
    assert all(c["status"] == "skipped" for r in reports for c in r["checks"])
    assert "499500 gaps exceed the enumeration cap 24" in reports[0]["checks"][0]["witness"]["reason"]


def test_semigroup_past_the_ideal_budget_is_refused_quickly(capsys):
    # <25, ..., 49> has genus 24, inside the gap cap, and 2^24 normalized ideals
    gens = ",".join(map(str, range(25, 50)))
    start = time.monotonic()
    assert run(["semigroup", "--gens", gens, "--suite", "lp", "--format", "json"]) == 0
    assert time.monotonic() - start < 1.0
    checks = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    skipped = [c for c in checks if c["status"] == "skipped"]
    assert [c["name"] for c in skipped] == ["trace-is-translate"]
    assert skipped[0]["witness"] == {"reason": "more than 65536 ideals exceed the ideal budget 65536"}
    start = time.monotonic()
    assert run(["semigroup", "--gens", gens, "--op", "enumerate"]) == 2
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[EnumerationCapExceededError]: more than 65536 ideals")


def test_oversized_semigroup_window_exits_two_quickly(capsys):
    start = time.monotonic()
    assert run(["semigroup", "--gens", "100000,100001", "--suite", "all"]) == 2
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[StructureError]: ")
    assert "16777216" in captured.err


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_exits_two(capsys, tmp_path, target):
    out = tmp_path / "no" / "x.json" if target == "missing-directory" else tmp_path
    assert run(["semigroup", "--gens", "3,4", "--suite", "lp", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[bad-schema]: ")


REPORT_COMMANDS = {
    "catalog": ["catalog", "--suite", "all"],
    "<5,12> lp": ["semigroup", "--gens", "5,12", "--suite", "lp"],
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
def test_out_writes_the_bytes_stdout_gets(capsys, tmp_path, command, fmt):
    argv = REPORT_COMMANDS[command] + ["--format", fmt]
    code = run(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "report"
    assert run(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_a_write_that_fails_after_the_file_is_opened_exits_two(capsys, monkeypatch):
    class FailingFile(io.StringIO):
        def write(self, text):
            writes.append(text)
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
            return super().write(text)

    writes = []
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FailingFile(), raising=False)
    assert run(["semigroup", "--gens", "3,4", "--suite", "lp", "--out", "report.txt"]) == 2
    assert len(writes) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[bad-schema]: cannot write report file 'report.txt': ")


@pytest.mark.parametrize(
    "args",
    [
        # a report larger than stdout's buffer fails in a write, a short one in the flush
        ("catalog", "--suite", "all", "--format", "json"),
        ("semigroup", "--gens", "3,4", "--op", "trace", "--ideal", "0"),
    ],
)
def test_a_stdout_closed_early_exits_two_without_a_traceback(args):
    # the read end closes before the child, still importing, writes
    src = Path(tracelab.__file__).resolve().parent.parent
    argv = [sys.executable, "-m", "tracelab.cli", *args]
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 2
    assert err.startswith("error[bad-schema]: cannot write report to stdout: ")
    assert err.count("\n") == 1, err


def test_reports_are_written_check_by_check():
    """The <5,12> LP report (124 KB, about 300 bytes a check) reaches stdout
    in writes of at most one check each, and its bytes do not change."""

    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    sizes, out = [], Recorder()
    with contextlib.redirect_stdout(out):
        assert run(["semigroup", "--gens", "5,12", "--suite", "lp", "--format", "json"]) == 1
    assert len(sizes) > 364 and max(sizes) <= 4096
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "05bfb50de3100dffe3f737572e310bd73f300c845d5583d6b01b922986bae8f2"


class _Sha256Writer(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)


def test_the_two_generator_edge_report_keeps_its_bytes():
    """<2,4001> past the gap cap: 2001 ideals, each with a trace of its own,
    in a report of 28.6 MB, whose 2,000-member witnesses the flat-dict writer
    and the shared table of both suites must leave byte for byte as they were."""
    out = _Sha256Writer()
    argv = ["semigroup", "--gens", "2,4001", "--suite", "all", "--cap-gaps", "100000", "--format", "json"]
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert out.sha.hexdigest() == "2d929363270449c468c3a4883dbf0b25e3ac2e74f5aaeb814b3bc5b176007d03"


def test_artinian_suites_over_a_large_prime_are_quick(capsys):
    spec = '{"kind":"artinian","field":101,"vars":["t"],"relations":["t^2"]}'
    start = time.monotonic()
    assert run(["artinian", "--spec", spec, "--suite", "all"]) == 0
    assert time.monotonic() - start < 1.0
    assert "summary: pass=" in capsys.readouterr().out


def test_sweep_over_the_subspace_budget_is_undecided_quickly(capsys):
    # dimension 4 passes the default cap for p >= 3, but F_101^4 has
    # 107,192,416 subspaces to sweep
    spec = '{"kind":"artinian","field":101,"vars":["x"],"relations":["x^4"]}'
    start = time.monotonic()
    assert run(["artinian", "--spec", spec, "--suite", "lp", "--format", "json"]) == 0
    assert time.monotonic() - start < 1.0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["verdict"] == "undecided"
    reasons = {c["status"]: c["witness"]["reason"] for c in report["checks"]}
    assert reasons == {"skipped": "107192416 subspaces of F_101^4 exceed the sweep budget 524288"}


def test_iso_with_a_huge_hom_cap_is_quick(capsys):
    document = '{"kind":"artinian","field":2,"vars":["x","y"],"relations":["x^2","y^2"]}'
    start = time.monotonic()
    argv = ["artinian", "--spec", document, "--op", "iso", "--ideal-gens", "x", "--ideal-gens", "y"]
    assert run(argv + ["--cap-hom", "1000000000"]) == 0
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().out == "false\n"


def test_trace_in_dimension_64_is_quick(capsys):
    # F_2[x,y,z]/(x^4,y^4,z^4): Hom((xy), R) has one generator image, 64 unknowns
    relations = ("x^4", "y^4", "z^4")
    spec = json.dumps({"kind": "artinian", "field": 2, "vars": ["x", "y", "z"], "relations": relations})
    start = time.monotonic()
    assert run(["artinian", "--spec", spec, "--op", "trace", "--ideal-gens", "x*y"]) == 0
    assert time.monotonic() - start < 1.0
    algebra = algebra_from_presentation(2, ("x", "y", "z"), relations)
    xy = algebra.ideal_generate([algebra.element("x*y")])
    expected = algebra.format_ideal(algebra.double_annihilator(xy))
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize(
    "flags,env",
    [(["--cap-dim", "-1"], ""), (["--cap-hom", "-3"], ""), ([], "gaps=-1"), (["--cap-gaps", "-1"], "gaps=24")],
)
def test_negative_caps_exit_two(capsys, monkeypatch, flags, env):
    monkeypatch.setenv("TRACE_LAB_CAPS", env)
    assert run(["semigroup", "--gens", "3,4", "--suite", "lp"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[bad-caps]: ")


def test_zero_caps_are_valid(capsys):
    assert run(["semigroup", "--gens", "3,4", "--suite", "lp", "--cap-dim", "0", "--cap-hom", "0"]) == 1
    capsys.readouterr()


def test_usage_errors_come_before_the_ring_is_built(capsys):
    not_local = '{"kind":"artinian","field":2,"vars":["x"],"relations":["x^2+x"]}'
    assert run(["artinian", "--spec", not_local, "--op", "enumerate", "--suite", "lp"]) == 2
    assert capsys.readouterr().err.startswith("error[bad-schema]: ")
    assert run(["artinian", "--spec", not_local]) == 2
    assert capsys.readouterr().err.startswith("error[bad-schema]: nothing to do")


def test_caps_env_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("TRACE_LAB_CAPS", "gaps=1")
    code = run(["semigroup", "--gens", "3,4", "--suite", "lp"])
    out = capsys.readouterr().out
    assert code == 0  # skipped checks are not failures
    assert "SKIP" in out and "gaps=1" in out

    monkeypatch.setenv("TRACE_LAB_CAPS", "bogus")
    assert run(["semigroup", "--gens", "3,4", "--suite", "lp"]) == 2
    capsys.readouterr()


def test_cap_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("TRACE_LAB_CAPS", "gaps=1")
    code = run(["semigroup", "--gens", "3,4", "--suite", "lp", "--cap-gaps", "24"])
    out = capsys.readouterr().out
    assert code == 1  # the counterexample is found once the cap allows enumeration
    assert "counterexample found" in out
