"""Command-line frontend.

Subcommands: `artinian` and `semigroup` run single operations or suites on one
ring; `catalog` sweeps the built-in verification catalog.  Exit codes: 0 when
everything asked for passed, 1 when a check failed (the report is still
emitted), 2 on usage or ring-spec errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

from .errors import NotNumericalSemigroupError, SpecError, StructureError, TraceLabError
from .finalg import algebra_from_presentation
from .numsgp import (
    dual,
    endo_semigroup,
    enumerate_normalized_ideals,
    ideal_colon,
    ideal_from_gens,
    is_translate,
    semigroup_new,
    trace,
    validate_generators,
)
from .polyfp import PrimeField
from .verify import (
    default_caps,
    report_chunks,
    reports_have_failures,
    run_catalog,
    run_suites,
)


@dataclass
class RingSpec:
    """Validated ring specification (see the JSON schema in the README)."""

    kind: str
    p: int | None = None
    variables: tuple = ()
    relations: tuple = ()
    generators: tuple = ()


def _json_list(data: dict, key: str, item_type: type, default=None) -> tuple:
    """data[key] as a tuple; it must be a JSON array whose items are all item_type."""
    value = data.get(key, default)
    if not isinstance(value, list) or any(type(x) is not item_type for x in value):
        raise SpecError("bad-schema", f"{key!r} must be an array of {item_type.__name__} values")
    return tuple(value)


def parse_ring_spec(document: str) -> RingSpec:
    """Parse and validate a ring-spec JSON document.

    Distinct error codes: malformed-json, bad-schema, unknown-kind,
    non-prime-field, gcd-not-one.  Integers must be JSON integers and lists
    JSON arrays; nothing is coerced.  A document json.loads refuses is
    malformed-json, also for an integer past Python's digit limit (a
    ValueError) or nesting past the recursion limit (a RecursionError).
    """
    try:
        data = json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise SpecError("malformed-json", f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise SpecError("bad-schema", "ring spec must be an object with a 'kind' key")
    kind = data["kind"]
    if kind == "artinian":
        p = data.get("field")
        if type(p) is not int:
            raise SpecError("bad-schema", "artinian spec needs an integer 'field'")
        variables = _json_list(data, "vars", str, [])
        relations = _json_list(data, "relations", str, [])
        try:
            PrimeField(p)
        except StructureError as exc:
            raise SpecError("non-prime-field", f"field characteristic {exc}") from exc
        return RingSpec(kind="artinian", p=p, variables=variables, relations=relations)
    if kind == "semigroup":
        gens = _json_list(data, "generators", int)
        try:
            validate_generators(gens)
        except NotNumericalSemigroupError as exc:
            raise SpecError("gcd-not-one", str(exc)) from exc
        return RingSpec(kind="semigroup", generators=gens)
    raise SpecError("unknown-kind", f"unknown ring kind {kind!r}")


def _caps_from_env() -> dict:
    caps = default_caps()
    raw = os.environ.get("TRACE_LAB_CAPS", "")
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            key, value = part.split("=")
            key = key.strip()
            if key not in caps:
                raise ValueError(key)
            caps[key] = int(value)
        except ValueError as exc:
            raise SpecError("bad-caps", f"bad TRACE_LAB_CAPS entry {part!r}") from exc
    return caps


def _artinian_ideal(algebra, text: str):
    return algebra.ideal_generate([algebra.element(g) for g in text.split(",") if g.strip()])


def _semigroup_ideal(sgp, text: str):
    try:
        offsets = [int(z) for z in text.split(",") if z.strip()]
    except ValueError as exc:
        raise SpecError("bad-schema", f"bad ideal offsets {text!r}") from exc
    return ideal_from_gens(sgp, offsets)


# Per ring kind: the flag that gives an ideal, its parser, and for each op the
# number of ideals it takes and its result text (one line per listed ideal).
_OPS = {
    "artinian": (
        "--ideal-gens",
        _artinian_ideal,
        {
            "trace": (1, lambda a, ideals, caps: a.format_ideal(a.trace_ideal(ideals[0]))),
            "colon": (2, lambda a, ideals, caps: a.format_ideal(a.colon_in_ring(*ideals))),
            "ann": (1, lambda a, ideals, caps: a.format_ideal(a.annihilator(ideals[0]))),
            "iso": (2, lambda a, ideals, caps: str(a.is_isomorphic(*ideals, caps["hom"])).lower()),
            "enumerate": (
                0,
                lambda a, ideals, caps: "\n".join(map(a.format_ideal, a.enumerate_ideals(caps["dim"]))),
            ),
        },
    ),
    "semigroup": (
        "--ideal",
        _semigroup_ideal,
        {
            "trace": (1, lambda s, ideals, caps: trace(ideals[0]).format()),
            "colon": (2, lambda s, ideals, caps: ideal_colon(*ideals).format()),
            "dual": (1, lambda s, ideals, caps: dual(ideals[0]).format()),
            "endo": (
                1,
                lambda s, ideals, caps: ",".join(map(str, endo_semigroup(ideals[0].normalized()).generators)),
            ),
            "iso": (2, lambda s, ideals, caps: str(w.offset) if (w := is_translate(*ideals)) else "none"),
            "enumerate": (
                0,
                lambda s, ideals, caps: "\n".join(e.format() for e in enumerate_normalized_ideals(s, caps["gaps"])),
            ),
        },
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use and shared by every run."""
    parser = argparse.ArgumentParser(
        prog="trace-lab",
        description="Exact trace-ideal calculus and verification suites for "
        "artinian local algebras over F_p and numerical semigroup rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--suite", choices=("lp", "identities", "all"), help="run a verification suite")
        sp.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
        sp.add_argument("--out", help="write the report to this file instead of stdout")
        sp.add_argument("--cap-dim", type=int, dest="cap_dim", help="subspace enumeration dimension cap")
        sp.add_argument("--cap-gaps", type=int, dest="cap_gaps", help="semigroup gap-count cap")
        sp.add_argument("--cap-hom", type=int, dest="cap_hom", help="isomorphism search budget exponent")

    def add_ops(sp, kind, ideal_help):
        flag, _, ops = _OPS[kind]
        sp.add_argument("--op", choices=tuple(ops), help=f"single operation; ideals are given with {flag}")
        sp.add_argument(
            flag, action="append", default=[], dest="ideals", help=f"{ideal_help}; repeat for binary operations"
        )
        add_common(sp)

    art = sub.add_parser("artinian", help="finite-dimensional local F_p-algebra operations")
    art.add_argument("--spec", required=True, help="ring-spec JSON file (or inline JSON document)")
    add_ops(art, "artinian", "comma-separated polynomial generators of an ideal")

    sgp = sub.add_parser("semigroup", help="numerical semigroup ring operations")
    sgp.add_argument("--spec", help="ring-spec JSON file (or inline JSON document)")
    sgp.add_argument("--gens", help="comma-separated semigroup generators, e.g. 3,4")
    add_ops(sgp, "semigroup", "comma-separated ideal offsets")

    cat = sub.add_parser("catalog", help="run suites over the built-in catalog")
    add_common(cat)
    return parser


def _load_spec_argument(text: str) -> RingSpec:
    stripped = text.strip()
    if stripped.startswith("{"):
        return parse_ring_spec(stripped)
    try:
        with open(text, "r", encoding="utf-8") as handle:
            document = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("bad-schema", f"cannot read spec file {text!r}: {exc}") from exc
    return parse_ring_spec(document)


def _spec_from_args(args) -> RingSpec:
    gens = getattr(args, "gens", None)
    if gens and args.spec:
        raise SpecError("bad-schema", "pass either --gens or --spec, not both")
    if gens:
        try:
            generators = [int(g) for g in gens.split(",") if g.strip()]
        except ValueError as exc:
            raise SpecError("bad-schema", f"bad --gens list {gens!r}") from exc
        spec = parse_ring_spec(json.dumps({"kind": "semigroup", "generators": generators}))
    elif args.spec:
        spec = _load_spec_argument(args.spec)
    else:
        raise SpecError("bad-schema", "semigroup subcommand needs --gens or --spec")
    if spec.kind != args.command:
        raise SpecError("bad-schema", f"{args.command} subcommand needs a ring spec of kind {args.command!r}")
    return spec


def _caps_from_args(args) -> dict:
    caps = _caps_from_env()
    if args.cap_dim is not None:
        caps["dim"] = args.cap_dim
    if args.cap_gaps is not None:
        caps["gaps"] = args.cap_gaps
    if args.cap_hom is not None:
        caps["hom"] = args.cap_hom
    negative = [f"{key}={value}" for key, value in caps.items() if value is not None and value < 0]
    if negative:
        raise SpecError("bad-caps", f"caps must not be negative: {', '.join(negative)}")
    return caps


def _emit(chunks, out_path):
    """Write the chunks, one by one, to stdout or to the file out_path, which
    is opened before the first chunk is made."""
    if not out_path:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            for chunk in chunks:
                handle.write(chunk)
    except OSError as exc:
        raise SpecError("bad-schema", f"cannot write report file {out_path!r}: {exc}") from exc


def _run_op(kind: str, ring, args, caps) -> str:
    flag, parse_ideal, ops = _OPS[kind]
    takes, result_of = ops[args.op]
    if len(args.ideals) != takes:
        raise SpecError("bad-schema", f"op {args.op!r} needs {takes} {flag} argument(s), got {len(args.ideals)}")
    result = result_of(ring, [parse_ideal(ring, text) for text in args.ideals], caps)
    if args.fmt == "json":
        return json.dumps({"result": result.split("\n") if args.op == "enumerate" else result}) + "\n"
    return result + "\n"


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        caps = _caps_from_args(args)
        if args.command == "catalog":
            reports = run_catalog(args.suite or "all", caps)
        else:
            if args.op and args.suite:
                raise SpecError("bad-schema", "choose either --op or --suite, not both")
            if not (args.op or args.suite):
                raise SpecError("bad-schema", "nothing to do: pass --op or --suite")
            spec = _spec_from_args(args)
            if spec.kind == "artinian":
                ring = algebra_from_presentation(spec.p, spec.variables, spec.relations)
            else:
                ring = semigroup_new(spec.generators)
            if args.op:
                _emit((_run_op(spec.kind, ring, args, caps),), args.out)
                return 0
            reports = run_suites(ring, args.suite, caps)
        _emit(report_chunks(reports, args.fmt), args.out)
        return 1 if reports_have_failures(reports) else 0
    except SpecError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except TraceLabError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
