"""Report digests as a regression oracle for the paths the catalog never takes.

The catalog's reports hold no skipped and no failing check, so its sha256
cannot see the cap and budget skips or a failure witness.  Each case here runs
a suite over a ring and hashes `emit_reports` in JSON and in text: catalog
rings, a product and seeded binomial algebras (with same-field products) under
the default caps, dim=2 and hom=0..4; semigroups under gap caps 24, 0, 1 and 3;
`run_catalog`; and injected engine faults that make every check fail with a
witness, including both orders in which the LP isomorphism conditions can run
over the Hom budget.

`PYTHONPATH=src python tests/test_report_digests.py` rewrites tests/data/report_digests.json.
"""

import hashlib
import json
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from unittest import mock

from conftest import _binomial_algebras

from tracelab import verify
from tracelab.finalg import FinAlgebra, HomBasis, product_algebra
from tracelab.numsgp import TranslationWitness, maximal_ideal, semigroup_as_ideal, semigroup_new
from tracelab.verify import (
    build_artinian_catalog,
    catalog_product_algebra,
    default_caps,
    emit_reports,
    run_artinian_lp_suite,
    run_catalog,
    run_identity_suite,
    run_semigroup_lp_suite,
)

DATA = Path(__file__).resolve().parent / "data" / "report_digests.json"

# Cases whose reports changed on purpose since the digests were recorded, with
# their new digests.  The isomorphism-invariance checks now name the first
# failing class, where they used to name the last.
REVISED = {
    "fault second-line-and-plane-hom identities [json]": "d7c734d184ceb6e0dba6c758f01f9d3de4a3df92c216c916ce4e11391344c096",
    "fault second-line-and-plane-hom identities [text]": "15565135ec081638e3bbdde8738132109caafc113f4458c4d283e4222fe4fe93",
    "fault second-line-and-plane-trace identities [json]": "951a48f4956e25181860eff493209b2ecaf5ba8b9f1d3b3dc067a5d77f0dab2c",
    "fault second-line-and-plane-trace identities [text]": "900ed40334147130fa56438c7c7f3c4d11d98b21b32e0fb91c77b8c5edac281e",
    "fault second-line-and-plane-trace-and-hom identities [json]": (
        "89d2c3d9e9793706ea917b9ee482f3ad0a8b10f5d0b57b554f5cec3a38d3e6ce"
    ),
    "fault second-line-and-plane-trace-and-hom identities [text]": (
        "3590e5db0b3a4629b23eb318e09c2c00d4db1744460b1a461a5fd733c4d1f5be"
    ),
}

ARTINIAN_CAPS = {"default": {}, "dim=2": {"dim": 2}, **{f"hom={h}": {"hom": h} for h in range(5)}}
SEMIGROUP_CAPS = {f"gaps={g}": {"gaps": g} for g in (24, 0, 1, 3)}
SEMIGROUPS = ((1,), (2, 3), (3, 4), (3, 4, 5), (5, 7), (6, 7, 8, 9, 10, 11))


def _caps(**overrides):
    return {**default_caps(), **overrides}


def _algebras():
    """Catalog rings, the catalog product, seeded binomial algebras and
    products of consecutive binomial algebras over the same field."""
    out = [algebra for _, algebra, _ in build_artinian_catalog()] + [catalog_product_algebra()]
    binomial = _binomial_algebras(seed=11, count=16)
    products = [
        product_algebra(a, b)
        for a, b in zip(binomial, binomial[1:])
        if a.field.p == b.field.p and a.dim + b.dim <= 6
    ]
    return out + binomial + products


def _cube():
    return next(a for label, a, _ in build_artinian_catalog() if label == "F_2[x,y,z]/(x, y, z)^2")


def _patched(owner, name, make):
    """Patch owner.name with make(original)."""
    return mock.patch.object(owner, name, make(getattr(owner, name)))


def _trace_map(algebra, images):
    """Patch FinAlgebra.trace_ideal to return images[ideal] on the given algebra."""

    def make(original):
        def trace_ideal(self, ideal):
            if self is algebra and ideal in images:
                return images[ideal]
            return original(self, ideal)

        return trace_ideal

    return _patched(FinAlgebra, "trace_ideal", make)


def _artinian_faults():
    """(name, target, suites, caps, patches) for faults in the artinian engine."""
    catalog = {label: a for label, a, _ in build_artinian_catalog()}
    chain, fat, cube = catalog["F_2[x]/(x^3)"], catalog["F_2[x,y]/(x^2, x*y, y^2)"], _cube()
    product = catalog_product_algebra()
    ideals = cube.enumerate_ideals()
    line, plane = [i for i in ideals if i.dim == 1][1], [i for i in ideals if i.dim == 2][1]
    gen = {v: cube.ideal_generate([cube.element(v)]) for v in "xyz"}
    unit = cube.unit_ideal()

    def hom_off_by_one(original):
        def hom_module(self, domain, codomain):
            hom = original(self, domain, codomain)
            if self is cube and domain in (line, plane):
                return HomBasis(domain, codomain, hom.maps[1:])
            return hom

        return hom_module

    def always(value):
        return lambda original: lambda self, *args: value

    def zero_trace_of_lines(original):
        return lambda self, ideal: self.zero_ideal() if ideal.dim == 1 else original(self, ideal)

    def maximal_trace_of_unit(original):
        def trace_ideal(self, ideal):
            return self.radical() if ideal == self.unit_ideal() else original(self, ideal)

        return trace_ideal

    def unit_trace_on_products(original):
        def trace_ideal(self, ideal):
            return self.unit_ideal() if self.factors is not None and ideal.dim else original(self, ideal)

        return trace_ideal

    def lost_unit_colon(original):
        def colon_in_ring(self, left, right):
            if left.dim and right == self.unit_ideal():
                return self.zero_ideal()
            return original(self, left, right)

        return colon_in_ring

    def unit_annihilator(original):
        return lambda self, ideal: self.unit_ideal() if 0 < ideal.dim < self.dim else original(self, ideal)

    yield "gorenstein-claimed", fat, ("lp",), {}, [_patched(FinAlgebra, "is_gorenstein", always(True))]
    yield "unit-traces", chain, ("lp", "identities"), {}, [
        _trace_map(chain, {i: chain.unit_ideal() for i in chain.enumerate_ideals() if i.dim})
    ]
    yield "zero-trace-of-lines", cube, ("lp", "identities"), {}, [_patched(FinAlgebra, "trace_ideal", zero_trace_of_lines)]
    yield "maximal-trace-of-unit", chain, ("identities",), {}, [
        _patched(FinAlgebra, "trace_ideal", maximal_trace_of_unit)
    ]
    yield "zero-double-annihilator", chain, ("identities",), {}, [
        _patched(FinAlgebra, "double_annihilator", always(chain.zero_ideal()))
    ]
    yield "lost-unit-colon", fat, ("identities",), {}, [_patched(FinAlgebra, "colon_in_ring", lost_unit_colon)]
    yield "unit-annihilator", fat, ("identities",), {}, [_patched(FinAlgebra, "annihilator", unit_annihilator)]
    yield "second-line-and-plane-trace", cube, ("identities",), {}, [_trace_map(cube, {line: unit, plane: unit})]
    yield "second-line-and-plane-hom", cube, ("identities",), {}, [_patched(FinAlgebra, "hom_module", hom_off_by_one)]
    yield "second-line-and-plane-trace-and-hom", cube, ("identities",), {}, [
        _trace_map(cube, {line: unit, plane: unit}),
        _patched(FinAlgebra, "hom_module", hom_off_by_one),
    ]
    yield "unit-trace-on-products", product, ("identities",), {}, [
        _patched(FinAlgebra, "trace_ideal", unit_trace_on_products)
    ]
    # The LP isomorphism conditions reach the Hom search only when a trace
    # differs from its ideal in the same dimension, which I <= tr(I) forbids.
    # All ideals first: (x) against (y) runs over the budget.
    yield "lp-budget-all-ideals", cube, ("lp", "identities"), _caps(hom=0), [
        _trace_map(cube, {gen["x"]: gen["y"]})
    ]
    # (x) against m fails by dimension; the principal ideals run in the order
    # of their least generators, so (z) against (y) runs over the budget.
    yield "lp-budget-principal-ideals", cube, ("lp", "identities"), _caps(hom=0), [
        _trace_map(cube, {gen["z"]: gen["y"], gen["x"]: cube.radical()})
    ]


def _semigroup_faults():
    """(name, target, suites, caps, patches) for faults seen through verify's
    imported semigroup functions."""
    s34, s23, s345 = semigroup_new((3, 4)), semigroup_new((2, 3)), semigroup_new((3, 4, 5))

    def shifted_normalized_trace(original):
        return lambda e: original(e).shift(1) if e.min == 0 else original(e)

    def maximal_colon_of_ring(original):
        def ideal_colon(left, right):
            if left == right == semigroup_as_ideal(left.sgp):
                return maximal_ideal(left.sgp)
            return original(left, right)

        return ideal_colon

    def principal_colon_of_maximal(original):
        def ideal_colon(left, right):
            if left == right == maximal_ideal(left.sgp):
                return semigroup_as_ideal(left.sgp)
            return original(left, right)

        return ideal_colon

    def value(v):
        return lambda original: lambda *args: v

    patch = lambda name, make: _patched(verify, name, make)  # noqa: E731
    yield "shifted-normalized-trace", s34, ("lp", "identities"), {}, [patch("trace", shifted_normalized_trace)]
    yield "maximal-trace", s345, ("identities",), {}, [
        patch("trace", lambda original: lambda e: maximal_ideal(e.sgp))
    ]
    yield "maximal-colon-of-ring", s34, ("identities",), {}, [patch("ideal_colon", maximal_colon_of_ring)]
    yield "principal-colon-of-maximal", s34, ("identities",), {}, [patch("ideal_colon", principal_colon_of_maximal)]
    yield "shifted-dual", s34, ("identities",), {}, [patch("dual", lambda original: lambda e: e.shift(1))]
    yield "principal-dual", s34, ("identities",), {}, [
        patch("dual", lambda original: lambda e: semigroup_as_ideal(e.sgp))
    ]
    yield "never-translate", s23, ("lp", "identities"), {}, [patch("is_translate", value(TranslationWitness(None)))]
    yield "always-translate", s34, ("lp", "identities"), {}, [patch("is_translate", value(TranslationWitness(0)))]
    yield "linear-filtration", s34, ("identities",), {}, [
        patch("filtration_lengths", lambda original: lambda sgp, count: list(range(count)))
    ]
    yield "symmetry-flipped", s345, ("identities",), {}, [
        patch("is_symmetric", lambda original: lambda sgp: not original(sgp))
    ]


def _reports(kind, target, caps):
    if kind == "identities":
        return [run_identity_suite(target, caps)]
    if isinstance(target, FinAlgebra):
        return [run_artinian_lp_suite(target, caps)]
    return [run_semigroup_lp_suite(target, caps)]


def _faulted(patches, run):
    with ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        return run()


def cases():
    """(name, thunk returning a list of reports) for every digest case."""
    for algebra in _algebras():
        for cap_name, overrides in ARTINIAN_CAPS.items():
            for kind in ("lp", "identities"):
                yield f"{kind} {algebra.label} {cap_name}", partial(_reports, kind, algebra, _caps(**overrides))
    for gens in SEMIGROUPS:
        sgp = semigroup_new(gens)
        for cap_name, overrides in SEMIGROUP_CAPS.items():
            for kind in ("lp", "identities"):
                yield f"{kind} {sgp.label} {cap_name}", partial(_reports, kind, sgp, _caps(**overrides))
    for suite in ("lp", "identities", "all"):
        yield f"catalog {suite}", partial(run_catalog, suite)
    gorenstein_claimed = _patched(FinAlgebra, "is_gorenstein", lambda original: lambda self: True)
    yield "catalog lp gorenstein-claimed", partial(_faulted, [gorenstein_claimed], partial(run_catalog, "lp"))
    for name, target, suites, caps, patches in list(_artinian_faults()) + list(_semigroup_faults()):
        for kind in suites:
            yield f"fault {name} {kind}", partial(_faulted, patches, partial(_reports, kind, target, _caps(**caps)))


def _swept_once(original):
    """enumerate_ideals answering each (ring, cap) from its first sweep.

    The subspace sweep is most of the run time, and its answer depends only
    on the ring and the cap; test_finalg checks the sweep itself.
    """
    swept = {}

    def enumerate_ideals(self, cap_dim=None):
        key = (self.label, self.field.p, self.table, cap_dim)
        if key not in swept:
            swept[key] = original(self, cap_dim)
        return list(swept[key])

    return enumerate_ideals


def digests():
    out = {}
    with _patched(FinAlgebra, "enumerate_ideals", _swept_once):
        for name, run in cases():
            reports = run()
            for fmt in ("json", "text"):
                out[f"{name} [{fmt}]"] = hashlib.sha256(emit_reports(reports, fmt).encode()).hexdigest()
    return out


def test_report_digests_match_the_recorded_ones():
    recorded = json.loads(DATA.read_text())
    expected = {**recorded, **REVISED}
    actual = digests()
    assert sorted(actual) == sorted(expected)
    changed = sorted(name for name in actual if actual[name] != expected[name])
    assert not changed, changed


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
