"""Seeded job lists for the benchmark workloads.

A job is one trace-lab command line, run in process through ``cli.run``.  The
program sees only the command line; each job also carries a ``check`` tuple
that tells the correctness gate (``oracles.py``) which independent oracle
applies to its output.

The seed varies the inputs only inside families of equal cost (which ring of
a cost-matched pool, which variable names, which of two symmetric variables,
which gaps generate an ideal).  The spread between runs on different seeds
then measures the program and the machine, not the luck of the draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from oracles import semigroup

DEFAULT_SEED = 0
HELD_OUT_SEED = 1807

# A semigroup with 22 gaps, two below the default gap cap, whose LP suite
# takes 1.05 s on the reference machine, nearly all of it in the 2^22
# gap-mask loop.  At the cap itself (24 gaps) one LP suite takes 4-5 s, so a
# run would hold only three or four samples of it, too few for the fastest one
# to repeat while the host's speed swings by a third.  The other 22-gap
# semigroups with two generators, <3,23> and <2,45>, cost 10% and 20% more, so
# the seed does not pick the semigroup.
SWEEP_SEMIGROUP = (5, 12)

# Local F_2-algebras of dimension 7 with monomial relations; each LP suite
# sweeps the 29,212 subspaces of F_2^7 (1.5 s), and these five make between
# 137,795 and 142,367 FinAlgebra.mul calls.  Three others, such as
# (x^2, x*y^2, y^5) with 147,050, are left out.  Only F_2[x]/(x^7) is Gorenstein.
SWEEP_F2_DIM7 = (
    (("x",), ("x^7",)),
    (("x", "y"), ("x^3", "x*y", "y^5")),
    (("x", "y"), ("x^4", "x*y", "y^4")),
    (("x", "y"), ("x^5", "x*y", "y^3")),
    (("x", "y"), ("x^3", "x^2*y", "y^3")),
)

# F_p[t]/(t^2), whose identity suite sweeps all p^2 elements (0.5 s at
# p = 53; 2.1 s at p = 101); one prime, because the cost grows faster than p^2
# and a neighbouring prime would move it by 10%.  The seed names the variable.
SWEEP_PRIME = 53

# Numerical semigroups of genus 304 and 324, beyond the 24-gap cap.
SINGLE_SEMIGROUPS = ((20, 33), (19, 37))

VARIABLE_NAMES = (("x", "y", "z"), ("u", "v", "w"), ("a", "b", "c"), ("r", "s", "t"))

WHY = {
    "catalog": "The north-star command: trace-lab catalog --suite all --format json, "
    "whose 62,124-byte JSON is the regression oracle. Mixed profile: enumerate_ideals, "
    "FinAlgebra.mul, linalg.rref and reduce_vector; numsgp and ring construction are tiny.",
    "sweep-edge": "LP and identity suites on rings at or near the enumeration caps, where "
    "the exhaustive sweeps dominate and yield almost nothing: the 2^22 gap-mask loop, the "
    "29,212 subspaces of F_2^7 and the p^2 element sweep of F_53[t]/(t^2).",
    "single-ops": "One-shot --op calls on rings beyond the suite caps, with no enumeration: "
    "a few large calls to ideal_sum/ideal_colon/contains, hom_module, is_isomorphic and "
    "ring construction, plus two tiny suite runs. The bypass workload for the sweep changes.",
}

LAYERS = {
    "catalog": "finalg (enumerate_ideals, mul, hom_module, trace_ideal), linalg (rref, "
    "reduce_vector), verify (suites, emit_reports), cli",
    "sweep-edge": "numsgp (enumerate_normalized_ideals, trace), finalg (enumerate_ideals, "
    "is_ideal, all_elements), linalg, verify suites",
    "single-ops": "finalg (algebra_from_presentation, hom_module, is_isomorphic), linalg "
    "(rref, is_invertible), polyfp (buchberger, normal_form), numsgp windows, cli",
}


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    jobs: tuple
    rings: tuple  # ring-spec JSON documents, built once per set-up round
    products: tuple = ()  # (i, j): product_algebra of rings[i] and rings[j]

    @property
    def why(self) -> str:
        return WHY[self.name]

    @property
    def layers(self) -> str:
        return LAYERS[self.name]


def artinian_spec(p, variables, relations) -> str:
    return json.dumps({"kind": "artinian", "field": p, "vars": list(variables), "relations": list(relations)})


def semigroup_spec(gens) -> str:
    return json.dumps({"kind": "semigroup", "generators": list(gens)})


def _catalog(seed):
    from tracelab.verify import ARTINIAN_CATALOG, SEMIGROUP_CATALOG

    rings = [artinian_spec(p, v, r) for _, p, v, r, _ in ARTINIAN_CATALOG]
    rings += [semigroup_spec(gens) for gens, _ in SEMIGROUP_CATALOG]
    # the catalog's product algebra F_2[x]/(x^2) x F_2
    rings += [artinian_spec(2, ("x",), ("x^2",)), artinian_spec(2, (), ())]
    job = Job(("catalog", "--suite", "all", "--format", "json"), ("catalog",))
    return Workload("catalog", seed, (job,), tuple(rings), ((len(rings) - 2, len(rings) - 1),))


def _sweep_edge(seed):
    rng = random.Random(f"sweep-edge/{seed}")
    gens = SWEEP_SEMIGROUP
    variables, relations = rng.choice(SWEEP_F2_DIM7)
    names = rng.choice(VARIABLE_NAMES)[: len(variables)]
    relations = tuple(_rename(r, variables, names) for r in relations)
    t = rng.choice("stuw")
    local = artinian_spec(2, names, relations)
    fp = artinian_spec(SWEEP_PRIME, (t,), (f"{t}^2",))
    jobs = (
        Job(
            ("semigroup", "--gens", ",".join(map(str, gens)), "--suite", "lp", "--format", "json"),
            ("semigroup-lp", gens),
        ),
        Job(
            ("artinian", "--spec", local, "--suite", "lp", "--format", "json", "--cap-dim", "7"),
            ("artinian-lp", names, relations),
        ),
        Job(("artinian", "--spec", fp, "--suite", "identities", "--format", "json"), ("identities",)),
    )
    return Workload("sweep-edge", seed, jobs, (semigroup_spec(gens), local, fp))


def _rename(text, old, new):
    out = []
    for ch in text:
        out.append(new[old.index(ch)] if ch in old else ch)
    return "".join(out)


def _semigroup_ops(rng, gens):
    """trace, dual, colon, iso and endo on translates of ideals S + {0, g}.

    The gaps g sit at the middle of the gap list and are the same for every
    seed, because an op's cost depends on the arithmetic of g (it moves by up
    to 4x between neighbouring gaps).  The seed picks the translates, which
    change every output but not the cost."""
    sgp = semigroup(gens)
    gaps = [z for z in range(sgp.conductor) if z not in sgp]
    g1, g2, g3 = gaps[len(gaps) // 2 - 1 : len(gaps) // 2 + 2]

    def ideal(*offsets):
        k = rng.randrange(100)
        return ",".join(str(z + k) for z in (0,) + offsets)

    e = ideal(g1)
    iso_right = ideal(g1) if rng.random() < 0.5 else ideal(g2)
    base = ("semigroup", "--gens", ",".join(map(str, gens)), "--op")
    ops = (
        ("trace", (e,)),
        ("dual", (ideal(g1, g2),)),
        ("colon", (e, ideal(g3))),
        ("iso", (e, iso_right)),
        ("endo", (ideal(g2),)),
    )
    jobs = []
    for op, ideals in ops:
        argv = base + (op,)
        for text in ideals:
            argv += ("--ideal", text)
        jobs.append(Job(argv, ("semigroup-op", gens, op, ideals)))
    return jobs


def _algebra_op(p, variables, relations, op, ideals):
    argv = ("artinian", "--spec", artinian_spec(p, variables, relations), "--op", op)
    for text in ideals:
        argv += ("--ideal-gens", text)
    return Job(argv, ("artinian-op", p, variables, relations, op, ideals))


def _single_ops(seed):
    rng = random.Random(f"single-ops/{seed}")
    jobs = []
    rings = []
    for gens in SINGLE_SEMIGROUPS:
        rings.append(semigroup_spec(gens))
        jobs += _semigroup_ops(rng, gens)

    def algebra(p, nvars, relations, ops):
        names = rng.choice(VARIABLE_NAMES)[:nvars]
        rels = tuple(_rename(r, "xyz", names) for r in relations)
        rings.append(artinian_spec(p, names, rels))
        for op, ideals in ops:
            jobs.append(_algebra_op(p, names, rels, op, tuple(_rename(i, "xyz", names) for i in ideals)))

    # F_2[x,y,z]/(x^3,y^3,z^3), dim 27: construction-heavy; the variables are symmetric.
    a, b, c = rng.sample("xyz", 3)
    algebra(2, 3, ("x^3", "y^3", "z^3"), (
        ("trace", (f"{a}*{b}",)),
        ("iso", (f"{a}*{b}", f"{a}*{c}")),
    ))
    # F_3[x,y]/(x^4,y^4), dim 16: iso((x^2),(y^2)) is false and tries all 3^4 maps.
    a, b = rng.sample("xy", 2)
    algebra(3, 2, ("x^4", "y^4"), (
        ("iso", (f"{a}^2", f"{b}^2")),
        ("trace", (f"{a}^2*{b}",)),
    ))
    # F_5[x,y]/(x^3,y^3), dim 9: iso((x),(y)) is false and tries all 5^4 maps.
    a, b = rng.sample("xy", 2)
    algebra(5, 2, ("x^3", "y^3"), (
        ("iso", (a, b)),
    ))
    # F_5[x,y]/(x^4,y^5), dim 20.
    algebra(5, 2, ("x^4", "y^5"), (
        ("ann", ("x,y",)),
        ("colon", ("x^2", "x*y")),
    ))
    # F_7[x,y]/(x^5+6y^7, x^2y^2), dim 24: binomial relation, Gorenstein.
    algebra(7, 2, ("x^5+6*y^7", "x^2*y^2"), (
        ("ann", ("x,y",)),
    ))
    # F_2[x,y]/(x^3,y^4), dim 12.
    algebra(2, 2, ("x^3", "y^4"), (
        ("trace", ("x*y",)),
        ("colon", ("x^2", "y")),
        ("iso", ("x^2", "y^2")),
    ))
    # Two tiny suite runs, so that the enumeration and verify layers report a
    # nonzero time on every workload; together they take a few milliseconds.
    gens = rng.choice(((3, 5), (3, 7), (4, 5), (2, 9)))
    rings.append(semigroup_spec(gens))
    jobs.append(Job(("semigroup", "--gens", ",".join(map(str, gens)), "--suite", "lp", "--format", "json"),
                    ("semigroup-lp", gens)))
    t = rng.choice("stuw")
    tiny = artinian_spec(3, (t,), (f"{t}^3",))
    rings.append(tiny)
    jobs.append(Job(("artinian", "--spec", tiny, "--suite", "identities", "--format", "json"), ("identities",)))
    return Workload("single-ops", seed, tuple(jobs), tuple(rings))


_FACTORIES = {"catalog": _catalog, "sweep-edge": _sweep_edge, "single-ops": _single_ops}


def build(name: str, seed: int) -> Workload:
    return _FACTORIES[name](seed)
