"""Correctness gate: checks a job's output against oracles that share no code
with trace-lab.

Every seed gets theorem checks:
- catalog: the JSON is byte-identical to the seed-state report;
- semigroup LP suite: the verdict is "monomial ideals pass" exactly when the
  multiplicity is at most 2;
- artinian LP suite: five-way-equivalence passes, and the verdict is "holds"
  exactly when the monomial socle is one-dimensional (Gorenstein);
- identity suite: every identity holds and none is skipped;
- semigroup --op: recomputed with plain integer sets;
- artinian --op on monomial complete intersections: recomputed on exponent
  vectors (such rings are Gorenstein, so every ideal is its own trace, and
  principal ideals are isomorphic exactly when their annihilators agree);
  the binomial ring gets dimension counts.
The default and the held-out seed also have committed per-job digests
(expected.json).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re

CATALOG_SHA256 = "403fdbd2e8a34d0da9489193336faf84b3912bf359f1c89c5b663344728ef60e"


def digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def check_job(check, code, stdout):
    """None when the output is right, else a one-line reason."""
    try:
        return CHECKS[check[0]](*check[1:], code=code, out=stdout)
    except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def _expect(cond, reason):
    return None if cond else reason


# -- suites ------------------------------------------------------------------


def _catalog(code, out):
    got = hashlib.sha256(out.encode()).hexdigest()
    return _expect(code == 0 and got == CATALOG_SHA256, f"catalog exit {code}, sha256 {got[:12]}")


def _report(out):
    """The single report of a suite run, after checking that its summary adds up."""
    reports = json.loads(out)["reports"]
    if len(reports) != 1:
        raise ValueError("expected one report")
    report = reports[0]
    statuses = [c["status"] for c in report["checks"]]
    if report["summary"] != {s: statuses.count(s) for s in ("pass", "fail", "skipped")}:
        raise ValueError("summary does not match the checks")
    return report


def _semigroup_lp(gens, code, out):
    """Recomputes the normalized ideals (a walk over the gap poset) and each
    trace-is-translate check with integer sets."""
    report = _report(out)
    passes = min(gens) <= 2
    expected = "monomial ideals pass" if passes else "counterexample found"
    if report["verdict"] != expected or code != (0 if passes else 1):
        return f"verdict {report['verdict']!r} with exit {code}, expected {expected!r}"
    checks = {c["name"]: c for c in report["checks"]}
    classification = checks.pop("verdict-matches-multiplicity-classification", {})
    sgp = semigroup(gens)
    frobenius = sgp.conductor - 1
    symmetric = all((z in sgp) != (frobenius - z in sgp) for z in range(frobenius + 1))
    witness = classification.get("witness") or {}
    if classification.get("status") != "pass" or (witness.get("verdict"), witness.get("multiplicity"), witness.get(
        "symmetric")) != (expected, min(gens), symmetric):
        return f"verdict-matches-multiplicity-classification reports {classification}"
    ideals = _normalized_ideals(sgp)
    if set(checks) != {f"trace-is-translate[{e.format()}]" for e in ideals}:
        return f"{len(checks)} trace-is-translate checks, expected {len(ideals)} normalized ideals"
    failing = []
    for e in ideals:
        tr = _sum(_colon(sgp, e), e)
        z = tr.min - e.min
        offset = z if _shift(e, z) == tr else None
        check = checks[f"trace-is-translate[{e.format()}]"]
        want = {"E": e.format(), "trace": tr.format(), "offset": offset}
        if check["witness"] != want or check["status"] != ("pass" if offset is not None else "fail"):
            return f"trace-is-translate[{e.format()}] reports {check['status']} {check['witness']}, expected {want}"
        if offset is None:
            failing.append(want)
    return _expect(
        witness.get("counterexample") in (failing or [None]),
        f"counterexample {witness.get('counterexample')} is not a failing ideal",
    )


def _artinian_lp(variables, relations, code, out):
    """Depth zero: each of the five conditions holds exactly when the ring is
    Gorenstein, which for a monomial algebra means a one-dimensional socle."""
    report = _report(out)
    gorenstein = len(_socle(_standard_monomials(variables, relations))) == 1
    expected = "holds" if gorenstein else "fails"
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    five = statuses.pop("five-way-equivalence", None)
    return _expect(
        report["verdict"] == expected
        and five == "pass"
        and len(statuses) == 5
        and set(statuses.values()) == {"pass" if gorenstein else "fail"}
        and code == (0 if gorenstein else 1),
        f"verdict {report['verdict']!r}, five-way {five}, conditions {statuses}, expected {expected!r}",
    )


def _identities(code, out):
    report = _report(out)
    return _expect(
        code == 0
        and report["verdict"] == "all identities hold"
        and report["checks"]
        and all(c["status"] == "pass" for c in report["checks"]),
        f"identity suite {report['verdict']!r} {report['summary']}",
    )


# -- monomial algebras -------------------------------------------------------

_MONOMIAL = re.compile(r"^([a-z])(?:\^(\d+))?$")


def _exponents(variables, text):
    exps = [0] * len(variables)
    for factor in text.strip().split("*"):
        m = _MONOMIAL.match(factor)
        exps[variables.index(m.group(1))] += int(m.group(2) or 1)
    return tuple(exps)


def _label(variables, exps):
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e]
    return "*".join(parts) or "1"


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _standard_monomials(variables, relations):
    """Monomials divisible by no monomial relation (the basis of the quotient)."""
    rels = [_exponents(variables, r) for r in relations]
    bounds = [min(r[i] for r in rels if sum(r) == r[i]) for i in range(len(variables))]
    return {
        e for e in itertools.product(*(range(b) for b in bounds)) if not any(_divides(r, e) for r in rels)
    }


def _socle(std):
    """Standard monomials killed by every variable."""
    n = len(next(iter(std)))
    return [
        e for e in std if all(tuple(x + (i == k) for k, x in enumerate(e)) not in std for i in range(n))
    ]


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _ideal(std, gens):
    return {e for e in std if any(_divides(g, e) for g in gens)}


def _annihilator(std, gens):
    return {e for e in std if all(_add(e, g) not in std for g in gens)}


def _labels(out):
    text = out.strip()
    return [] if text == "0" else text.split(", ")


def _artinian_op(p, variables, relations, op, ideals, code, out):
    if code != 0:
        return f"exit code {code}"
    if any("+" in r for r in relations):
        return _binomial_op(variables, relations, op, ideals, out)
    std = _standard_monomials(variables, relations)
    gens = [[_exponents(variables, g) for g in text.split(",")] for text in ideals]
    if op == "trace":
        expected = _ideal(std, gens[0])  # Gorenstein: every ideal is its own trace
    elif op == "ann":
        expected = _annihilator(std, gens[0])
    elif op == "colon":
        left = _ideal(std, gens[0])
        expected = {e for e in std if all(_add(e, h) not in std or _add(e, h) in left for h in gens[1])}
    elif op == "iso":
        (a,), (b,) = gens
        iso = _annihilator(std, [a]) == _annihilator(std, [b])
        return _expect(out.strip() == ("true" if iso else "false"), f"iso printed {out.strip()!r}")
    else:
        return f"no oracle for op {op!r}"
    got = _labels(out)
    want = {_label(variables, e) for e in expected}
    return _expect(len(got) == len(set(got)) and set(got) == want, f"{op} printed {len(got)} rows, expected {len(want)}")


def _binomial_op(variables, relations, op, ideals, out):
    """F_7[x,y]/(x^5+6y^7, x^2y^2): dimension 24 and Gorenstein."""
    if relations != ("{0}^5+6*{1}^7".format(*variables), "{0}^2*{1}^2".format(*variables)):
        return "no oracle for this ring"
    rows = _labels(out)
    if op == "ann" and ideals == (",".join(variables),):
        return _expect(len(rows) == 1, f"socle has {len(rows)} rows, expected 1")
    return f"no oracle for op {op!r} on {ideals}"


# -- numerical semigroups ----------------------------------------------------


class _Ideal:
    """Integer set: the members listed below `conductor` plus every integer from it."""

    def __init__(self, members, conductor):
        while conductor - 1 in members:
            conductor -= 1
        self.members = frozenset(z for z in members if z < conductor)
        self.conductor = conductor

    def __contains__(self, z):
        return z >= self.conductor or z in self.members

    @property
    def min(self):
        return min(self.members) if self.members else self.conductor

    def below(self, bound):
        return sorted(z for z in self.members if z < bound) + list(range(self.conductor, bound))

    def format(self):
        listed = ",".join(map(str, sorted(self.members)))
        return f"{listed} | {self.conductor}" if listed else f"| {self.conductor}"

    def __eq__(self, other):
        return self.members == other.members and self.conductor == other.conductor


def _shift(e, z):
    return _Ideal({m + z for m in e.members}, e.conductor + z)


def _normalized_ideals(sgp):
    """Ideals with min 0: S plus a set of gaps closed under adding members of S.
    Gaps are decided from the largest down, so a gap can join only when every
    gap above it that it reaches is already in."""
    c = sgp.conductor
    gaps = [z for z in range(c) if z not in sgp]
    steps = [s for s in sgp.below(c) if s > 0]
    base = set(sgp.below(c))
    out = []

    def walk(i, chosen):
        if i < 0:
            out.append(_Ideal(base | chosen, c))
            return
        g = gaps[i]
        walk(i - 1, chosen)
        if all(g + s >= c or g + s in sgp or g + s in chosen for s in steps):
            walk(i - 1, chosen | {g})

    walk(len(gaps) - 1, frozenset())
    return out


def semigroup(gens):
    """A numerical semigroup <gens> as an integer set."""
    bound = gens[0] * gens[1] if len(gens) > 1 else 1
    member = [False] * (bound + 1)
    member[0] = True
    for z in range(1, bound + 1):
        member[z] = any(z >= g and member[z - g] for g in gens)
    return _Ideal({z for z in range(bound + 1) if member[z]}, bound + 1)


def _from_offsets(sgp, offsets):
    bound = max(offsets) + sgp.conductor
    return _Ideal({o + s for o in offsets for s in sgp.below(bound - o)}, bound)


def _sum(e, f):
    bound = e.conductor + f.conductor
    return _Ideal({a + b for a in e.below(bound - f.min) for b in f.below(bound - a)}, bound)


def _colon(e, f):
    lo, bound = e.min - f.min, e.conductor - f.min
    return _Ideal({z for z in range(lo, bound) if all(z + b in e for b in f.below(e.conductor - z))}, bound)


def _minimal_generators(sgp):
    """Nonzero members that are not the sum of two nonzero members."""
    multiplicity = next(z for z in range(1, sgp.conductor + 2) if z in sgp)
    nonzero = [z for z in sgp.below(sgp.conductor + multiplicity + 1) if z > 0]
    return [m for m in nonzero if not any(m - s > 0 and m - s in sgp for s in nonzero if s < m)]


def _semigroup_op(gens, op, ideals, code, out):
    if code != 0:
        return f"exit code {code}"
    sgp = semigroup(gens)
    args = [_from_offsets(sgp, [int(z) for z in text.split(",")]) for text in ideals]
    if op == "trace":
        expected = _sum(_colon(sgp, args[0]), args[0]).format()
    elif op == "dual":
        expected = _colon(sgp, args[0]).format()
    elif op == "colon":
        expected = _colon(args[0], args[1]).format()
    elif op == "iso":
        e, f = args
        z = f.min - e.min
        expected = str(z) if _shift(e, z) == f else "none"
    elif op == "endo":
        e = args[0]
        normal = _Ideal({m - e.min for m in e.members}, e.conductor - e.min)
        endo = _colon(normal, normal)
        endo = _Ideal({z for z in endo.members if z >= 0}, max(endo.conductor, 0))
        expected = ",".join(map(str, _minimal_generators(endo)))
    else:
        return f"no oracle for op {op!r}"
    return _expect(out.strip() == expected, f"{op} printed {out.strip()[:40]!r}, expected {expected[:40]!r}")


CHECKS = {
    "catalog": _catalog,
    "semigroup-lp": _semigroup_lp,
    "artinian-lp": _artinian_lp,
    "identities": _identities,
    "artinian-op": _artinian_op,
    "semigroup-op": _semigroup_op,
}
