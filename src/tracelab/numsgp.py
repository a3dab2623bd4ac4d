"""Integer-set calculus of numerical semigroups and their relative ideals.

A numerical semigroup S is an additively closed subset of the non-negative
integers with 0 and finite complement; it models the monomial curve ring
k[[t^S]].  A relative ideal is a set E of integers, bounded below, with
E + S contained in E; it is stored as a finite sporadic set plus a conductor
threshold, so set equality is structural equality.  Colon, sum, trace, dual
and translation tests are exact window computations, and every constructed
ideal is re-verified against its closure contract.

Isomorphism of monomial modules is decided as translation: a module map
between monomial submodules of the quotient field is multiplication by a
monomial times a unit, so a translation witness is the monomial form of an
isomorphism.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd

from .errors import (
    EnumerationCapExceededError,
    NotNumericalSemigroupError,
    StructureError,
)

DEFAULT_GAP_CAP = 24


class NumericalSemigroup:
    """Numerical semigroup with membership table, Frobenius number and gaps."""

    __slots__ = ("generators", "multiplicity", "frobenius", "gaps", "_members")

    def __init__(self, generators, multiplicity, frobenius, gaps, members):
        self.generators = tuple(generators)
        self.multiplicity = multiplicity
        self.frobenius = frobenius
        self.gaps = tuple(gaps)
        self._members = frozenset(members)

    @classmethod
    def from_membership(cls, members, conductor_bound):
        """Build from the set of members below a proven conductor bound."""
        listed, c = _tighten(members, conductor_bound)
        below = frozenset(z for z in listed if z >= 0)
        if 0 not in below and c > 0:
            raise StructureError("0 must be a member")
        gaps = tuple(z for z in range(c) if z not in below)
        frobenius = c - 1 if c > 0 else -1
        multiplicity = next((z for z in range(1, c + 1) if z == c or z in below), 1)
        gens = _minimal_generators(below, c, multiplicity)
        return cls(gens, multiplicity, frobenius, gaps, below)

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    @property
    def label(self) -> str:
        """Report name of the semigroup, e.g. '<3,4>'."""
        return f"<{','.join(map(str, self.generators))}>"

    def contains(self, z: int) -> bool:
        return z >= 0 and (z >= self.conductor or z in self._members)

    def members_below(self, bound: int):
        """Sorted members in [0, bound)."""
        small = [z for z in sorted(self._members) if z < bound]
        small.extend(range(max(self.conductor, 0), bound))
        return small

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"NumericalSemigroup{self.label}"


def _tighten(members, conductor_bound):
    """Canonical form of a membership list valid below a proven conductor bound.

    Returns (sorted members below c, c), where c is the least conductor such
    that every integer in [c, conductor_bound) is a member.
    """
    mset = set(members)
    c = conductor_bound
    while c - 1 in mset:
        c -= 1
    return tuple(sorted(z for z in mset if z < c)), c


def _minimal_generators(members_below, conductor, multiplicity):
    """Sieve: a nonzero member is a generator iff it is not a sum of two nonzero members."""
    if conductor <= 0:
        return (1,)
    bound = conductor + multiplicity + 1
    all_members = sorted(set(z for z in members_below if z > 0) | set(range(conductor, bound)))
    member_set = set(all_members)

    def is_member(z):
        return z >= conductor or z in member_set

    gens = []
    for m in all_members:
        if not any(is_member(m - s) for s in all_members if 0 < s < m):
            gens.append(m)
    return tuple(gens)


def validate_generators(gens) -> list:
    """Sorted distinct generators; raises unless they are positive with gcd 1."""
    gens = sorted(set(gens))
    if not gens or any(g <= 0 for g in gens):
        raise NotNumericalSemigroupError("generators must be positive integers")
    g = gcd(*gens)
    if g != 1:
        raise NotNumericalSemigroupError(f"gcd of generators is {g}, not 1")
    return gens


def semigroup_new(gens) -> NumericalSemigroup:
    """Numerical semigroup generated by positive integers with gcd 1.

    Membership is computed by dynamic closure on a window; the window starts
    at the product of the two smallest generators and is enlarged until a run
    of multiplicity-many consecutive members certifies the conductor.
    """
    gens = validate_generators(int(g) for g in gens)
    if gens[0] == 1:
        return NumericalSemigroup.from_membership({0}, 0)
    a = gens[0]
    bound = gens[0] * gens[1]
    while True:
        table = [False] * (bound + 1)
        table[0] = True
        for z in range(1, bound + 1):
            table[z] = any(z >= h and table[z - h] for h in gens)
        run = next(
            (z for z in range(bound - a + 2) if all(table[z + i] for i in range(a))),
            None,
        )
        if run is not None:
            members = {z for z in range(run + a) if table[z]}
            return NumericalSemigroup.from_membership(members, run + a)
        bound *= 2


class RelativeIdeal:
    """Fractional monomial ideal over a numerical semigroup.

    Membership: the listed sporadic elements plus every integer at or above
    the conductor.  The representation is canonical (tight conductor, sporadic
    strictly below it), so equality of ideals is equality of fields.
    """

    __slots__ = ("sgp", "sporadic", "conductor")

    def __init__(self, sgp, sporadic, conductor, _checked=False):
        self.sgp = sgp
        self.sporadic = tuple(sorted(sporadic))
        self.conductor = conductor
        if not _checked:
            self._validate()

    def _validate(self):
        spor = set(self.sporadic)
        if any(z >= self.conductor for z in spor):
            raise StructureError("sporadic element at or above the conductor")
        if self.sporadic and self.conductor - 1 in spor:
            raise StructureError("conductor is not tight")
        for e in self.sporadic:
            for g in self.sgp.generators:
                if not self.contains(e + g):
                    raise StructureError(
                        f"not closed: {e} + {g} = {e + g} escapes the ideal"
                    )

    @classmethod
    def from_members(cls, sgp, members, conductor_bound):
        """Canonicalize a membership list valid below a proven conductor bound."""
        return cls(sgp, *_tighten(members, conductor_bound))

    @property
    def min(self) -> int:
        return self.sporadic[0] if self.sporadic else self.conductor

    def contains(self, z: int) -> bool:
        if z >= self.conductor:
            return True
        i = bisect_left(self.sporadic, z)
        return i < len(self.sporadic) and self.sporadic[i] == z

    def members_below(self, bound: int):
        out = [z for z in self.sporadic if z < bound]
        out.extend(range(self.conductor, bound))
        return out

    def shift(self, offset: int) -> "RelativeIdeal":
        return RelativeIdeal(
            self.sgp,
            tuple(z + offset for z in self.sporadic),
            self.conductor + offset,
            _checked=True,
        )

    def normalized(self) -> "RelativeIdeal":
        return self.shift(-self.min)

    def is_subset_of(self, other: "RelativeIdeal") -> bool:
        if self.conductor < other.conductor:
            return False
        return all(
            other.contains(z) for z in self.members_below(max(self.conductor, other.conductor))
        )

    def format(self) -> str:
        listed = ",".join(str(z) for z in self.sporadic)
        return f"{listed} | {self.conductor}" if listed else f"| {self.conductor}"

    def __eq__(self, other):
        return (
            isinstance(other, RelativeIdeal)
            and self.sgp == other.sgp
            and self.sporadic == other.sporadic
            and self.conductor == other.conductor
        )

    def __hash__(self):
        return hash((self.sgp, self.sporadic, self.conductor))

    def __repr__(self):
        return f"RelativeIdeal({self.format()!r})"


@dataclass(frozen=True)
class TranslationWitness:
    """Offset z with F = E + z, or None when no translation exists."""

    offset: int | None

    def __bool__(self) -> bool:
        return self.offset is not None


def _same_semigroup(*ideals):
    sgp = ideals[0].sgp
    for e in ideals[1:]:
        if e.sgp != sgp:
            raise StructureError("ideals over different semigroups")
    return sgp


def semigroup_as_ideal(sgp: NumericalSemigroup) -> RelativeIdeal:
    return RelativeIdeal.from_members(sgp, sgp.members_below(sgp.conductor), sgp.conductor)


def maximal_ideal(sgp: NumericalSemigroup) -> RelativeIdeal:
    """Nonzero elements of the semigroup, as a relative ideal."""
    return ideal_from_gens(sgp, sgp.generators)


def ideal_from_gens(sgp: NumericalSemigroup, offsets) -> RelativeIdeal:
    """Union of the translates offset + S."""
    offsets = sorted(set(int(z) for z in offsets))
    if not offsets:
        raise StructureError("at least one offset is required")
    bound = max(offsets) + sgp.conductor
    members = {g + s for g in offsets for s in sgp.members_below(max(bound - g, 0))}
    return RelativeIdeal.from_members(sgp, members, bound)


def ideal_sum(left: RelativeIdeal, right: RelativeIdeal) -> RelativeIdeal:
    """{e + f}: the monomial form of the product of two modules."""
    sgp = _same_semigroup(left, right)
    bound = left.conductor + right.conductor
    members = set()
    for e in left.members_below(bound - right.min):
        for f in right.members_below(bound - e):
            members.add(e + f)
    return RelativeIdeal.from_members(sgp, members, bound)


def ideal_colon(left: RelativeIdeal, right: RelativeIdeal) -> RelativeIdeal:
    """{z : z + right is contained in left}, the colon taken in the quotient field.

    Members lie in [min(left) - min(right), oo); membership of z is automatic
    once z + min(right) clears the conductor of left, and is otherwise decided
    by checking the finitely many f in right with z + f below that conductor.
    """
    sgp = _same_semigroup(left, right)
    lo = left.min - right.min
    bound = left.conductor - right.min
    members = set()
    for z in range(lo, bound):
        if all(left.contains(z + f) for f in right.members_below(left.conductor - z)):
            members.add(z)
    return RelativeIdeal.from_members(sgp, members, bound)


def dual(ideal: RelativeIdeal) -> RelativeIdeal:
    """S - E, the monomial form of Hom(E, R)."""
    return ideal_colon(semigroup_as_ideal(ideal.sgp), ideal)


def trace(ideal: RelativeIdeal) -> RelativeIdeal:
    """(S - E) + E: the trace, via colon-times-module."""
    return ideal_sum(dual(ideal), ideal)


def is_reflexive(ideal: RelativeIdeal) -> bool:
    return dual(dual(ideal)) == ideal


def is_translate(left: RelativeIdeal, right: RelativeIdeal) -> TranslationWitness:
    """Witness z with right = left + z, when one exists.

    The only candidate is min(right) - min(left); the canonical representation
    makes the comparison exact.
    """
    _same_semigroup(left, right)
    offset = right.min - left.min
    if left.shift(offset) == right:
        return TranslationWitness(offset)
    return TranslationWitness(None)


def endo_semigroup(ideal: RelativeIdeal) -> NumericalSemigroup:
    """E - E for a normalized ideal, returned as a numerical semigroup."""
    if ideal.min != 0:
        raise StructureError("endomorphism semigroup needs a normalized ideal (min 0)")
    colon = ideal_colon(ideal, ideal)
    members = [z for z in colon.members_below(max(colon.conductor, 1)) if z >= 0]
    return NumericalSemigroup.from_membership(set(members) | {0}, max(colon.conductor, 0))


def canonical_ideal(sgp: NumericalSemigroup) -> RelativeIdeal:
    """K = {z : F - z is not in S}; S is symmetric iff K is a translate of S."""
    members = {z for z in range(0, sgp.conductor) if not sgp.contains(sgp.frobenius - z)}
    return RelativeIdeal.from_members(sgp, members, max(sgp.conductor, 0))


def is_symmetric(sgp: NumericalSemigroup) -> bool:
    return bool(is_translate(semigroup_as_ideal(sgp), canonical_ideal(sgp)))


def enumerate_normalized_ideals(sgp: NumericalSemigroup, cap: int = DEFAULT_GAP_CAP):
    """All relative ideals with min 0, in a fixed enumeration order.

    Such an ideal is S together with a set G of gaps satisfying the closure
    rule: g in G, s in S, g+s a gap  =>  g+s in G.  Subsets of the gap set are
    filtered by that rule, in ascending bitmask order over the sorted gaps.
    """
    gaps = sgp.gaps
    n = len(gaps)
    if n > cap:
        raise EnumerationCapExceededError(f"{n} gaps exceed the enumeration cap {cap}")
    gap_index = {g: i for i, g in enumerate(gaps)}
    succ = []
    for g in gaps:
        mask = 0
        for s in sgp.generators:
            t = g + s
            if t in gap_index:
                mask |= 1 << gap_index[t]
        succ.append(mask)
    base_members = set(sgp.members_below(sgp.conductor))
    out = []
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            low = (m & -m).bit_length() - 1
            if succ[low] & ~mask:
                ok = False
                break
            m &= m - 1
        if not ok:
            continue
        members = set(base_members)
        members.update(gaps[i] for i in range(n) if mask >> i & 1)
        out.append(RelativeIdeal.from_members(sgp, members, sgp.conductor))
    return out


def parse_ideal_text(sgp: NumericalSemigroup, text: str) -> RelativeIdeal:
    """Inverse of RelativeIdeal.format: 'sporadic,... | conductor'."""
    try:
        left, right = text.split("|")
        sporadic = tuple(int(z) for z in left.split(",") if z.strip())
        conductor = int(right)
    except ValueError as exc:
        raise StructureError(f"bad ideal text {text!r}") from exc
    return RelativeIdeal(sgp, sporadic, conductor)


def colength(sgp: NumericalSemigroup, ideal: RelativeIdeal) -> int:
    """Number of semigroup elements outside an ideal contained in S.

    This is the length of the quotient of the semigroup ring by the monomial
    ideal with exponent set `ideal`.
    """
    if ideal.sgp != sgp:
        raise StructureError("ideal over a different semigroup")
    if not ideal.is_subset_of(semigroup_as_ideal(sgp)):
        raise StructureError("colength needs an ideal contained in the semigroup")
    bound = max(sgp.conductor, ideal.conductor)
    return sum(1 for s in sgp.members_below(bound) if not ideal.contains(s))


def filtration_length(sgp: NumericalSemigroup, n: int) -> int:
    """Length of R modulo the (n+1)-st power of the maximal ideal."""
    if n < 0:
        raise StructureError("power index must be non-negative")
    m = maximal_ideal(sgp)
    power = m
    for _ in range(n):
        power = ideal_sum(power, m)
    return colength(sgp, power)
