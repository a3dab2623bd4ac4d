"""Integer-set calculus of numerical semigroups and their relative ideals.

A numerical semigroup S is an additively closed subset of the non-negative
integers with 0 and finite complement; it models the monomial curve ring
k[[t^S]].  A relative ideal is a set E of integers, bounded below, with
E + S contained in E.  Each set is one Python int used as a bitset (bit z set
when z is a member), negative because every integer from the conductor
``(~bits).bit_length()`` up is a member; an ideal stores min(E) and the
bitset of E - min(E), so equal sets have equal fields.  Sums are ORs of
shifts and colons ANDs of shifts, as in Fromentin and Hivert (Exploring the
tree of numerical semigroups, Math. Comp. 2016).  The shifts run over the
minimal generators of the right operand only, at most the multiplicity of S
of them, since F = gens(F) + S and E + S = E.  Every constructed ideal is
re-verified against its closure contract.

Isomorphism of monomial modules is decided as translation: a module map
between monomial submodules of the quotient field is multiplication by a
monomial times a unit, so a translation witness is the monomial form of an
isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    EnumerationCapExceededError,
    NotNumericalSemigroupError,
    StructureError,
)

DEFAULT_GAP_CAP = 24
IDEAL_BUDGET = 2**16  # most normalized ideals one enumeration lists
MAX_WINDOW_BITS = 1 << 24  # largest membership window semigroup_new allocates


def _positions(bits: int, offset: int = 0) -> list:
    """Sorted offset + z over the set bits z of a non-negative int.

    Reads bin() once: testing the bits one shift at a time is quadratic."""
    return [offset + z for z, bit in enumerate(reversed(bin(bits))) if bit == "1"]


def _lowest(bits: int) -> int:
    """Position of the lowest set bit of a nonzero int."""
    return (bits & -bits).bit_length() - 1


def _close(members: int, g: int, mask: int) -> int:
    """members + {0, g, 2g, ...}, cut to the bit mask: doubling shifts."""
    step = g
    while step < mask.bit_length():
        members |= (members << step) & mask
        step *= 2
    return members


class NumericalSemigroup:
    """Numerical semigroup stored as a membership bitset."""

    __slots__ = ("bits", "generators", "multiplicity")

    def __init__(self, bits: int):
        """The semigroup whose members are the set bits of a negative int.

        Minimal generators come greedily: the least member the earlier
        generators miss, which is then closed under.  They are at most
        conductor + multiplicity (the 1 of <1> is exactly that), so that
        window decides them."""
        self.bits = bits
        self.multiplicity = _lowest(bits >> 1) + 1
        mask = (1 << (self.conductor + self.multiplicity + 1)) - 1
        members, closed, gens = bits & mask, 1, []
        while members & ~closed:
            g = _lowest(members & ~closed)
            gens.append(g)
            closed = _close(closed, g, mask)
        if closed != members:
            raise StructureError("not a semigroup: 0 is missing or a sum escapes")
        self.generators = tuple(gens)

    @property
    def conductor(self) -> int:
        return (~self.bits).bit_length()

    @property
    def frobenius(self) -> int:
        return self.conductor - 1

    @property
    def gaps(self) -> tuple:
        return tuple(_positions(~self.bits))

    @property
    def label(self) -> str:
        """Report name of the semigroup, e.g. '<3,4>'."""
        return f"<{','.join(map(str, self.generators))}>"

    def contains(self, z: int) -> bool:
        return z >= 0 and bool(self.bits >> z & 1)

    def members_below(self, bound: int):
        """Sorted members in [0, bound)."""
        return _positions(self.bits & ((1 << max(bound, 0)) - 1))

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"NumericalSemigroup{self.label}"


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

    Membership is the closure of {0} under each generator on a window of
    (a - 1)(b - 1) bits, where a is the least generator and b the first at
    which the generators so far have gcd 1.  That is Schur's bound on the
    conductor of <a, ..., b>, which lies in S, so every integer from the
    window up is a member.  A window above MAX_WINDOW_BITS is refused before
    it is allocated.
    """
    gens = validate_generators(int(g) for g in gens)
    b = next(g for k, g in enumerate(gens, 1) if gcd(*gens[:k]) == 1)
    window = (gens[0] - 1) * (b - 1)
    if window > MAX_WINDOW_BITS:
        raise StructureError(
            f"membership window ({gens[0]} - 1)({b} - 1) = {window} bits"
            f" exceeds the limit of {MAX_WINDOW_BITS} bits"
        )
    mask = (1 << window) - 1
    members = 1
    for g in gens:
        members = _close(members, g, mask)
    return NumericalSemigroup(members | ~mask)


class RelativeIdeal:
    """Fractional monomial ideal over a numerical semigroup.

    Stored as its minimum and the bitset of E - min(E), a canonical form, so
    equal ideals have equal fields; sporadic and conductor are read off it.
    from_members is the one constructor.
    """

    __slots__ = ("sgp", "min", "bits")

    @classmethod
    def from_members(cls, sgp, bits, offset):
        """The ideal {offset + z : bit z of bits is set}, for a negative bits."""
        low = _lowest(bits)
        bits >>= low
        outside = ~bits
        for g in sgp.generators:
            escaped = (bits << g) & outside
            if escaped:
                z = offset + low + _lowest(escaped)
                raise StructureError(f"not closed: {z - g} + {g} = {z} escapes the ideal")
        ideal = cls.__new__(cls)
        ideal.sgp, ideal.min, ideal.bits = sgp, offset + low, bits
        return ideal

    @property
    def conductor(self) -> int:
        return self.min + (~self.bits).bit_length()

    @property
    def sporadic(self) -> tuple:
        return tuple(self.members_below(self.conductor))

    def contains(self, z: int) -> bool:
        return z >= self.min and bool(self.bits >> (z - self.min) & 1)

    def members_below(self, bound: int):
        """Sorted members below bound."""
        return _positions(self.bits & ((1 << max(bound - self.min, 0)) - 1), self.min)

    def shift(self, offset: int) -> "RelativeIdeal":
        return RelativeIdeal.from_members(self.sgp, self.bits, self.min + offset)

    def normalized(self) -> "RelativeIdeal":
        return self.shift(-self.min)

    def is_subset_of(self, other: "RelativeIdeal") -> bool:
        return self.min >= other.min and not (self.bits << (self.min - other.min)) & ~other.bits

    def format(self) -> str:
        """'m1,...,mk | c': the members below the conductor c, then c.

        The digits are written in the one pass over bin() that finds the
        members, as _positions reads them; making the list of ints first and
        then its strings took a third longer on the ideals and traces of <5,12>."""
        span = (~self.bits).bit_length()  # every bit from span up is set
        low = self.min
        below = bin(self.bits & ((1 << span) - 1))[:1:-1]
        listed = ",".join([str(low + z) for z, bit in enumerate(below) if bit == "1"])
        return f"{listed} | {low + span}" if listed else f"| {low + span}"

    def __eq__(self, other):
        return (
            isinstance(other, RelativeIdeal)
            and self.sgp == other.sgp
            and self.min == other.min
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.sgp, self.min, self.bits))

    def __repr__(self):
        return f"RelativeIdeal({self.format()!r})"


@dataclass(frozen=True)
class TranslationWitness:
    """Offset z with F = E + z, or None when no translation exists."""

    offset: int | None

    def __bool__(self) -> bool:
        return self.offset is not None


def _same_semigroup(left, right):
    if left.sgp != right.sgp:
        raise StructureError("ideals over different semigroups")
    return left.sgp


def semigroup_as_ideal(sgp: NumericalSemigroup) -> RelativeIdeal:
    return RelativeIdeal.from_members(sgp, sgp.bits, 0)


def maximal_ideal(sgp: NumericalSemigroup) -> RelativeIdeal:
    """Nonzero elements of the semigroup, as a relative ideal."""
    return RelativeIdeal.from_members(sgp, sgp.bits ^ 1, 0)


def ideal_from_gens(sgp: NumericalSemigroup, offsets) -> RelativeIdeal:
    """Union of the translates offset + S.

    An offset at or beyond least + conductor lies in least + S, which then
    holds its translate, so it is dropped before any shift."""
    offsets = sorted(set(int(z) for z in offsets))
    if not offsets:
        raise StructureError("at least one offset is required")
    least, conductor = offsets[0], sgp.conductor
    bits = sgp.bits
    for z in offsets[1:]:
        if z - least < conductor:
            bits |= sgp.bits << (z - least)
    return RelativeIdeal.from_members(sgp, bits, least)


def generator_offsets(ideal: RelativeIdeal) -> list:
    """Sorted z - min(E) over the minimal generators z of E.

    A member is a minimal generator when it is no member plus a generator of
    S.  Two of them never differ by a multiple of the multiplicity m, which
    lies in S, so there are at most m."""
    bits = ideal.bits
    covered = 0
    for g in ideal.sgp.generators:
        covered |= bits << g
    free = bits & ~covered
    offsets = []
    while free:
        low = free & -free
        offsets.append(low.bit_length() - 1)
        free ^= low
    return offsets


def _sum_bits(bits: int, offsets) -> int:
    """OR of bits << f over the offsets f."""
    out = 0
    for f in offsets:
        out |= bits << f
    return out


def _colon_bits(bits: int, offsets) -> int:
    """AND of bits >> f over the offsets f."""
    out = -1
    for f in offsets:
        out &= bits >> f
    return out


def ideal_sum(left: RelativeIdeal, right: RelativeIdeal) -> RelativeIdeal:
    """{e + f}: the monomial form of the product of two modules.

    right is the union of f + S over its minimal generators f and left + S is
    left, so the sum is the OR of left's bitset shifted by each of those f
    (at most the multiplicity of them)."""
    sgp = _same_semigroup(left, right)
    return RelativeIdeal.from_members(sgp, _sum_bits(left.bits, generator_offsets(right)), left.min + right.min)


def ideal_colon(left: RelativeIdeal, right: RelativeIdeal) -> RelativeIdeal:
    """{z : z + right is contained in left}, the colon taken in the quotient field.

    Relative to the minima it is {y : y + f in left for every f in right}, and
    y + f in left puts y + f + S in left, so only the minimal generators f of
    right (at most the multiplicity of them) count: the AND of left >> f.
    f = 0 is one of them, which forces y >= 0.
    """
    sgp = _same_semigroup(left, right)
    return RelativeIdeal.from_members(sgp, _colon_bits(left.bits, generator_offsets(right)), left.min - right.min)


def dual(ideal: RelativeIdeal) -> RelativeIdeal:
    """S - E, the monomial form of Hom(E, R)."""
    return ideal_colon(semigroup_as_ideal(ideal.sgp), ideal)


def trace(ideal: RelativeIdeal) -> RelativeIdeal:
    """(S - E) + E: the trace, via colon-times-module.

    Both steps shift by the minimal generators of E, found once.  Relative to
    min(E), the dual is the colon bitset at offset -min(E), so the sum lands
    at offset 0."""
    offsets = generator_offsets(ideal)
    return RelativeIdeal.from_members(ideal.sgp, _sum_bits(_colon_bits(ideal.sgp.bits, offsets), offsets), 0)


def is_reflexive(ideal: RelativeIdeal) -> bool:
    return dual(dual(ideal)) == ideal


def is_translate(left: RelativeIdeal, right: RelativeIdeal) -> TranslationWitness:
    """Witness z with right = left + z: min(right) - min(left) if the bitsets agree."""
    _same_semigroup(left, right)
    if left.bits == right.bits:
        return TranslationWitness(right.min - left.min)
    return TranslationWitness(None)


def endo_semigroup(ideal: RelativeIdeal) -> NumericalSemigroup:
    """E - E for a normalized ideal, returned as a numerical semigroup.

    It contains 0, and it lies in E because 0 is in E, so its minimum is 0."""
    if ideal.min != 0:
        raise StructureError("endomorphism semigroup needs a normalized ideal (min 0)")
    return NumericalSemigroup(ideal_colon(ideal, ideal).bits)


def canonical_ideal(sgp: NumericalSemigroup) -> RelativeIdeal:
    """K = {z : F - z is not in S}; S is symmetric iff K is a translate of S.

    Below the conductor, K is the gap bitset read backwards from F."""
    reflected = int(bin(~sgp.bits)[:1:-1], 2)
    return RelativeIdeal.from_members(sgp, reflected | -1 << sgp.conductor, 0)


def is_symmetric(sgp: NumericalSemigroup) -> bool:
    return bool(is_translate(semigroup_as_ideal(sgp), canonical_ideal(sgp)))


def enumerate_normalized_ideals(sgp: NumericalSemigroup, cap: int = DEFAULT_GAP_CAP):
    """All relative ideals with min 0, in ascending order of their bitsets.

    Such an ideal is S with a set of gaps closed under adding the generators.
    A gap h may join an ideal exactly when h + g is a member for every
    generator g, that is when the ideal holds step << h, where step has the
    bits of the generators.  The walk starts at S and adds one joinable gap
    at a time, always below the last one added.  Every prefix of an ideal's
    gaps in descending order is an ideal, so every node is an ideal and each
    is reached once, by that order.  Each node carries its joinable gaps below
    the last one added; when gap z joins, only the gaps z - g can become
    joinable, and only they are tested.  The work is one node per ideal plus
    at most one test per (added gap, generator).  Ascending bitset order is
    the ascending gap-mask order over the sorted gaps; the walk visits a node
    before its children and those from the lowest gap up, so it finds the
    ideals in that order and the final sort is one pass.

    EnumerationCapExceededError is raised before the walk when the genus
    exceeds cap, and during it once more than IDEAL_BUDGET ideals are found:
    there are up to 2^genus of them, for <g+1, ..., 2g+1>.
    """
    n = (~sgp.bits).bit_count()  # the genus, counted before any gap is listed
    if n > cap:
        raise EnumerationCapExceededError(f"{n} gaps exceed the enumeration cap {cap}")
    gens, gaps = sgp.generators, sgp.gaps
    step = sum(1 << g for g in gens)
    retest = {z: [] for z in gaps}  # z: (bit of h, step << h) for the gaps h = z - g
    joinable = 0
    for h in gaps:
        need = step << h
        if sgp.bits & need == need:
            joinable |= 1 << h
        for g in gens:
            if h + g in retest:
                retest[h + g].append((1 << h, need))
    found, stack = [], [(sgp.bits, joinable)]
    while stack:
        bits, joinable = stack.pop()
        if len(found) == IDEAL_BUDGET:
            raise EnumerationCapExceededError(
                f"more than {IDEAL_BUDGET} ideals exceed the ideal budget {IDEAL_BUDGET}"
            )
        found.append(bits)
        while joinable:
            z = joinable.bit_length() - 1
            joinable ^= 1 << z
            child, below = bits | 1 << z, joinable
            for bit, need in retest[z]:
                if child & need == need:
                    below |= bit
            stack.append((child, below))
    return [RelativeIdeal.from_members(sgp, bits, 0) for bits in sorted(found)]


def parse_ideal_text(sgp: NumericalSemigroup, text: str) -> RelativeIdeal:
    """Inverse of RelativeIdeal.format: 'sporadic,... | conductor' is the ideal
    of the sporadic elements, all below a tight conductor, and of every integer
    from the conductor up; from_members checks that it is closed."""
    try:
        left, right = text.split("|")
        sporadic = sorted({int(z) for z in left.split(",") if z.strip()})
        conductor = int(right)
    except ValueError as exc:
        raise StructureError(f"bad ideal text {text!r}") from exc
    if sporadic and sporadic[-1] >= conductor:
        raise StructureError("sporadic element at or above the conductor")
    if sporadic and sporadic[-1] == conductor - 1:
        raise StructureError("conductor is not tight")
    low = sporadic[0] if sporadic else conductor
    bits = sum(1 << (z - low) for z in sporadic) | -1 << (conductor - low)
    return RelativeIdeal.from_members(sgp, bits, low)


def colength(sgp: NumericalSemigroup, ideal: RelativeIdeal) -> int:
    """Number of semigroup elements outside an ideal contained in S.

    This is the length of the quotient of the semigroup ring by the monomial
    ideal with exponent set `ideal`.
    """
    if ideal.sgp != sgp:
        raise StructureError("ideal over a different semigroup")
    if not ideal.is_subset_of(semigroup_as_ideal(sgp)):
        raise StructureError("colength needs an ideal contained in the semigroup")
    return (sgp.bits & ~(ideal.bits << ideal.min)).bit_count()


def filtration_lengths(sgp: NumericalSemigroup, count: int) -> list:
    """Length of R modulo m^(n+1), m the maximal ideal, for each n < count,
    keeping each power of m, so m^(n+2) = m^(n+1) + m is one ideal_sum."""
    m = maximal_ideal(sgp)
    lengths, power = [], m
    for n in range(count):
        if n:
            power = ideal_sum(power, m)
        lengths.append(colength(sgp, power))
    return lengths
