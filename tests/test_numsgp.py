import math
import time
import tracemalloc

import pytest

from tracelab.errors import (
    EnumerationCapExceededError,
    NotNumericalSemigroupError,
    StructureError,
)
from tracelab.numsgp import (
    IDEAL_BUDGET,
    RelativeIdeal,
    _positions,
    canonical_ideal,
    colength,
    dual,
    endo_semigroup,
    enumerate_normalized_ideals,
    filtration_length,
    generator_offsets,
    ideal_colon,
    ideal_from_gens,
    ideal_sum,
    is_reflexive,
    is_symmetric,
    is_translate,
    maximal_ideal,
    parse_ideal_text,
    semigroup_as_ideal,
    semigroup_new,
    trace,
)

S23 = semigroup_new((2, 3))
S34 = semigroup_new((3, 4))
S345 = semigroup_new((3, 4, 5))
N = semigroup_new((1,))
CATALOG = [N, S23, semigroup_new((2, 5)), semigroup_new((2, 7)), semigroup_new((2, 9)),
           S34, semigroup_new((3, 5)), semigroup_new((4, 5)), S345]
WIDER = [semigroup_new(g) for g in ((4, 6, 7), (5, 6, 7, 8), (3, 7, 8), (4, 5, 7))]


# --- construction ---------------------------------------------------------------

def test_semigroup_examples():
    assert S23.gaps == (1,) and S23.frobenius == 1 and S23.multiplicity == 2
    assert S34.gaps == (1, 2, 5) and S34.frobenius == 5 and S34.multiplicity == 3
    assert N.gaps == () and N.frobenius == -1 and N.multiplicity == 1


def test_semigroup_rejects_bad_generators():
    with pytest.raises(NotNumericalSemigroupError):
        semigroup_new((2, 4))
    with pytest.raises(NotNumericalSemigroupError):
        semigroup_new(())
    with pytest.raises(NotNumericalSemigroupError):
        semigroup_new((0, 3))


def test_generators_are_reduced_to_a_minimal_system():
    assert semigroup_new((2, 3, 4)).generators == (2, 3)
    assert semigroup_new((3, 4, 5)).generators == (3, 4, 5)
    assert semigroup_new((1, 5)).generators == (1,)


def test_wider_generator_windows():
    s = semigroup_new((6, 10, 15))
    assert s.frobenius == 29
    assert s.multiplicity == 6
    assert s.generators == (6, 10, 15)


def test_large_semigroup_is_built_quickly():
    start = time.monotonic()
    s = semigroup_new((1000, 1001))
    assert s.frobenius == 998999
    assert len(s.gaps) == 499500 and s.generators == (1000, 1001)
    assert time.monotonic() - start < 5.0


def test_semigroup_window_limit():
    assert semigroup_new((4096, 4097)).frobenius == 4096 * 4097 - 4096 - 4097
    with pytest.raises(StructureError, match="16777216"):
        semigroup_new((5793, 5794))


def test_membership_contract():
    assert S34.contains(0) and S34.contains(3) and S34.contains(100)
    assert not S34.contains(5) and not S34.contains(-1)
    assert S34.members_below(8) == [0, 3, 4, 6, 7]


# --- relative ideal representation ------------------------------------------------

def test_relative_ideal_canonical_form():
    e = ideal_from_gens(S34, (0, 5))
    assert e.sporadic == (0,) and e.conductor == 3
    assert e.format() == "0 | 3"
    assert parse_ideal_text(S34, "0 | 3") == e


def test_relative_ideal_validation():
    with pytest.raises(StructureError, match="escapes"):
        parse_ideal_text(S23, "1 | 5")  # 1 + 2 = 3 escapes
    with pytest.raises(StructureError, match="not tight"):
        parse_ideal_text(S23, "4 | 5")  # conductor not tight
    with pytest.raises(StructureError, match="at or above"):
        parse_ideal_text(S23, "7 | 5")  # sporadic above conductor


def test_ideal_from_gens_examples():
    assert ideal_from_gens(S34, (0,)) == semigroup_as_ideal(S34)
    e = ideal_from_gens(S34, (0, 1))
    assert e.sporadic == (0, 1) and e.conductor == 3  # everything except 2


def test_offsets_past_the_conductor_are_dropped_before_shifting():
    # 10**8 lies in 0 + <3,4>: the union is S, built without a 10**8-bit shift
    tracemalloc.start()
    try:
        e = ideal_from_gens(S34, (0, 10**8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e == ideal_from_gens(S34, (0,))
    assert peak < 1 << 20
    # either side of the conductor, against the members of the two translates
    for sgp in CATALOG + WIDER:
        for z in range(sgp.conductor + 3):
            bound = sgp.conductor + z + 1
            members = {x for x in range(bound) if sgp.contains(x) or sgp.contains(x - z)}
            assert set(ideal_from_gens(sgp, (0, z)).members_below(bound)) == members, (sgp, z)


def test_shift_and_normalize():
    e = ideal_from_gens(S34, (2, 7))
    assert e.min == 2
    assert e.normalized().min == 0
    assert e.normalized().shift(2) == e


def test_mixed_semigroups_rejected():
    with pytest.raises(StructureError):
        ideal_sum(semigroup_as_ideal(S23), semigroup_as_ideal(S34))


# --- sums and colons against a brute-force oracle -----------------------------------

def _oracle_sum_members(left, right, bound):
    out = set()
    for e in left.members_below(bound - right.min + 1):
        for f in right.members_below(bound - e):
            if e + f < bound:
                out.add(e + f)
    return out


def _oracle_colon_members(left, right, lo, bound):
    out = set()
    for z in range(lo, bound):
        if all(left.contains(z + f) for f in right.members_below(left.conductor - z + 1)):
            out.add(z)
    return out


def test_ideal_sum_examples():
    m23 = maximal_ideal(S23)
    assert ideal_sum(m23, m23) == m23.shift(2)
    e = ideal_from_gens(S34, (0, 5))
    assert ideal_sum(e, semigroup_as_ideal(S34)) == e
    m34 = maximal_ideal(S34)
    assert ideal_sum(m34, m34) == parse_ideal_text(S34, "| 6")


def test_ideal_colon_examples():
    nn = ideal_from_gens(S23, (0, 1))  # all of the integers >= 0
    assert ideal_colon(semigroup_as_ideal(S23), nn) == maximal_ideal(S23)
    s_ideal = semigroup_as_ideal(S23)
    assert ideal_colon(s_ideal, s_ideal) == s_ideal
    e = parse_ideal_text(S34, "0 | 3")
    assert ideal_colon(e, e) == e  # E - E is the semigroup <3,4,5> as a set


def test_sum_and_colon_match_brute_force():
    for sgp in CATALOG + WIDER:
        ideals = enumerate_normalized_ideals(sgp)
        ideals.append(maximal_ideal(sgp))
        ideals.append(ideal_from_gens(sgp, (-3, 2)))
        ideals.append(ideal_from_gens(sgp, (-7, -5)))
        ideals.append(canonical_ideal(sgp).shift(-4))
        for left in ideals:
            for right in ideals:
                total = ideal_sum(left, right)
                bound = total.conductor + 5
                assert set(total.members_below(bound)) == _oracle_sum_members(
                    left, right, bound
                )
                quot = ideal_colon(left, right)
                lo = quot.min - 3
                bound = quot.conductor + 5
                oracle = _oracle_colon_members(left, right, lo, bound)
                assert {z for z in quot.members_below(bound) if z >= lo} == oracle


def _ideal_sum_by_members(left, right):
    """The member-wise sum: left's bitset shifted by every member of right
    below right's conductor, over the tail that any one shift from there up
    covers."""
    tail = (~right.bits).bit_length()
    bits = -1 << tail
    for f in _positions(right.bits & ((1 << tail) - 1)):
        bits |= left.bits << f
    return RelativeIdeal.from_members(left.sgp, bits, left.min + right.min)


def _ideal_colon_by_members(left, right):
    """The member-wise colon: the AND of left >> f over every member f of
    right below left's conductor; the members from there up impose nothing."""
    tail = (~left.bits).bit_length()
    bits = -1
    for f in _positions(right.bits & ((1 << tail) - 1)):
        bits &= left.bits >> f
    return RelativeIdeal.from_members(left.sgp, bits, left.min - right.min)


def _trace_by_members(ideal):
    """(S - E) + E through the member-wise colon and sum."""
    return _ideal_sum_by_members(_ideal_colon_by_members(semigroup_as_ideal(ideal.sgp), ideal), ideal)


def _single_ops_ideals(gens):
    """Translates of S + {0, g} and S + {0, g, g'} for gaps g, g' at the middle
    of the gap list, the ideals the one-shot --op jobs of the benchmark take,
    with S and the maximal ideal."""
    sgp = semigroup_new(gens)
    gaps = sgp.gaps
    g1, g2, g3 = gaps[len(gaps) // 2 - 1 : len(gaps) // 2 + 2]
    ideals = [semigroup_as_ideal(sgp), maximal_ideal(sgp)]
    for k in (0, 37, 99):
        for offsets in ((0, g1), (0, g2), (0, g3), (0, g1, g2)):
            ideals.append(ideal_from_gens(sgp, [z + k for z in offsets]))
    return ideals


S512 = semigroup_new((5, 12))


@pytest.mark.parametrize("sgp", CATALOG + [S512], ids=lambda s: s.label)
def test_sum_and_colon_match_the_member_wise_oracle(sgp):
    ideals = enumerate_normalized_ideals(sgp)
    for left in ideals:
        assert trace(left) == _trace_by_members(left), left
        for right in ideals:
            assert ideal_sum(left, right) == _ideal_sum_by_members(left, right), (left, right)
            assert ideal_colon(left, right) == _ideal_colon_by_members(left, right), (left, right)


def test_sum_and_colon_match_the_member_wise_oracle_on_translates_and_large_rings():
    pairs = []
    for sgp in CATALOG + WIDER + [S512]:
        ideals = enumerate_normalized_ideals(sgp)[::7] + [canonical_ideal(sgp), maximal_ideal(sgp)]
        pairs += [(e.shift(a), f.shift(b)) for e in ideals for f in ideals for a, b in ((-3, 5), (4, -9), (11, 2))]
    for gens in ((20, 33), (19, 37)):
        ideals = _single_ops_ideals(gens)
        pairs += [(e, f) for e in ideals for f in ideals]
    for left, right in pairs:
        assert ideal_sum(left, right) == _ideal_sum_by_members(left, right), (left, right)
        assert ideal_colon(left, right) == _ideal_colon_by_members(left, right), (left, right)
    for e in {left for left, _ in pairs}:
        assert trace(e) == _trace_by_members(e), e


def test_generator_offsets_are_the_minimal_generators():
    ideals = []
    for sgp in CATALOG + WIDER + [S512]:
        ideals += enumerate_normalized_ideals(sgp) + [canonical_ideal(sgp).shift(-4)]
    for gens in ((20, 33), (19, 37)):
        ideals += _single_ops_ideals(gens)
    for e in ideals:
        sgp = e.sgp
        offsets = generator_offsets(e)
        assert offsets == sorted(offsets) and 1 <= len(offsets) <= sgp.multiplicity
        members = e.members_below(e.min + offsets[-1] + 1)
        for z in offsets:
            assert e.contains(e.min + z)
            assert not any(w < e.min + z and sgp.contains(e.min + z - w) for w in members), (e, z)
        assert ideal_from_gens(sgp, [e.min + z for z in offsets]) == e
    assert generator_offsets(semigroup_as_ideal(S34)) == [0]
    assert generator_offsets(maximal_ideal(S34)) == [0, 1]  # 3 and 4, from min 3
    assert generator_offsets(maximal_ideal(S345)) == [0, 1, 2]  # 3, 4 and 5
    assert generator_offsets(ideal_from_gens(S34, (0, 5))) == [0, 5]


# --- trace, dual, reflexivity ------------------------------------------------------

def test_trace_examples():
    s_ideal = semigroup_as_ideal(S34)
    assert trace(s_ideal) == s_ideal
    nn = ideal_from_gens(S23, (0, 1))
    assert trace(nn) == nn.shift(2)
    e = parse_ideal_text(S34, "0 | 3")
    assert trace(e) == parse_ideal_text(S34, "3,4 | 6")


def test_dual_and_reflexivity_examples():
    assert is_reflexive(semigroup_as_ideal(S34))
    assert is_reflexive(parse_ideal_text(S34, "0 | 3"))
    assert not is_reflexive(canonical_ideal(S345))
    assert dual(ideal_from_gens(S23, (0, 1))) == maximal_ideal(S23)


def test_trace_idempotent_and_contains_integral_representative():
    for sgp in CATALOG:
        for e in enumerate_normalized_ideals(sgp):
            tr = trace(e)
            assert trace(tr) == tr
            d = dual(e)
            assert e.shift(d.min).is_subset_of(tr)
            if d.contains(0):
                assert e.is_subset_of(tr)


def test_self_trace_iff_colon_equals_dual():
    for sgp in CATALOG:
        for e in enumerate_normalized_ideals(sgp):
            assert (trace(e) == e) == (ideal_colon(e, e) == dual(e))


def test_triple_dual_is_dual():
    for sgp in CATALOG:
        for e in enumerate_normalized_ideals(sgp):
            d = dual(e)
            assert dual(dual(d)) == d


# --- translation -------------------------------------------------------------------

def test_is_translate_examples():
    e = parse_ideal_text(S34, "0 | 3")
    assert is_translate(e, e.shift(7)).offset == 7
    assert is_translate(e, parse_ideal_text(S34, "3,4 | 6")).offset is None
    nn = ideal_from_gens(S23, (0, 1))
    assert is_translate(nn, nn.shift(2)).offset == 2


# --- endomorphism semigroups ---------------------------------------------------------

def test_endo_semigroup_examples():
    m = maximal_ideal(S34).normalized()
    assert endo_semigroup(m).generators == (3, 4, 5)
    assert endo_semigroup(semigroup_as_ideal(S34)) == S34
    assert endo_semigroup(ideal_from_gens(S23, (0, 1))).generators == (1,)
    with pytest.raises(StructureError):
        endo_semigroup(maximal_ideal(S34))  # not normalized


def test_endomorphism_trace_recovery():
    # reflexive self-trace ideals are recovered as traces of their endomorphism rings
    m = maximal_ideal(S34)
    assert is_reflexive(m) and trace(m) == m
    endo = ideal_colon(m, m)
    assert endo == parse_ideal_text(S34, "0 | 3")
    assert trace(endo) == m


# --- canonical ideal and symmetry -----------------------------------------------------

def test_canonical_ideal_examples():
    assert canonical_ideal(S34) == semigroup_as_ideal(S34)
    assert is_symmetric(S34)
    assert canonical_ideal(S345) == parse_ideal_text(S345, "0,1 | 3")
    assert not is_symmetric(S345)
    assert canonical_ideal(N) == semigroup_as_ideal(N)
    assert is_symmetric(N)


def test_symmetry_matches_gap_reflection():
    for sgp in CATALOG:
        reflection = all(
            sgp.contains(z) != sgp.contains(sgp.frobenius - z)
            for z in range(0, sgp.frobenius + 1)
        )
        assert is_symmetric(sgp) == reflection


# --- enumeration ------------------------------------------------------------------------

def test_enumerate_normalized_ideals_examples():
    assert [e.format() for e in enumerate_normalized_ideals(S23)] == ["0 | 2", "| 0"]
    assert [e.format() for e in enumerate_normalized_ideals(S34)] == [
        "0,3,4 | 6",
        "0 | 3",
        "0,1 | 3",
        "0 | 2",
        "| 0",
    ]
    assert [e.format() for e in enumerate_normalized_ideals(N)] == ["| 0"]


def _oracle_normalized_ideals(sgp):
    """Members below the conductor of every normalized ideal: all 2^n subsets
    of the gaps, filtered by the closure rule, in ascending bitmask order."""
    gaps = sgp.gaps
    n = len(gaps)
    gap_index = {g: i for i, g in enumerate(gaps)}
    succ = []
    for g in gaps:
        mask = 0
        for s in sgp.generators:
            if g + s in gap_index:
                mask |= 1 << gap_index[g + s]
        succ.append(mask)
    base = set(sgp.members_below(sgp.conductor))
    out = []
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        if all(not succ[i] & ~mask for i in chosen):
            out.append(sorted(base | {gaps[i] for i in chosen}))
    return out


@pytest.mark.parametrize(
    "gens",
    [(1,), (2, 3), (2, 5), (2, 11), (2, 15), (3, 4), (3, 5), (3, 7), (3, 8), (3, 11), (4, 5),
     (4, 7), (4, 9), (5, 7), (5, 8), (3, 4, 5), (4, 6, 7), (5, 7, 9), (3, 10, 11), (7, 8, 9, 10),
     (6, 7, 8, 9, 10, 11)],
    ids=lambda gens: ",".join(map(str, gens)),
)
def test_enumerate_matches_the_gap_mask_oracle(gens):
    sgp = semigroup_new(gens)
    assert len(sgp.gaps) <= 14
    found = enumerate_normalized_ideals(sgp)
    assert all(e.min == 0 and e.conductor <= sgp.conductor for e in found)
    assert [e.members_below(sgp.conductor) for e in found] == _oracle_normalized_ideals(sgp)


def test_two_generator_ideals_number_the_rational_catalan_number():
    """The normalized ideals of <a,b> are its 0-normalized semimodules, and
    those number the rational Catalan number (a+b-1)!/(a!*b!) (Gorsky-Mazin,
    Compactified Jacobians and q,t-Catalan numbers I, JCTA 2013)."""
    pairs = [(a, b) for a in range(2, 10) for b in range(a + 1, 21 - a) if math.gcd(a, b) == 1]
    pairs += [(4, 21), (3, 46), (2, 61), (11, 12)]
    assert len(pairs) == 49
    for a, b in pairs:
        sgp = semigroup_new((a, b))
        found = enumerate_normalized_ideals(sgp, cap=len(sgp.gaps))
        assert len(found) == math.factorial(a + b - 1) // (math.factorial(a) * math.factorial(b)), (a, b)


def test_enumerate_cap():
    with pytest.raises(EnumerationCapExceededError):
        enumerate_normalized_ideals(S34, cap=2)


def test_enumerate_budget():
    # every gap set of <g+1, ..., 2g+1> is closed, so it has 2^g normalized ideals
    assert IDEAL_BUDGET == 2**16
    assert len(enumerate_normalized_ideals(semigroup_new(range(17, 34)))) == IDEAL_BUDGET
    with pytest.raises(EnumerationCapExceededError, match="more than 65536 ideals exceed the ideal budget 65536"):
        enumerate_normalized_ideals(semigroup_new(range(18, 36)))


def test_enumerated_ideals_are_normalized_and_closed():
    for sgp in CATALOG:
        for e in enumerate_normalized_ideals(sgp):
            assert e.min == 0
            for z in e.members_below(e.conductor + 3):
                for g in sgp.generators:
                    assert e.contains(z + g)


# --- lengths and filtrations ----------------------------------------------------------

def _brute_power_colength(sgp, n):
    """|S without m^(n+1)| computed by raw sumset arithmetic on a window."""
    bound = (n + 2) * (sgp.frobenius + sgp.multiplicity + 2)
    members = set(sgp.members_below(bound))
    m = {z for z in members if z > 0}
    power = set(m)
    for _ in range(n):
        power = {a + b for a in power for b in m if a + b < bound}
    return len([z for z in members if z < bound * 2 // 3 and z not in power])


def test_filtration_length_values():
    # frozen from the sumset oracle: lengths are 1, 3, 5, ... for <2,3>
    assert [filtration_length(S23, n) for n in range(5)] == [1, 3, 5, 7, 9]
    s25 = semigroup_new((2, 5))
    assert [filtration_length(s25, n) for n in range(4)] == [1, 3, 5, 7]
    assert [filtration_length(S34, n) for n in range(4)] == [1, 3, 6, 9]


def test_filtration_length_matches_brute_force():
    for sgp in (S23, semigroup_new((2, 5)), S34, S345):
        for n in range(4):
            assert filtration_length(sgp, n) == _brute_power_colength(sgp, n)


def test_filtration_growth_rate_is_multiplicity():
    for sgp in CATALOG:
        e = sgp.multiplicity
        lengths = [filtration_length(sgp, n) for n in range(sgp.conductor + e + 3)]
        diffs = [b - a for a, b in zip(lengths, lengths[1:])]
        assert lengths[0] == 1
        assert diffs[-1] == e and diffs[-2] == e


def test_colength_examples():
    assert colength(S34, maximal_ideal(S34)) == 1
    assert colength(S34, semigroup_as_ideal(S34)) == 0
    with pytest.raises(StructureError):
        colength(S34, ideal_from_gens(S34, (-1,)))


# --- the square of the maximal ideal ---------------------------------------------------

def test_maximal_ideal_square_translation_per_ring():
    observed = {}
    for sgp in CATALOG:
        m = maximal_ideal(sgp)
        observed[sgp.generators] = is_translate(m, ideal_sum(m, m)).offset is not None
    assert observed[(1,)] and observed[(2, 3)] and observed[(2, 5)]
    assert observed[(2, 7)] and observed[(2, 9)]
    assert not observed[(3, 4)] and not observed[(3, 5)] and not observed[(4, 5)]
    # <3,4,5> is not symmetric, and its maximal ideal *is* isomorphic to its
    # square even though the multiplicity is 3
    assert observed[(3, 4, 5)]
