import collections
import itertools
import random
import time
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import finalg, polyfp
from tracelab.errors import NotZeroDimensionalError, PolynomialSyntaxError, StructureError
from tracelab.polyfp import (
    Divisors,
    Polynomial,
    PRIME_LIMIT,
    TABLE_CAP_DIM,
    PrimeField,
    _interreduce,
    buchberger,
    degrevlex,
    display_key,
    is_groebner,
    mon_coprime,
    mon_degree,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
    normal_form,
    s_polynomial,
    standard_monomials,
)
from tracelab.verify import ARTINIAN_CATALOG, build_artinian_catalog

from conftest import _binomial_presentation
from test_finalg import _seeded_change_of_basis_presentation, _seeded_mixed_presentation, _seeded_presentation

F2 = PrimeField(2)
F3 = PrimeField(3)
XY = ("x", "y")


def poly(text, field=F2, variables=XY):
    return Polynomial.parse(field, variables, text)


# --- field and monomial helpers ---------------------------------------------

def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(StructureError):
            PrimeField(bad)
    assert PrimeField(7).inv(3) == 5  # 3*5 = 15 = 1 mod 7


def _accepted(p):
    try:
        PrimeField(p)
    except StructureError:
        return False
    return True


def test_prime_field_agrees_with_trial_division():
    accepted = [p for p in range(-3, 10**5) if _accepted(p)]
    assert accepted == [p for p in range(2, 10**5) if all(p % q for q in range(2, isqrt(p) + 1))]


def test_prime_field_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the bases 2..7, 2..11, 2..13, 2..17 and 2..23
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051):
        assert not _accepted(n), n


def test_prime_field_refuses_the_limit_of_exactness():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every base
    assert PRIME_LIMIT == 399165290221 * 798330580441
    for n in (PRIME_LIMIT, PRIME_LIMIT + 2, 2**89 - 1):
        with pytest.raises(StructureError, match=str(PRIME_LIMIT)):
            PrimeField(n)


def test_prime_field_accepts_large_primes_fast():
    start = time.monotonic()
    assert PrimeField(1000000000000000003).p == 10**18 + 3
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.monotonic() - start < 1.0


def test_monomial_helpers():
    assert mon_mul((1, 2), (0, 1)) == (1, 3)
    assert mon_divides((1, 0), (2, 1))
    assert not mon_divides((0, 2), (1, 1))
    assert mon_div((2, 1), (1, 0)) == (1, 1)
    assert mon_lcm((2, 0), (1, 1)) == (2, 1)
    assert mon_coprime((2, 0, 1), (0, 3, 0)) and mon_coprime((0, 0), (1, 1))
    assert not mon_coprime((1, 0, 1), (0, 1, 1))


# --- parsing and formatting --------------------------------------------------

def test_parse_examples():
    assert poly("x^2+y").terms == {(2, 0): 1, (0, 1): 1}
    assert poly("2*x^2*y + 1", field=F3).terms == {(2, 1): 2, (0, 0): 1}
    assert poly("x*x").terms == {(2, 0): 1}
    assert poly("0").is_zero()
    assert poly("2*x").is_zero()  # coefficient 2 vanishes mod 2


def test_parse_rejects_garbage():
    for bad in ("", "x +", "x^", "z", "x^2^3", "x**2", "-"):
        with pytest.raises(PolynomialSyntaxError):
            poly(bad)


def test_text_round_trip():
    for text in ("x^2 + x*y + 1", "y^3", "2*x + 1"):
        q = poly(text, field=F3)
        assert poly(q.to_text(), field=F3) == q


def test_mixed_rings_raise():
    with pytest.raises(StructureError):
        poly("x") + Polynomial.parse(F3, XY, "x")
    with pytest.raises(StructureError):
        poly("x") + Polynomial.parse(F2, ("x",), "x")


# --- normal form --------------------------------------------------------------

def _single_step_oracle(f, basis):
    """Independent reducer: cancel any (not necessarily leading) divisible term."""
    leads = [g.leading() for g in basis]
    changed = True
    while changed:
        changed = False
        for mon in sorted(f.terms, key=degrevlex, reverse=True):
            c = f.terms.get(mon)
            if c is None:
                continue
            for g, (gm, gc) in zip(basis, leads):
                if mon_divides(gm, mon):
                    f = f - g.term_mul((c * f.field.inv(gc)) % f.field.p, mon_div(mon, gm))
                    changed = True
                    break
            if changed:
                break
    return f


def test_normal_form_chain_example():
    basis = [poly("x^2+y"), poly("y^2")]
    r = normal_form(poly("x^3"), basis)
    assert r == poly("x*y")
    assert r == _single_step_oracle(poly("x^3"), basis)


def test_normal_form_member_is_zero():
    assert normal_form(poly("x^2"), [poly("x^2")]).is_zero()


def test_normal_form_irreducible_is_fixed():
    f = poly("x+y")
    assert normal_form(f, [poly("x^2"), poly("y^2")]) == f


def test_normal_form_empty_basis_raises():
    with pytest.raises(StructureError):
        normal_form(poly("x"), [])


def test_normal_form_rejects_a_basis_over_another_ring():
    f = poly("x^2 + y")
    for basis in (
        [Polynomial.parse(F2, ("y", "x"), "x")],
        [Polynomial.parse(F3, XY, "x")],
        [poly("y"), Polynomial.parse(F2, ("x",), "x")],
    ):
        with pytest.raises(StructureError):
            normal_form(f, basis)
    # equal but distinct field and variable objects still pass the check
    twin = Polynomial.parse(PrimeField(2), tuple("xy"), "x")
    assert twin.field is not f.field and twin.variables is not f.variables
    assert normal_form(f, [twin]) == poly("y")


def _all_polys_f2_xy(max_terms=3):
    mons = [(i, j) for i in range(3) for j in range(3)]
    for chosen in itertools.combinations(mons, max_terms):
        yield Polynomial(F2, XY, {m: 1 for m in chosen})


def test_normal_form_remainder_contract():
    # the remainder is reduced, and f minus it lies in the ideal of the basis
    basis = [poly("x^2+y"), poly("y^2"), poly("x*y + x")]
    groebner = buchberger(basis)
    for f in itertools.islice(_all_polys_f2_xy(), 40):
        r = normal_form(f, basis)
        for mon in r.terms:
            assert not any(mon_divides(g.leading()[0], mon) for g in basis)
        assert normal_form(f - r, groebner).is_zero()


def test_normal_form_by_prepared_divisors_keeps_the_contract():
    # a non-monic basis over F_5, prepared once and divided by many times
    f5 = PrimeField(5)
    basis = [Polynomial.parse(f5, XY, t) for t in ("3*x^2 + y", "2*y^2 + 4*x*y", "4*x*y + x")]
    divisors, groebner = Divisors(basis), buchberger(basis)
    for chosen in itertools.combinations([(i, j) for i in range(3) for j in range(3)], 3):
        f = Polynomial(f5, XY, {m: k + 1 for k, m in enumerate(chosen)})
        r = normal_form(f, divisors)
        assert r == normal_form(f, basis)
        assert not any(mon_divides(g.leading()[0], mon) for g in basis for mon in r.terms)
        assert normal_form(f - r, groebner).is_zero()
    with pytest.raises(StructureError):
        normal_form(poly("x"), divisors)  # over F_2
    with pytest.raises(StructureError):
        Divisors([])


def test_normal_form_idempotent():
    basis = [poly("x^2+y"), poly("y^2")]
    for f in itertools.islice(_all_polys_f2_xy(), 40):
        once = normal_form(f, basis)
        assert normal_form(once, basis) == once


# --- Buchberger ----------------------------------------------------------------

def test_buchberger_spoly_zero():
    gb = buchberger([poly("x^2"), poly("y^2")])
    assert gb == [poly("y^2"), poly("x^2")] or set(gb) == {poly("x^2"), poly("y^2")}
    assert is_groebner(gb)


def test_buchberger_already_groebner():
    gb = buchberger([poly("x^2+y"), poly("y^2")])
    assert set(gb) == {poly("x^2+y"), poly("y^2")}
    assert is_groebner(gb)


def test_buchberger_single_generator():
    gb = buchberger([Polynomial.parse(F2, ("x",), "x")])
    assert gb == [Polynomial.parse(F2, ("x",), "x")]


def test_buchberger_discovers_new_elements():
    # <x*y + x, y^2> needs the S-polynomial remainders to close up.
    gb = buchberger([poly("x*y + x"), poly("y^2")])
    assert is_groebner(gb)
    # x = y*(x*y+x) + x*(y^2) scaled: x*y^2 reduces two ways, so x is in the ideal.
    assert normal_form(poly("x"), gb).is_zero()


def test_buchberger_output_generates_same_ideal():
    cases = [
        [poly("x^2+y"), poly("y^2")],
        [poly("x*y + x"), poly("y^2")],
        [poly("x^2 + y^2"), poly("x*y")],
    ]
    for gens in cases:
        gb = buchberger(gens)
        # every input generator lies in the ideal of the output
        for f in gens:
            assert normal_form(f, gb).is_zero()
        # the reduced basis of the augmented family is unchanged, so the
        # output generates nothing beyond the input ideal
        assert buchberger(gens + gb) == gb


def test_buchberger_permutation_invariance_of_quotient_size():
    gens = [poly("x^2+y"), poly("y^3"), poly("x*y^2")]
    sizes = set()
    for perm in itertools.permutations(gens):
        sizes.add(len(standard_monomials(buchberger(list(perm)))))
    assert len(sizes) == 1


def _buchberger_all_pairs(gens):
    """Buchberger's loop over every pair: the next pair is the least by (lcm
    degree of its leading monomials, rescanned at every step, pair index)."""
    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        return []
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        def lcm_deg(pair):
            mi = basis[pair[0]].leading()[0]
            mj = basis[pair[1]].leading()[0]
            return mon_degree(mon_lcm(mi, mj))

        i, j = min(pairs, key=lambda pr: (lcm_deg(pr), pr))
        pairs.remove((i, j))
        rem = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not rem.is_zero():
            basis.append(rem.monic())
            k = len(basis) - 1
            pairs.update((i2, k) for i2 in range(k))
    return _interreduce(basis)


def _is_groebner_all_pairs(basis):
    """Buchberger's criterion on every pair, coprime leading monomials included."""
    basis = [g for g in basis if not g.is_zero()]
    return all(normal_form(s_polynomial(f, g), basis).is_zero() for f, g in itertools.combinations(basis, 2))


def _has_coprime_pair(basis):
    leads = [g.leading()[0] for g in basis if not g.is_zero()]
    return any(mon_coprime(a, b) for a, b in itertools.combinations(leads, 2))


# the presentations of the benchmark's single-ops workload
SINGLE_OPS_PRESENTATIONS = (
    (2, ("x", "y", "z"), ("x^3", "y^3", "z^3")),
    (3, ("x", "y"), ("x^4", "y^4")),
    (5, ("x", "y"), ("x^3", "y^3")),
    (5, ("x", "y"), ("x^4", "y^5")),
    (7, ("x", "y"), ("x^5+6*y^7", "x^2*y^2")),
    (2, ("x", "y"), ("x^3", "y^4")),
    (3, ("t",), ("t^3",)),
)


def test_buchberger_matches_the_all_pairs_oracle():
    # the catalog, the single-ops rings, the seeded presentations of the
    # finalg tests and the sympy cases: the same reduced basis, in the same order
    families = []
    for p, variables, relations in [(p, v, r) for _, p, v, r, _ in ARTINIAN_CATALOG if r] + list(SINGLE_OPS_PRESENTATIONS):
        families.append([Polynomial.parse(PrimeField(p), variables, r) for r in relations])
    draws = (
        (_binomial_presentation, 11, 150),
        (_seeded_mixed_presentation, 1807, 330),
        (_seeded_presentation, 1807, 300),
        (_seeded_change_of_basis_presentation, 1807, 60),
    )
    for draw, seed, count in draws:
        rng = random.Random(seed)
        for _ in range(count):
            p, variables, relations = draw(rng)
            families.append([Polynomial.parse(PrimeField(p), variables, r) for r in relations])
    for p, n, relations in SEPARATING_SETS + list(_seeded_relation_sets(100)):
        families.append([Polynomial(PrimeField(p), ("x", "y", "z")[:n], r) for r in relations])
    criterion_applies = 0
    for gens in families:
        assert buchberger(gens) == _buchberger_all_pairs(gens), gens
        criterion_applies += _has_coprime_pair(gens)
    assert len(families) == 958 and criterion_applies >= 500, criterion_applies


def _seeded_families(count):
    """Small families over F_2, F_3 and F_5 in 1-3 variables: random
    polynomials with some pure powers, their reduced Groebner basis, that
    basis with non-monic multiples of the generators (still Groebner), and a
    part of it with one more random polynomial."""
    rng = random.Random("is-groebner")
    for _ in range(count):
        p, n = rng.choice((2, 3, 5)), rng.randrange(1, 4)
        field, names = PrimeField(p), ("x", "y", "z")[:n]

        def random_poly():
            mons = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(rng.choice((1, 1, 2, 3)))]
            return Polynomial(field, names, {m: rng.randrange(1, p) for m in mons})

        family = [random_poly() for _ in range(rng.randrange(1, 4))]
        for i in range(n):
            if rng.random() < 0.5:
                family.append(Polynomial(field, names, {tuple(rng.randrange(1, 4) * (k == i) for k in range(n)): 1}))
        gb = buchberger(family)
        yield family
        yield gb
        yield gb + [g.term_mul(rng.randrange(1, p), tuple(rng.randrange(2) for _ in range(n))) for g in family]
        yield [g for g in gb if rng.random() < 0.7] + [random_poly()]


def test_is_groebner_matches_the_all_pairs_check():
    outcomes = collections.Counter()
    for family in _seeded_families(150):
        expected = _is_groebner_all_pairs(family)
        assert is_groebner(family) == expected, family
        outcomes[expected, _has_coprime_pair(family)] += 1
    # Groebner and not, with and without a pair the criterion skips
    assert sum(outcomes.values()) == 600 and min(outcomes.values()) >= 25, outcomes


def test_the_pair_criterion_saves_s_polynomials(monkeypatch):
    spolys, normal_forms = [], []
    monkeypatch.setattr(polyfp, "s_polynomial", lambda f, g: spolys.append(1) or s_polynomial(f, g))
    # (x,y,z)^2: six of the 15 pairs of leading monomials are coprime
    square = [Polynomial.parse(F2, ("x", "y", "z"), t) for t in ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2")]
    gb = buchberger(square)
    assert len(spolys) == 9
    assert is_groebner(gb) and len(spolys) == 18
    # the catalog's artinian rings, built through buchberger, the Groebner check
    # in standard_monomials and one normal form per border monomial; the
    # all-pairs loops formed 40 S-polynomials and 80 normal forms
    spolys.clear()
    for module in (polyfp, finalg):
        monkeypatch.setattr(module, "normal_form", lambda f, basis: normal_forms.append(1) or normal_form(f, basis))
    build_artinian_catalog()
    assert (len(spolys), len(normal_forms)) == (22, 62)


def test_the_basis_is_prepared_once_per_change(monkeypatch):
    # the 21 multiples x^2*y^b (b <= 20) of x^2 make 210 S-polynomials in
    # buchberger, and 200 copies of x^2 make 19,900 in is_groebner, all zero,
    # and the basis never grows: each makes one Divisors, not one per
    # S-polynomial
    builds = []
    init = Divisors.__init__
    monkeypatch.setattr(Divisors, "__init__", lambda self, basis: builds.append(1) or init(self, basis))
    assert buchberger([poly(f"x^2*y^{b}") for b in range(21)]) == [poly("x^2")]
    assert len(builds) == 1
    builds.clear()
    assert is_groebner([poly("x^2")] * 200)
    assert len(builds) == 1


def test_copies_of_one_relation_form_no_s_polynomial(monkeypatch):
    # buchberger keeps generators equal after monic() once: 400 copies of x^2
    # (79,800 pairs, 1.2 s when each was formed) give the algebra of one copy,
    # whose label still lists every relation
    spolys = []
    monkeypatch.setattr(polyfp, "s_polynomial", lambda f, g: spolys.append(1) or s_polynomial(f, g))
    one = finalg.algebra_from_presentation(3, ("x",), ("x^2",))
    copies = finalg.algebra_from_presentation(3, ("x",), ["x^2", "2*x^2"] * 200)
    assert spolys == []
    assert (copies.basis_labels, copies.table, copies.generators) == (one.basis_labels, one.table, one.generators)
    assert copies.label == "F_3[x]/(" + ", ".join(["x^2", "2*x^2"] * 200) + ")"


# --- standard monomials -----------------------------------------------------------

def test_standard_monomials_examples():
    assert standard_monomials(buchberger([poly("x^2"), poly("x*y"), poly("y^2")])) == [
        (0, 0),
        (1, 0),
        (0, 1),
    ]
    assert standard_monomials(buchberger([poly("x^2"), poly("y^2")])) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (1, 1),
    ]
    one_var = buchberger([Polynomial.parse(F2, ("x",), "x")])
    assert standard_monomials(one_var) == [(0,)]


def test_standard_monomials_requires_zero_dimensional():
    with pytest.raises(NotZeroDimensionalError):
        standard_monomials(buchberger([poly("x^2")]))


def test_standard_monomials_rejects_non_groebner():
    with pytest.raises(StructureError):
        standard_monomials([poly("x*y + x"), poly("y^2")])


def test_standard_monomials_unit_ideal_is_empty():
    assert standard_monomials(buchberger([poly("1")])) == []


def _box_standard_monomials(basis):
    """The box walk: every monomial below the least pure power of each variable
    that no leading monomial divides, in display_key order, with no cap."""
    leads = [g.leading()[0] for g in basis]
    if any(sum(lm) == 0 for lm in leads):
        return []
    bounds = [min(lm[i] for lm in leads if lm[i] == sum(lm)) for i in range(len(leads[0]))]
    box = itertools.product(*(range(b) for b in bounds))
    return sorted((m for m in box if not any(mon_divides(lm, m) for lm in leads)), key=display_key)


def test_staircase_matches_the_box_walk():
    # the seeded binomial sets and, with exponents up to 9 in up to 4
    # variables, quotients on both sides of the table cap
    rng = random.Random("staircase")
    sets = SEPARATING_SETS + list(_seeded_relation_sets(100))
    for _ in range(100):
        p, n = rng.choice((2, 3, 5)), rng.randrange(1, 5)
        relations = [{tuple(rng.randrange(2, 10) if k == i else 0 for k in range(n)): 1} for i in range(n)]
        relations.append({tuple(rng.randrange(3) for _ in range(n)): 1, tuple(rng.randrange(3) for _ in range(n)): 1})
        sets.append((p, n, relations))
    refused = 0
    for p, n, relations in sets:
        gb = buchberger([Polynomial(PrimeField(p), ("x", "y", "z", "w")[:n], r) for r in relations])
        expected = _box_standard_monomials(gb)
        if len(expected) > TABLE_CAP_DIM:
            with pytest.raises(StructureError, match="more than 128 standard monomials"):
                standard_monomials(gb)
            refused += 1
        else:
            assert standard_monomials(gb) == expected, (p, relations)
    assert 10 <= refused <= 90, refused


# --- monomial order laws ----------------------------------------------------------

mon_strategy = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=200)
@given(a=mon_strategy, b=mon_strategy, c=mon_strategy)
def test_orders_are_total_multiplicative_well_orders(a, b, c):
    ka, kb = degrevlex(a), degrevlex(b)
    # totality / antisymmetry
    assert (ka == kb) == (a == b)
    # multiplicative
    if ka < kb:
        assert degrevlex(mon_mul(a, c)) < degrevlex(mon_mul(b, c))
    # well-ordering: 1 is the least monomial
    assert degrevlex((0, 0, 0)) <= ka


def test_degrevlex_vs_lex_disagree_where_expected():
    # x^2*y vs x*y^3: degrevlex compares degree first, lex does not.
    assert degrevlex((2, 1)) < degrevlex((1, 3))
    # within a degree the last variable breaks ties in reverse: x*z < y^2
    assert degrevlex((1, 0, 1)) < degrevlex((0, 2, 0))


# --- Groebner oracle: sympy ------------------------------------------------------

def _seeded_relation_sets(count):
    """(p, nvars, relations) with one pure power per variable and 1-2 binomials,
    each relation an exponent-vector -> coefficient map.  A binomial may carry
    a constant term, so some sets generate the unit ideal."""
    rng = random.Random("groebner-oracle")
    for _ in range(count):
        p, n = rng.choice((2, 3, 5, 7)), rng.randrange(1, 4)
        relations = [{tuple(rng.randrange(2, 5) if k == i else 0 for k in range(n)): 1} for i in range(n)]
        for _ in range(rng.randrange(1, 3)):
            binomial = {}
            for _ in range(2):
                mon = tuple(rng.randrange(3) for _ in range(n))
                binomial[mon] = (binomial.get(mon, 0) + rng.randrange(1, p)) % p
            relations.append(binomial)
        yield p, n, relations


# y^2 + x*z leads with y^2 in degrevlex and with x*z in grlex and lex;
# x^2 + y^3 leads with y^3 in degrevlex and grlex and with x^2 in lex
SEPARATING_SETS = [
    (3, 3, [{(3, 0, 0): 1}, {(0, 3, 0): 1}, {(0, 0, 3): 1}, {(0, 2, 0): 1, (1, 0, 1): 1}]),
    (2, 2, [{(3, 0): 1}, {(0, 4): 1}, {(2, 0): 1, (0, 3): 1}]),
]


def test_buchberger_and_standard_monomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import grevlex

    unit_ideals = 0
    other_orders = {"grlex": 0, "lex": 0}
    for p, n, relations in SEPARATING_SETS + list(_seeded_relation_sets(100)):
        field, names = PrimeField(p), ("x", "y", "z")[:n]
        gb = buchberger([Polynomial(field, names, r) for r in relations])
        gens = sympy.symbols(names)

        def sympy_basis(order):
            return sympy.groebner(
                [sympy.Poly.from_dict(dict(r), *gens, modulus=p) for r in relations], *gens, modulus=p, order=order
            )

        expected = set()
        leads = []
        reference = sympy_basis("grevlex")
        for g in reference.polys:
            # sympy prints symmetric residues: take every coefficient mod p
            terms = {mon: int(c) % p for mon, c in g.terms()}
            lead = max(terms, key=grevlex)
            inv = pow(terms[lead], p - 2, p)
            expected.add(Polynomial(field, names, {mon: c * inv for mon, c in terms.items()}))
            leads.append(lead)
        assert len(gb) == len(expected) and set(gb) == expected, (p, relations)
        # the pure powers x_i^a_i bound the standard monomials
        box = itertools.product(*(range(max(relations[i])[i]) for i in range(n)))
        standard = {m for m in box if not any(mon_divides(lead, m) for lead in leads)}
        assert set(standard_monomials(gb)) == standard == set(_box_standard_monomials(gb)), (p, relations)
        unit_ideals += not standard
        for order in other_orders:
            other_orders[order] += set(sympy_basis(order).exprs) != set(reference.exprs)
    assert 0 < unit_ideals < 100
    # some sets have other bases in other orders, so the comparison pins degrevlex
    assert min(other_orders.values()) >= 1
