import collections
import contextlib
import io
import itertools
import json
import math
import random
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab.errors import (
    EnumerationCapExceededError,
    NotLocalError,
    NotZeroDimensionalError,
    SearchBudgetExceededError,
    StructureError,
    TraceLabError,
)
from tracelab import cli, finalg, linalg
from tracelab.cli import parse_ring_spec
from tracelab.finalg import FinAlgebra, IdealSubspace, algebra_from_presentation, product_algebra
from tracelab.numsgp import semigroup_new
from tracelab.polyfp import Polynomial, PrimeField, buchberger, mon_mul, normal_form, standard_monomials
from tracelab.verify import ARTINIAN_CATALOG, build_artinian_catalog, catalog_product_algebra, run_suites

from conftest import _binomial_presentations
from test_apery import apery_algebra


# --- construction -------------------------------------------------------------

def test_chain_algebra_presentation(chain_algebra):
    assert chain_algebra.dim == 3
    assert chain_algebra.basis_labels == ("1", "x", "x^2")
    assert chain_algebra.is_local
    assert chain_algebra.radical().dim == 2


def test_field_presentation():
    field_algebra = algebra_from_presentation(3, (), ())
    assert field_algebra.dim == 1
    assert field_algebra.is_local
    assert field_algebra.is_gorenstein()


def test_fat_point_presentation(fat_point):
    assert fat_point.dim == 3
    assert fat_point.basis_labels == ("1", "x", "y")


def test_presentation_rejects_positive_dimension():
    with pytest.raises(NotZeroDimensionalError):
        algebra_from_presentation(2, ("x", "y"), ("x^2",))
    with pytest.raises(NotZeroDimensionalError):
        algebra_from_presentation(2, ("x",), ())


def test_presentation_rejects_non_local():
    # x^2 + x = x(x+1): the quotient splits as F_2 x F_2.
    with pytest.raises(NotLocalError):
        algebra_from_presentation(2, ("x",), ("x^2 + x",))
    # relation with a unit constant term: the variables cannot span the maximal ideal
    with pytest.raises(NotLocalError):
        algebra_from_presentation(2, ("x",), ("x^2 + 1",))
    with pytest.raises(NotLocalError):
        algebra_from_presentation(2, ("x",), ("1",))


def test_bad_multiplication_tables_rejected(fat_point):
    f2 = PrimeField(2)
    # non-commutative table
    with pytest.raises(StructureError):
        FinAlgebra(
            f2,
            ("1", "e"),
            (((1, 0), (0, 1)), ((1, 0), (0, 0))),
            (1, 0),
        )
    # unit does not fix the basis
    with pytest.raises(StructureError):
        FinAlgebra(
            f2,
            ("1", "e"),
            (((1, 0), (0, 0)), ((0, 0), (0, 1))),
            (1, 0),
        )
    # commutative and unital, but (a*a)*b = b*b = a while a*(a*b) = 0
    one, a, b, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    with pytest.raises(StructureError, match="associative"):
        FinAlgebra(
            f2,
            ("1", "a", "b"),
            ((one, a, b), (a, b, zero), (b, zero, a)),
            one,
        )
    # x alone does not generate F_2[x,y]/(x^2, x*y, y^2): y is missing
    B = fat_point
    with pytest.raises(StructureError, match="generate"):
        FinAlgebra(B.field, B.basis_labels, B.table, B.unit, generators=[B.table[1]])


def test_shapes_are_checked_before_anything_else(fat_point):
    # a missing table row or a short generator raised a bare IndexError, and a
    # cell that is too long was reported as a unit that does not act as the identity
    B = fat_point
    long_cell = [list(row) for row in B.table]
    long_cell[1][1] += (0,)
    short_rows = [row[:2] for row in B.table[1]]
    cases = [
        (B.table[:2], B.unit, None, "multiplication table is not 3 x 3 cells of length 3"),
        (B.table[:2] + (B.table[2][:2],), B.unit, None, "multiplication table is not 3 x 3 cells of length 3"),
        (long_cell, B.unit, None, "multiplication table is not 3 x 3 cells of length 3"),
        (B.table, B.unit[:2], None, "unit is not a vector of length 3"),
        (B.table, B.unit + (0,), None, "unit is not a vector of length 3"),
        (B.table, B.unit, [B.table[1], B.table[2][:2]], "generator 1 is not a 3 x 3 matrix"),
        (B.table, B.unit, [short_rows], "generator 0 is not a 3 x 3 matrix"),
    ]
    for table, unit, generators, message in cases:
        with pytest.raises(StructureError) as raised:
            FinAlgebra(B.field, B.basis_labels, table, unit, generators=generators)
        assert str(raised.value) == message


def test_caller_given_rows_out_of_range_are_reduced():
    # one table entry and one whole generator row shifted out of [0, p),
    # above p or below 0: both matrices are reduced, and the algebra is the same
    A = algebra_from_presentation(3, ("x", "y"), ("x^2", "y^2"))
    d = A.dim
    for shift in (3, -3, 6):
        for m in range(d):
            table = [list(cell) for cell in A.table]
            table[m][m - 1] = tuple(x + shift if k == m else x for k, x in enumerate(table[m][m - 1]))
            generators = [list(g) for g in A.generators]
            generators[-1][m] = tuple(x + shift for x in generators[-1][m])
            given = FinAlgebra(A.field, A.basis_labels, table, A.unit, generators=generators)
            assert (given.table, given.generators, given.radical()) == (A.table, A.generators, A.radical())


def _bare(algebra):
    """The algebra's table alone: no generators, factors or presentation."""
    return FinAlgebra(algebra.field, algebra.basis_labels, algebra.table, algebra.unit)


def _field_of_four():
    """F_2[x]/(x^2+x+1), x^2 = x + 1, as a bare table: the field F_4, so its
    radical is zero, and not local in is_local's sense (residue field F_2)."""
    return FinAlgebra(PrimeField(2), ("1", "x"), (((1, 0), (0, 1)), ((0, 1), (1, 1))), (1, 0))


def _blockwise_radical(algebra):
    """The radical as radical() built it before it was derived: the local
    factors' radicals, embedded block by block."""
    return algebra.product_ideal([f.radical() for f in algebra.local_factors()])


def test_a_bare_local_table_answers_as_its_presentation(fat_point):
    # the minimal generators of an ideal come from rad*I, and a bare table
    # derives its radical like a presented algebra
    B = fat_point
    bare = _bare(B)
    assert bare.is_local and bare.radical() == B.radical()
    ideals = B.enumerate_ideals()
    for left, right in itertools.product(ideals, repeat=2):
        assert bare.hom_module(left, right).maps == B.hom_module(left, right).maps
        assert bare.is_isomorphic(left, right) == B.is_isomorphic(left, right)
    for ideal in ideals:
        assert bare.trace_ideal(ideal) == B.trace_ideal(ideal)
        assert bare.least_generator(ideal) == B.least_generator(ideal)
    assert bare.is_gorenstein() == B.is_gorenstein()


def test_a_bare_product_table_needs_its_factors_only_for_least_generator():
    product = catalog_product_algebra()
    bare = _bare(product)
    assert not bare.is_local and bare.radical() == product.radical() == _blockwise_radical(product)
    ideals = product.enumerate_ideals()
    for left, right in itertools.product(ideals, repeat=2):
        assert bare.hom_module(left, right).dim == product.hom_module(left, right).dim
    for ideal in ideals:
        assert bare.trace_ideal(ideal) == product.trace_ideal(ideal)
    assert bare.is_gorenstein() == product.is_gorenstein()
    # least_generator runs factor by factor on an algebra that is not local
    with pytest.raises(StructureError, match="certificate"):
        bare.least_generator(bare.unit_ideal())


def test_a_bare_field_of_four_elements_has_radical_zero_and_is_not_local():
    f4 = _field_of_four()
    assert f4.radical() == f4.zero_ideal() and not f4.is_local
    assert f4.is_gorenstein()


def test_the_radical_over_a_large_prime_takes_few_products(monkeypatch):
    """x^p by square-and-multiply: a loop of p multiplications never ends at
    p = 2^61 - 1, so every row combination past a small budget fails fast."""
    p = 2**61 - 1
    combines = []

    def counted_combine(coeffs, rows, q):
        combines.append(q)
        assert len(combines) <= 2000, "the radical costs more than 2,000 row combinations"
        return combine(coeffs, rows, q)

    combine = linalg.combine
    monkeypatch.setattr(linalg, "combine", counted_combine)
    spec = parse_ring_spec(f'{{"kind":"artinian","field":{p},"vars":["x"],"relations":["x^2"]}}')
    fat = algebra_from_presentation(spec.p, spec.variables, spec.relations)
    assert fat.is_local and fat.radical() == fat.ideal_generate([fat.element("x")])
    field = algebra_from_presentation(p, (), ())
    assert field.is_local and field.radical() == field.zero_ideal()
    both = product_algebra(fat, field)
    assert not both.is_local and both.radical() == _blockwise_radical(both)
    # p = 3 mod 4, so x^2 + 1 is irreducible and x^p = -x: residue field F_(p^2)
    with pytest.raises(NotLocalError):
        algebra_from_presentation(p, ("x",), ("x^2 + 1",))
    for square in ((p - 1, 0), (0, 1)):  # x^2 = -1, and x^2 = x (F_p x F_p)
        bare = FinAlgebra(PrimeField(p), ("1", "x"), (((1, 0), (0, 1)), ((0, 1), square)), (1, 0))
        assert bare.radical() == bare.zero_ideal() and not bare.is_local


def _oracle_associative(table, p):
    """The all-triples check: (e_i*e_j)*e_k == e_i*(e_j*e_k) for every j and i < k
    (the table is symmetric, so (i, j, k) and (k, j, i) are one equation)."""
    d = len(table)
    for i in range(d):
        for k in range(i + 1, d):
            for j in range(d):
                if linalg.combine(table[i][j], table[k], p) != linalg.combine(table[j][k], table[i], p):
                    return False
    return True


def _generates(matrices, unit, p):
    """Brute force: 1 and its images under the matrices, closed under sums, reach every vector."""
    reached = {unit}
    while True:
        images = {
            tuple(sum(v[m] * g[m][c] for m in range(len(v))) % p for c in range(len(v))) for v in reached for g in matrices
        }
        sums = {tuple((x + y) % p for x, y in zip(u, v)) for u in reached for v in reached}
        if images | sums <= reached:
            return len(reached) == p ** len(unit)
        reached |= images | sums


def _is_multiplication_map(table, unit, g, p):
    """g == M_g(1): row i of g is e_i*g(1)."""
    value = linalg.combine(unit, g, p)
    return tuple(g) == tuple(linalg.combine(value, row, p) for row in table)


def _oracle_certificate(table, unit, generators, p):
    """The certificate before the breadth-first walk: commutativity, the unit,
    the span of the generators applied to 1 by one growing rref per degree,
    then (g*e_m)*e_j == g*(e_m*e_j) for every generator g and all m, j, which
    is n*d^2 products.  True when it accepts."""
    d = len(table)
    if any(table[i][j] != table[j][i] for i in range(d) for j in range(i, d)):
        return False
    if any(linalg.combine(unit, table[i], p) != tuple(int(j == i) for j in range(d)) for i in range(d)):
        return False
    span = linalg.rref([unit], p)[0]
    while len(span) < d:
        grown = linalg.rref(span + tuple(linalg.combine(v, g, p) for v in span for g in generators), p)[0]
        if len(grown) == len(span):
            return False
        span = grown
    return all(
        linalg.combine(g[m], table[j], p) == linalg.combine(table[m][j], g, p)
        for g in generators
        for m in range(d)
        for j in range(d)
    )


def _accepts(table, unit, generators, p):
    try:
        FinAlgebra(PrimeField(p), [str(i) for i in range(len(unit))], table, unit, generators=generators)
    except StructureError:
        return False
    return True


F2_ONE = (1, 0, 0)
F2_VECTORS = list(itertools.product(range(2), repeat=3))
# commutative F_2 tables of dim 3 with unit e_0; e_1^2, e_1*e_2 and e_2^2 are free
F2_TABLES = [
    ((F2_ONE, (0, 1, 0), (0, 0, 1)), ((0, 1, 0), e11, e12), ((0, 0, 1), e12, e22))
    for e11, e12, e22 in itertools.product(F2_VECTORS, repeat=3)
]
F2_MATRICES = list(itertools.product(F2_VECTORS, repeat=3))


def test_certificate_matches_the_triple_oracle_on_every_f2_table():
    associative = 0
    for table in F2_TABLES:
        expected = _oracle_associative(table, 2)
        associative += expected
        for generators in (None, *([row] for row in table)):
            wanted = expected and (generators is None or _generates(generators, F2_ONE, 2))
            assert _accepts(table, F2_ONE, generators, 2) == wanted, (table, generators)
            assert _oracle_certificate(table, F2_ONE, generators or table, 2) == wanted
    assert associative == 64


def test_certificate_matches_the_oracles_on_arbitrary_generators():
    # every 3 x 3 F_2 matrix as the one generator of each associative table,
    # then seeded pairs on every table: the certificate accepts exactly when
    # the table is associative, each g is M_g(1) and the generators generate,
    # and so does the n*d^2 certificate it replaced
    associative_tables = {table: _oracle_associative(table, 2) for table in F2_TABLES}
    generated = {}  # generation does not depend on the table
    outcomes = collections.Counter()

    def check(table, generators):
        associative = associative_tables[table]
        key = tuple(generators)
        if key not in generated:
            generated[key] = _generates(generators, F2_ONE, 2)
        wanted = associative and all(_is_multiplication_map(table, F2_ONE, g, 2) for g in generators) and generated[key]
        assert _accepts(table, F2_ONE, generators, 2) == wanted, (table, generators)
        assert _oracle_certificate(table, F2_ONE, generators, 2) == wanted, (table, generators)
        commute = all(
            [linalg.combine(row, h, 2) for row in g] == [linalg.combine(row, g, 2) for row in h]
            for g, h in itertools.combinations(generators, 2)
        )
        if wanted:
            outcomes["accepted"] += 1
        elif not commute:
            outcomes["generators do not commute"] += 1
        elif associative and generated[key]:
            outcomes["not a multiplication map"] += 1

    for table in [table for table, associative in associative_tables.items() if associative]:
        for g in F2_MATRICES:
            check(table, [g])
    rng = random.Random(1807)
    for _ in range(3000):
        check(rng.choice(F2_TABLES), rng.sample(F2_MATRICES, 2))
    assert min(outcomes.values()) >= 100 and len(outcomes) == 3, outcomes


def _oracle_table(p, variables, relations):
    """The pairwise construction: (mons, table, coordinates), table[i][j] the
    normal form of mons[i]*mons[j] and coordinates(poly) the normal form of
    poly in the standard-monomial basis mons."""
    field = PrimeField(p)
    groebner = buchberger([Polynomial.parse(field, variables, r) for r in relations])
    mons = standard_monomials(groebner)

    def coordinates(poly):
        terms = normal_form(poly, groebner).terms
        return tuple(terms.get(b, 0) for b in mons)

    table = tuple(tuple(coordinates(Polynomial(field, variables, {mon_mul(u, v): 1})) for v in mons) for u in mons)
    return mons, table, coordinates


def _presented_algebra(p, variables, relations):
    """F_p[variables]/(relations) on its standard monomials, with the degree-one
    generators and no locality check; None for the zero ring."""
    mons, table, _ = _oracle_table(p, variables, relations)
    if not mons:
        return None
    generators = [table[k] for k, m in enumerate(mons) if sum(m) == 1]
    return FinAlgebra(PrimeField(p), [str(m) for m in mons], table, table[0][0], generators=generators)


def _oracle_algebra(p, variables, relations):
    """(mons, table, generators, coordinates) of the pairwise construction,
    with the degree-one rows as generators, or the error it raises."""
    mons, table, coordinates = _oracle_table(p, variables, relations)
    if not mons:
        raise NotLocalError("relations generate the unit ideal: the quotient is the zero ring")
    generators = tuple(table[k] for k, m in enumerate(mons) if sum(m) == 1)
    for g in generators:
        power = table[0][0]
        for _ in mons:
            power = linalg.combine(power, g, p)
        if any(power):
            raise NotLocalError("a variable is not nilpotent: the non-constant monomials span no nilpotent ideal")
    return mons, table, generators, coordinates


def _seeded_mixed_presentation(rng):
    """1-3 variables over F_2..F_7: a pure power of the first variable, of each
    other one mostly, some with a linear tail (x^2 + x is not local), then
    binomials, some with a constant term, and sometimes x + y, which leaves x
    outside the standard monomials."""
    p = rng.choice((2, 3, 5, 7))
    variables = ("x", "y", "z")[: rng.randrange(1, 4)]

    def monomial():
        if rng.random() < 0.1:
            return "1"
        return "*".join(f"{v}^{rng.randrange(1, 3)}" for v in rng.sample(variables, rng.randrange(1, len(variables) + 1)))

    relations = []
    for v in variables:
        if v == "x" or rng.random() < 0.85:
            tail = f" + {rng.randrange(1, p)}*{rng.choice(variables)}" if rng.random() < 0.3 else ""
            relations.append(f"{v}^{rng.randrange(2, 4)}{tail}")
    for _ in range(rng.randrange(3)):
        relations.append(f"{monomial()} + {rng.randrange(1, p)}*{monomial()}")
    if len(variables) > 1 and rng.random() < 0.2:
        relations.append("x + y")
    return p, variables, relations


def _seeded_texts(rng, p, variables):
    """Three random polynomials with exponents up to 5, then a 1000th power, 0 and p+1."""
    def term():
        powers = [f"{v}^{rng.randrange(6)}" for v in variables if rng.random() < 0.6]
        return "*".join([str(rng.randrange(p + 2)), *powers])

    texts = [" + ".join(term() for _ in range(rng.randrange(1, 4))) for _ in range(3)]
    return texts + [f"{variables[-1]}^1000", "0", str(p + 1)]


def test_presentation_matches_the_pairwise_oracle():
    # the variables' matrices against the normal form of every product of two
    # standard monomials: tables, generators, units, labels, radicals,
    # refusals (class and text) and element() against the normal form
    rng = random.Random(1807)
    cases = [(p, variables, relations) for _, p, variables, relations, _ in ARTINIAN_CATALOG if relations]
    cases += [_seeded_mixed_presentation(rng) for _ in range(330)]
    outcomes, refusals = collections.Counter(), collections.Counter()
    for p, variables, relations in cases:
        try:
            mons, table, generators, coordinates = _oracle_algebra(p, variables, relations)
        except TraceLabError as exc:
            with pytest.raises(TraceLabError) as raised:
                algebra_from_presentation(p, variables, relations)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc)), (p, relations)
            refusals[type(exc).__name__, str(exc).partition(":")[0]] += 1
            continue
        algebra = algebra_from_presentation(p, variables, relations)
        field = algebra.field
        assert algebra.table == table, (p, relations)
        assert algebra.generators == generators
        assert algebra.unit == table[0][0]
        assert algebra.basis_labels == tuple(Polynomial(field, variables, {m: 1}).to_text() if sum(m) else "1" for m in mons)
        assert algebra.radical() == _oracle_maximal_ideal(algebra)
        for text in _seeded_texts(rng, p, variables):
            assert algebra.element(text) == coordinates(Polynomial.parse(field, variables, text)), (p, relations, text)
        outcomes["built"] += 1
        outcomes["non-standard variable"] += len(generators) < len(variables)
    assert outcomes["built"] >= 150 and outcomes["non-standard variable"] >= 10, outcomes
    # the zero ring, a variable that is not nilpotent, a missing pure power
    assert len(refusals) == 3 and min(refusals.values()) >= 5, refusals


def test_presentation_takes_one_normal_form_per_variable_and_basis_monomial(monkeypatch):
    calls = []

    def counted(f, basis):
        calls.append(f)
        return normal_form(f, basis)

    combines = []

    def counted_combine(coeffs, rows, p):
        combines.append(p)
        return combine(coeffs, rows, p)

    combine = linalg.combine
    monkeypatch.setattr(finalg, "normal_form", counted)
    monkeypatch.setattr(linalg, "combine", counted_combine)
    algebra = algebra_from_presentation(2, ("x", "y", "z"), ("x^3", "y^3", "z^3"))
    assert algebra.dim == 27
    # only the border is divided: the 27 products x*m with x^3 dividing them
    assert len(calls) == 27
    assert sorted(max(f.terms)[::-1] for f in calls) == sorted(
        m for m in itertools.product(range(4), repeat=3) if max(m) == 3 and sum(e == 3 for e in m) == 1
    )
    # the breadth-first walk builds the table and the Frobenius powers derive
    # the radical: 189 row combinations now that the walk reuses unit and
    # zero rows (test_the_walk_pays_extend_only_off_the_coordinate_span);
    # 1,053 when it combined every row (1,026 with a power loop per
    # variable in place of the Frobenius powers, 1,728 when the table was
    # built first and the walk compared against it, 5,427 with the
    # associativity loop and a span rref per degree)
    assert len(combines) <= 1100


def _seeded_change_of_basis_presentation(rng):
    """Homogeneous local presentations whose certificate walk meets a vector
    that is not a basis vector: x^2 plus two lower terms over F_2 or F_3,
    whose normal form has two terms, or x^e + c*y^e with c not -1, whose
    normal form is a multiple other than 1 of a basis vector."""
    if rng.random() < 0.5:
        p, variables = rng.choice((2, 3)), ("x", "y", "z")
        lower = rng.sample(("x*y", "x*z", "y^2", "y*z", "z^2"), 2)
        relations = [" + ".join(["x^2", *(f"{rng.randrange(1, p)}*{m}" for m in lower)])]
    else:
        p, variables = rng.choice((3, 5, 7)), ("x", "y")
        e = rng.randrange(2, 4)
        relations = [f"x^{e} + {rng.randrange(1, p - 1)}*y^{e}"]
    return p, variables, relations + [f"{v}^{rng.randrange(2, 4)}" for v in variables[1:]]


def _oracle_product_table(left, right):
    """The block-diagonal table of product_algebra(left, right), row by row
    from the factors' tables."""
    factors = left.local_factors() + right.local_factors()
    d = sum(f.dim for f in factors)
    table, off = [], 0
    for f in factors:
        table.extend(tuple(finalg._in_block(row, off, d)) for row in f.table)
        off += f.dim
    return tuple(table)


def _walk_solves(monkeypatch, algebra):
    """The rrefs that FinAlgebra._validate spends deriving the table from the
    algebra's generators: the one solve through the inverse of the walk
    basis, or none when every walk vector is a basis vector.  The kernel that
    derives the radical afterwards is not counted."""
    solves = []
    rref, validate = linalg.rref, FinAlgebra._validate

    def counted(rows, p):
        solves.append(len(rows))
        return rref(rows, p)

    def counted_validate(self):
        with monkeypatch.context() as inner:
            inner.setattr(linalg, "rref", counted)
            validate(self)

    with monkeypatch.context() as patch:
        patch.setattr(FinAlgebra, "_validate", counted_validate)
        rebuilt = FinAlgebra(algebra.field, algebra.basis_labels, None, algebra.unit, generators=algebra.generators)
    assert rebuilt.table == algebra.table
    return len(solves)


def test_derived_tables_match_the_oracles_through_a_change_of_basis(monkeypatch, binomial_algebras):
    rng = random.Random(1807)
    algebras, solved = [], collections.Counter()
    for _ in range(60):
        p, variables, relations = _seeded_change_of_basis_presentation(rng)
        algebra = algebra_from_presentation(p, variables, relations)
        assert algebra.table == _oracle_table(p, variables, relations)[1], (p, relations)
        # a table passed in that equals the derived one is accepted
        given = FinAlgebra(algebra.field, algebra.basis_labels, algebra.table, algebra.unit, generators=algebra.generators)
        assert given.table == algebra.table
        solved[p, _walk_solves(monkeypatch, algebra)] += 1
        algebras.append(algebra)
    # both kinds of relation, over every field, take the solve path
    assert {p for p, solves in solved if solves == 1} == {2, 3, 5, 7} and max(n for _, n in solved) == 1, solved
    # monomial relations never leave the basis vectors
    assert _walk_solves(monkeypatch, algebra_from_presentation(2, ("x", "y", "z"), ("x^3", "y^3", "z^3"))) == 0
    # products: the unit is not a basis vector, nor is the second factor's idempotent
    factors = algebras + binomial_algebras(seed=11, count=30)
    pairs = [(a, b) for a, b in zip(factors, factors[1:]) if a.field.p == b.field.p]
    pairs.append((pairs[0][0], product_algebra(*pairs[1])))
    assert len(pairs) >= 20
    for left, right in pairs:
        product = product_algebra(left, right)
        assert product.table == _oracle_product_table(left, right), product.label
        assert product.radical() == _blockwise_radical(product), product.label
        assert _walk_solves(monkeypatch, product) == 1


def _oracle_walk(self):
    """FinAlgebra._validate before its walk knew any answer in advance: every
    candidate g(w) goes through linalg.extend, tried or not, and M_v = M_w*G
    and the commute check combine every row."""
    d, p = self.dim, self.field.p
    given, generators = self.table, self.generators
    identity = tuple(self.basis_vector(i) for i in range(d))
    if given is not None:
        if tuple(zip(*given)) != given:
            raise StructureError("multiplication table is not commutative")
        if tuple(self.action(self.unit)) != identity:
            raise StructureError("unit does not act as the identity")
    broken = "multiplication table is not associative, or a generator is not multiplication by its value at 1"
    for k, g in enumerate(generators):
        for h in generators[:k]:
            if any(linalg.combine(gm, h, p) != linalg.combine(hm, g, p) for gm, hm in zip(g, h)):
                raise StructureError(broken)
    echelon, pivots = [], []
    basis = [(self.unit, identity)] if linalg.extend(echelon, pivots, self.unit, p) else []
    for w, action in basis:
        for g in generators:
            v = linalg.combine(w, g, p)
            if linalg.extend(echelon, pivots, v, p):
                basis.append((v, tuple(linalg.combine(row, g, p) for row in action)))
    if len(basis) < d:
        raise StructureError("generators do not generate the algebra")
    rows = {v.index(1): action for v, action in basis if finalg._is_basis_vector(v)}
    if len(rows) < d:
        inverse = linalg.rref([v + e for (v, _), e in zip(basis, identity)], p)[0]
        flat = [tuple(itertools.chain.from_iterable(action)) for _, action in basis]
        for m in range(d):
            if m not in rows:
                entries = linalg.combine(inverse[m][d:], flat, p)
                rows[m] = tuple(entries[i * d : (i + 1) * d] for i in range(d))
    table = tuple(rows[m] for m in range(d))
    if given is not None and table != given:
        raise StructureError(broken)
    self.table = table


def _both_walks(build):
    """(new, old, extended): build() under FinAlgebra._validate and under
    _oracle_walk, each the algebra or the (type, text) of the error it
    raised, and the linalg.extend calls on a nonzero vector in the first."""
    extended = []
    extend = linalg.extend

    def counted(echelon, pivots, vec, p):
        extended.append(any(vec))
        return extend(echelon, pivots, vec, p)

    def outcome():
        try:
            return build()
        except TraceLabError as exc:
            return type(exc), str(exc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "extend", counted)
        new = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FinAlgebra, "_validate", _oracle_walk)
        old = outcome()
    return new, old, sum(extended)


def _assert_same_algebra(new, old, case):
    if isinstance(new, tuple) or isinstance(old, tuple):
        assert new == old, case
        return
    for attr in ("table", "generators", "unit", "basis_labels", "label"):
        assert getattr(new, attr) == getattr(old, attr), (attr, case)
    assert new.radical() == old.radical(), case


APERY_SEMIGROUPS = ((2, 3), (2, 5), (3, 4), (3, 5), (3, 4, 5), (3, 7, 8), (4, 5), (4, 6, 7), (4, 5, 6, 7), (5, 6), (5, 7, 9))


def _presented_product(left, right):
    return product_algebra(algebra_from_presentation(*left), algebra_from_presentation(*right))


def _rebased(presentation, seed):
    """The presented algebra in the random basis b_i = sum_j P[i][j]*e_j,
    with its table, unit and generators rewritten in that basis: its unit is
    seldom a coordinate vector, so the walk leaves the coordinate span at
    once, and a candidate e_c may lie outside the span though c is a pivot."""
    algebra = algebra_from_presentation(*presentation)
    rng, d, p = random.Random(seed), algebra.dim, algebra.field.p
    P = ()
    while linalg.rank(P, p) < d:
        P = [tuple(rng.randrange(p) for _ in range(d)) for _ in range(d)]
    # rref(P | I) = (I | P^-1)
    inverse = [row[d:] for row in linalg.rref([row + algebra.basis_vector(i) for i, row in enumerate(P)], p)[0]]

    def rebase(vec):
        return linalg.combine(vec, inverse, p)

    table = [[rebase(algebra.mul(u, v)) for v in P] for u in P]
    generators = [[rebase(linalg.combine(u, g, p)) for u in P] for g in algebra.generators]
    return FinAlgebra(algebra.field, algebra.basis_labels, table, rebase(algebra.unit), generators=generators)


def test_the_walk_matches_the_extend_every_candidate_oracle():
    # the catalog and its product, the seeded binomial algebras and their
    # same-field products, the change-of-basis presentations and the bare
    # Apery tables; tables, generators, units, labels and radicals agree
    rng = random.Random(1807)
    binomial = _binomial_presentations(seed=11, count=30)
    builds = [partial(algebra_from_presentation, p, v, r) for _, p, v, r, _ in ARTINIAN_CATALOG]
    builds.append(catalog_product_algebra)
    builds += [partial(algebra_from_presentation, p, v, r) for p, v, r, _ in binomial]
    builds += [partial(_presented_product, a[:3], b[:3]) for a, b in zip(binomial, binomial[1:]) if a[0] == b[0]]
    builds += [partial(algebra_from_presentation, *_seeded_change_of_basis_presentation(rng)) for _ in range(40)]
    builds += [partial(apery_algebra, semigroup_new(gens), p) for gens in APERY_SEMIGROUPS for p in (2, 3)]
    builds += [partial(_rebased, (p, v, r), seed) for seed, (p, v, r, _) in enumerate(binomial[:20])]
    paths = collections.Counter()
    for build in builds:
        new, old, extended = _both_walks(build)
        _assert_same_algebra(new, old, build)
        paths["extend" if extended else "coordinates only"] += 1
    # products, whose unit is no basis vector, and changes of basis take
    # linalg.extend; monomial presentations and Apery tables never do
    assert len(builds) >= 100 and min(paths.values()) >= 30, paths


@st.composite
def _generated_presentations(draw):
    """The cube of each of 1-3 variables and one or two binomials in
    monomials of degree 2, over F_2, F_3, F_5, F_101 and F_(2^61 - 1)."""
    p = draw(st.sampled_from((2, 3, 5, 101, 2**61 - 1)))
    variables = ("x", "y", "z")[: draw(st.integers(1, 3))]
    monomials = [f"{u}*{v}" for u, v in itertools.combinations_with_replacement(variables, 2)]
    relations = [f"{v}^3" for v in variables]
    for _ in range(draw(st.integers(1, 2))):
        left, right = draw(st.sampled_from(monomials)), draw(st.sampled_from(monomials))
        relations.append(f"{left} + {draw(st.integers(1, p - 1))}*{right}")
    return p, variables, tuple(relations)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_generated_presentations())
def test_the_walk_matches_the_oracle_on_generated_presentations(case):
    new, old, _ = _both_walks(partial(algebra_from_presentation, *case))
    _assert_same_algebra(new, old, case)


def test_the_walk_pays_extend_only_off_the_coordinate_span():
    """F_2[x,y,z]/(x^3,y^3,z^3): 81 candidates, 27 distinct, all coordinate
    vectors or zero.  The whole construction spends one linalg.extend, on the
    zero vector, and 189 row combinations (81 candidates, 108 in the radical);
    the oracle walk spends 82 and 1,081: each of the 28 nonzero candidates
    already in the span costs its residual one combination (1,053 when the
    residual was eliminated row by row)."""

    def work(validate):
        calls = collections.Counter()
        with pytest.MonkeyPatch.context() as patch:
            for name in ("extend", "combine"):
                original = getattr(linalg, name)
                patch.setattr(linalg, name, lambda *args, _o=original, _n=name: calls.update([_n]) or _o(*args))
            patch.setattr(FinAlgebra, "_validate", validate)
            algebra_from_presentation(2, ("x", "y", "z"), ("x^3", "y^3", "z^3"))
        return dict(calls)

    assert work(FinAlgebra._validate) == {"extend": 1, "combine": 189}
    assert work(_oracle_walk) == {"extend": 82, "combine": 1081}


def test_presentations_past_the_caps_are_refused_before_the_work():
    start = time.monotonic()
    with pytest.raises(StructureError, match="more than 128 standard monomials: the quotient exceeds the table cap"):
        algebra_from_presentation(2, ("x",), ("x^100000000000",))
    with pytest.raises(StructureError, match="more than 128 standard monomials: the quotient exceeds the table cap"):
        algebra_from_presentation(2, ("x",), ("x^129",))
    assert time.monotonic() - start < 1.0
    assert algebra_from_presentation(2, ("x", "y", "z"), ("x^4", "y^4", "z^4")).dim == 64
    # d = 96 below a box of 20^5 monomials: the staircase visits only n*d of them
    variables = [f"x{i}" for i in range(1, 6)]
    relations = [f"{v}^20" for v in variables] + [f"{u}*{v}" for u, v in itertools.combinations(variables, 2)]
    assert algebra_from_presentation(2, variables, relations).dim == 96


def _oracle_maximal_ideal(algebra):
    """The candidate-ideal check: the ideal generated by the non-unit basis
    vectors must have codimension 1 and be nilpotent."""
    d = algebra.dim
    non_unit = [algebra.basis_vector(k) for k in range(d) if algebra.basis_vector(k) != algebra.unit]
    candidate = algebra.ideal_generate(non_unit)
    if candidate.dim != d - 1:
        raise NotLocalError("non-constant monomials do not span a proper ideal")
    power = candidate
    while power.dim > 0:
        nxt = algebra.ideal_product(power, candidate)
        if nxt == power:
            raise NotLocalError("maximal ideal candidate is not nilpotent")
        power = nxt
    return candidate


def _seeded_presentation(rng):
    """Per variable a relation led by its pure power, whose lower terms may be
    1, x or y, and sometimes x*y plus a lower term: x^2 + 1, x^2 + 2*x + 1, ..."""
    p = rng.choice((2, 3, 5))
    variables = rng.choice((("x",), ("x", "y")))
    lower = ["1", *variables]
    relations = []
    for v in variables:
        tail = [f"{rng.randrange(1, p)}*{t}" for t in rng.sample(lower, rng.randrange(3))]
        relations.append(" + ".join([f"{v}^{rng.randrange(2, 4)}", *tail]))
    if len(variables) == 2 and rng.random() < 0.5:
        relations.append(f"x*y + {rng.randrange(1, p)}*{rng.choice(lower)}")
    return p, variables, relations


def test_locality_from_nilpotent_generators_matches_the_candidate_ideal_oracle(binomial_algebras):
    for algebra in [a for _, a, _ in build_artinian_catalog()] + binomial_algebras(seed=11, count=30):
        assert _oracle_maximal_ideal(algebra) == algebra.radical(), algebra.label
    rng = random.Random(1807)
    local = non_local = 0
    for _ in range(300):
        p, variables, relations = _seeded_presentation(rng)
        unchecked = _presented_algebra(p, variables, relations)
        try:
            expected = None if unchecked is None else _oracle_maximal_ideal(unchecked)
        except NotLocalError:
            expected = None
        if expected is None:
            non_local += 1
            with pytest.raises(NotLocalError):
                algebra_from_presentation(p, variables, relations)
        else:
            algebra = algebra_from_presentation(p, variables, relations)
            assert algebra.table == unchecked.table
            assert algebra.radical() == expected, (p, relations)
            local += 1
    assert min(local, non_local) >= 50


# --- ideal generation and arithmetic -------------------------------------------

def test_ideal_generate_examples(chain_algebra):
    A = chain_algebra
    principal_x = A.ideal_generate([A.element("x")])
    assert principal_x.matrix == ((0, 1, 0), (0, 0, 1))
    assert A.ideal_generate([A.element("1")]) == A.unit_ideal()
    assert A.ideal_generate([]) == A.zero_ideal()


def test_ideal_product_examples(square_corner, fat_point):
    B = square_corner
    x_ideal = B.ideal_generate([B.element("x")])
    y_ideal = B.ideal_generate([B.element("y")])
    xy_ideal = B.ideal_generate([B.element("x*y")])
    assert B.ideal_product(x_ideal, y_ideal) == xy_ideal
    assert B.ideal_product(x_ideal, B.unit_ideal()) == x_ideal
    m = fat_point.radical()
    assert fat_point.ideal_product(m, m) == fat_point.zero_ideal()


def _oracle_ideal_product(algebra, left, right):
    """The per-row product: u*v for every row u of left and every row v of right."""
    p = algebra.field.p
    rows = {linalg.combine(u, algebra.action(v), p) for v in right.matrix for u in left.matrix}
    return IdealSubspace(p, algebra.dim, linalg.rref(rows, p)[0])


def _left_kernel(rows, p):
    """Basis of {x : x @ rows = 0} in rref, the right kernel of the transpose;
    every vector when the rows are empty."""
    return linalg.right_kernel(list(zip(*rows)), len(rows), p)


def _oracle_annihilator(algebra, ideal):
    """The left kernel of the action maps of every row of the ideal, stacked side by side."""
    p, d = algebra.field.p, algebra.dim
    stacked = [tuple(itertools.chain.from_iterable(algebra.mul_basis(i, v) for v in ideal.matrix)) for i in range(d)]
    return IdealSubspace(p, d, _left_kernel(stacked, p))


def _oracle_colon_in_ring(algebra, left, right):
    """The left kernel of r -> r*w modulo left for every row w of right, stacked side by side."""
    p, d = algebra.field.p, algebra.dim
    stacked = [
        tuple(
            itertools.chain.from_iterable(
                linalg.reduce_vector(left.matrix, left.pivots, algebra.mul_basis(i, w), p) for w in right.matrix
            )
        )
        for i in range(d)
    ]
    return IdealSubspace(p, d, _left_kernel(stacked, p))


def test_ideal_arithmetic_matches_the_per_row_oracles(binomial_algebras):
    # ideal_product, annihilator and colon_in_ring run on a generating prefix
    # of an ideal's rows; the oracles run on every row
    algebras = binomial_algebras(seed=11, count=30)
    products = [product_algebra(a, b) for a, b in zip(algebras, algebras[1:]) if a.field.p == b.field.p]
    catalog = [a for _, a, _ in build_artinian_catalog()] + [catalog_product_algebra()]
    shorter = 0
    for algebra in catalog + algebras + products + _apery_algebras():
        ideals = algebra.enumerate_ideals()
        for ideal in ideals:
            kept = [v for v, _ in algebra._generating_rows(ideal)]
            # each kept row lies outside the ideal the rows before it generate
            assert all(not algebra.ideal_generate(kept[:j]).contains_vector(v) for j, v in enumerate(kept))
            assert algebra.ideal_generate(kept) == ideal
            shorter += len(kept) < ideal.dim - 1
            assert algebra.annihilator(ideal) == _oracle_annihilator(algebra, ideal), algebra.label
        for left, right in itertools.product(ideals, repeat=2):
            assert algebra.ideal_product(left, right) == _oracle_ideal_product(algebra, left, right), algebra.label
            assert algebra.colon_in_ring(left, right) == _oracle_colon_in_ring(algebra, left, right), algebra.label
    # many ideals keep at most dim - 2 of their rows
    assert len(products) >= 5 and shorter >= 200, shorter


def test_ideal_operations_count_their_work(monkeypatch):
    calls = collections.Counter()
    for name in ("combine", "is_invertible"):
        monkeypatch.setattr(linalg, name, lambda *args, f=getattr(linalg, name), name=name: calls.update([name]) or f(*args))
    A = algebra_from_presentation(5, ("a", "b"), ("a^4", "b^5"))
    calls.clear()
    # two generating rows, a and b: 20 + 5 row combinations (380 from every row)
    assert A.annihilator(A.radical()) == A.ideal_generate([A.element("a^3*b^4")])
    assert calls["combine"] <= 60, calls
    B = algebra_from_presentation(5, ("u", "v"), ("u^3", "v^3"))
    u_ideal, v_ideal = B.ideal_generate([B.element("u")]), B.ideal_generate([B.element("v")])
    calls.clear()
    # ann((u)) = (u^2) and ann((v)) = (v^2) differ, so none of the 5^4 maps is tried
    assert not B.is_isomorphic(u_ideal, v_ideal)
    assert calls["is_invertible"] == 0, calls


def _brute_annihilator(algebra, ideal):
    rows = [
        v
        for v in algebra.all_elements()
        if all(algebra.mul(v, w) == algebra.zero_vector() for w in ideal.matrix)
    ]
    return IdealSubspace(algebra.field.p, algebra.dim, linalg.rref(rows, algebra.field.p)[0])


def test_annihilator_examples(chain_algebra, fat_point):
    A, B = chain_algebra, fat_point
    assert B.annihilator(B.ideal_generate([B.element("x")])) == B.radical()
    assert B.annihilator(B.unit_ideal()) == B.zero_ideal()
    x2 = A.ideal_generate([A.element("x^2")])
    assert A.annihilator(x2) == A.ideal_generate([A.element("x")])


def test_annihilator_matches_brute_force(chain_algebra, fat_point, square_corner):
    for algebra in (chain_algebra, fat_point, square_corner):
        for ideal in algebra.enumerate_ideals():
            assert algebra.annihilator(ideal) == _brute_annihilator(algebra, ideal)


def _brute_colon(algebra, left, right):
    rows = [
        v
        for v in algebra.all_elements()
        if all(left.contains_vector(algebra.mul(v, w)) for w in right.matrix)
    ]
    return IdealSubspace(algebra.field.p, algebra.dim, linalg.rref(rows, algebra.field.p)[0])


def test_colon_examples(chain_algebra):
    A = chain_algebra
    x_ideal = A.ideal_generate([A.element("x")])
    x2_ideal = A.ideal_generate([A.element("x^2")])
    assert A.colon_in_ring(x2_ideal, x_ideal) == x_ideal
    assert A.colon_in_ring(x_ideal, A.unit_ideal()) == x_ideal
    assert A.colon_in_ring(A.zero_ideal(), x_ideal) == A.annihilator(x_ideal)


def test_colon_matches_brute_force(chain_algebra, fat_point):
    for algebra in (chain_algebra, fat_point):
        ideals = algebra.enumerate_ideals()
        for left in ideals:
            for right in ideals:
                assert algebra.colon_in_ring(left, right) == _brute_colon(algebra, left, right)


# --- hom modules ----------------------------------------------------------------

def test_hom_dimension_examples(chain_algebra):
    A = chain_algebra
    x_ideal = A.ideal_generate([A.element("x")])
    assert A.hom_module(x_ideal, A.unit_ideal()).dim == 2
    assert A.hom_module(A.zero_ideal(), x_ideal).dim == 0
    for ideal in A.enumerate_ideals():
        assert A.hom_module(A.unit_ideal(), ideal).dim == ideal.dim


def _coordinates(ideal, vec):
    """Coordinates of a vector of the ideal in its rref rows: its entries at the pivots."""
    assert ideal.contains_vector(vec)
    return tuple(vec[c] for c in ideal.pivots)


def _map_matrices(algebra, hom):
    """The maps of a HomBasis as (dim I) x (dim J) coordinate matrices: row a
    holds f(v_a) = sum_j r_{a,j}*y_j in the basis of J, v_a the a-th basis row
    of I, r_{a,j} from the expressions of I's Nakayama record and y_j the
    image of I's j-th minimal generator."""
    p, t = algebra.field.p, hom.codomain.dim
    expressions = algebra.minimal_generators(hom.domain)[2]
    matrices = []
    for vec in hom.maps:
        images = [linalg.combine(vec[j : j + t], hom.codomain.matrix, p) for j in range(0, len(vec), t)]
        matrices.append(tuple(_coordinates(hom.codomain, _sum_of(algebra, rs, images)) for rs in expressions))
    return tuple(matrices)


def test_hom_maps_are_linear(chain_algebra, fat_point, square_corner):
    for algebra in (chain_algebra, fat_point, square_corner):
        ideals = algebra.enumerate_ideals()
        for domain in ideals:
            for codomain in ideals:
                hom = algebra.hom_module(domain, codomain)
                for matrix in _map_matrices(algebra, hom):
                    images = [
                        linalg.combine(matrix[a], hom.codomain.matrix, algebra.field.p)
                        for a in range(domain.dim)
                    ]
                    for i in range(algebra.dim):
                        e_i = algebra.basis_vector(i)
                        for a, v in enumerate(domain.matrix):
                            moved = _coordinates(domain, algebra.mul(e_i, v))
                            lhs = algebra.zero_vector()
                            for c, coeff in enumerate(moved):
                                if coeff:
                                    lhs = tuple(
                                        (x + coeff * y) % algebra.field.p
                                        for x, y in zip(lhs, images[c])
                                    )
                            assert lhs == algebra.mul(e_i, images[a])


def _oracle_hom_module(algebra, domain, codomain):
    """Hom(domain, codomain) from the constraints f(e_i*v) = e_i*f(v) for every
    basis element e_i, as the maps of a HomBasis."""
    p = algebra.field.p
    s, t = domain.dim, codomain.dim
    if s == 0 or t == 0:
        return ()
    constraints = []
    for i in range(algebra.dim):
        lam = [_coordinates(domain, algebra.mul_basis(i, v)) for v in domain.matrix]
        mu = [_coordinates(codomain, algebra.mul_basis(i, w)) for w in codomain.matrix]
        for a in range(s):
            for bp in range(t):
                row = [0] * (s * t)
                for c in range(s):
                    row[c * t + bp] = (row[c * t + bp] + lam[a][c]) % p
                for b in range(t):
                    row[a * t + b] = (row[a * t + b] - mu[b][bp]) % p
                constraints.append(tuple(row))
    kernel = linalg.right_kernel(constraints, s * t, p)
    return tuple(tuple(tuple(vec[a * t + b] for b in range(t)) for a in range(s)) for vec in kernel)


def _assert_hom_matches_oracle(algebra, pairs=None):
    """hom_module spans the oracle's maps on the pairs (every pair of ideals by
    default): as many maps, and the same rref of the maps flattened row by
    row; trace_ideal of each domain is the ideal spanned by the images of the
    maps to R, whose rref basis is the identity."""
    if pairs is None:
        pairs = list(itertools.product(algebra.enumerate_ideals(), repeat=2))
    p = algebra.field.p
    for domain, codomain in pairs:
        expected = _oracle_hom_module(algebra, domain, codomain)
        maps = _map_matrices(algebra, algebra.hom_module(domain, codomain))
        assert len(maps) == len(expected), algebra.label
        flat = [[sum(m, ()) for m in found] for found in (maps, expected)]
        assert linalg.rref(flat[0], p) == linalg.rref(flat[1], p), algebra.label
    unit = algebra.unit_ideal()
    for domain in {domain for domain, _ in pairs}:
        images = [row for m in _map_matrices(algebra, algebra.hom_module(domain, unit)) for row in m]
        assert algebra.trace_ideal(domain) == IdealSubspace(p, algebra.dim, linalg.rref(images, p)[0]), algebra.label


def test_hom_from_generators_matches_the_basis_oracle_on_the_catalog():
    for _, algebra, _ in build_artinian_catalog():
        _assert_hom_matches_oracle(algebra)
    _assert_hom_matches_oracle(catalog_product_algebra())


def test_hom_from_generators_matches_the_basis_oracle_on_binomial_algebras(binomial_algebras):
    algebras = binomial_algebras(seed=11, count=30)
    assert {a.field.p for a in algebras} == {2, 3, 5, 7}
    products = [
        product_algebra(a, b)
        for a, b in zip(algebras, algebras[1:])
        if a.field.p == b.field.p and a.field.p ** (a.dim + b.dim) <= 256
    ]
    assert len(products) >= 3
    for algebra in algebras + products:
        _assert_hom_matches_oracle(algebra)


def _apery_algebras():
    """The 80 Apery algebras of the test_apery.py ranges: bare tables, local
    by their derived radical, whose generators include the unit row."""
    seen = {}
    for p, top in ((2, 5), (3, 3)):
        for m in range(2, top + 1):
            for others in itertools.chain.from_iterable(
                itertools.combinations(range(m + 1, 3 * m + 2), size) for size in (1, 2)
            ):
                if math.gcd(m, *others) == 1:
                    sgp = semigroup_new([m, *others])
                    seen.setdefault((p, sgp.generators), (sgp, p))
    assert len(seen) == 80
    return [apery_algebra(sgp, p) for sgp, p in seen.values()]


def test_hom_matches_the_basis_oracle_on_apery_algebras():
    # rad*I must come from the radical, not from the generators
    for algebra in _apery_algebras():
        _assert_hom_matches_oracle(algebra)


def _random_ideal(rng, algebra, power):
    """The ideal generated by 1-3 elements, each a random combination of 1-2 rows of power."""
    p = algebra.field.p
    gens = []
    for _ in range(rng.randrange(1, 4)):
        rows = rng.sample(power.matrix, rng.randrange(1, 3))
        gens.append(linalg.combine([rng.randrange(1, p) for _ in rows], rows, p))
    return algebra.ideal_generate(gens)


@pytest.mark.parametrize(
    "p,variables,relations,exponent",
    [(2, "xy", ("x^3", "y^4"), 1), (3, "xy", ("x^4", "y^4"), 2), (2, "xyz", ("x^3", "y^3", "z^3"), 3)],
)
def test_hom_matches_the_basis_oracle_on_seeded_ideal_pairs(p, variables, relations, exponent):
    # ideals inside m^exponent keep the oracle's (dim I)(dim J) unknowns small
    algebra = algebra_from_presentation(p, tuple(variables), relations)
    power = algebra.radical()
    for _ in range(exponent - 1):
        power = algebra.ideal_product(power, algebra.radical())
    rng = random.Random(f"hom/{algebra.label}")
    pairs = []
    while len(pairs) < 40:
        domain, codomain = _random_ideal(rng, algebra, power), _random_ideal(rng, algebra, power)
        if domain.dim * codomain.dim <= 150:
            pairs.append((domain, codomain))
    # some domain needs two or more generators: dim I/mI >= 2
    assert max(d.dim - algebra.ideal_product(algebra.radical(), d).dim for d, _ in pairs) >= 2
    _assert_hom_matches_oracle(algebra, pairs)


# --- module data kept with the ideal ------------------------------------------------


def _fresh(ideal):
    """An equal ideal that keeps no module data yet."""
    return IdealSubspace(ideal.p, ideal.ncols, ideal.matrix)


def _module_answers(algebra, domain, targets, order):
    """minimal_generators, annihilator, trace_ideal and the Hom dimensions
    into the targets, asked in the given order of those four; domain() gives
    the ideal for each query."""
    ask = {
        "minimal": lambda: algebra.minimal_generators(domain()),
        "annihilator": lambda: algebra.annihilator(domain()),
        "trace": lambda: algebra.trace_ideal(domain()),
        "hom": lambda: tuple(algebra.hom_module(domain(), target).dim for target in targets),
    }
    return {name: ask[name]() for name in order}


def _sum_of(algebra, coefficients, gens):
    """sum_j coefficients[j]*gens[j] in the algebra."""
    total = algebra.zero_vector()
    for c, x in zip(coefficients, gens):
        total = linalg.combine((1, 1), (total, algebra.mul(c, x)), algebra.field.p)
    return total


def test_the_nakayama_record_matches_its_definition(binomial_algebras):
    # rad*I spanned by products, the minimal generators outside it, and a
    # presentation over them checked by multiplying out, on every ideal
    product = catalog_product_algebra()
    algebras = [a for _, a, _ in build_artinian_catalog()] + [product, _bare(product), _field_of_four()]
    algebras += binomial_algebras(seed=11, count=16) + _apery_algebras()
    records = 0
    for algebra in algebras:
        p, d, rad = algebra.field.p, algebra.dim, algebra.radical()
        for ideal in algebra.enumerate_ideals():
            rows, below, expressions, syzygies = algebra.minimal_generators(ideal)
            products = [algebra.mul(u, w) for u in ideal.matrix for w in rad.matrix]
            assert below.matrix == linalg.rref(products, p)[0], (algebra.label, ideal)
            assert rows == tuple(a for a, c in enumerate(ideal.pivots) if c not in below.pivots)
            gens = [ideal.matrix[a] for a in rows]
            assert len(expressions) == ideal.dim
            for row, rs in zip(ideal.matrix, expressions):
                assert _sum_of(algebra, rs, gens) == row, (algebra.label, ideal)
            for sigma in syzygies:
                assert _sum_of(algebra, sigma, gens) == algebra.zero_vector(), (algebra.label, ideal)
            # the syzygies are independent and span the kernel of R^k -> I
            assert len(syzygies) == len(rows) * d - ideal.dim
            flat = [tuple(itertools.chain.from_iterable(sigma)) for sigma in syzygies]
            assert len(linalg.rref(flat, p)[0]) == len(syzygies)
            records += 1
    assert records >= 700, records


def test_kept_module_data_answers_as_a_fresh_ideal(binomial_algebras):
    # every query on a fresh ideal computes its data anew; a kept ideal
    # computes each kind once, in either order of the queries, and then reads it
    algebras = [algebra for _, algebra, _ in build_artinian_catalog()] + [catalog_product_algebra()]
    algebras += binomial_algebras(seed=11, count=16) + _apery_algebras()
    kinds = ("minimal", "annihilator", "trace", "hom")
    for algebra in algebras:
        ideals = algebra.enumerate_ideals()
        # Hom keeps only the domain's data, so up to 8 codomains spread over the list
        targets = ideals[:: -(-len(ideals) // 8)]
        for ideal in ideals:
            expected = _module_answers(algebra, partial(_fresh, ideal), targets, kinds)
            for order in (kinds, kinds[::-1]):
                kept = _fresh(ideal)
                for _ in range(2):
                    assert _module_answers(algebra, lambda: kept, targets, order) == expected, (algebra.label, ideal)


def test_one_ideal_answers_each_algebra_that_asks(chain_algebra, fat_point):
    # span(e_1, e_2) is the maximal ideal of F_2[x]/(x^3), with annihilator
    # (x^2), and of F_2[x,y]/(x^2, x*y, y^2), its own annihilator
    ideal = IdealSubspace(2, 3, [(0, 1, 0), (0, 0, 1)])

    def annihilator_of_m(algebra):
        return algebra.radical() if "y" in algebra.basis_labels else algebra.ideal_generate([algebra.element("x^2")])

    assert annihilator_of_m(chain_algebra) != annihilator_of_m(fat_point)
    for algebra in (chain_algebra, fat_point, chain_algebra, fat_point):
        assert algebra.annihilator(ideal) == annihilator_of_m(algebra)
    # algebras built and dropped in turn, whose ids Python may reuse
    for k in range(6):
        algebra = algebra_from_presentation(2, *((("x",), ("x^3",)) if k % 2 else (("x", "y"), ("x^2", "x*y", "y^2"))))
        assert algebra.annihilator(ideal) == annihilator_of_m(algebra)
    assert ideal == _fresh(ideal) and hash(ideal) == hash(_fresh(ideal))


def _count_linalg_calls(monkeypatch):
    """A Counter of the calls of every linalg function from then on, calls
    between linalg functions included."""
    calls = collections.Counter()
    for name, f in list(vars(linalg).items()):
        if callable(f) and getattr(f, "__module__", None) == linalg.__name__:
            monkeypatch.setattr(linalg, name, lambda *args, f=f, name=name: calls.update([name]) or f(*args))
    return calls


def test_reduced_subspaces_take_no_second_rref(monkeypatch):
    # the constructor, zero_ideal and unit_ideal call no linalg function;
    # _nilradical makes one rref, the kernel's own; all three are in rref
    rref = linalg.rref
    calls = _count_linalg_calls(monkeypatch)
    algebras = [algebra for _, algebra, _ in build_artinian_catalog()] + [catalog_product_algebra()]
    algebras.append(algebra_from_presentation(2, ("x", "y", "z"), ("x^3", "y^3", "z^3")))
    for algebra in algebras:
        calls.clear()
        subspaces = (algebra.zero_ideal(), algebra.unit_ideal())
        assert not calls
        radical = algebra._nilradical()
        assert calls["rref"] == 1  # the kernel's own elimination
        for sub in (*subspaces, radical):
            calls.clear()
            again = IdealSubspace(sub.p, sub.ncols, sub.matrix)
            assert not calls
            assert rref(sub.matrix, sub.p) == (sub.matrix, sub.pivots) == (again.matrix, again.pivots), algebra.label


def test_every_subspace_is_made_in_rref(monkeypatch, binomial_algebras):
    # the constructor trusts its matrix; every subspace the suites and the
    # artinian --op commands make must already be in rref
    init, made = IdealSubspace.__init__, []

    def checked(self, p, ncols, matrix):
        init(self, p, ncols, matrix)
        assert linalg.rref(matrix, p) == (self.matrix, self.pivots), self
        assert all(len(row) == ncols for row in self.matrix), self
        made.append(self)

    monkeypatch.setattr(IdealSubspace, "__init__", checked)
    algebras = binomial_algebras(seed=11, count=16)
    products = [product_algebra(a, b) for a, b in zip(algebras, algebras[1:]) if a.field.p == b.field.p]
    catalog = [a for _, a, _ in build_artinian_catalog()] + [catalog_product_algebra()]
    for algebra in catalog + algebras + products:
        run_suites(algebra, "all")
    by_suites = len(made)
    ops = {
        (2, ("x", "y"), ("x^3", "y^4")): (("trace", "x*y"), ("colon", "x^2", "y"), ("iso", "x^2", "y^2")),
        (3, ("x", "y"), ("x^3", "x*y^2", "y^4")): (("ann", "x,y"), ("colon", "x^2", "x,y"), ("trace", "y")),
        (5, ("x", "y"), ("x^2", "y^2")): (("iso", "x", "y"), ("ann", "x+y"), ("enumerate",)),
    }
    for (p, variables, relations), commands in ops.items():
        spec = json.dumps({"kind": "artinian", "field": p, "vars": list(variables), "relations": list(relations)})
        for op, *ideals in commands:
            argv = ["artinian", "--spec", spec, "--op", op]
            argv += itertools.chain.from_iterable(("--ideal-gens", ideal) for ideal in ideals)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(argv) == 0, argv
    assert 0 < by_suites < len(made)


def test_generators_of_presentations_and_products():
    chain = algebra_from_presentation(2, ("x",), ("x^3",))
    assert chain.generators == (chain.table[1],)
    field = algebra_from_presentation(2, (), ())
    assert field.generators == ()
    prod = product_algebra(chain, field)
    # x in the first block, then one idempotent per factor
    assert [[prod.format_element(row) for row in g] for g in prod.generators] == [
        ["x@0", "x^2@0", "0", "0"],
        ["1@0", "x@0", "x^2@0", "0"],
        ["0", "0", "0", "1@1"],
    ]
    bare = FinAlgebra(PrimeField(2), ["1"], [[(1,)]], (1,))
    assert bare.generators == bare.table


# --- traces -----------------------------------------------------------------------

def test_trace_examples(chain_algebra, fat_point):
    A, B = chain_algebra, fat_point
    x_in_chain = A.ideal_generate([A.element("x")])
    assert A.trace_ideal(x_in_chain) == x_in_chain
    x_in_fat = B.ideal_generate([B.element("x")])
    assert B.trace_ideal(x_in_fat) == B.radical()
    assert A.trace_ideal(A.unit_ideal()) == A.unit_ideal()
    assert A.trace_ideal(A.zero_ideal()) == A.zero_ideal()


def test_principal_trace_oracle_examples(fat_point):
    B = fat_point
    x, one, zero = (B.ideal_generate([B.element(text)]) for text in ("x", "1", "0"))
    assert B.double_annihilator(x) == B.radical()
    assert B.double_annihilator(one) == B.unit_ideal()
    assert B.double_annihilator(zero) == B.zero_ideal()


def test_least_generator(chain_algebra, fat_point):
    A = chain_algebra
    assert A.least_generator(A.zero_ideal()) == A.zero_vector()
    assert A.least_generator(A.radical()) == A.element("x")
    assert A.least_generator(A.unit_ideal()) == A.element("1")
    assert fat_point.least_generator(fat_point.radical()) is None
    # a bare table of F_2 is local: it needs no certificate
    bare = FinAlgebra(PrimeField(2), ["1"], [[(1,)]], (1,))
    assert bare.is_local and bare.least_generator(bare.unit_ideal()) == (1,)


def _oracle_least_generator(algebra, ideal):
    """The scan least_generator replaced: the last rref row whose principal
    ideal is the ideal, blockwise on a product."""
    if not algebra.is_local:
        parts = [_oracle_least_generator(f, i) for f, i in zip(algebra.local_factors(), algebra.factor_ideals(ideal))]
        return None if None in parts else tuple(itertools.chain.from_iterable(parts))
    if ideal.dim == 0:
        return algebra.zero_vector()
    return next((row for row in reversed(ideal.matrix) if algebra.ideal_generate([row]) == ideal), None)


def _oracle_is_gorenstein(algebra):
    """The socle criterion factor by factor: each socle is one-dimensional."""
    return all(f.annihilator(f.radical()).dim == 1 for f in algebra.local_factors())


def test_least_generator_and_gorenstein_match_the_oracles(binomial_algebras):
    catalog = [a for _, a, _ in build_artinian_catalog()] + [catalog_product_algebra()]
    algebras = binomial_algebras(seed=11, count=40)
    products = [product_algebra(a, b) for a, b in zip(algebras, algebras[1:]) if a.field.p == b.field.p]
    assert len(products) >= 5
    principal = not_principal = 0
    for algebra in catalog + algebras + products + _apery_algebras():
        for ideal in algebra.enumerate_ideals():
            expected = _oracle_least_generator(algebra, ideal)
            assert algebra.least_generator(ideal) == expected, algebra.label
            principal += expected is not None
            not_principal += expected is None
        assert algebra.is_gorenstein() == _oracle_is_gorenstein(algebra), algebra.label
    assert min(principal, not_principal) >= 100
    # products of Gorenstein factors and products with a non-Gorenstein factor
    assert {True, False} <= {p.is_gorenstein() for p in products}


def test_trace_agrees_with_double_annihilator_on_all_elements(
    chain_algebra, fat_point, square_corner
):
    for algebra in (chain_algebra, fat_point, square_corner):
        for v in algebra.all_elements():
            ideal = algebra.ideal_generate([v])
            assert algebra.trace_ideal(ideal) == algebra.double_annihilator(ideal)


def test_trace_containment_and_idempotence(chain_algebra, fat_point, square_corner):
    for algebra in (chain_algebra, fat_point, square_corner):
        for ideal in algebra.enumerate_ideals():
            tr = algebra.trace_ideal(ideal)
            assert ideal.is_subspace_of(tr)
            assert algebra.trace_ideal(tr) == tr


# --- isomorphism -----------------------------------------------------------------

def test_isomorphic_ideals_in_fat_point(fat_point):
    B = fat_point
    x_ideal = B.ideal_generate([B.element("x")])
    y_ideal = B.ideal_generate([B.element("y")])
    assert B.is_isomorphic(x_ideal, y_ideal)
    assert not B.is_isomorphic(x_ideal, B.radical())
    assert B.is_isomorphic(B.radical(), B.radical())


def test_gorenstein_ideals_isomorphic_only_when_equal(square_corner):
    # every ideal of an artinian Gorenstein ring is its own trace, and traces
    # are isomorphism invariants, so distinct ideals are never isomorphic
    B = square_corner
    ideals = B.enumerate_ideals()
    for left in ideals:
        for right in ideals:
            assert B.is_isomorphic(left, right) == (left == right)


def test_isomorphism_invariance_of_trace_and_hom_dimension(fat_point):
    B = fat_point
    ideals = B.enumerate_ideals()
    for left in ideals:
        for right in ideals:
            if B.is_isomorphic(left, right):
                assert B.trace_ideal(left) == B.trace_ideal(right)
                for other in ideals:
                    assert (
                        B.hom_module(left, other).dim == B.hom_module(right, other).dim
                    )


def _oracle_is_isomorphic(algebra, left, right, hom_cap_exponent):
    """The s x s search: the same early exits, budget and candidate order over
    the hom_module maps, each candidate tested by is_invertible on its matrix."""
    if left.dim != right.dim:
        return False
    if left.dim == 0 or left == right:
        return True
    hom = algebra.hom_module(left, right)
    h = hom.dim
    if h == 0:
        return False
    p = algebra.field.p
    if (p**h - 1).bit_length() > hom_cap_exponent:
        raise SearchBudgetExceededError(f"Hom space has {p}^{h} elements, beyond the 2^{hom_cap_exponent} budget")
    matrices = _map_matrices(algebra, hom)
    rows_by_index = [[m[a] for m in matrices] for a in range(left.dim)]
    for coeffs in itertools.product(range(p), repeat=h):
        if any(coeffs) and linalg.is_invertible([linalg.combine(coeffs, rows, p) for rows in rows_by_index], p):
            return True
    return False


def _answer(is_isomorphic, *args):
    try:
        return is_isomorphic(*args)
    except SearchBudgetExceededError as exc:
        return str(exc)


def test_isomorphism_matches_the_square_search_oracle(binomial_algebras):
    # the oracle has no annihilator exit, so is_isomorphic must give its
    # answers and raise its budget errors on the same pairs
    algebras = binomial_algebras(seed=11, count=40)
    products = [product_algebra(a, b) for a, b in zip(algebras, algebras[1:]) if a.field.p == b.field.p]
    catalog = [a for _, a, _ in build_artinian_catalog()] + [catalog_product_algebra()]
    # every ideal inside (x,y,z) is a sum of copies of the residue field, so
    # annihilators cannot separate them and the search decides
    residue_sums = algebra_from_presentation(3, "xyz", ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2"))
    pairs = nontrivial = separated = 0
    for algebra in catalog + algebras + products + [residue_sums]:
        ideals = algebra.enumerate_ideals()
        for left, right in itertools.product(ideals, repeat=2):
            if left.dim != right.dim:
                continue
            pairs += 1
            for cap in (0, 1, 2, 3, 22):
                expected = _answer(_oracle_is_isomorphic, algebra, left, right, cap)
                assert _answer(algebra.is_isomorphic, left, right, cap) == expected, (algebra.label, cap)
            nontrivial += expected is True and left != right
            if algebra.annihilator(left) != algebra.annihilator(right):
                separated += 1
                assert expected is False and algebra is not residue_sums
    assert len(products) >= 5 and len(residue_sums.enumerate_ideals()) == 29
    assert pairs >= 2000 and nontrivial >= 900 and separated >= 700, (pairs, nontrivial, separated)


def test_isomorphism_budget(fat_point):
    B = fat_point
    x_ideal = B.ideal_generate([B.element("x")])
    y_ideal = B.ideal_generate([B.element("y")])
    with pytest.raises(SearchBudgetExceededError):
        B.is_isomorphic(x_ideal, y_ideal, hom_cap_exponent=0)


def test_isomorphism_budget_boundary():
    # over F_2, Hom((x), (y)) has 2^1 maps: a budget of 2^1 searches it
    B = algebra_from_presentation(2, ("x", "y"), ("x^2", "x*y", "y^2"))
    x_ideal = B.ideal_generate([B.element("x")])
    y_ideal = B.ideal_generate([B.element("y")])
    assert B.hom_module(x_ideal, y_ideal).dim == 1
    assert B.is_isomorphic(x_ideal, y_ideal, hom_cap_exponent=1)
    with pytest.raises(SearchBudgetExceededError, match="2\\^1 elements, beyond the 2\\^0 budget"):
        B.is_isomorphic(x_ideal, y_ideal, hom_cap_exponent=0)
    # over F_3 it has 3 = 2^1 + 1 maps
    C = algebra_from_presentation(3, ("x", "y"), ("x^2", "x*y", "y^2"))
    x_ideal = C.ideal_generate([C.element("x")])
    y_ideal = C.ideal_generate([C.element("y")])
    assert C.is_isomorphic(x_ideal, y_ideal, hom_cap_exponent=2)
    with pytest.raises(SearchBudgetExceededError, match="3\\^1 elements, beyond the 2\\^1 budget"):
        C.is_isomorphic(x_ideal, y_ideal, hom_cap_exponent=1)


def test_unequal_annihilators_answer_before_the_codomains_record(count_calls):
    # ann((x)) = (x^2) and ann((y)) = (y^2) differ, so only the domain's
    # record, which the Hom system reads, is built; the budget check comes
    # first, and the same pair still raises under a smaller budget
    B = algebra_from_presentation(5, ("x", "y"), ("x^3", "y^3"))
    x_ideal = B.ideal_generate([B.element("x")])
    y_ideal = B.ideal_generate([B.element("y")])
    records = count_calls("_compute_minimal_generators")
    assert not B.is_isomorphic(x_ideal, y_ideal)
    assert records == {"_compute_minimal_generators": 1}
    with pytest.raises(SearchBudgetExceededError, match="5\\^4 elements, beyond the 2\\^0 budget"):
        B.is_isomorphic(x_ideal, y_ideal, hom_cap_exponent=0)


def _parent_order_is_isomorphic(algebra, left, right, hom_cap_exponent):
    """is_isomorphic with the Hom solve first: solve, h == 0, budget,
    annihilators, k, then the search."""
    if left.dim != right.dim:
        return False
    if left == right:
        return True
    kernel = algebra._hom_system(left, right)
    h = len(kernel)
    if h == 0:
        return False
    p = algebra.field.p
    if (p**h - 1).bit_length() > hom_cap_exponent:
        raise SearchBudgetExceededError(f"Hom space has {p}^{h} elements, beyond the 2^{hom_cap_exponent} budget")
    if algebra.annihilator(left) != algebra.annihilator(right):
        return False
    rows, below = algebra.minimal_generators(right)[:2]
    top = [right.pivots[a] for a in rows]
    k, t = len(algebra.minimal_generators(left)[0]), right.dim
    if k != len(top):
        return False

    def residue(coords):
        y = linalg.reduce_vector(below.matrix, below.pivots, linalg.combine(coords, right.matrix, p), p)
        return tuple(y[c] for c in top)

    rows_by_index = [[residue(vec[j * t : (j + 1) * t]) for vec in kernel] for j in range(k)]
    for coeffs in itertools.product(range(p), repeat=h):
        if any(coeffs) and linalg.is_invertible([linalg.combine(coeffs, rows, p) for rows in rows_by_index], p):
            return True
    return False


def test_isomorphism_answers_and_raises_as_the_solve_first_order(binomial_algebras):
    # the annihilator exit moves before the Hom solve only where k*t bounds h
    # within the budget, so every answer and every budget error stays.  In
    # the two presented algebras some pairs with unequal annihilators have
    # h = k*t, so a bound one too large would answer where the solve raises.
    algebras = [a for _, a, _ in build_artinian_catalog()] + [catalog_product_algebra()]
    algebras += binomial_algebras(seed=11, count=8)
    algebras += [algebra_from_presentation(p, "xy", ("x^2", "x*y", "y^3")) for p in (2, 3)]
    pairs = raised = early = full = 0
    for algebra in algebras:
        ideals = algebra.enumerate_ideals()
        for left, right in itertools.product(ideals, repeat=2):
            if left.dim != right.dim or left == right:
                continue
            pairs += 1
            kt = len(algebra.minimal_generators(left)[0]) * right.dim
            separated = algebra.annihilator(left) != algebra.annihilator(right)
            full += separated and len(algebra._hom_system(left, right)) == kt
            for cap in (0, 1, 2, 3, 4, 6, 8, 12, 22):
                expected = _answer(_parent_order_is_isomorphic, algebra, left, right, cap)
                assert _answer(algebra.is_isomorphic, left, right, cap) == expected, (algebra.label, cap)
                raised += isinstance(expected, str)
                early += separated and kt <= cap
    assert pairs >= 125 and raised >= 250 and early >= 150 and full >= 4, (pairs, raised, early, full)


def test_unequal_annihilators_within_the_bound_skip_the_hom_solve(count_calls):
    # (x*y) and (x*z) have one minimal generator and dimension 12, so
    # Hom((x*y), (x*z)) has at most 2^12 maps, within the default budget
    B = algebra_from_presentation(2, ("x", "y", "z"), ("x^3", "y^3", "z^3"))
    xy, xz = (B.ideal_generate([B.element(e)]) for e in ("x*y", "x*z"))
    solves = count_calls("_hom_system")
    assert B.dim == 27 and xy.dim == xz.dim == 12
    assert not B.is_isomorphic(xy, xz)
    assert solves == {"_hom_system": 0}
    # in F_2[x,y]/(x^2,y^2), k*t = 2 for (x) and (y): the solve comes first
    # at cap 0, where h = 1 exceeds the budget, and not at cap 2
    C = algebra_from_presentation(2, ("x", "y"), ("x^2", "y^2"))
    x_ideal, y_ideal = (C.ideal_generate([C.element(e)]) for e in ("x", "y"))
    with pytest.raises(SearchBudgetExceededError, match="^Hom space has 2\\^1 elements, beyond the 2\\^0 budget$"):
        C.is_isomorphic(x_ideal, y_ideal, hom_cap_exponent=0)
    assert solves == {"_hom_system": 1}
    assert not C.is_isomorphic(x_ideal, y_ideal, hom_cap_exponent=2)
    assert solves == {"_hom_system": 1}


# --- Gorenstein test and enumeration ----------------------------------------------

def test_is_gorenstein_examples(square_corner, fat_point):
    assert square_corner.is_gorenstein()
    assert not fat_point.is_gorenstein()
    assert algebra_from_presentation(2, (), ()).is_gorenstein()


def _brute_force_ideals(algebra):
    """All subsets of the algebra closed under addition and ring multiplication."""
    elements = list(algebra.all_elements())
    subspaces = set()
    for bits in range(1 << len(elements)):
        subset = [e for i, e in enumerate(elements) if bits >> i & 1]
        if not subset or algebra.zero_vector() not in subset:
            continue
        sset = set(subset)
        if any(
            tuple((a + b) % algebra.field.p for a, b in zip(u, v)) not in sset
            for u in subset
            for v in subset
        ):
            continue
        if any(algebra.mul(r, v) not in sset for r in elements for v in subset):
            continue
        subspaces.add(frozenset(subset))
    return subspaces


def test_enumerate_ideals_examples(chain_algebra, fat_point):
    A = chain_algebra
    chain_ideals = A.enumerate_ideals()
    assert [A.format_ideal(i) for i in chain_ideals] == ["0", "x^2", "x, x^2", "1, x, x^2"]
    B = fat_point
    fat_ideals = B.enumerate_ideals()
    assert [B.format_ideal(i) for i in fat_ideals] == [
        "0",
        "x",
        "x + y",
        "y",
        "x, y",
        "1, x, y",
    ]
    assert len(algebra_from_presentation(2, (), ()).enumerate_ideals()) == 2


def test_enumerate_ideals_matches_brute_force(chain_algebra, fat_point):
    for algebra in (chain_algebra, fat_point):
        # span each enumerated ideal into an explicit element set
        spans = set()
        for ideal in algebra.enumerate_ideals():
            span = set()
            for coeffs in itertools.product(range(algebra.field.p), repeat=ideal.dim):
                vec = algebra.zero_vector()
                for c, row in zip(coeffs, ideal.matrix):
                    vec = tuple((x + c * y) % algebra.field.p for x, y in zip(vec, row))
                span.add(vec)
            spans.add(frozenset(span))
        assert spans == _brute_force_ideals(algebra)


def test_enumeration_cap(chain_algebra):
    with pytest.raises(EnumerationCapExceededError):
        chain_algebra.enumerate_ideals(cap_dim=2)
    with pytest.raises(EnumerationCapExceededError):
        algebra_from_presentation(3, ("x",), ("x^5",)).enumerate_ideals()


def _sweep_order(ideal):
    return (ideal.dim, ideal.pivots, ideal.matrix)


def _subspaces(p, d):
    """Every subspace of F_p^d, in the order (dim, pivots, matrix)."""
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, d) if c not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[int(c == pivot) for c in range(d)] for pivot in pivots]
                for (r, c), value in zip(free, values):
                    rows[r][c] = value
                yield IdealSubspace(p, d, tuple(map(tuple, rows)))


def _oracle_is_ideal(algebra, sub):
    """Closure under multiplication by every basis element."""
    return all(sub.contains_vector(algebra.mul_basis(i, row)) for i in range(algebra.dim) for row in sub.matrix)


def _is_ideal_against_the_oracle(algebra):
    """(subspaces of the whole algebra on which is_ideal and the basis oracle
    disagree, the subspaces the oracle accepts), both in the sweep's order."""
    p, d = algebra.field.p, algebra.dim
    disagree, accepted = [], []
    for sub in _subspaces(p, d):
        closed = _oracle_is_ideal(algebra, sub)
        if algebra.is_ideal(sub) != closed:
            disagree.append(sub)
        if closed:
            accepted.append(sub)
    return disagree, accepted


def test_is_ideal_through_the_generators_matches_the_basis_oracle(binomial_algebras):
    # a product is swept one factor at a time and lists its ideals in the
    # factors' order, so its whole space is compared here and its list sorted
    binomials = binomial_algebras(seed=11, count=30)
    products = [
        product
        for product in (product_algebra(a, b) for a, b in zip(binomials, binomials[1:]) if a.field.p == b.field.p)
        if finalg.subspace_count(product.field.p, product.dim) <= 3000
    ]
    cube = algebra_from_presentation(3, ("x",), ("x^3",))
    bare = _bare(cube)
    # bare tables that are not local have no factors, so they are swept whole
    bare_product, f4 = _bare(catalog_product_algebra()), _field_of_four()
    algebras = (
        [a for _, a, _ in build_artinian_catalog()]
        + [catalog_product_algebra(), algebra_from_presentation(2, (), ()), bare, bare_product, f4]
        + binomials
        + products
        + _apery_algebras()
    )
    assert len(products) >= 2 and bare.generators == bare.table
    assert not (bare_product.is_local or f4.is_local) and bare_product.factors is None is f4.factors
    for algebra in algebras:
        disagree, accepted = _is_ideal_against_the_oracle(algebra)
        assert not disagree, algebra.label
        ideals = algebra.enumerate_ideals()
        assert (ideals if algebra.factors is None else sorted(ideals, key=_sweep_order)) == accepted, algebra.label


def test_the_is_ideal_oracle_sees_a_product_without_its_idempotents():
    # without the factor idempotents the generators act as x alone; two
    # subspaces are closed under x but are no ideals, since 1@0 times their
    # first row leaves them
    product = catalog_product_algebra()
    p = product.field.p
    nilpotent = []
    for g in product.generators:
        value = linalg.combine(product.unit, g, p)
        if linalg.combine(value, g, p) != value:
            nilpotent.append(g)
    assert len(nilpotent) == 1
    product.generators = tuple(nilpotent)
    disagree, _ = _is_ideal_against_the_oracle(product)
    assert [product.format_ideal(sub) for sub in disagree] == ["x@0 + 1@1", "1@0 + 1@1, x@0"]


def test_enumerate_ideals_returns_the_sweep_order(binomial_algebras):
    # the order a walk of the ideal lattice has to reproduce; products are left
    # out, as they list their ideals in the factors' order
    for algebra in [a for _, a, _ in build_artinian_catalog()] + binomial_algebras(seed=11, count=30):
        ideals = algebra.enumerate_ideals()
        assert ideals == sorted(ideals, key=_sweep_order), algebra.label


def test_a_product_lists_its_ideals_in_the_product_of_its_factors_lists():
    # itertools.product of [0, x, 1] and [0, 1]: not the sweep order, since the
    # line 1@1 (pivot 2) comes before the line x@0 (pivot 1)
    product = catalog_product_algebra()
    assert [product.format_ideal(ideal) for ideal in product.enumerate_ideals()] == [
        "0", "1@1", "x@0", "x@0, 1@1", "1@0, x@0", "1@0, x@0, 1@1",
    ]


@pytest.mark.parametrize(
    "algebra",
    [
        algebra_from_presentation(2, ("x",), ("x^5",)),
        algebra_from_presentation(3, ("x",), ("x^3",)),
        catalog_product_algebra(),
    ],
    ids=lambda algebra: algebra.label,
)
def test_the_sweep_visits_subspace_count_subspaces(monkeypatch, algebra):
    visited = []
    is_ideal = FinAlgebra.is_ideal
    monkeypatch.setattr(FinAlgebra, "is_ideal", lambda self, sub: visited.append(sub) or is_ideal(self, sub))
    algebra.enumerate_ideals()
    factors = algebra.factors or (algebra,)
    assert visited == [sub for f in factors for sub in _subspaces(f.field.p, f.dim)]
    assert len(visited) == sum(finalg.subspace_count(f.field.p, f.dim) for f in factors)


def test_subspace_counts_against_the_sweep_budget():
    count = finalg.subspace_count
    assert [count(2, d) for d in range(6)] == [1, 2, 5, 16, 67, 374]
    assert (count(2, 7), count(2, 8), count(31, 4), count(101, 4)) == (29212, 417199, 1016836, 107192416)
    assert count(2, 8) <= finalg.SWEEP_BUDGET < count(31, 4)
    start = time.monotonic()
    for p in (31, 101):
        algebra = algebra_from_presentation(p, ("x",), ("x^4",))
        reason = f"{count(p, 4)} subspaces of F_{p}\\^4 exceed the sweep budget 524288"
        with pytest.raises(EnumerationCapExceededError, match=reason):
            algebra.enumerate_ideals()
    assert time.monotonic() - start < 1.0


def test_one_sweep_counts_its_row_reductions(monkeypatch, count_calls):
    # a dim-7 F_2 algebra of the benchmark's sweep pool: 29,212 subspaces, each
    # built in rref and tested once under the 2 variables: 32,756 products
    # g*v, each tested by in_rowspace, 27,481 of them with one combination of
    # the rows and none with a row-by-row reduce_vector (32,756 before);
    # testing under all 7 basis elements made 135,732 reductions, and
    # eliminating each built subspace again made 29,212 rrefs
    algebra = algebra_from_presentation(2, ("x", "y"), ("x^3", "x^2*y", "y^3"))
    calls = _count_linalg_calls(monkeypatch)
    visits = count_calls("is_ideal")
    assert len(algebra.enumerate_ideals(cap_dim=7)) == 30
    assert visits["is_ideal"] == finalg.subspace_count(2, 7) == 29212
    assert (calls["rref"], calls["reduce_vector"]) == (0, 0), calls
    assert (calls["in_rowspace"], calls["combine"]) == (32756, 32756 + 27481), calls


# --- products -----------------------------------------------------------------------

def test_product_algebra_trace_factorization():
    left = algebra_from_presentation(2, ("x",), ("x^2",))
    right = algebra_from_presentation(2, (), ())
    prod = product_algebra(left, right)
    assert prod.dim == 3
    assert not prod.is_local
    assert prod.is_gorenstein()

    x_ideal = left.ideal_generate([left.element("x")])
    embedded = prod.product_ideal([x_ideal, right.zero_ideal()])
    assert prod.trace_ideal(embedded) == embedded

    full = prod.product_ideal([left.unit_ideal(), right.unit_ideal()])
    assert prod.trace_ideal(full) == prod.unit_ideal()

    half = prod.product_ideal([left.zero_ideal(), right.unit_ideal()])
    assert prod.trace_ideal(half) == half

    for pair in itertools.product(left.enumerate_ideals(), right.enumerate_ideals()):
        lhs = prod.trace_ideal(prod.product_ideal(pair))
        rhs = prod.product_ideal([left.trace_ideal(pair[0]), right.trace_ideal(pair[1])])
        assert lhs == rhs


def test_product_field_mismatch():
    with pytest.raises(StructureError):
        product_algebra(
            algebra_from_presentation(2, (), ()), algebra_from_presentation(3, (), ())
        )


def test_product_blockwise_enumeration():
    left = algebra_from_presentation(2, ("x",), ("x^2",))
    right = algebra_from_presentation(2, (), ())
    prod = product_algebra(left, right)
    ideals = prod.enumerate_ideals()
    assert len(ideals) == len(left.enumerate_ideals()) * len(right.enumerate_ideals())
    components = [prod.factor_ideals(i) for i in ideals]
    assert len(set(components)) == len(ideals)
