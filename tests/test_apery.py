"""Cross-engine oracle: the Apery algebra R/t^m R of a numerical semigroup ring.

For S of multiplicity m, R/t^m R has the basis t^w for w in the Apery set
Ap(S, m) = {w in S : w - m not in S}, and t^a * t^b is t^(a+b) when a + b lies
in Ap(S, m) and 0 otherwise.  It is built here as a bare FinAlgebra, so the
finalg engine answers questions that the numsgp engine answers about S.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracelab.finalg import FinAlgebra, IdealSubspace
from tracelab.numsgp import is_symmetric, semigroup_new
from tracelab.polyfp import PrimeField
from tracelab.verify import run_artinian_lp_suite


def apery_algebra(sgp, p):
    """R/t^m R over F_p, whose derived radical must be the span of t^w, w > 0."""
    m, window = sgp.multiplicity, sgp.conductor + sgp.multiplicity
    bits = sgp.bits & ~(sgp.bits << m) & ((1 << window) - 1)
    apery = [w for w in range(window) if bits >> w & 1]
    index = {w: k for k, w in enumerate(apery)}

    def monomial(w):
        return tuple(int(k == index.get(w)) for k in range(len(apery)))

    table = [[monomial(a + b) for b in apery] for a in apery]
    algebra = FinAlgebra(PrimeField(p), [f"t^{w}" for w in apery], table, monomial(0))
    # the rows e_1, ..., e_{m-1} are in rref as they stand
    assert algebra.radical() == IdealSubspace(p, len(apery), [monomial(w) for w in apery if w])
    return algebra


@st.composite
def semigroups_and_primes(draw):
    """2-3 generators with gcd 1, multiplicity at most 5 over F_2 and at most 3 over F_3."""
    p = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(2, 5 if p == 2 else 3))
    others = draw(st.lists(st.integers(m + 1, 3 * m + 1), min_size=1, max_size=2, unique=True))
    assume(math.gcd(m, *others) == 1)
    return semigroup_new([m, *others]), p


@settings(max_examples=100, deadline=None)
@given(semigroups_and_primes())
def test_apery_algebra_agrees_with_the_semigroup(case):
    sgp, p = case
    algebra = apery_algebra(sgp, p)
    symmetric = is_symmetric(sgp)
    assert algebra.dim == sgp.multiplicity
    # Kunz (1970): R/t^m R is Gorenstein exactly when S is symmetric
    assert algebra.is_gorenstein() == symmetric
    # its socle dimension is the type of S, the number of pseudo-Frobenius numbers
    pseudo_frobenius = [x for x in sgp.gaps if all(sgp.contains(x + g) for g in sgp.generators)]
    assert algebra.annihilator(algebra.radical()).dim == len(pseudo_frobenius)
    # the paper's depth-zero theorem: LP holds exactly for the Gorenstein ring
    assert run_artinian_lp_suite(algebra).verdict == ("holds" if symmetric else "fails")
