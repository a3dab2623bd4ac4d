import random

import pytest

from tracelab.finalg import algebra_from_presentation


@pytest.fixture(scope="session")
def chain_algebra():
    """F_2[x]/(x^3): local, Gorenstein, dimension 3."""
    return algebra_from_presentation(2, ("x",), ("x^3",))


@pytest.fixture(scope="session")
def fat_point():
    """F_2[x,y]/(x^2, x*y, y^2): local, not Gorenstein (socle = m)."""
    return algebra_from_presentation(2, ("x", "y"), ("x^2", "x*y", "y^2"))


@pytest.fixture(scope="session")
def square_corner():
    """F_2[x,y]/(x^2, y^2): local, Gorenstein, dimension 4."""
    return algebra_from_presentation(2, ("x", "y"), ("x^2", "y^2"))


def _monomial(rng, variables):
    """A monomial of degree 1 or 2, so that binomials survive the pure powers."""
    while True:
        exps = [rng.randrange(3) for _ in variables]
        if 0 < sum(exps) <= 2:
            return "*".join(f"{v}^{k}" for v, k in zip(variables, exps) if k)


BINOMIAL_MAX_DIM = {2: 5, 3: 4, 5: 3, 7: 3}


def _binomial_presentation(rng):
    """(p, variables, relations): a pure power of each variable, then one or two binomials."""
    p = rng.choice(tuple(BINOMIAL_MAX_DIM))
    variables = ("x", "y", "z") if p == 2 and rng.random() < 0.3 else ("x", "y")
    relations = [f"{v}^{rng.randrange(2, 4)}" for v in variables]
    for _ in range(rng.randrange(1, 3)):
        relations.append(f"{_monomial(rng, variables)} + {rng.randrange(1, p)}*{_monomial(rng, variables)}")
    return p, variables, relations


def _binomial_algebras(seed, count):
    """Distinct local algebras F_p[vars]/(pure powers, one or two binomials),
    small enough for the element sweep."""
    rng = random.Random(seed)
    out, labels = [], set()
    while len(out) < count:
        p, variables, relations = _binomial_presentation(rng)
        algebra = algebra_from_presentation(p, variables, relations)
        if algebra.dim <= BINOMIAL_MAX_DIM[p] and algebra.label not in labels:
            labels.add(algebra.label)
            out.append(algebra)
    return out


@pytest.fixture(scope="session")
def binomial_algebras():
    """The seeded generator of random binomial algebras: binomial_algebras(seed, count)."""
    return _binomial_algebras
