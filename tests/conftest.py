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


def _binomial_algebras(seed, count):
    """Distinct local algebras F_p[vars]/(pure powers, one or two binomials),
    small enough for the element sweep."""
    rng = random.Random(seed)
    max_dim = {2: 5, 3: 4, 5: 3, 7: 3}
    out, labels = [], set()
    while len(out) < count:
        p = rng.choice(tuple(max_dim))
        variables = ("x", "y", "z") if p == 2 and rng.random() < 0.3 else ("x", "y")
        relations = [f"{v}^{rng.randrange(2, 4)}" for v in variables]
        for _ in range(rng.randrange(1, 3)):
            relations.append(f"{_monomial(rng, variables)} + {rng.randrange(1, p)}*{_monomial(rng, variables)}")
        algebra = algebra_from_presentation(p, variables, relations)
        if algebra.dim <= max_dim[p] and algebra.label not in labels:
            labels.add(algebra.label)
            out.append(algebra)
    return out


@pytest.fixture(scope="session")
def binomial_algebras():
    """The seeded generator of random binomial algebras: binomial_algebras(seed, count)."""
    return _binomial_algebras
