"""Multivariate polynomial arithmetic over prime fields.

Provides normal forms, Buchberger's algorithm, and standard-monomial bases
of zero-dimensional quotients, all in one term order, degrevlex.
Coefficients live in F_p; monomials are plain tuples of exponents, one entry
per variable.

Polynomial text grammar (used by the CLI and by tests):
    poly   :=  term ('+' term)*
    term   :=  int | int '*' powers | powers
    powers :=  power ('*' power)*
    power  :=  var | var '^' int
Whitespace is ignored everywhere.
"""

from __future__ import annotations

import heapq
import operator
import re

from .errors import (
    NotZeroDimensionalError,
    PolynomialSyntaxError,
    StructureError,
)

Monomial = tuple  # exponent vectors, one non-negative int per variable

TABLE_CAP_DIM = 128  # most standard monomials, hence the largest quotient whose d^3-entry table is built


# Miller-Rabin on the first twelve prime bases is exact below psi_12, the
# least strong pseudoprime to all of them (Sorenson and Webster 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 318665857834031151167461


def _is_prime(p: int) -> bool:
    """Trial division by the bases, then Miller-Rabin on them; exact below PRIME_LIMIT."""
    if p < 2 or any(p % q == 0 for q in PRIME_BASES if q < p):
        return False
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in PRIME_BASES:
        if a >= p:
            break
        x = pow(a, (p - 1) >> s, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic modulo a prime p.  Elements are plain ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise StructureError(f"{p} is not below {PRIME_LIMIT}, where the primality test stops being exact")
        if not _is_prime(p):
            raise StructureError(f"{p} is not prime")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))

def mon_divides(a: Monomial, b: Monomial) -> bool:
    """True when a divides b componentwise."""
    return all(map(operator.le, a, b))

def mon_div(b: Monomial, a: Monomial) -> Monomial:
    """Exponent vector of b/a; caller guarantees a divides b."""
    return tuple(map(operator.sub, b, a))

def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))

def mon_degree(m: Monomial) -> int:
    return sum(m)

def mon_coprime(a: Monomial, b: Monomial) -> bool:
    """True when a and b share no variable, so that their lcm is a*b."""
    return not any(x and y for x, y in zip(a, b))


def mon_text(variables, m: Monomial) -> str:
    """The monomial as text, x^2*y for (2, 1) over (x, y), and 1 for the unit."""
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(variables, m) if e) or "1"


def display_key(m: Monomial):
    """Graded key used for human-facing monomial sequences (1, x, y, x^2, ...)."""
    return (sum(m), tuple(reversed(m)))


def degrevlex(m: Monomial):
    """Sort key of the degree reverse lexicographic order, the one term order."""
    return (sum(m), tuple(map(operator.neg, reversed(m))))


_INT_RE = re.compile(r"[+-]?\d+$")
_POWER_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def _parse_int(digits: str) -> int:
    """int(digits), refusing numbers past the interpreter's digit limit as bad text."""
    try:
        return int(digits)
    except ValueError as exc:
        raise PolynomialSyntaxError(f"integer of {len(digits)} digits in polynomial text") from exc


class Polynomial:
    """Element of F_p[variables], stored as a canonical monomial -> coefficient map.

    The map is never written after construction, so leading() keeps its answer."""

    __slots__ = ("field", "variables", "terms", "_leading")

    def __init__(self, field: PrimeField, variables, terms):
        self.field = field
        self.variables = tuple(variables)
        n = len(self.variables)
        clean = {}
        for mon, coeff in terms.items():
            if len(mon) != n:
                raise StructureError("monomial length does not match variable count")
            c = coeff % field.p
            if c:
                clean[tuple(mon)] = c
        self.terms = clean
        self._leading = None

    @classmethod
    def parse(cls, field: PrimeField, variables, text: str) -> "Polynomial":
        """Parse the polynomial text grammar documented at module level."""
        variables = tuple(variables)
        index = {v: i for i, v in enumerate(variables)}
        s = re.sub(r"\s+", "", text)
        if not s:
            raise PolynomialSyntaxError("empty polynomial text")
        terms: dict = {}
        for chunk in s.split("+"):
            if not chunk:
                raise PolynomialSyntaxError(f"empty term in {text!r}")
            coeff = 1
            exps = [0] * len(variables)
            for factor in chunk.split("*"):
                if not factor:
                    raise PolynomialSyntaxError(f"empty factor in {text!r}")
                if _INT_RE.match(factor):
                    coeff *= _parse_int(factor)
                    continue
                m = _POWER_RE.match(factor)
                if not m:
                    raise PolynomialSyntaxError(f"bad factor {factor!r} in {text!r}")
                name, exp = m.group(1), m.group(2)
                if name not in index:
                    raise PolynomialSyntaxError(f"unknown variable {name!r} in {text!r}")
                exps[index[name]] += _parse_int(exp) if exp is not None else 1
            mon = tuple(exps)
            terms[mon] = terms.get(mon, 0) + coeff
        return cls(field, variables, terms)

    def _check_compatible(self, other: "Polynomial"):
        if self.field is other.field and self.variables is other.variables:
            return  # the common case: one family built from the same objects
        if self.field != other.field or self.variables != other.variables:
            raise StructureError("polynomials over different rings")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            terms[mon] = terms.get(mon, 0) + c
        return Polynomial(self.field, self.variables, terms)

    def __neg__(self):
        return Polynomial(self.field, self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.field, self.variables, {m: c * other for m, c in self.terms.items()})
        self._check_compatible(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = mon_mul(m1, m2)
                terms[mon] = terms.get(mon, 0) + c1 * c2
        return Polynomial(self.field, self.variables, terms)

    __rmul__ = __mul__

    def term_mul(self, coeff: int, mon: Monomial) -> "Polynomial":
        return Polynomial(
            self.field, self.variables, {mon_mul(m, mon): c * coeff for m, c in self.terms.items()}
        )

    def leading(self):
        """(monomial, coefficient) of the leading term, or None for the zero polynomial."""
        if self._leading is None and self.terms:
            mon = max(self.terms, key=degrevlex)
            self._leading = mon, self.terms[mon]
        return self._leading

    def monic(self) -> "Polynomial":
        lead = self.leading()
        if lead is None:
            return self
        return self * self.field.inv(lead[1])

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.variables, frozenset(self.terms.items())))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mon in sorted(self.terms, key=degrevlex, reverse=True):
            c = self.terms[mon]
            if not any(mon):
                parts.append(str(c))
            elif c == 1:
                parts.append(mon_text(self.variables, mon))
            else:
                parts.append(f"{c}*{mon_text(self.variables, mon)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"


def _check_family(polys):
    polys = list(polys)
    if not polys:
        raise StructureError("empty polynomial sequence")
    first = polys[0]
    for q in polys[1:]:
        first._check_compatible(q)
    return polys


class Divisors:
    """A reduction basis made ready for normal_form, so that many polynomials
    are divided by it at the cost of one check of its ring: its first element,
    which stands for the ring, and per nonzero element the leading monomial,
    the inverse of the leading coefficient and the terms."""

    __slots__ = ("first", "reducers")

    def __init__(self, basis):
        if not basis:
            raise StructureError("empty reduction basis")
        basis = _check_family(basis)
        self.first = basis[0]
        self.reducers = [(g.leading()[0], g.field.inv(g.leading()[1]), g.terms) for g in basis if not g.is_zero()]


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis, a sequence of polynomials or
    their Divisors.

    No remainder term is divisible by a leading monomial of the basis, and
    f minus the remainder lies in the ideal the basis generates.  The reducer
    is chosen deterministically (first match in basis order).
    """
    divisors = basis if isinstance(basis, Divisors) else Divisors(list(basis))
    f._check_compatible(divisors.first)
    p = f.field.p
    work = dict(f.terms)
    remainder = {}
    while work:
        mon = max(work, key=degrevlex)
        for lead, inverse, terms in divisors.reducers:
            if mon_divides(lead, mon):
                factor = work[mon] * inverse % p
                shift = mon_div(mon, lead)
                for m, c in terms.items():
                    t = mon_mul(m, shift)
                    work[t] = (work.get(t, 0) - factor * c) % p
                    if not work[t]:
                        del work[t]
                break
        else:
            remainder[mon] = work.pop(mon)
    return Polynomial(f.field, f.variables, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    f._check_compatible(g)
    mf, cf = f.leading()
    mg, cg = g.leading()
    lcm = mon_lcm(mf, mg)
    left = f.term_mul(f.field.inv(cf), mon_div(lcm, mf))
    right = g.term_mul(g.field.inv(cg), mon_div(lcm, mg))
    return left - right


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by gens.

    Pair selection is by (degree of the lcm, pair index), which makes the
    run, and hence the output order, deterministic.  Buchberger's first
    criterion drops every pair whose leading monomials are coprime: its
    S-polynomial has a standard representation by the pair itself
    (Buchberger, EUROSAM 1979; Gebauer and Moeller, JSC 1988).  Generators
    equal after monic() are kept once, before any pair is formed, so k
    copies of one relation form no pair among themselves.
    """
    gens = _check_family(gens)
    basis = list(dict.fromkeys(g.monic() for g in gens if not g.is_zero()))
    if not basis:
        return []
    pairs = []  # heap of (lcm degree, i, j), keyed once when the pair is made

    def add_pairs(j):
        lj = basis[j].leading()[0]
        for i in range(j):
            li = basis[i].leading()[0]
            if not mon_coprime(li, lj):
                heapq.heappush(pairs, (mon_degree(mon_lcm(li, lj)), i, j))

    for j in range(len(basis)):
        add_pairs(j)
    divisors = Divisors(basis)  # made again only when the basis grows
    while pairs:
        _, i, j = heapq.heappop(pairs)
        rem = normal_form(s_polynomial(basis[i], basis[j]), divisors)
        if not rem.is_zero():
            basis.append(rem.monic())
            divisors = Divisors(basis)
            add_pairs(len(basis) - 1)
    return _interreduce(basis)


def _interreduce(basis):
    """Minimalize and autoreduce a Groebner basis; result is the reduced basis.

    One pass suffices: reducing an element of a minimal basis keeps its
    leading monomial, and being reduced depends only on those monomials."""
    by_lead = sorted(basis, key=lambda g: degrevlex(g.leading()[0]))
    minimal = []
    for g in by_lead:
        lm = g.leading()[0]
        if not any(mon_divides(h.leading()[0], lm) for h in minimal):
            minimal.append(g)
    if len(minimal) > 1:
        minimal = [normal_form(g, minimal[:i] + minimal[i + 1 :]).monic() for i, g in enumerate(minimal)]
    return minimal


def is_groebner(basis) -> bool:
    """Buchberger's criterion: every S-polynomial reduces to zero.

    Pairs with coprime leading monomials are skipped, as in buchberger: their
    S-polynomials always have a standard representation (Buchberger's first
    criterion, EUROSAM 1979), so the answer is that of the all-pairs check."""
    basis = [g for g in _check_family(basis) if not g.is_zero()]
    if not basis:
        return True
    leads = [g.leading()[0] for g in basis]
    divisors = Divisors(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if mon_coprime(leads[i], leads[j]):
                continue
            if not normal_form(s_polynomial(basis[i], basis[j]), divisors).is_zero():
                return False
    return True


def standard_monomials(basis):
    """Monomials divisible by no leading monomial of a zero-dimensional Groebner
    basis, in display_key order.

    These form an F_p-basis of the quotient by the ideal, and an order ideal:
    every divisor of a standard monomial is standard.  So they grow degree by
    degree, each candidate of degree k + 1 being x_v*m for a standard m of
    degree k, and the walk visits at most n*d candidates.  Raises if the input
    fails the S-polynomial check, if some variable has no pure power among the
    leading monomials (the quotient is then infinite-dimensional), or as soon
    as more than TABLE_CAP_DIM monomials are standard.
    """
    basis = [g for g in _check_family(basis) if not g.is_zero()] if basis else []
    if not basis:
        raise StructureError("empty generating set")
    if not is_groebner(basis):
        raise StructureError("input is not a Groebner basis")
    nvars = len(basis[0].variables)
    leads = [g.leading()[0] for g in basis]
    if any(mon_degree(lm) == 0 for lm in leads):
        return []  # unit ideal, zero quotient
    for i in range(nvars):
        if not any(lm[i] == mon_degree(lm) for lm in leads):
            raise NotZeroDimensionalError(
                f"not zero-dimensional: no pure power of {basis[0].variables[i]} "
                "among the leading monomials"
            )
    steps = [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]
    layer = [(0,) * nvars]
    mons = list(layer)
    while layer:
        candidates = {mon_mul(m, step) for m in layer for step in steps}
        layer = sorted(
            (c for c in candidates if not any(mon_divides(lm, c) for lm in leads)), key=display_key
        )
        mons += layer
        if len(mons) > TABLE_CAP_DIM:
            raise StructureError(f"more than {TABLE_CAP_DIM} standard monomials: the quotient exceeds the table cap")
    return mons
