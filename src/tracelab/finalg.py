"""Exact ideal calculus in finite-dimensional commutative algebras over F_p.

An algebra is given by a monomial basis and a multiplication table; ideals are
subspaces in reduced row echelon form that are closed under multiplication, so
ideal equality is matrix equality.  The matrix an IdealSubspace is made from is
in rref already: linalg.rref or linalg.right_kernel makes one.  An ideal keeps
the module data that an algebra computes for it (FinAlgebra._kept): its
generating rows, its minimal generators with rad*I and presentation, and its
annihilator, for the last algebra that asked, and nothing else is kept.  In the
local artinian algebras built here every non-unit is a zerodivisor, hence
traces are computed from the Hom-image definition rather than from a colon
formula (whose non-zerodivisor hypothesis would fail for proper ideals).
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import (
    EnumerationCapExceededError,
    NotLocalError,
    NotZeroDimensionalError,
    SearchBudgetExceededError,
    StructureError,
)
from .polyfp import Divisors, Polynomial, PrimeField, buchberger, mon_mul, mon_text, normal_form, standard_monomials

DEFAULT_HOM_CAP_EXPONENT = 22  # isomorphism search allows at most 2**22 candidate maps
SWEEP_BUDGET = 2**19  # enumerate_ideals visits at most this many subspaces of one local algebra


class IdealSubspace:
    """An ideal of a FinAlgebra as a canonical (rref) coefficient matrix.

    The matrix passed in is in rref, its rows tuples reduced mod p, as
    linalg.rref(rows, p)[0] makes one from any rows; the constructor trusts
    it, eliminates nothing and reads each pivot off a row's first 1.

    _kept is None or (algebra, data): the module data that algebra computed
    for the ideal (see FinAlgebra._kept), derived from the immutable matrix
    and dropped when another algebra asks.  Equality and hashing ignore it.
    """

    __slots__ = ("p", "ncols", "matrix", "pivots", "_kept")

    def __init__(self, p, ncols, matrix):
        self.p = p
        self.ncols = ncols
        self.matrix = tuple(matrix)
        self.pivots = tuple(row.index(1) for row in self.matrix)
        self._kept = None

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def contains_vector(self, vec) -> bool:
        """Whether vec, a tuple with entries in [0, p), lies in the ideal."""
        return linalg.in_rowspace(self.matrix, self.pivots, vec, self.p)

    def is_subspace_of(self, other: "IdealSubspace") -> bool:
        return all(other.contains_vector(row) for row in self.matrix)

    def __eq__(self, other):
        return (
            isinstance(other, IdealSubspace)
            and self.p == other.p
            and self.ncols == other.ncols
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.p, self.ncols, self.matrix))

    def __repr__(self):
        return f"IdealSubspace(dim={self.dim}, rows={self.matrix!r})"


class HomBasis:
    """F_p-basis of Hom(I, J) over the algebra, as FinAlgebra._hom_system
    solves for it: each map f is the vector of the images y_j = f(x_j) of I's
    minimal generators in J's coordinates, y_j at entries j*t..j*t+t-1 for
    t = dim J.  f sends the a-th basis row of I to sum_j r_{a,j}*y_j, r_{a,j}
    from the expressions of I's Nakayama record (minimal_generators).
    """

    __slots__ = ("domain", "codomain", "maps")

    def __init__(self, domain, codomain, maps):
        self.domain = domain
        self.codomain = codomain
        self.maps = tuple(maps)

    @property
    def dim(self) -> int:
        return len(self.maps)


def _square(rows, d, p, shape):
    """rows as d tuples of length d with entries in [0, p), or StructureError(shape).

    The range is tested once on the set of the matrix's entries; the rows are
    reduced mod p only when an entry is out of range, so rows that linalg
    built are kept as they are.
    """
    if len(rows) != d or any(len(row) != d for row in rows):
        raise StructureError(shape)
    entries = set().union(*rows)
    if not entries or (0 <= min(entries) and max(entries) < p):
        return tuple(map(tuple, rows))
    return tuple(tuple(x % p for x in row) for row in rows)


def _is_basis_vector(v):
    return v.count(0) == len(v) - 1 and 1 in v


def _identity(d):
    """The d x d identity matrix, its rows sliced from one tuple."""
    one = (0,) * (d - 1) + (1,) + (0,) * (d - 1)
    return tuple(one[d - 1 - i : 2 * d - 1 - i] for i in range(d))


_ZERO, _OTHER = -1, -2  # row kinds besides j, the kind of the unit row e_j


def _row_kinds(matrix):
    """Per row of the matrix: j for the unit row e_j, _ZERO for a zero row, else _OTHER."""
    kinds = []
    for row in matrix:
        nonzero = len(row) - row.count(0)
        kinds.append(_ZERO if not nonzero else row.index(1) if nonzero == 1 and 1 in row else _OTHER)
    return kinds


def _times(left, kinds, right, p):
    """The product left*right, given kinds = _row_kinds(left): row j of right
    for a unit row e_j, one shared zero row for a zero row, else linalg.combine."""
    zero = (0,) * len(right[0])
    return tuple(
        right[k] if k >= 0 else zero if k == _ZERO else linalg.combine(row, right, p) for row, k in zip(left, kinds)
    )


class FinAlgebra:
    """Finite-dimensional commutative F_p-algebra with a fixed basis.

    generators holds one action matrix per algebra generator (row m is g*e_m);
    the default is every table row (the basis).  The list is the algebra's
    certificate, and it builds the table: the constructor checks that the
    generators commute, then grows a basis from 1 under them, the matrix of
    each new basis vector being its parent's times the generator, and reads
    the table off those matrices (see _validate).  A table passed in must be
    commutative, have the unit as identity and equal the derived table; that
    holds exactly when it is associative, each generator is multiplication by
    its value at 1, and the generators generate the algebra.  Pass table=None
    to take the derived table.  The constructor then derives the radical from
    the table (see _nilradical), so Hom spaces, traces, isomorphism tests and
    the Gorenstein test work on every algebra.  product_algebra also passes
    its factor list: least_generator, product_ideal and factor_ideals need it
    on an algebra that is not local.
    """

    __slots__ = (
        "field",
        "dim",
        "basis_labels",
        "table",
        "unit",
        "label",
        "factors",
        "generators",
        "_presentation",
        "_radical",
    )

    def __init__(self, field, basis_labels, table, unit, label=None, factors=None, generators=None):
        self.field = field
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        d, p = self.dim, field.p
        shape = f"multiplication table is not {d} x {d} cells of length {d}"
        if table is not None and len(table) != d:
            raise StructureError(shape)
        self.table = None if table is None else tuple(_square(row, d, p, shape) for row in table)
        if len(unit) != d:
            raise StructureError(f"unit is not a vector of length {d}")
        self.unit = tuple(x % p for x in unit)
        self.label = label or f"F_{p}^{d}-algebra"
        self.factors = tuple(factors) if factors else None
        self.generators = self.table if generators is None else tuple(
            _square(g, d, p, f"generator {k} is not a {d} x {d} matrix") for k, g in enumerate(generators)
        )
        self._presentation = None
        self._validate()
        self._radical = self._nilradical()

    def _validate(self):
        """Derive the table from the generators, and check a table passed in
        against it: at most about n^2*d + 2*d^2 row operations for n
        generators, fewer where rows are unit or zero rows.

        M_a denotes the multiplication matrix of a, whose row i is e_i*a.  A
        table passed in must be commutative with M_1 the identity.  The
        generators' matrices must commute pairwise.  Then a basis v_k is grown
        from 1 breadth first: each v = g(w), for w in the basis and g a
        generator, that enlarges the span joins it with M_v = G*M_w, which is
        M_w*G as the generators commute.  A product of matrices takes row j of
        the right factor for a unit row e_j of the left one and a shared zero
        row for a zero row, and combines only the other rows.  The span must
        reach the whole algebra.  Table row m is M_v when v = e_m, and else
        sum_k c_k*M_{v_k} for e_m = sum_k c_k*v_k, c row m of the inverse of
        the matrix with rows v_k.

        Which candidates enlarge the span is decided exactly without
        linalg.extend where the walk already knows the answer.  A candidate
        equal to one tried before lies in the span, so it is skipped.  While
        every basis vector is a coordinate vector e_c, the span is the
        coordinate subspace on their indices c, so a coordinate candidate e_c
        enlarges it exactly when c is not among them; only the other
        candidates go through linalg.extend, and once one of them joins, all
        do.  The basis, and so the table, is the one that extending by every
        candidate gives.

        The derived table is commutative and associative with unit 1, and
        each g is multiplication by g(1).  Let C be the commutative matrix
        algebra the generators span and phi(c) = c(1) on C.  Each M_{v_k} lies
        in C with phi(M_{v_k}) = v_k, so phi is onto and M_a := sum_k c_k *
        M_{v_k} satisfies phi(M_a) = a for a = sum_k c_k*v_k.  phi is also
        one-to-one, since c(x) = c(M_x(1)) = M_x(c(1)) for c in C.  So M_a is
        the one matrix in C that sends 1 to a.  Define a*b = M_b(a).  Then
        a*b = M_b(M_a(1)) = M_a(M_b(1)) = b*a.  M_c*M_b lies in C and sends 1
        to b*c, so M_c*M_b = M_{b*c} and (a*b)*c = a*(b*c).  M_1 = identity,
        and G = M_g(1), since both lie in C and send 1 to g(1).  Every g(w) is
        tried, so the span is closed under the generators.  Conversely, for an
        associative table whose generators are multiplication maps that
        generate, the matrices commute and M_w*G is the true M_g(w), so the
        derived table is that table: a table passed in is accepted exactly
        when it is associative, each g is M_g(1), and the generators generate.
        """
        d, p = self.dim, self.field.p
        given, generators = self.table, self.generators
        identity = _identity(d)
        if given is not None:
            if tuple(zip(*given)) != given:
                raise StructureError("multiplication table is not commutative")
            if tuple(self.action(self.unit)) != identity:
                raise StructureError("unit does not act as the identity")
        broken = "multiplication table is not associative, or a generator is not multiplication by its value at 1"
        kinds = [_row_kinds(g) for g in generators]
        for k, g in enumerate(generators):
            for h, h_kinds in zip(generators[:k], kinds):
                if _times(g, kinds[k], h, p) != _times(h, h_kinds, g, p):
                    raise StructureError(broken)
        echelon, pivots, tried = [], [], set()
        coordinate = True  # every basis vector so far is a coordinate vector e_c

        def enlarges(v):
            nonlocal coordinate
            if v in tried:
                return False
            tried.add(v)
            if coordinate and _is_basis_vector(v):
                c = v.index(1)
                if c in pivots:
                    return False
                echelon.append(v)
                pivots.append(c)
                return True
            grew = linalg.extend(echelon, pivots, v, p)
            coordinate = coordinate and not grew
            return grew

        # (v, M_v) for the basis vectors; the list grows while it is walked
        basis = [(self.unit, identity)] if enlarges(self.unit) else []
        for w, action in basis:
            for g, g_kinds in zip(generators, kinds):
                v = linalg.combine(w, g, p)
                if enlarges(v):
                    basis.append((v, _times(g, g_kinds, action, p)))
        if len(basis) < d:
            raise StructureError("generators do not generate the algebra")
        rows = {v.index(1): action for v, action in basis if _is_basis_vector(v)}
        if len(rows) < d:
            # rref(v_k | e_k) has row m = (e_m | row m of the inverse)
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

    def _nilradical(self) -> IdealSubspace:
        """The nilradical, which is the Jacobson radical of an artinian
        algebra: the kernel of F^k for the Frobenius map F(x) = x^p and the
        least k >= 1 with p^k >= d.

        F is F_p-linear, since (x + y)^p = x^p + y^p in a commutative algebra
        of characteristic p and c^p = c on F_p, so row i of the matrix of F^k
        is e_i^(p^k): e_i^p by square-and-multiply, at most 2 log2(p)
        products, then k - 1 more applications of F.  A nilpotent x has a
        nilpotent d x d multiplication matrix, so x^(p^k) = 0 as p^k >= d;
        conversely x^(p^k) = 0 makes x nilpotent.
        """
        d, p = self.dim, self.field.p
        frobenius = []
        for i in range(d):
            # left to right over the bits of p after its leading 1, whose
            # square e_i^2 is table[i][i]; a power that reached 0 stays 0
            power = self.table[i][i]
            for n, bit in enumerate(bin(p)[3:]):
                if n and any(power):
                    power = self.mul(power, power)
                if bit == "1":
                    power = self.mul_basis(i, power)
            frobenius.append(power)
        rows, reach = frobenius, p
        while reach < d:
            rows = [linalg.combine(row, frobenius, p) for row in rows]
            reach *= p
        # only the nonzero equations: on a local algebra F^k has rank 1
        return IdealSubspace(p, d, linalg.right_kernel([c for c in zip(*rows) if any(c)], d, p))

    # -- elements ----------------------------------------------------------

    def basis_vector(self, i):
        return (0,) * i + (1,) + (0,) * (self.dim - i - 1)

    def zero_vector(self):
        return (0,) * self.dim

    def mul(self, u, v):
        return linalg.combine(u, self.action(v), self.field.p)

    def action(self, v):
        """The rows e_i * v: the matrix of multiplication by v, table row m when v = e_m."""
        if _is_basis_vector(v):
            return self.table[v.index(1)]
        return [self.mul_basis(i, v) for i in range(self.dim)]

    def mul_basis(self, i, v):
        """e_i * v, read from row i of the table (the regular representation of e_i)."""
        return linalg.combine(v, self.table[i], self.field.p)

    def all_elements(self):
        """Every element of the algebra, in lexicographic coordinate order."""
        return (tuple(v) for v in itertools.product(range(self.field.p), repeat=self.dim))

    def element(self, text: str):
        """Coordinate vector of a polynomial expression in the presentation variables:
        each monomial is a product of powers of the variables' values, taken by
        square-and-multiply."""
        if self._presentation is None:
            raise StructureError("algebra has no polynomial presentation")
        variables, values = self._presentation
        vec = self.zero_vector()
        for mon, c in Polynomial.parse(self.field, variables, text).terms.items():
            term = self.unit
            for x, e in zip(values, mon):
                while e:
                    if e & 1:
                        term = self.mul(term, x)
                    x, e = self.mul(x, x), e >> 1
            vec = linalg.combine((1, c), (vec, term), self.field.p)
        return vec

    def format_element(self, vec) -> str:
        parts = []
        for i in range(self.dim):
            c = vec[i] % self.field.p
            if not c:
                continue
            lab = self.basis_labels[i]
            if lab == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(lab)
            else:
                parts.append(f"{c}*{lab}")
        return " + ".join(parts) if parts else "0"

    def format_ideal(self, ideal: IdealSubspace) -> str:
        if ideal.dim == 0:
            return "0"
        return ", ".join(self.format_element(row) for row in ideal.matrix)

    # -- ideals ------------------------------------------------------------

    def zero_ideal(self) -> IdealSubspace:
        return IdealSubspace(self.field.p, self.dim, ())

    def unit_ideal(self) -> IdealSubspace:
        return IdealSubspace(self.field.p, self.dim, _identity(self.dim))

    def ideal_generate(self, gens) -> IdealSubspace:
        """Smallest ideal containing the given coordinate vectors."""
        p, rows = self.field.p, [tuple(g) for g in gens]
        return IdealSubspace(p, self.dim, linalg.rref(rows + [r for g in rows for r in self.action(g)], p)[0])

    def least_generator(self, ideal: IdealSubspace):
        """Least element, in the all_elements order, that generates the ideal;
        None when the ideal is not principal.

        On a local algebra the coordinate of an element of the ideal at the
        pivot of rref row r is its r-th rref coefficient, and those before it
        depend only on the earlier coefficients, so the coordinate order on the
        ideal is the lexicographic order on the coefficients.  By Nakayama the
        ideal is principal exactly when it has one minimal generator, row j,
        and its generators are then the elements outside m*ideal.  In the
        ideal's row coordinates m*ideal is in rref with every position but j
        as a pivot, so the rows after j lie in m*ideal and row j is the least
        element outside it.  An ideal of a product is generated blockwise.
        """
        if not self.is_local:
            parts = [f.least_generator(i) for f, i in zip(self.local_factors(), self.factor_ideals(ideal))]
            return None if None in parts else tuple(itertools.chain.from_iterable(parts))
        if ideal.dim == 0:
            return self.zero_vector()
        rows = self.minimal_generators(ideal)[0]
        return ideal.matrix[rows[0]] if len(rows) == 1 else None

    def is_ideal(self, sub: IdealSubspace) -> bool:
        """Whether the subspace is closed under multiplication by R.

        It is tested only under the generators, g*v for each rref row v and
        each generator g.  _validate certifies that the generators generate
        the algebra, so R is spanned by words in them applied to 1, and
        multiplication by such a word is the product of the generators'
        matrices.  A subspace closed under each generator is closed under
        every word, hence under their span, which is R.
        """
        p = self.field.p
        return all(sub.contains_vector(linalg.combine(row, g, p)) for row in sub.matrix for g in self.generators)

    def _kept(self, ideal: IdealSubspace, kind, compute):
        """compute(ideal), the ideal's module data of this kind over this
        algebra, computed on first use and kept with the ideal.

        The ideal holds (algebra, {kind: data}) in its _kept slot, tagged with
        the algebra object itself, which it keeps alive; when another algebra
        asks, the data is replaced.  Three kinds are kept: the generating rows,
        the Nakayama record (the minimal generators with rad*I and their
        presentation), and the annihilator.
        """
        tag, data = ideal._kept or (None, None)
        if tag is not self:
            data = {}
            ideal._kept = (self, data)
        if kind not in data:
            data[kind] = compute(ideal)
        return data[kind]

    def _generating_rows(self, ideal: IdealSubspace):
        """(v, action(v)) for the rref rows v of the ideal, in order, that the
        rows kept before them do not generate, stopping once the kept rows
        generate the whole ideal; kept with the ideal."""
        return self._kept(ideal, "generating rows", self._compute_generating_rows)

    def _compute_generating_rows(self, ideal: IdealSubspace):
        """_generating_rows, computed.

        The span of the kept rows' actions is the ideal they generate; it
        grows one echelon row at a time, and each row of the ideal is kept or
        already lies in it, so the kept rows generate the ideal.
        """
        p = self.field.p
        echelon, pivots, kept = [], [], []
        for v in ideal.matrix:
            if len(echelon) == ideal.dim:
                break
            if not linalg.in_rowspace(echelon, pivots, v, p):
                action = tuple(self.action(v))
                kept.append((v, action))
                for row in action:
                    linalg.extend(echelon, pivots, row, p)
        return tuple(kept)

    def ideal_product(self, left: IdealSubspace, right: IdealSubspace) -> IdealSubspace:
        """Span of u*v, u a row of left and v a generating row of right: every
        element of right is sum_j r_j*v_j, and u*(r_j*v_j) = (u*r_j)*v_j with
        u*r_j in left."""
        p = self.field.p
        rows = {linalg.combine(u, action, p) for _, action in self._generating_rows(right) for u in left.matrix}
        return IdealSubspace(p, self.dim, linalg.rref(rows, p)[0])

    def annihilator(self, ideal: IdealSubspace) -> IdealSubspace:
        """{r : r * ideal = 0}, kept with the ideal."""
        return self._kept(ideal, "annihilator", self._compute_annihilator)

    def _compute_annihilator(self, ideal: IdealSubspace) -> IdealSubspace:
        return self.colon_in_ring(self.zero_ideal(), ideal)

    def colon_in_ring(self, left: IdealSubspace, right: IdealSubspace) -> IdealSubspace:
        """{r : r * right is contained in left}, cut down from R one generating
        row w of right at a time.

        r*right lies in left exactly when each r*w does, since r*(a*w) =
        a*(r*w) and left is an ideal.  r -> r*w reduced modulo left is linear,
        so each step keeps the combinations of the basis so far whose images
        cancel.  The basis stays in rref: row i of C*K, for C a right_kernel
        basis and K the basis so far, both in rref, is row f_i of K, f_i the
        pivot of C's row i, plus later rows of K at columns not pivots of C.
        """
        p, d = self.field.p, self.dim
        kernel = [self.basis_vector(i) for i in range(d)]
        for _, action in self._generating_rows(right):
            images = [linalg.combine(r, action, p) for r in kernel]
            if left.dim:
                images = [linalg.reduce_vector(left.matrix, left.pivots, y, p) for y in images]
            kernel = [linalg.combine(c, kernel, p) for c in linalg.right_kernel(list(zip(*images)), len(kernel), p)]
        return IdealSubspace(p, d, kernel)

    # -- homomorphisms and traces -------------------------------------------

    def minimal_generators(self, ideal: IdealSubspace):
        """(rows, below, expressions, syzygies), the ideal's Nakayama record;
        kept with the ideal.

        rows index the minimal generators x_1..x_k among the rref rows: the
        rows at the pivots that are not pivots of below = rad*ideal.  Pivots
        of a subspace are pivots of the whole, and in the ideal's row
        coordinates rad*ideal is in rref on its own pivots, so those rows map
        to a basis of ideal/rad*ideal; by Nakayama they generate the ideal.

        One rref of the rows (e_i*x_j | tag (j, i)) presents the ideal: its
        top s = dim rows write the basis row v_a as sum_j r_{a,j}*x_j, r_{a,j}
        being tag block j, and expressions[a] holds r_{a,1}..r_{a,k}; its
        other rows span the syzygies of (x_j), each as its k blocks.
        """
        return self._kept(ideal, "minimal generators", self._compute_minimal_generators)

    def _compute_minimal_generators(self, ideal: IdealSubspace):
        p, d = self.field.p, self.dim
        below = self.ideal_product(self.radical(), ideal)
        rows = tuple(a for a, c in enumerate(ideal.pivots) if c not in below.pivots)
        k = len(rows)
        tagged = []
        for j, a in enumerate(rows):
            for i, product in enumerate(self.action(ideal.matrix[a])):
                tag = [0] * (k * d)
                tag[j * d + i] = 1
                tagged.append(product + tuple(tag))
        blocks = tuple(tuple(row[d + j * d : d + (j + 1) * d] for j in range(k)) for row in linalg.rref(tagged, p)[0])
        return rows, below, blocks[: ideal.dim], blocks[ideal.dim :]

    def _hom_system(self, domain: IdealSubspace, codomain: IdealSubspace):
        """A basis of Hom(domain, codomain) in HomBasis's form: the right_kernel
        of the constraints sum_j sigma_j*y_j = 0 on the k*t unknowns, one for
        each syzygy sigma in the domain's record (minimal_generators)."""
        p, d = self.field.p, self.dim
        rows, _, _, syzygies = self.minimal_generators(domain)
        # a codomain of full dimension is R, whose coordinates are the vectors themselves
        full = codomain.dim == d
        actions = [
            [v if full else tuple(v[c] for c in codomain.pivots) for v in self.action(w)]
            for w in codomain.matrix
        ]
        constraints = set()
        for sigma in syzygies:
            constraints.update(zip(*(linalg.combine(part, action, p) for part in sigma for action in actions)))
        return linalg.right_kernel(constraints, len(rows) * codomain.dim, p)

    def hom_module(self, domain: IdealSubspace, codomain: IdealSubspace) -> HomBasis:
        """Basis of the module of algebra-linear maps domain -> codomain, the
        kernel that _hom_system solves (see HomBasis).  trace_ideal and
        is_isomorphic call _hom_system itself, so a patch of this method alters
        only the Hom dimensions, as fault-injection tests need, and the
        benchmark's tracer counts its calls and the dimensions it returns."""
        return HomBasis(domain, codomain, self._hom_system(domain, codomain))

    def trace_ideal(self, ideal: IdealSubspace) -> IdealSubspace:
        """Ideal generated by all values f(v), f ranging over Hom(ideal, R).

        It is the span of the images y_j of the minimal generators over a basis
        of Hom; that span is already an ideal, since r*f is a map too.
        """
        p, d = self.field.p, self.dim
        # R has the identity as its rref basis, so y_j already is the element f(x_j)
        kernel = self._hom_system(ideal, self.unit_ideal())
        images = [vec[j : j + d] for vec in kernel for j in range(0, len(vec), d)]
        return IdealSubspace(p, d, linalg.rref(images, p)[0])

    def double_annihilator(self, ideal: IdealSubspace) -> IdealSubspace:
        """ann(ann(ideal)); independent oracle for the trace of a principal ideal."""
        return self.annihilator(self.annihilator(ideal))

    def is_isomorphic(
        self, left: IdealSubspace, right: IdealSubspace, hom_cap_exponent: int = DEFAULT_HOM_CAP_EXPONENT
    ) -> bool:
        """Exhaustive search of Hom(left, right) for a bijective map.

        Raises SearchBudgetExceededError when the Hom space holds more than
        2**hom_cap_exponent maps; the instance is then beyond desk scale and
        no answer is guessed.  An isomorphism maps rad*left onto rad*right, so
        left/rad*left and right/rad*right have the same dimension k.  A map f
        with images y_j of the minimal generators of left has
        f(left) + rad*right = F + rad*right, F the span of the y_j, so by
        Nakayama f is onto, hence bijective, exactly when the y_j span
        right/rad*right: a k x k test per candidate.  Isomorphic modules have
        equal annihilators, so unequal ones answer False after the budget
        check, which thus raises on the same inputs, and before right's
        record is read; then unequal k answer False before the search.
        """
        if left.dim != right.dim:
            return False
        if left == right:
            return True
        kernel = self._hom_system(left, right)
        h = len(kernel)
        if h == 0:
            return False
        p = self.field.p
        if (p**h - 1).bit_length() > hom_cap_exponent:
            raise SearchBudgetExceededError(
                f"Hom space has {p}^{h} elements, beyond the 2^{hom_cap_exponent} budget"
            )
        if self.annihilator(left) != self.annihilator(right):
            return False
        rows, below = self.minimal_generators(right)[:2]
        top = [right.pivots[a] for a in rows]
        k, t = len(self.minimal_generators(left)[0]), right.dim
        if k != len(top):
            return False

        def residue(coords):
            y = linalg.reduce_vector(below.matrix, below.pivots, linalg.combine(coords, right.matrix, p), p)
            return tuple(y[c] for c in top)

        rows_by_index = [[residue(vec[j * t : (j + 1) * t]) for vec in kernel] for j in range(k)]
        for coeffs in itertools.product(range(p), repeat=h):
            if not any(coeffs):
                continue
            combo = [linalg.combine(coeffs, rows, p) for rows in rows_by_index]
            if linalg.is_invertible(combo, p):
                return True
        return False

    # -- structure ----------------------------------------------------------

    @property
    def is_local(self) -> bool:
        """Local with residue field F_p: the radical has codimension 1."""
        return self._radical.dim == self.dim - 1

    def radical(self) -> IdealSubspace:
        """Jacobson radical, derived from the table (see _nilradical)."""
        return self._radical

    def local_factors(self):
        if self.is_local:
            return (self,)
        if self.factors:
            return self.factors
        raise StructureError("algebra carries neither a locality nor a product certificate")

    def is_gorenstein(self) -> bool:
        """Socle criterion: R is Gorenstein when the socle of each local factor
        is one-dimensional over that factor's residue field.  The socle
        ann(rad) is the sum of the factors' socles, none of them zero, and
        R/rad is the product of the residue fields, so that holds exactly when
        ann(rad) has F_p-dimension dim R - dim rad, whatever the residue fields."""
        rad = self.radical()
        return self.annihilator(rad).dim == self.dim - rad.dim

    def enumerate_ideals(self, cap_dim=None):
        """All ideals; for an algebra without factors, in the order (dim,
        pivots, matrix) of their rref matrices.

        The sweep builds every subspace of F_p^d in that order, in rref, and
        keeps those that is_ideal accepts.  Before it starts,
        EnumerationCapExceededError is raised when d exceeds cap_dim (default
        6 over F_2, 4 for p >= 3), or when the subspaces to visit,
        subspace_count(p, d), exceed SWEEP_BUDGET; each message states the
        work next to the cap.  For products of local algebras the enumeration
        runs blockwise (every ideal of a product is a product of ideals), and
        each factor is capped alone: the list is the itertools.product of the
        factors' lists, which is not sorted in that order.
        """
        if self.factors is not None:
            parts = [f.enumerate_ideals(cap_dim) for f in self.factors]
            return [
                self.product_ideal(combo) for combo in itertools.product(*parts)
            ]
        cap = cap_dim if cap_dim is not None else (6 if self.field.p == 2 else 4)
        if self.dim > cap:
            raise EnumerationCapExceededError(
                f"dimension {self.dim} exceeds the enumeration cap {cap}"
            )
        p, d = self.field.p, self.dim
        count = subspace_count(p, d)
        if count > SWEEP_BUDGET:
            raise EnumerationCapExceededError(
                f"{count} subspaces of F_{p}^{d} exceed the sweep budget {SWEEP_BUDGET}"
            )
        found = []
        for k in range(d + 1):
            for pivots in itertools.combinations(range(d), k):
                free = [
                    (r, c)
                    for r in range(k)
                    for c in range(pivots[r] + 1, d)
                    if c not in pivots
                ]
                for values in itertools.product(range(p), repeat=len(free)):
                    rows = [[0] * d for _ in range(k)]
                    for r in range(k):
                        rows[r][pivots[r]] = 1
                    for (r, c), val in zip(free, values):
                        rows[r][c] = val
                    sub = IdealSubspace(p, d, tuple(map(tuple, rows)))
                    if self.is_ideal(sub):
                        found.append(sub)
        return found

    # -- products ------------------------------------------------------------

    def product_ideal(self, components) -> IdealSubspace:
        """Embed one ideal per local factor as an ideal of the product algebra."""
        factors = self.local_factors()
        components = tuple(components)
        if len(components) != len(factors):
            raise StructureError("one ideal component per factor is required")
        rows = []
        off = 0
        for f, ideal in zip(factors, components):
            if ideal.ncols != f.dim:
                raise StructureError("ideal component does not match its factor")
            for row in ideal.matrix:
                rows.append((0,) * off + tuple(row) + (0,) * (self.dim - off - f.dim))
            off += f.dim
        return IdealSubspace(self.field.p, self.dim, rows)

    def factor_ideals(self, ideal: IdealSubspace):
        """Blockwise components of an ideal of a product algebra."""
        out = []
        off = 0
        for f in self.local_factors():
            rows = [row[off : off + f.dim] for row in ideal.matrix]
            out.append(IdealSubspace(self.field.p, f.dim, linalg.rref(rows, self.field.p)[0]))
            off += f.dim
        return tuple(out)


def subspace_count(p, d):
    """The number of subspaces of F_p^d, sum_k [d choose k]_p, by the
    Goldman-Rota recurrence G(n+1) = 2*G(n) + (p^n - 1)*G(n-1)."""
    before, count = 0, 1  # G(-1) and G(0); the n = 0 step multiplies G(-1) by p^0 - 1 = 0
    for n in range(d):
        before, count = count, 2 * count + (p**n - 1) * before
    return count


def algebra_from_presentation(p, variables, relations, label=None) -> FinAlgebra:
    """Quotient of F_p[variables] by the relations, certified local.

    The basis is the set of degrevlex standard monomials of a Groebner basis
    of the relations.  Row m of a variable x's matrix is x*m, a basis vector
    when x*m is standard and else the normal form of that border monomial;
    FinAlgebra builds the table from the standard variables' matrices and
    derives the radical.  Raises NotZeroDimensionalError when the quotient is
    infinite dimensional, StructureError past the table cap of
    standard_monomials, and NotLocalError unless the radical is the span of
    the non-constant standard monomials, whose rref pivots are 1..d-1 (mons[0]
    is 1).  The standard variables generate the algebra, and that span is the
    ideal they generate, so this holds exactly when they are nilpotent.
    Locality is thus certified at the origin only: F_2[x]/(x^2+1) is local
    but raises NotLocalError, and is presented as F_2[u]/(u^2), u = x + 1.
    """
    field = PrimeField(p)
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise StructureError("duplicate variable names")
    polys = [
        r if isinstance(r, Polynomial) else Polynomial.parse(field, variables, r)
        for r in relations
    ]
    groebner = buchberger(polys) if polys else []
    if label is None:
        rel_text = ", ".join(q.to_text() for q in polys)
        ring = f"F_{p}" + (f"[{','.join(variables)}]" if variables else "")
        label = f"{ring}/({rel_text})" if rel_text else ring
    if not groebner:
        if variables:
            raise NotZeroDimensionalError("no relations: the quotient is a polynomial ring")
        mons = [()]
    else:
        mons = standard_monomials(groebner)
        if not mons:
            raise NotLocalError("relations generate the unit ideal: the quotient is the zero ring")
    d = len(mons)
    index = {m: k for k, m in enumerate(mons)}
    identity = _identity(d)
    divisors = Divisors(groebner) if groebner else None

    def vector(mon):
        if mon in index:
            return identity[index[mon]]
        # the remainder's monomials are standard
        row = [0] * d
        for m, c in normal_form(Polynomial(field, variables, {mon: 1}), divisors).terms.items():
            row[index[m]] = c
        return tuple(row)

    steps = [tuple(int(i == v) for i in range(len(variables))) for v in range(len(variables))]
    matrices = [[vector(mon_mul(m, step)) for m in mons] for step in steps]

    labels = [mon_text(variables, m) for m in mons]
    # the standard variables generate the algebra: each non-constant standard
    # monomial is one of them times a standard monomial; mons[0] is 1
    generators = [matrices[v] for v, step in enumerate(steps) if step in index]
    algebra = FinAlgebra(field, labels, None, identity[0], label=label, generators=generators)
    if algebra.radical().pivots != tuple(range(1, d)):
        raise NotLocalError("a variable is not nilpotent: the non-constant monomials span no nilpotent ideal")
    algebra._presentation = (variables, [matrix[0] for matrix in matrices])
    return algebra


def _in_block(matrix, off, d):
    """A factor's square matrix placed in the diagonal block of a d x d matrix at offset off."""
    zero = (0,) * d
    rows = [zero] * d
    for m, row in enumerate(matrix):
        rows[off + m] = zero[:off] + tuple(row) + zero[off + len(row) :]
    return rows


def product_algebra(left: FinAlgebra, right: FinAlgebra) -> FinAlgebra:
    """Block-diagonal product of two algebras over the same prime field.

    The result is not local.  It derives its radical from the table like any
    algebra, and carries the flattened list of local factors, through which
    least_generator, product_ideal, factor_ideals and enumerate_ideals work
    blockwise.
    """
    if left.field != right.field:
        raise StructureError("product factors live over different fields")
    factors = tuple(left.local_factors()) + tuple(right.local_factors())
    d = sum(f.dim for f in factors)
    labels = []
    for k, f in enumerate(factors):
        labels.extend(f"{lab}@{k}" for lab in f.basis_labels)
    unit = []
    generators = []
    off = 0
    for f in factors:
        # each factor's generators, and its idempotent, whose action is the identity block
        generators.extend(_in_block(g, off, d) for g in (*f.generators, _identity(f.dim)))
        unit.extend(f.unit)
        off += f.dim
    return FinAlgebra(
        left.field,
        labels,
        None,
        unit,
        label=f"{left.label} x {right.label}",
        factors=factors,
        generators=generators,
    )
