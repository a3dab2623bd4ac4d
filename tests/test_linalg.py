from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracelab import linalg


def test_rref_identity():
    mat, pivots = linalg.rref(((1, 0), (0, 1)), 2)
    assert mat == ((1, 0), (0, 1))
    assert pivots == (0, 1)


def test_rref_dependent_rows():
    mat, pivots = linalg.rref(((1, 1, 0), (1, 1, 0), (0, 0, 1)), 2)
    assert mat == ((1, 1, 0), (0, 0, 1))
    assert pivots == (0, 2)


def test_rref_mod_3_normalizes_leading_coefficients():
    mat, pivots = linalg.rref(((2, 1),), 3)
    assert mat == ((1, 2),)
    assert pivots == (0,)


def test_in_rowspace_and_coordinates():
    mat, pivots = linalg.rref(((1, 0, 1), (0, 1, 1)), 2)
    assert linalg.in_rowspace(mat, pivots, (1, 1, 0), 2)
    assert not linalg.in_rowspace(mat, pivots, (0, 0, 1), 2)


def test_right_kernel_annihilates():
    rows = ((1, 2, 0), (0, 1, 1))
    for p in (2, 3, 5):
        kernel = linalg.right_kernel(rows, 3, p)
        assert len(kernel) == 1
        for vec in kernel:
            for row in rows:
                assert sum(r * x for r, x in zip(row, vec)) % p == 0


def test_left_kernel_annihilates():
    # The left kernel {x : x @ rows = 0} is the right kernel of the transpose.
    rows = ((1, 0), (1, 0), (0, 1))
    kernel = linalg.right_kernel(list(zip(*rows)), 3, 2)
    assert len(kernel) == 1
    x = kernel[0]
    for c in range(2):
        assert sum(x[i] * rows[i][c] for i in range(3)) % 2 == 0


def test_left_kernel_of_empty_matrix_is_everything():
    kernel = linalg.right_kernel(list(zip(*[(), (), ()])), 3, 2)
    assert len(kernel) == 3


@st.composite
def _system(draw):
    """(rows, ncols, p): a homogeneous system, sparse or dense, maybe with no rows."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ncols = draw(st.integers(1, 7))
    entry = st.integers(0, p - 1) | st.just(0)
    rows = draw(st.lists(st.tuples(*[entry] * ncols), max_size=7))
    return rows, ncols, p


@given(_system())
def test_right_kernel_is_a_reduced_basis_of_the_kernel(case):
    rows, ncols, p = case
    kernel = linalg.right_kernel(rows, ncols, p)
    assert linalg.rref(kernel, p)[0] == kernel
    assert len(kernel) == ncols - linalg.rank(rows, p)
    for vec in kernel:
        assert all(sum(r * x for r, x in zip(row, vec)) % p == 0 for row in rows)


def test_rank_and_invertibility():
    assert linalg.rank(((1, 1), (1, 1)), 2) == 1
    assert linalg.is_invertible(((0, 1), (1, 0)), 2)
    assert not linalg.is_invertible(((1, 1), (1, 1)), 2)
    assert linalg.is_invertible((), 5)


@st.composite
def _combination(draw):
    """(coeffs, rows, p): rows reduced mod p; coeffs random, or zero but for
    one coefficient c (the zero vector at c = 0, a single unit at c = 1)."""
    p = draw(st.sampled_from((2, 3, 101)))
    n = draw(st.integers(1, 5))
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * width), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    coeffs = draw(
        st.integers(0, p - 1).map(lambda c: tuple(c if i == k else 0 for i in range(n)))
        | st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)
    )
    return coeffs, rows, p


@given(_combination())
@example(((0, 0), [(1, 2), (2, 1)], 3))
@example(((0, 1), [(1, 2), (2, 1)], 3))
@example(((0, 2), [(1, 2), (2, 1)], 3))
@example(((1, 2, 1), [(1, 2), (2, 1), (1, 1)], 3))
def test_combine_matches_the_naive_sum(case):
    coeffs, rows, p = case
    naive = tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) % p for k in range(len(rows[0])))
    assert linalg.combine(coeffs, rows, p) == naive


def _oracle_residual(matrix, pivots, vec, p):
    """reduce_vector as it was: eliminate the rows in order, each against the
    residual so far, which is right for any echelon basis whose rows are zero
    at the earlier pivots."""
    res = list(vec)
    for row, c in zip(matrix, pivots):
        f = res[c] % p
        if f:
            res = [(x - f * y) % p for x, y in zip(res, row)]
    return tuple(x % p for x in res)


@st.composite
def _vectors_and_probe(draw):
    """(vectors, probe, shifted, p): up to 8 sparse or dense vectors over
    F_p; a probe that is a combination of them, maybe plus another vector;
    and the probe with its entries shifted by multiples of p (so not reduced
    mod p)."""
    p = draw(st.sampled_from((2, 3, 5, 101, 2**61 - 1)))
    ncols = draw(st.integers(1, 7))
    entry = st.integers(0, p - 1) | st.sampled_from((0, 1, p - 1))
    vector = st.tuples(*[entry] * ncols)
    vectors = draw(st.lists(vector, max_size=8))
    coeffs = draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
    probe = [sum(c * v[k] for c, v in zip(coeffs, vectors)) % p for k in range(ncols)]
    if draw(st.booleans()):
        probe = [(x + y) % p for x, y in zip(probe, draw(vector))]
    shifts = draw(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols))
    return vectors, tuple(probe), tuple(x + s * p for x, s in zip(probe, shifts)), p


@given(_vectors_and_probe())
@example(([(1, 1), (0, 1)], (1, 0), (-1, 2), 2))
@example(([(1, 2, 0), (2, 1, 1)], (0, 0, 1), (3, -3, 4), 3))
def test_one_combination_residuals_match_the_sequential_elimination(case):
    vectors, probe, shifted, p = case
    matrix, pivots = linalg.rref(vectors, p)
    residual = _oracle_residual(matrix, pivots, shifted, p)
    assert linalg.reduce_vector(matrix, pivots, shifted, p) == residual
    assert all(0 <= x < p for x in residual)
    assert linalg.in_rowspace(matrix, pivots, probe, p) == (not any(residual))

    echelon, grown = [], []
    for k, v in enumerate(vectors):
        grew = linalg.extend(echelon, grown, v, p)
        assert grew == (linalg.rank(vectors[: k + 1], p) > linalg.rank(vectors[:k], p))
        assert all(row[c] == (i == j) for i, row in enumerate(echelon) for j, c in enumerate(grown))
    assert linalg.rref(echelon, p) == (matrix, pivots)
    assert linalg.reduce_vector(echelon, grown, shifted, p) == residual


def test_in_rowspace_compares_the_entries_as_given():
    # reduce_vector takes any ints; in_rowspace takes vectors reduced mod p,
    # as everywhere in linalg, and compares their entries as given
    mat, pivots = linalg.rref(((1, 0, 1),), 3)
    assert linalg.reduce_vector(mat, pivots, (4, 3, -2), 3) == (0, 0, 0)
    assert linalg.in_rowspace(mat, pivots, (1, 0, 1), 3)
    assert not linalg.in_rowspace(mat, pivots, (4, 3, -2), 3)


def _oracle_rref(rows, p):
    """rref as it was: every pivot row rescaled, every row eliminated on all
    its columns."""
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def _oracle_extend(echelon, pivots, vec, p):
    """extend as it was: every residual rescaled."""
    if not any(vec):
        return False
    residual = linalg.reduce_vector(echelon, pivots, vec, p)
    c = next((i for i, x in enumerate(residual) if x), None)
    if c is None:
        return False
    inv = pow(residual[c], p - 2, p)
    row = tuple(x * inv % p for x in residual)
    for i, other in enumerate(echelon):
        if other[c]:
            echelon[i] = linalg.combine((1, p - other[c]), (other, row), p)
    echelon.append(row)
    pivots.append(c)
    return True


@st.composite
def _raw_rows(draw):
    """(rows, p): 0-8 rows of 1-10 columns with entries in [-2p, 2p], not
    reduced mod p; rows may repeat or be zero, and entries are often 1 (a
    pivot that needs no rescale) or p - 1."""
    p = draw(st.sampled_from((2, 3, 5, 101, 2**61 - 1)))
    ncols = draw(st.integers(1, 10))
    entry = st.integers(-2 * p, 2 * p) | st.sampled_from((0, 1, p + 1, -1, p - 1))
    row = st.tuples(*[entry] * ncols) | st.just((0,) * ncols)
    rows = draw(st.lists(row, max_size=8))
    if rows and draw(st.booleans()):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    return rows, p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_raw_rows())
@example(([(1, 0, 1), (0, 1, 1), (1, 1, 0)], 2))
@example(([(2, 1, 4), (4, 2, -1), (0, 0, 0), (2, 1, 4)], 5))
def test_elimination_matches_the_rescaling_oracle(case):
    rows, p = case
    assert linalg.rref(rows, p) == _oracle_rref(rows, p)

    echelon, pivots, oracle, oracle_pivots = [], [], [], []
    for v in rows:
        v = tuple(x % p for x in v)
        assert linalg.extend(echelon, pivots, v, p) == _oracle_extend(oracle, oracle_pivots, v, p)
        assert (echelon, pivots) == (oracle, oracle_pivots)

    if rows:
        ncols = len(rows[0])
        kernel = linalg.right_kernel(rows, ncols, p)
        assert linalg.rref(kernel, p)[0] == kernel
        assert len(kernel) == ncols - linalg.rank(rows, p)
        assert all(sum(r * x for r, x in zip(row, vec)) % p == 0 for row in rows for vec in kernel)
