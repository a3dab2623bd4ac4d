from hypothesis import example, given
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
def test_combine_matches_the_naive_sum(case):
    coeffs, rows, p = case
    naive = tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) % p for k in range(len(rows[0])))
    assert linalg.combine(coeffs, rows, p) == naive
