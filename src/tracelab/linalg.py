"""Exact dense linear algebra over a prime field F_p.

Vectors are tuples of ints in [0, p), matrices are tuples of row vectors.
Everything here is pure and allocation-light; the ambient dimensions in this
package are tiny, so clarity beats asymptotics.
"""

from __future__ import annotations


def rref(rows, p):
    """Reduced row echelon form.

    Returns (matrix, pivots) where matrix is a tuple of nonzero rows with
    leading coefficient 1 and pivots is the tuple of pivot column indices.
    """
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


def reduce_vector(matrix, pivots, vec, p):
    """Residual of vec after elimination against an rref matrix."""
    res = list(vec)
    for row, c in zip(matrix, pivots):
        f = res[c] % p
        if f:
            res = [(x - f * y) % p for x, y in zip(res, row)]
    return tuple(x % p for x in res)


def extend(echelon, pivots, vec, p):
    """Append vec's residual, scaled to a leading 1, to an echelon basis and its
    pivots (lists) when it is nonzero; True when the span grew.

    Each appended row is zero at the earlier pivots, so reduce_vector, which
    eliminates the rows in order, still reduces against the grown basis.
    """
    if not any(vec):
        return False
    residual = reduce_vector(echelon, pivots, vec, p)
    c = next((i for i, x in enumerate(residual) if x), None)
    if c is None:
        return False
    inv = pow(residual[c], p - 2, p)
    echelon.append(tuple(x * inv % p for x in residual))
    pivots.append(c)
    return True


def combine(coeffs, rows, p):
    """Sum of c * row over paired coefficients and rows, mod p.

    coeffs is a tuple or list as long as rows.  rows is non-empty and its rows
    are tuples reduced mod p, as everywhere in this module: a single nonzero
    coefficient 1 returns its row itself.
    """
    nonzero = len(coeffs) - coeffs.count(0)
    if not nonzero:
        return (0,) * len(rows[0])
    if nonzero == 1 and 1 in coeffs:
        return rows[coeffs.index(1)]
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for k, x in enumerate(row):
                out[k] += c * x
    return tuple(x % p for x in out)


def in_rowspace(matrix, pivots, vec, p):
    return not any(reduce_vector(matrix, pivots, vec, p))


def right_kernel(rows, ncols, p):
    """Basis (tuple of vectors x) of {x : rows @ x = 0}, in rref.

    The rows are eliminated with their columns reversed.  The kernel vector of
    a free column f then has its 1 at f, zeros at the other free columns, and
    its other entries at pivot columns, which in the reversed order come before
    f, so after f in the given order: each vector's leading 1 is at its free
    column, where the others are zero.
    """
    mat, pivots = rref([row[::-1] for row in rows], p)
    basis = []
    for f in range(ncols - 1, -1, -1):  # reversed coordinates from the top: given columns left to right
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for row, c in zip(mat, pivots):
            vec[c] = (-row[f]) % p
        basis.append(tuple(vec[::-1]))
    return tuple(basis)


def rank(rows, p):
    return len(rref(rows, p)[0])


def is_invertible(square_rows, p):
    n = len(square_rows)
    return n == 0 or rank(square_rows, p) == n
