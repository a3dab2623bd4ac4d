"""Exact dense linear algebra over a prime field F_p.

Vectors are tuples of ints in [0, p), matrices are tuples of row vectors.
Every basis this module reduces against is in rref: each row has a 1 at its
pivot and 0 at every other pivot (rref makes one, extend keeps one).  The
residual of v is then v minus one combination of the rows, the coefficients
being v's entries at the pivots, so a membership test is one combine.
combine adds a row whose coefficient is 1, as every one over F_2 is, in one
map over operator.add, and reduces mod p once.  Two rules cut the arithmetic
of elimination: a row whose pivot entry is already 1 (every one over F_2) is
not rescaled, and clearing pivot column c touches only columns c.. of a row,
since the pivot row is zero left of c.  The ambient dimensions in this
package are tiny, so no asymptotically faster method is worth its code.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import add, mod, sub


def rref(rows, p):
    """Reduced row echelon form.

    Returns (matrix, pivots) where matrix is a tuple of nonzero rows with
    leading coefficient 1 and pivots is the tuple of pivot column indices.
    The rows may hold any ints.  A pivot row is rescaled only when its pivot
    entry is not 1, and it is subtracted from the other rows on columns c..
    alone, c its pivot: rows r.. are zero at every column before c.
    """
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return (), ()
    n, ncols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        for pivot in range(r, n):
            if mat[pivot][c]:
                break
        else:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        row = mat[r]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = mat[r] = [(x * inv) % p for x in row]
        for i in range(n):
            if i != r and mat[i][c]:
                other = mat[i]
                f = other[c]
                other[c:] = [(x - f * y) % p for x, y in zip(islice(other, c, None), islice(row, c, None))]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def reduce_vector(matrix, pivots, vec, p):
    """Residual of vec modulo the row space of a matrix in rref, as a tuple
    reduced mod p: vec minus the combination of the rows whose coefficients
    are vec's entries at the pivots, which is zero at every pivot."""
    coeffs = [vec[c] for c in pivots]
    if not any(coeffs):
        return tuple(map(mod, vec, repeat(p)))
    return tuple(map(mod, map(sub, vec, combine(coeffs, matrix, p)), repeat(p)))


def in_rowspace(matrix, pivots, vec, p):
    """Whether vec lies in the row space of a matrix in rref: whether it
    equals the combination of the rows whose coefficients are its entries at
    the pivots.

    vec's entries must be in [0, p), as everywhere in this module: they are
    compared as given, so reduce any other vector first (reduce_vector takes
    any ints).
    """
    coeffs = [vec[c] for c in pivots]
    if not any(coeffs):
        return not any(vec)
    return combine(coeffs, matrix, p) == tuple(vec)


def extend(echelon, pivots, vec, p):
    """Append vec's residual, scaled to a leading 1, to a basis in rref and
    its pivots (lists) when it is nonzero; True when the span grew.  A
    residual whose pivot entry is already 1 joins the basis as it is.

    The residual is zero at the earlier pivots, and its pivot is cleared from
    the earlier rows, so the grown basis is in rref too (its rows in the
    order they joined, not sorted by pivot).
    """
    if not any(vec):
        return False
    residual = reduce_vector(echelon, pivots, vec, p)
    c = next((i for i, x in enumerate(residual) if x), None)
    if c is None:
        return False
    row = residual
    if row[c] != 1:
        inv = pow(row[c], p - 2, p)
        row = tuple(x * inv % p for x in row)
    for i, other in enumerate(echelon):
        if other[c]:
            echelon[i] = combine((1, p - other[c]), (other, row), p)
    echelon.append(row)
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
    out = None
    for c, row in zip(coeffs, rows):
        if c == 1:
            out = row if out is None else list(map(add, out, row))
        elif c:
            if out is None:
                out = [0] * len(row)
            elif type(out) is tuple:
                out = list(out)
            for k, x in enumerate(row):
                out[k] += c * x
    return tuple(map(mod, out, repeat(p)))


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
