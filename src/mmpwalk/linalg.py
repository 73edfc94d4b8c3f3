"""Small exact linear algebra kernel over the rationals.

Vectors are plain tuples of ``int`` or ``Fraction``; all routines are pure
and allocation-light since the rest of the package calls them in tight
loops.
"""

from fractions import Fraction
from math import gcd, lcm

Vec = tuple


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def vneg(a):
    return tuple(-x for x in a)


def is_zero(a):
    return all(x == 0 for x in a)


def clear_denominators(v):
    """``(ints, d)`` with ``v == ints / d`` and ``d`` the least common
    denominator of the entries of the rational vector ``v``.

    Entries are ``int`` or ``Fraction``; both carry ``numerator`` and
    ``denominator``, so no entry is converted.  Any other entry, such as a
    float, raises ``TypeError`` rather than being coerced.
    """
    try:
        denom = lcm(*(x.denominator for x in v))
    except AttributeError:
        raise TypeError(f"not an exact rational vector: {tuple(v)!r}") from None
    return tuple(x.numerator * (denom // x.denominator) for x in v), denom


def primitive(v):
    """Scale ``v`` to a primitive integer vector, preserving direction."""
    ints, _ = clear_denominators(v)
    g = gcd(*ints)
    if g == 0:
        return ints
    return tuple(x // g for x in ints)


def sign_canonical(v):
    """Primitive vector with the first nonzero entry positive.

    Used as a hyperplane identity: ``v`` and ``-v`` get the same key.
    """
    p = primitive(v)
    for x in p:
        if x > 0:
            return p
        if x < 0:
            return vneg(p)
    return p


def rank(rows):
    """Rank of a matrix given as an iterable of equal-length vectors.

    Fraction-free: rows are made primitive, each elimination step is
    ``row <- p * row - a * pivot_row`` over the integers and the result is
    divided by its gcd, so entries stay small and no Fraction is built.
    """
    mat = [row for row in map(primitive, rows) if any(row)]
    r = 0
    while mat:
        pivot_row = mat.pop()
        col = next(j for j, x in enumerate(pivot_row) if x != 0)
        p = pivot_row[col]
        r += 1
        rest = []
        for row in mat:
            a = row[col]
            if a != 0:
                row = [p * x - a * y for x, y in zip(row, pivot_row)]
                g = gcd(*row)
                if g == 0:
                    continue
                if g != 1:
                    row = [x // g for x in row]
            rest.append(row)
        mat = rest
    return r


def row_reduce(rows):
    """Reduced row-echelon form with primitive integer rows, zero rows dropped.

    Canonical for a given row space, so usable as an identity key.
    """
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][col]
        mat[r] = [a / pv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(primitive(row) for row in mat[:r] if any(x != 0 for x in row))


def reduce_mod_rowspace(v, ref_rows):
    """Reduce ``v`` modulo the row space of a reduced-echelon basis."""
    out = list(map(Fraction, v))
    for row in ref_rows:
        piv = next(i for i, x in enumerate(row) if x != 0)
        if out[piv] != 0:
            f = out[piv] / row[piv]
            out = [a - f * b for a, b in zip(out, row)]
    return tuple(out)


def solve_exact(rows, rhs):
    """Solve ``rows @ x = rhs`` exactly.

    Returns one solution (free variables set to zero) or ``None`` if the
    system is inconsistent.  ``rows`` may be rank-deficient or
    overdetermined.
    """
    mat = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    if not mat:
        return ()
    ncols = len(mat[0]) - 1
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][col]
        mat[r] = [a / pv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    for i in range(r, len(mat)):
        if mat[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = mat[i][ncols]
    return tuple(x)


def mat_apply(matrix, v):
    """Apply a matrix (sequence of rows) to a vector."""
    return tuple(dot(row, v) for row in matrix)
