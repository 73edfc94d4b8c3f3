"""Small exact linear algebra kernel over the rationals.

Vectors are plain tuples of ``int`` or ``Fraction``; all routines are pure
and allocation-light since the rest of the package calls them in tight
loops.  The package has one integer row step, ``_eliminate``:
``p*row - a*pivot_row`` divided by its gcd.  The simplex tableau pivots
with it, ``cones._dd`` projects and combines its lines and rays with it,
the fraction-free ``echelon`` is built on it, and ``rank``,
``row_reduce``, ``reduce_mod_rowspace`` and ``solve_exact`` on
``echelon``.  There is no kernel routine: ``cones`` reads a cut's
equations off its tight masks.  No ``Fraction`` is built except for
``solve_exact``'s result, and an inexact entry such as a float raises
``TypeError``.  ``primitive``, which the tableau, ``_dd`` and ``echelon``
start from, takes the gcd first: only a vector with a ``Fraction`` entry
goes through ``clear_denominators``, and an integer one stays in ``int``s.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

_INT_TYPES = frozenset((int,))


def dot(a, b):
    return sum(map(mul, a, b))


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
    float, raises ``TypeError`` rather than being coerced.  ``v`` is read
    once: a tuple or a list as it is, any other iterable through a tuple.
    """
    if type(v) is not tuple and type(v) is not list:
        v = tuple(v)
    try:
        dens = [x.denominator for x in v]
    except AttributeError:
        raise TypeError(f"not an exact rational vector: {tuple(v)!r}") from None
    denom = lcm(*dens)
    return tuple([x.numerator * (denom // d) for x, d in zip(v, dens)]), denom


def primitive(v):
    """Scale ``v`` to a primitive integer vector, preserving direction, as
    a tuple of ``int``s; the zero vector stays zero.

    The gcd is taken first, so an integer vector never goes through
    ``clear_denominators``; an integer tuple that is already primitive is
    returned as it is.  Only a vector with a ``Fraction`` entry, on which
    ``gcd`` raises ``TypeError``, has its denominators cleared, and a float
    or str entry raises ``TypeError`` from there.  A bool entry counts as
    the ``int`` it equals.  Like ``clear_denominators`` it reads ``v`` once.
    """
    if type(v) is not tuple and type(v) is not list:
        v = tuple(v)
    try:
        g = gcd(*v)
    except TypeError:
        v, _ = clear_denominators(v)
        g = gcd(*v)
    if g > 1:
        return tuple([x // g for x in v])
    if type(v) is tuple and _INT_TYPES.issuperset(map(type, v)):
        return v
    return tuple(map(int, v))


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


def _eliminate(row, pivot_row, p, a):
    """The one integer row step: ``p*row - a*pivot_row`` over its gcd, as a
    tuple (``row`` itself, already primitive, when ``a`` is 0).  With ``p > 0``
    and ``a`` the entries of ``pivot_row`` and ``row`` in one column, it is a
    positive multiple of the exact step clearing that column."""
    if not a:
        return row
    row = [p * x - a * y for x, y in zip(row, pivot_row)]
    g = gcd(*row)
    return tuple([x // g for x in row] if g > 1 else row)


def echelon(rows):
    """Reduced row-echelon form of a matrix over the rationals, fraction-free.

    Returns the primitive integer rows of the unique reduced row-echelon
    form, zero rows dropped, sorted by pivot column; each pivot is positive
    and the only nonzero entry of its column.  Rows are made primitive
    first, so a float entry raises ``TypeError``.
    """
    todo = [row for row in map(primitive, rows) if any(row)]
    done = []  # (pivot column, row)
    while todo:
        pivot_row = todo.pop()
        col = next(j for j, x in enumerate(pivot_row) if x != 0)
        if pivot_row[col] < 0:
            pivot_row = vneg(pivot_row)
        p = pivot_row[col]
        done = [(c, _eliminate(row, pivot_row, p, row[col])) for c, row in done]
        todo = [_eliminate(row, pivot_row, p, row[col]) for row in todo]
        todo = [row for row in todo if any(row)]
        done.append((col, pivot_row))
    return [row for _, row in sorted(done)]


def rank(rows):
    """Rank of a matrix given as an iterable of equal-length vectors."""
    return len(echelon(rows))


def row_reduce(rows):
    """Reduced row-echelon form with primitive integer rows, zero rows dropped.

    Canonical for a given row space, so usable as an identity key.
    """
    return tuple(echelon(rows))


def reduce_mod_rowspace(v, ref_rows):
    """Reduce ``v`` modulo the row space of ``ref_rows``, a reduced-echelon
    basis with positive pivots as ``row_reduce`` returns it: each pivot
    column of ``v`` is cleared in turn.

    The result is a primitive integer vector, a positive multiple of the
    exact reduction.
    """
    out = primitive(v)
    for row in ref_rows:
        col = next(j for j, x in enumerate(row) if x != 0)
        out = _eliminate(out, row, row[col], out[col])
    return out


def solve_exact(rows, rhs):
    """Solve ``rows @ x = rhs`` exactly.

    Returns one solution (free variables set to zero) or ``None`` if the
    system is inconsistent.  ``rows`` may be rank-deficient or
    overdetermined.
    """
    augmented = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    if not augmented:
        return ()
    ncols = len(augmented[0]) - 1
    x = [Fraction(0)] * ncols
    for row in echelon(augmented):
        col = next(j for j, v in enumerate(row) if v != 0)
        if col == ncols:
            return None
        x[col] = Fraction(row[-1], row[col])
    return tuple(x)


def mat_apply(matrix, v):
    """Apply a matrix (sequence of rows) to a vector."""
    return tuple(dot(row, v) for row in matrix)
