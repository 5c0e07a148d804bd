"""Exact integer matrix routines.

These are the kernels behind the eps certificate, the positive-circuit test
and the hull.  Everything works on plain Python integers (arbitrary
precision), with fraction-free eliminations (Bareiss 1968) so intermediate
values stay integral.  Determinants come from ``bareiss_det``; rank and
kernels come from the one ``echelon`` routine, a flat list of (index, row,
pivot column) triples (a left kernel is the right kernel of the columns);
the rays of the hull's simplicial start, the adjugate's columns, come from
one Gauss-Jordan elimination beside the identity (``simplicial_rays``).
Rational rows enter through ``clear_denominators``.  The innermost loops
(the content gcd) are single calls into C builtins, and a row is divided
by its content once, only when above 1.
"""

from fractions import Fraction
from math import gcd, lcm


def primitive(v):
    """Divide a vector by its content (no-op on zero vectors)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def clear_denominators(rows, scale=1):
    """Rows of int or Fraction entries over the positive int ``scale``, as
    ``(ints, den)``, row i being ``ints[i] / den``.  One positive scale for
    all rows keeps the sign of every minor and every left-kernel vector.  A
    float entry raises TypeError: it is not exact."""
    if type(scale) is not int or scale < 1:
        raise ValueError("scale must be a positive int")
    rows = tuple(map(tuple, rows))
    kinds = {type(x) for r in rows for x in r}
    for kind in kinds:
        if not issubclass(kind, (int, Fraction)):
            raise TypeError(f"entries must be int or Fraction, not {kind.__name__}")
    if kinds <= {int}:
        return rows, scale
    # Fractions (and bools) become ints over one common denominator
    den = lcm(*(x.denominator for r in rows for x in r))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in rows), scale * den


def bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free elimination.

    Intermediate entries are minors of the input, so they stay integral and
    do not blow up the way naive cross-multiplication would.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def echelon(rows):
    """Fraction-free echelon form of the rows, taken greedily in input order.

    Each row is reduced against the rows kept before it by cross-multiplying,
    then divided by its content.  It is kept when a nonzero entry remains,
    with its first nonzero column as pivot.
    Returns a list of (index in ``rows``, reduced row, pivot column) in input
    order, so its length is the rank; a kept row that needed no reduction is
    the input row itself, not a copy.  Stops once the rank equals the row
    width.
    """
    red = []
    for i, res in enumerate(rows):
        for _, prow, pc in red:
            t = res[pc]
            if t:
                pv = prow[pc]
                res = [pv * a - t * b for a, b in zip(res, prow)]
        g = gcd(*res)
        if g:
            if g > 1:
                res = [x // g for x in res]
            pc = 0
            while not res[pc]:
                pc += 1
            red.append((i, res, pc))
            if len(red) == len(res):
                break
    return red


def simplicial_rays(basis):
    """Extreme rays of the simplicial cone {u : b . u >= 0 for each row b}
    of a nonsingular square integer matrix B, in row order.

    Ray i is column i of B's adjugate, signed so that row i reads it
    positive, and made primitive: every other row reads it 0.  One
    fraction-free Gauss-Jordan elimination of B's transpose beside the
    identity: each step divides by the previous pivot exactly, and the
    right block ends as D B^-T with D diagonal, so its row i is D_ii times
    column i of B^-1.  Raises ArithmeticError when B is singular.
    """
    w = len(basis)
    m = [[*col, *(int(i == j) for j in range(w))] for i, col in enumerate(zip(*basis))]
    prev = 1
    for k in range(w):
        if not m[k][k]:
            for i in range(k + 1, w):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    break
            else:
                raise ArithmeticError("singular basis")
        row_k = m[k]
        pivot = row_k[k]
        for i, row_i in enumerate(m):
            if i != k:
                t = row_i[k]
                m[i] = [(pivot * a - t * b) // prev for a, b in zip(row_i, row_k)]
        prev = pivot
    return [primitive(row[w:] if row[k] > 0 else [-x for x in row[w:]]) for k, row in enumerate(m)]
