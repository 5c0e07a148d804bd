"""Exact linear algebra on the integer kernels of ``ncpoly.intops``.

Rational input enters through ``clear_denominators``, which scales every
row by one positive integer; the tests check the determinant, rank,
left-kernel and simplicial-cone routines against independent oracles and
that the scaling keeps every sign the certificate, the circuit test and the
chirotope read.  ``echelon_kernel`` is kept here as a reference.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd
from operator import mul

import pytest

from ncpoly.intops import (
    bareiss_det,
    clear_denominators,
    echelon,
    simplicial_rays,
)


def echelon_kernel(red, width):
    """Right kernel vector of a rank-deficient-by-one echelon system: a
    reference that back-substitutes one ``echelon`` list.

    ``red`` is an ``echelon`` of ``width - 1`` independent rows over
    ``width`` columns.  Returns the primitive integer vector u with
    row . u = 0 for every row, sign-normalized on its first nonzero entry.
    (The library's hull start called it once per ray before
    ``intops.simplicial_rays``.)
    """
    # the width - 1 pivots are distinct, so the free column is the one
    # missing from their sum
    free = width * (width - 1) // 2
    scale = 1
    for _, prow, pc in red:
        free -= pc
        scale *= prow[pc]
    u = [0] * width
    u[free] = scale if scale > 0 else -scale
    for _, prow, pc in reversed(red):
        # u[pc] is still 0 here, so the pivot column adds nothing
        q, rem = divmod(-sum(map(mul, prow, u)), prow[pc])
        if rem:
            raise ArithmeticError("non-integral back-substitution")
        u[pc] = q
    for x in u:
        if x:
            # divide once by the content, carrying the first nonzero sign
            g = gcd(*u) if x > 0 else -gcd(*u)
            return tuple([y // g for y in u])
    raise ArithmeticError("zero kernel vector")


def left_kernel(rows):
    """Left kernel of an (r+1) x r integer matrix of rank r: the right
    kernel of its columns, by ``echelon`` and ``echelon_kernel``, as the
    circuit test reads it.  Primitive, first nonzero entry positive; None
    below rank r.  (The library's ``intops.left_kernel`` before the circuit
    test built its columns directly.)"""
    r = len(rows) - 1
    red = echelon(list(zip(*rows)))
    return echelon_kernel(red, r + 1) if len(red) == r else None


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _leibniz_det(rows):
    # independent oracle over Fractions: sum over permutations
    total = Fraction(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _sign(x):
    return (x > 0) - (x < 0)


def test_determinant_identity():
    assert bareiss_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_determinant_2x2():
    assert bareiss_det([[1, 2], [3, 4]]) == -2


def test_determinant_vandermonde_product_formula():
    # independent oracle: prod_{i<j} (t_j - t_i)
    ts = (1, 2, 3, 4)
    expected = 1
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            expected *= ts[j] - ts[i]
    m = [[t ** k for k in range(4)] for t in ts]
    assert bareiss_det(m) == expected == 12


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        bareiss_det([[1, 2, 3], [4, 5, 6]])


def test_determinant_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    rows, den = clear_denominators(m)
    assert (rows, den) == (((105, 70), (42, 30)), 210)
    # every row is scaled by 210, so the determinant by 210^2
    assert Fraction(bareiss_det(rows), den ** 2) == Fraction(1, 14) - Fraction(1, 15)


def test_kernel_vector_by_inspection():
    assert left_kernel([(1, 0), (0, 1), (1, 1)]) == (1, 1, -1)


def test_kernel_vector_two_rows():
    assert left_kernel([(1,), (1,)]) == (1, -1)


def test_kernel_vector_collinear_points_betweenness():
    # three collinear points (0,0), (1,1), (3,3), homogenized along their
    # line; solved by hand: the middle point is the one whose coefficient
    # has the opposite sign
    m = [(0, 1), (1, 1), (3, 1)]
    v = left_kernel(m)
    assert v == (2, -3, 1)
    for j in range(2):
        assert sum(v[i] * m[i][j] for i in range(3)) == 0
    assert (v[0] > 0) and (v[2] > 0) and (v[1] < 0)


def test_kernel_vector_rank_error():
    # rank below the column count: no unique kernel direction
    assert left_kernel([(1, 1), (2, 2), (3, 3)]) is None


def test_kernel_vector_width_zero():
    assert left_kernel([()]) == (1,)


def test_rank_examples():
    assert len(echelon([[0, 0, 0], [0, 0, 0]])) == 0
    eye4 = [[int(i == j) for j in range(4)] for i in range(4)]
    assert len(echelon(eye4)) == 4
    moment = [[1, t, t * t] for t in (1, 2, 3, 5, 8)]
    assert len(echelon(moment)) == 3


def test_determinant_multiplicative_property():
    rng = random.Random(20260808)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(_matmul(a, b)) == bareiss_det(a) * bareiss_det(b)


def test_kernel_orthogonality_property():
    rng = random.Random(17)
    accepted = 0
    for _ in range(60):
        cols = rng.randint(1, 4)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(cols + 1)
        ]
        v = left_kernel(clear_denominators(m)[0])
        if v is None:
            continue
        accepted += 1
        # v is a kernel vector of the rows times one common scale, so it is
        # one of the rational rows
        for j in range(cols):
            assert sum(v[i] * m[i][j] for i in range(cols + 1)) == 0
    assert accepted > 20


def _nullity_by_rref(m, cols):
    # independent elimination over Fractions
    rows = [[Fraction(x) for x in r] for r in m]
    pivots = 0
    col = 0
    while pivots < len(rows) and col < cols:
        pivot = next((i for i in range(pivots, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[pivots], rows[pivot] = rows[pivot], rows[pivots]
        pv = rows[pivots][col]
        rows[pivots] = [x / pv for x in rows[pivots]]
        for i in range(len(rows)):
            if i != pivots and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pivots])]
        pivots += 1
        col += 1
    return cols - pivots


def test_rank_equals_cols_minus_nullity():
    rng = random.Random(99)
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        assert len(echelon(m)) == c - _nullity_by_rref(m, c)


def test_common_scale_keeps_minor_and_kernel_signs():
    # positive row scalings leave the sign of every minor and the sign
    # pattern of every left-kernel vector unchanged, and one common scale
    # leaves the primitive left-kernel vector itself unchanged; the rational
    # references are Leibniz determinants and Cramer's rule over Fractions
    rng = random.Random(3141)

    def rational_row(width):
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(width))

    def scaled(rows):
        out = []
        for r in rows:
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            out.append(tuple(c * x for x in r))
        return out

    singular = regular = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        m = [rational_row(n) for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            m[-1] = tuple(Fraction(-2, 3) * x for x in m[0])
        expected = _sign(_leibniz_det(m))
        singular += expected == 0
        for rows in (m, scaled(m)):
            cleared, den = clear_denominators(rows)
            assert den > 0 and all(type(x) is int for r in cleared for x in r)
            assert _sign(bareiss_det(cleared)) == expected

        m = [rational_row(n) for _ in range(n + 1)]
        if n > 1 and rng.random() < 0.2:
            m[1:] = [tuple(Fraction(3, 2) * x for x in m[0])] * n
        v = [(-1) ** i * _leibniz_det(m[:i] + m[i + 1:]) for i in range(n + 1)]
        lead = next((_sign(x) for x in v if x), 0)
        expected = None if lead == 0 else tuple(lead * _sign(x) for x in v)
        regular += expected is not None
        for rows in (m, scaled(m)):
            k = left_kernel(clear_denominators(rows)[0])
            assert (None if k is None else tuple(map(_sign, k))) == expected
        if expected is not None:
            # Cramer's vector v, cleared, made primitive and led positive
            w = clear_denominators([v])[0][0]
            g = lead * gcd(*w)
            assert left_kernel(clear_denominators(m)[0]) == tuple(x // g for x in w)
    assert singular > 20 and 100 < regular < 140


def test_echelon_kernel_matches_fraction_elimination():
    # the integer back-substitution must agree with a plain rational solve
    rng = random.Random(424242)
    checked = 0
    for _ in range(200):
        width = rng.randint(2, 6)
        rows = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(width - 1)]
        red = echelon(rows)
        if len(red) != width - 1:
            continue
        u = echelon_kernel(red, width)
        checked += 1
        for row in rows:
            assert sum(a * b for a, b in zip(row, u)) == 0
        # rational route: solve with the free column pinned to 1
        pivots = {pc for _, _, pc in red}
        free = next(c for c in range(width) if c not in pivots)
        x = [Fraction(0)] * width
        x[free] = Fraction(1)
        for _, row, pc in reversed(red):
            x[pc] = -sum(Fraction(row[j]) * x[j] for j in range(width) if j != pc) / row[pc]
        scale = next(Fraction(u[i]) / x[i] for i in range(width) if x[i])
        assert all(Fraction(u[i]) == scale * x[i] for i in range(width))
    assert checked > 120


def test_simplicial_rays_by_inspection():
    assert simplicial_rays([]) == []
    assert simplicial_rays([(-4,)]) == [(-1,)]
    assert simplicial_rays([(1, 0), (0, 1)]) == [(1, 0), (0, 1)]
    # each row's ray is made primitive and signed so that the row reads it positive
    assert simplicial_rays([(2, 0), (0, -3)]) == [(1, 0), (0, -1)]
    # the zero pivot of (0, 1) is swapped with the row below it
    assert simplicial_rays([(0, 1), (1, 1)]) == [(-1, 1), (1, 0)]


def test_simplicial_rays_refuse_a_singular_basis():
    for basis in ([(0,)], [(1, 2), (2, 4)], [(1, 0, 0), (0, 1, 0), (1, 1, 0)]):
        with pytest.raises(ArithmeticError, match="singular basis"):
            simplicial_rays(basis)


def _fraction_inverse(rows):
    """The inverse of a nonsingular square matrix by Gauss-Jordan over the
    rationals."""
    w = len(rows)
    m = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(w)]
        for i, row in enumerate(rows)
    ]
    for k in range(w):
        p = next(i for i in range(k, w) if m[i][k])
        m[k], m[p] = m[p], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(w):
            if i != k and m[i][k]:
                m[i] = [a - m[i][k] * b for a, b in zip(m[i], m[k])]
    return [row[w:] for row in m]


def test_simplicial_rays_match_fraction_inverse():
    # ray i must be a positive multiple of column i of the inverse: rows
    # j != i read it 0 and row i reads it positive
    rng = random.Random(424242)
    checked = negative = 0
    while checked < 150:
        width = rng.randint(1, 6)
        rows = [tuple(rng.randint(-9, 9) for _ in range(width)) for _ in range(width)]
        if not bareiss_det(rows):
            continue
        checked += 1
        negative += bareiss_det(rows) < 0
        inverse = _fraction_inverse(rows)
        for i, ray in enumerate(simplicial_rays(rows)):
            assert gcd(*ray) == 1
            column = [inverse[j][i] for j in range(width)]
            scale = next(Fraction(r) / c for r, c in zip(ray, column) if c)
            assert scale > 0 and all(Fraction(r) == scale * c for r, c in zip(ray, column))
            assert [sum(map(mul, row, ray)) > 0 for row in rows] == [j == i for j in range(width)]
    assert negative > 50
