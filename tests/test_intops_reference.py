"""The integer kernels of ``ncpoly.intops`` against sympy as an exact
reference that shares no code with them, and ``signvec.cube_face`` and
``signvec.vertex_set`` against a naive sum over the subsets of a face's free
coordinates.

Matrices are small hypothesis-drawn integer matrices; half of the draws are
products of two random factors through an inner dimension below the size,
so rank-deficient and all-zero matrices come up often, besides the explicit
examples.
"""

import random
from functools import reduce
from itertools import product
from math import gcd
from operator import mul

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoly.intops import (
    bareiss_det,
    echelon,
    primitive,
    simplicial_rays,
)
from ncpoly.signvec import cube_face, vertex_set
from test_linalg import echelon_kernel, left_kernel

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

entries = st.integers(-6, 6)


@st.composite
def int_matrices(draw, rows, cols):
    m = draw(rows)
    c = draw(cols)
    if draw(st.booleans()):
        k = draw(st.integers(0, max(min(m, c) - 1, 0)))
        a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
        b = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
        return [tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(c)) for i in range(m)]
    return [tuple(draw(st.lists(entries, min_size=c, max_size=c))) for _ in range(m)]


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    return draw(int_matrices(st.just(n), st.just(n)))


@st.composite
def kernel_matrices(draw):
    # (r+1) x r, the shape left_kernel takes
    r = draw(st.integers(0, 5))
    return draw(int_matrices(st.just(r + 1), st.just(r)))


@st.composite
def corank_one_systems(draw):
    # width - 1 rows over width columns of rank width - 1: a unit lower
    # triangular L times a staircase U with nonzero diagonal, columns
    # shuffled so the pivots come in any order
    width = draw(st.integers(1, 6))
    r = width - 1
    nonzero = st.integers(-6, -1) | st.integers(1, 6)
    lower = [[1 if j == i else draw(entries) if j < i else 0 for j in range(r)] for i in range(r)]
    upper = [
        [draw(nonzero) if j == i else draw(entries) if j > i else 0 for j in range(width)]
        for i in range(r)
    ]
    perm = draw(st.permutations(range(width)))
    rows = [
        tuple(sum(lower[i][t] * upper[t][perm[j]] for t in range(r)) for j in range(width))
        for i in range(r)
    ]
    return rows, width


def _sympy_matrix(rows, cols):
    return sympy.Matrix(len(rows), cols, [x for row in rows for x in row])


def _primitive_sympy_vector(w):
    # the sympy vector as a primitive integer tuple, first nonzero positive
    w = list(w * reduce(sympy.ilcm, (x.q for x in w), 1))
    g = sympy.gcd_list(w)
    w = [x / g for x in w]
    lead = next(x for x in w if x)
    return tuple(int(x if lead > 0 else -x) for x in w)


@SETTINGS
@given(square_matrices())
@example([])
@example([(0, 0), (0, 0)])
@example([(1, 2, 3), (2, 4, 6), (0, 1, 1)])
def test_bareiss_det_matches_sympy(rows):
    assert bareiss_det(rows) == _sympy_matrix(rows, len(rows)).det()


@SETTINGS
@given(int_matrices(st.integers(1, 6), st.integers(1, 6)))
@example([(0, 0, 0), (0, 0, 0)])
@example([(1, 2), (2, 4), (3, 6)])
def test_int_rank_matches_sympy(rows):
    # the rank of an integer matrix is the number of its echelon rows
    assert len(echelon(rows)) == _sympy_matrix(rows, len(rows[0])).rank()


@SETTINGS
@given(kernel_matrices())
@example([(0, 0), (0, 0), (0, 0)])
@example([(1, 1), (2, 2), (3, 3)])
@example([(2, -4), (1, 3), (5, 0)])
def test_left_kernel_matches_sympy_nullspace(rows):
    r = len(rows) - 1
    # the left kernel of rows is the right kernel of their transpose
    basis = _sympy_matrix(rows, r).T.nullspace()
    v = left_kernel(rows)
    if len(basis) != 1:
        assert v is None
        return
    (w,) = basis
    assert v == _primitive_sympy_vector(w)


@SETTINGS
@given(st.lists(entries | st.integers(-10**30, 10**30), max_size=8))
@example([])
@example([0, 0, 0])
@example([-4, 6, 0])
def test_primitive_matches_sympy_gcd(v):
    # folded pairwise from 0: gcd_list([-1]) would return -1
    g = int(reduce(sympy.gcd, v, sympy.Integer(0)))
    assert primitive(v) == (tuple(x // g for x in v) if g else tuple(v))


@SETTINGS
@given(int_matrices(st.integers(1, 6), st.integers(1, 6)))
@example([(0, 0, 0), (0, 0, 0)])
@example([(0, 2, 4), (3, 0, 6), (0, 4, 8), (1, 1, 1)])
@example([(2, -4), (1, 3), (5, 0)])
@example([(1, 2), (2, 4), (3, 6)])
def test_echelon_is_a_primitive_echelon_basis(rows):
    width = len(rows[0])
    red = echelon(rows)
    rank = _sympy_matrix(rows, width).rank()
    assert len(red) == rank
    indices = [i for i, _, _ in red]
    assert indices == sorted(set(indices))
    assert all(0 <= i < len(rows) for i in indices)
    pivots = [pc for _, _, pc in red]
    assert len(set(pivots)) == len(pivots)
    kept = [row for _, row, _ in red]
    for _, row, pc in red:
        assert len(row) == width
        assert gcd(*row) == 1
        assert row[pc] and not any(row[:pc])
    # the kept rows lie in the span of the input rows and have its rank
    assert _sympy_matrix(kept, width).rank() == rank
    assert _sympy_matrix(list(rows) + kept, width).rank() == rank


@SETTINGS
@given(corank_one_systems())
@example(([], 1))
@example(([(0, 1, 1), (1, 1, 0)], 3))
@example(([(0, 0, 2, 1), (0, 3, 0, 0), (1, 0, 0, 5)], 4))
def test_echelon_kernel_matches_sympy_nullspace(system):
    rows, width = system
    assert _sympy_matrix(rows, width).rank() == width - 1
    red = echelon(rows)
    assert len(red) == width - 1
    (w,) = _sympy_matrix(rows, width).nullspace()
    assert echelon_kernel(red, width) == _primitive_sympy_vector(w)


def _echelon_kernel_rays(basis):
    """The simplicial cone's rays as the hull built them before
    ``simplicial_rays``: one ``echelon`` and ``echelon_kernel`` per row,
    over the other rows, signed so that the row reads its ray positive."""
    width = len(basis)
    out = []
    for i, row in enumerate(basis):
        ray = echelon_kernel(echelon([b for j, b in enumerate(basis) if j != i]), width)
        out.append(ray if sum(map(mul, row, ray)) > 0 else tuple(-x for x in ray))
    return out


def _sympy_nullspace_rays(basis):
    width = len(basis)
    out = []
    for i, row in enumerate(basis):
        (w,) = _sympy_matrix([b for j, b in enumerate(basis) if j != i], width).nullspace()
        ray = _primitive_sympy_vector(w)
        out.append(ray if sum(map(mul, row, ray)) > 0 else tuple(-x for x in ray))
    return out


def test_simplicial_rays_match_echelon_kernel_and_sympy_nullspace():
    # seeded full-rank bases, some rows scaled so that their content is
    # above 1 and some entries zeroed so that pivots need a swap
    rng = random.Random(3501)
    checked = negative = scaled = 0
    while checked < 200:
        width = rng.randint(1, 7)
        basis = [
            tuple(
                rng.choice((1, 1, 2, 3)) * rng.randint(-5, 5) * (rng.random() < 0.7)
                for _ in range(width)
            )
            for _ in range(width)
        ]
        basis = [tuple(rng.choice((1, 2, 6)) * x for x in row) for row in basis]
        det = bareiss_det(basis)
        if not det:
            continue
        checked += 1
        negative += det < 0
        scaled += any(gcd(*row) > 1 for row in basis)
        assert simplicial_rays(basis) == _echelon_kernel_rays(basis) == _sympy_nullspace_rays(basis)
    assert negative > 50 and scaled > 50


@SETTINGS
@given(square_matrices())
@example([[0, 1], [1, 0]])
@example([[2, 4], [1, 2]])
@example([[0, 0, 3], [0, 2, 0], [-1, 0, 0]])
def test_simplicial_rays_match_sympy_nullspace(basis):
    if not _sympy_matrix(basis, len(basis)).det():
        with pytest.raises(ArithmeticError):
            simplicial_rays(basis)
        return
    assert simplicial_rays(basis) == _sympy_nullspace_rays(basis)


@pytest.mark.parametrize("n", range(7))
def test_cube_face_matches_naive_enumeration(n):
    # every disjoint (free, ones) over n coordinates: bit ones + s for each
    # subset s of free, as a sum over the subsets by their indices
    for free in range(2 ** n):
        pos = [i for i in range(n) if free >> i & 1]
        span = sum(
            1 << sum(1 << p for t, p in enumerate(pos) if bits >> t & 1)
            for bits in range(2 ** len(pos))
        )
        for ones in range(2 ** n):
            if not free & ones:
                assert cube_face(free, ones) == span << ones, (free, ones)
    # every face of the n-cube: exactly the cube vertices agreeing with it
    for sv in product((-1, 0, 1), repeat=n):
        inside = [
            v for v in range(2 ** n)
            if all(s == 0 or (v >> i & 1) == (s == 1) for i, s in enumerate(sv))
        ]
        assert vertex_set(sv) == sum(1 << v for v in inside), sv
