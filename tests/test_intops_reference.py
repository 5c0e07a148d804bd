"""The integer kernels of ``ncpoly.intops`` against sympy as an exact
reference that shares no code with them.

Matrices are small hypothesis-drawn integer matrices; half of the draws are
products of two random factors through an inner dimension below the size,
so rank-deficient and all-zero matrices come up often, besides the explicit
examples.
"""

from functools import reduce

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoly.intops import bareiss_det, int_rank, left_kernel, vec_content

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


def _sympy_matrix(rows, cols):
    return sympy.Matrix(len(rows), cols, [x for row in rows for x in row])


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
    assert int_rank(rows) == _sympy_matrix(rows, len(rows[0])).rank()


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
    w = list(w * reduce(sympy.ilcm, (x.q for x in w), 1))
    g = sympy.gcd_list(w)
    w = [x / g for x in w]
    lead = next(x for x in w if x)
    assert v == tuple(int(x if lead > 0 else -x) for x in w)


@SETTINGS
@given(st.lists(entries | st.integers(-10**30, 10**30), max_size=8))
@example([])
@example([0, 0, 0])
@example([-4, 6, 0])
def test_vec_content_matches_sympy_gcd(v):
    # folded pairwise from 0: gcd_list([-1]) would return -1
    assert vec_content(v) == reduce(sympy.gcd, v, sympy.Integer(0))
