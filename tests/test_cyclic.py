from fractions import Fraction
from itertools import combinations

import pytest

from ncpoly.cyclic import (
    cyclic_configuration,
    cyclic_facet_count,
    gale_evenness_facets,
    positive_cocircuit_facets,
)
from ncpoly.errors import DimensionError
from ncpoly.intops import bareiss_det, clear_denominators, echelon
from ncpoly.polytope import VPolytope

# The chirotope and the dual configuration are oriented-matroid facts about
# the moment curve that only these tests read; the library itself recovers
# the facets from positive cocircuits.  Each reads the homogenized rows
# (scale,) + p of a VPolytope, which are (1, t, ..., t^d) up to a positive
# factor.


def moment_curve(ts, d):
    """The points (t, t^2, ..., t^d) for the given parameters, which may be
    ints, Fractions or strings like "1/10"."""
    return VPolytope(d, [tuple(Fraction(t) ** j for j in range(1, d + 1)) for t in ts])


def chirotope(v, subset):
    """Sign of the maximal minor on the given point subset."""
    subset = tuple(subset)
    if len(subset) != v.dim + 1:
        raise DimensionError("subset size must equal the rank")
    det = bareiss_det([(v.scale,) + v.coords[i] for i in subset])
    return 0 if det == 0 else (1 if det > 0 else -1)


def dual_configuration(v):
    """Representation of the dual: moment rows of complementary rank with
    every other row negated."""
    n = len(v.coords)
    dual_rank = n - (v.dim + 1)
    out = []
    for i, p in enumerate(v.coords):
        t = Fraction(p[0], v.scale)
        sign = 1 if i % 2 == 0 else -1
        out.append(tuple(sign * t ** j for j in range(dual_rank)))
    return tuple(out)


def rank_pair(v):
    return (
        len(echelon([(v.scale,) + p for p in v.coords])),
        len(echelon(clear_denominators(dual_configuration(v))[0])),
    )


def cocircuit_facets(v):
    """Facets read off the chirotope alone: a d-subset S spans a facet when
    det(rows of S, row j) has one nonzero sign over every j not in S."""
    n = len(v.coords)
    out = set()
    for s in combinations(range(n), v.dim):
        signs = {chirotope(v, s + (j,)) for j in range(n) if j not in s}
        if signs in ({1}, {-1}):
            out.add(frozenset(i + 1 for i in s))
    return out


def test_chirotope_always_positive_for_increasing_parameters():
    v = cyclic_configuration(6, 3)
    assert all(chirotope(v, s) == 1 for s in combinations(range(6), 4))


def test_chirotope_wrong_subset_size():
    v = cyclic_configuration(5, 2)
    with pytest.raises(DimensionError):
        chirotope(v, (0, 1))


def test_dimension_below_one_is_refused():
    # unchecked, d = -1 gave a rank-0 configuration and d = 0 failed later,
    # in positive_cocircuit_facets, with "points must be pairwise distinct"
    for d in (-1, 0):
        with pytest.raises(ValueError, match="need d >= 1"):
            cyclic_configuration(5, d)
    assert cyclic_configuration(5, 1).coords == ((1,), (2,), (3,), (4,), (5,))


def test_configuration_is_the_integer_moment_curve():
    v = cyclic_configuration(5, 3)
    assert v.scale == 1
    assert v.coords == tuple((t, t * t, t ** 3) for t in range(1, 6))
    assert v.labels is None


# any increasing parameters give the same combinatorial type


def test_parameters_as_ints():
    v = moment_curve([-1, 0, 2, 5], 2)
    assert v.scale == 1
    assert all(chirotope(v, s) == 1 for s in combinations(range(4), 3))
    assert positive_cocircuit_facets(v) == set(gale_evenness_facets(4, 2))


def test_parameters_as_fractions():
    ts = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(7, 5))
    v = moment_curve(ts, 2)
    assert v.points == tuple((t, t * t) for t in ts)
    assert all(chirotope(v, s) == 1 for s in combinations(range(4), 3))
    assert positive_cocircuit_facets(v) == set(gale_evenness_facets(4, 2))


def test_parameters_as_strings():
    v = moment_curve(["1/10", "1/5", "3/10", "2/5", "1/2", "3/5"], 3)
    assert v.points[0][0] == Fraction(1, 10)
    assert v.points[5] == (Fraction(3, 5), Fraction(9, 25), Fraction(27, 125))
    facets = positive_cocircuit_facets(v)
    assert facets == set(gale_evenness_facets(6, 3))
    assert len(facets) == cyclic_facet_count(6, 3)


def test_dual_minor_signs_follow_reorientation():
    # negating a row flips each maximal minor containing it; with rows
    # 2, 4, ... negated, the dual minor sign is (-1)^(number of even rows)
    v = cyclic_configuration(6, 3)
    dual = dual_configuration(v)
    dual_rank = len(dual[0])
    for subset in combinations(range(6), dual_rank):
        # the rows differ only in sign, so they clear over one denominator
        m = clear_denominators(dual[i] for i in subset)[0]
        plain = [tuple(v.coords[i][0] ** j for j in range(dual_rank)) for i in subset]
        flips = sum(1 for i in subset if i % 2 == 1)
        assert bareiss_det(m) == (-1) ** flips * bareiss_det(plain)
        assert bareiss_det(plain) > 0


def test_rank_sum_is_n():
    for (n, d) in [(5, 2), (6, 3), (7, 4), (8, 5)]:
        rp, rd = rank_pair(cyclic_configuration(n, d))
        assert rp == d + 1
        assert rp + rd == n


def test_polygon_facets():
    assert len(gale_evenness_facets(5, 2)) == 5
    assert cyclic_facet_count(5, 2) == 5
    assert set(gale_evenness_facets(4, 2)) == {
        frozenset(s) for s in [(1, 2), (2, 3), (3, 4), (1, 4)]
    }


def classical_gale_even(subset, n) -> bool:
    """Classical evenness: between any two values outside the subset there
    is an even number of subset elements."""
    inside = set(subset)
    outside = [i for i in range(1, n + 1) if i not in inside]
    for a, b in combinations(outside, 2):
        if sum(1 for k in inside if a < k < b) % 2:
            return False
    return True


def test_simplex_case_all_subsets():
    # n = d+1 gives a simplex: every d-subset is a facet
    assert len(gale_evenness_facets(5, 4)) == 5
    assert classical_gale_even((1, 2, 4, 5), 5)


def test_gale_evenness_facets_is_the_classical_filter():
    # the pairwise condition on every d-subset, in the same order
    for n in range(3, 13):
        for d in range(2, n):
            want = [
                frozenset(s)
                for s in combinations(range(1, n + 1), d)
                if classical_gale_even(s, n)
            ]
            assert gale_evenness_facets(n, d) == want, (n, d)


@pytest.mark.parametrize("n,d", [(4, 4), (3, 4), (5, 1), (5, 0), (1, 1)])
def test_facet_count_refuses_what_evenness_refuses(n, d):
    # there is no cyclic d-polytope on n <= d points, and none below d = 2
    with pytest.raises(ValueError, match="need n > d >= 2"):
        gale_evenness_facets(n, d)
    with pytest.raises(ValueError, match="need n > d >= 2"):
        cyclic_facet_count(n, d)


def test_count_formula_agreement():
    for n in range(3, 9):
        for d in range(2, n):
            assert len(gale_evenness_facets(n, d)) == cyclic_facet_count(n, d)


def test_c4_7_has_14_facets():
    assert cyclic_facet_count(7, 4) == 14


@pytest.mark.parametrize("n,d", [(n, d) for n in range(3, 11) for d in range(2, n)])
def test_cocircuits_match_evenness_and_oracle(n, d):
    # the oracle is the chirotope, not a hull: positive_cocircuit_facets
    # reads its facets off the hull of these same points
    v = cyclic_configuration(n, d)
    even = set(gale_evenness_facets(n, d))
    assert positive_cocircuit_facets(v) == even == cocircuit_facets(v)


def test_deletion_is_alternating():
    v = moment_curve(range(6), 2)
    sub = VPolytope(2, v.coords[1:])
    assert all(chirotope(sub, s) == 1 for s in combinations(range(5), 3))


def test_contraction_of_first_element_is_alternating():
    # with t1 = 0 the contraction is the first-row-and-column deletion;
    # rescaling rows by 1/t brings back moment rows, so minors stay positive
    contracted = moment_curve(range(6), 3).coords[1:]
    assert len(echelon(contracted)) == 3
    for subset in combinations(range(5), 3):
        assert bareiss_det([contracted[i] for i in subset]) > 0


def test_rank_cannot_exceed_point_count():
    with pytest.raises(DimensionError):
        cyclic_configuration(4, 5)
