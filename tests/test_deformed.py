from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from ncpoly.deformed import (
    amatrix_row,
    build_deformed_cube,
    certify_epsilon,
    choose_epsilon,
    cube_vertices_labeled,
    project_last,
    projected_cube,
    verify_combinatorial_cube,
)
from ncpoly.errors import ConstructionError, SkeletonViolationError
from ncpoly.intops import bareiss_det, int_row
from ncpoly.polytope import VPolytope, vertices_from_hrep


def test_interval_case():
    h = build_deformed_cube(1, Fraction(1, 2))
    v = vertices_from_hrep(h)
    assert set(v.points) == {(-2,), (2,)}


def test_second_constraint_shape():
    h = build_deformed_cube(2, Fraction(1, 2))
    # the k=2 pair reads (1/2)|x2| <= 4 - x1
    minus, plus = h.inequalities[2], h.inequalities[3]
    assert minus == ((Fraction(1), Fraction(-1, 2)), Fraction(4))
    assert plus == ((Fraction(1), Fraction(1, 2)), Fraction(4))


def test_epsilon_range_enforced():
    with pytest.raises(ValueError):
        build_deformed_cube(3, Fraction(3, 2))
    with pytest.raises(ValueError):
        build_deformed_cube(3, 0)


def test_square_case_vertices_by_hand():
    # n=2, eps=1/4: |x1| <= 4, (1/4)|x2| <= 8 - x1
    v = vertices_from_hrep(build_deformed_cube(2, Fraction(1, 4)))
    assert set(v.points) == {(4, 16), (4, -16), (-4, 48), (-4, -48)}
    assert all(abs(p[0]) == 4 for p in v.points)


@pytest.mark.parametrize("n,eps", [(2, Fraction(1, 2)), (3, Fraction(1, 4)), (4, Fraction(1, 2))])
def test_growth_bound_at_vertices(n, eps):
    v = vertices_from_hrep(build_deformed_cube(n, eps))
    for p in v.points:
        for k in range(1, n + 1):
            assert abs(p[k - 1]) < Fraction(2 ** (comb(k, 2) + 1)) / eps ** k


def test_combinatorial_cube_check():
    assert verify_combinatorial_cube(build_deformed_cube(2, Fraction(1, 2)))
    assert verify_combinatorial_cube(build_deformed_cube(3, Fraction(1, 4)))
    # boundary of the allowed range still reports a boolean
    assert verify_combinatorial_cube(build_deformed_cube(3, 1)) in (True, False)


def test_certify_vacuous_when_n_equals_d():
    assert certify_epsilon(4, 4, Fraction(1, 2))
    assert choose_epsilon(4, 4) == Fraction(1, 2)


def test_certify_reference_minors_nonzero_at_zero():
    # the eps=0 matrix itself must have nonzero maximal minors
    n, d = 5, 3
    width = n - d
    for rows in combinations(range(2, n + 1), width):
        assert bareiss_det([int_row(amatrix_row(n, d, k, 1, 0)) for k in rows]) != 0


def test_certify_stabilizes_down_the_ladder():
    n, d = 5, 3
    eps = Fraction(1, 2)
    seen_true = False
    for _ in range(10):
        if certify_epsilon(n, d, eps):
            seen_true = True
            break
        eps /= 2
    assert seen_true


def test_choose_epsilon_regression_constants():
    assert choose_epsilon(5, 4) == Fraction(1, 2)
    assert choose_epsilon(6, 4) == Fraction(1, 2)
    assert choose_epsilon(6, 5) == Fraction(1, 2)
    assert choose_epsilon(5, 2) == Fraction(1, 4)


def test_labels_are_tight_sign_patterns():
    v = cube_vertices_labeled(3, Fraction(1, 4))
    assert len(v.points) == 8
    assert len(set(v.labels)) == 8
    assert all(set(lab) <= {-1, 1} for lab in v.labels)


def test_project_last_identity_when_n_equals_d():
    v = cube_vertices_labeled(3, Fraction(1, 4))
    p = project_last(v, 3)
    assert p.points == v.points and p.labels == v.labels


def test_project_last_collision_error():
    v = VPolytope(2, [(0, 1), (1, 1)])
    with pytest.raises(SkeletonViolationError):
        project_last(v, 1)


def test_projected_cube_rejects_uncertified_epsilon():
    # (5,2) needs 1/4; 1/2 must be refused loudly
    assert not certify_epsilon(5, 2, Fraction(1, 2))
    with pytest.raises(ConstructionError):
        projected_cube(5, 2, Fraction(1, 2))


def test_shadow_has_all_labels():
    pc = projected_cube(4, 2)
    assert len(pc.shadow.points) == 16
    assert len(set(pc.shadow.labels)) == 16


def _has_alternating_of_size(subset, size):
    # greedy scan is optimal for the longest parity-alternating subsequence
    count = 0
    prev = None
    for x in subset:
        if prev is None or x % 2 != prev:
            count += 1
            prev = x % 2
            if count >= size:
                return True
    return count >= size


@pytest.mark.parametrize("n", range(3, 10))
def test_row_subsets_contain_alternating_core(n):
    # for n >= d >= 2r+2: every (n-1-r)-subset of {2..n} contains an
    # alternating subset of size n-d+1.  The bound is tight: at d = 2r+1
    # the all-even subset {2,4} already fails for (n,d,r) = (4,3,1).
    for d in range(2, n + 1):
        for r in range(0, (d - 2) // 2 + 1):
            need = n - d + 1
            take = n - 1 - r
            if take < need or take > n - 1:
                continue
            for subset in combinations(range(2, n + 1), take):
                assert _has_alternating_of_size(subset, need), (n, d, r, subset)


def test_alternating_core_bound_is_sharp():
    assert not _has_alternating_of_size((2, 4), 2)


def test_projection_to_the_plane_is_a_polygon():
    # 64 distinct shadow points in the plane whose hull uses all of them
    from ncpoly.polytope import f_vector, facets_from_vrep

    pc = projected_cube(6, 2)
    assert len(set(pc.shadow.points)) == 64
    inc = facets_from_vrep(pc.shadow)
    assert inc.facet_count == 64
    assert all(len(f) == 2 for f in inc.incidence)
    assert f_vector(inc) == (64, 64)
