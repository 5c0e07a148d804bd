import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest

from ncpoly.deformed import (
    _sign_label,
    build_deformed_cube,
    certify_epsilon,
    choose_epsilon,
    constraint_row,
    cube_vertices_labeled,
    deformation_rows,
    project_last,
    projected_cube,
    verify_combinatorial_cube,
)
from ncpoly.errors import ConstructionError, NcpolyError, SkeletonViolationError
from ncpoly.intops import bareiss_det, int_row
from ncpoly.polytope import (
    HPolytope,
    IncidenceStructure,
    VPolytope,
    vertices_and_tight_sets,
    vertices_from_hrep,
)
from ncpoly.skeleton import verify_skeleton_equivalence


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
    # the boundary of the allowed range is still a cube
    assert verify_combinatorial_cube(build_deformed_cube(3, 1)) is True
    # reads the 2048 tight sets of one H->V, with no face lattice
    assert verify_combinatorial_cube(build_deformed_cube(11, Fraction(1, 2))) is True


def test_sign_label_needs_exactly_one_side():
    assert _sign_label(frozenset({0, 3, 5}), 3) == (-1, 1, 1)
    # indices past the 2n paired inequalities are not read
    assert _sign_label(frozenset({0, 3, 5, 6}), 3) == (-1, 1, 1)
    assert _sign_label(frozenset({0, 1, 3, 5}), 3) is None
    assert _sign_label(frozenset({0, 3}), 3) is None


def _lattice_cube_check(h):
    # the check verify_combinatorial_cube made before it read tight sets
    # alone: rebuild the face lattice from the incidence of the 2n paired
    # inequalities and compare it with the n-cube's face by face, which
    # verify_skeleton_equivalence does at r = n - 1
    n = h.dim
    try:
        verts = vertices_and_tight_sets(h)
    except NcpolyError:
        return False
    if len(verts) != 2 ** n:
        return False
    labels = []
    for _, tight in verts:
        sides = [[s for s, j in ((-1, 2 * k), (1, 2 * k + 1)) if j in tight] for k in range(n)]
        if any(len(side) != 1 for side in sides):
            return False
        labels.append(tuple(side[0] for side in sides))
    if len(set(labels)) != 2 ** n:
        return False
    incidence = [
        frozenset(i for i, (_, tight) in enumerate(verts) if j in tight)
        for j in range(2 * n)
    ]
    if not all(incidence):
        return False
    return verify_skeleton_equivalence(IncidenceStructure(2 ** n, incidence, labels=labels), n, n - 1)


def _unit(n, k, sigma):
    return tuple(sigma if j == k else 0 for j in range(n))


def _cube_check_family():
    # seeded boxes in n = 2..4, whole, perturbed, cut, reordered and opened,
    # plus deformed cubes and broken copies of them
    rng = random.Random(7107)
    systems = []
    for n in range(2, 5):
        for _ in range(4):
            b = [rng.randint(1, 5) for _ in range(n)]
            box = [(_unit(n, k, sigma), b[k]) for k in range(n) for sigma in (-1, 1)]
            s = [rng.choice((-1, 1)) for _ in range(n)]
            # the corner s*b has s.x = sum(b); every other vertex is at least 2 below
            systems.append(box)
            systems.append(box + [(tuple(s), sum(b) - 1)])
            systems.append([(tuple(s), sum(b) - 1)] + box)
            systems.append(box + [(tuple(s), sum(b))])
            systems.append(box + [(tuple(s), sum(b) + 1), (tuple(-x for x in s), sum(b) + 3)])
            # pairs 1 and 2 both bound x_1, so labels repeat; the real pair 2 comes last
            systems.append(box[:2] + box[:2] + box[4:] + box[2:4])
            dropped = list(box)
            del dropped[rng.randrange(2 * n)]
            systems.append(dropped)
            pairs = [box[2 * k:2 * k + 2] for k in range(n)]
            rng.shuffle(pairs)
            systems.append([row for pair in pairs for row in (pair if rng.random() < 0.5 else pair[::-1])])
            shuffled = list(box)
            rng.shuffle(shuffled)
            systems.append(shuffled)
            perturbed = []
            for normal, rhs in box:
                scale = rng.randint(1, 3)
                normal = tuple(x * scale or Fraction(rng.randint(-2, 2), rng.randint(2, 4)) for x in normal)
                perturbed.append((normal, rhs * scale))
            systems.append(perturbed)
    for n in range(2, 8):
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1), Fraction(3, 37)):
            systems.append(build_deformed_cube(n, eps).inequalities)
    for n in range(2, 5):
        rows = build_deformed_cube(n, Fraction(1, 2)).inequalities
        systems.append(rows[:-1])
        # loosening the last pair's plus side lets it meet no vertex
        systems.append(rows[:-1] + ((rows[-1][0], 2 * rows[-1][1]),))
        systems.append(rows[2:] + rows[:2])
    # a triangular prism: each pair is a facet and the face opposite it, so
    # the six vertices carry distinct labels, but there are not eight
    systems.append([
        ((0, 0, -1), 1), ((0, 0, 1), 1),
        ((0, -1, 0), 0), ((0, 1, 0), 2),
        ((-1, -1, 0), 0), ((1, 1, 0), 2),
        ((-1, 0, 0), 0),
    ])
    return [HPolytope(len(rows[0][0]), rows) for rows in systems]


def test_cube_check_matches_lattice_reference():
    answers = []
    for h in _cube_check_family():
        want = _lattice_cube_check(h)
        assert verify_combinatorial_cube(h) is want, h.inequalities
        answers.append(want)
    assert (answers.count(True), answers.count(False)) == (87, 67)


def test_certify_refuses_epsilon_out_of_range():
    # checked before the n == d shortcut, with build_deformed_cube's error
    for n, d, eps in [(6, 4, 0), (5, 5, -7), (6, 4, 2), (4, 4, Fraction(3, 2)), (5, 3, Fraction(-1, 2))]:
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\]$"):
            certify_epsilon(n, d, eps)
    assert certify_epsilon(4, 2, 1) is False and certify_epsilon(4, 4, 1) is True


def test_certify_vacuous_when_n_equals_d():
    assert certify_epsilon(4, 4, Fraction(1, 2))
    assert choose_epsilon(4, 4) == Fraction(1, 2)


def test_certify_reference_minors_nonzero_at_zero():
    # the eps=0 matrix itself must have nonzero maximal minors
    n, d = 5, 3
    width = n - d
    for rows in combinations(range(2, n + 1), width):
        assert bareiss_det(deformation_rows(n, d, [(k, 1) for k in rows], 0)) != 0


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


# (n, d) -> e with choose_epsilon(n, d) == 1/2^e, recorded at the seed
EPS_EXPONENT = {
    (2, 2): 1, (3, 2): 1, (3, 3): 1, (4, 2): 1, (4, 3): 1, (4, 4): 1,
    (5, 2): 2, (5, 3): 1, (5, 4): 1, (5, 5): 1, (6, 2): 3, (6, 3): 2,
    (6, 4): 1, (6, 5): 1, (6, 6): 1, (7, 2): 4, (7, 3): 3, (7, 4): 2,
    (7, 5): 1, (7, 6): 1, (7, 7): 1, (8, 2): 6, (8, 3): 4, (8, 4): 3,
    (8, 5): 2, (8, 6): 1, (8, 7): 1, (8, 8): 1, (9, 2): 7, (9, 3): 6,
    (9, 4): 4, (9, 5): 3, (9, 6): 2, (9, 7): 1, (9, 8): 1, (9, 9): 1,
}


def test_choose_epsilon_matches_recorded_exponents():
    got = {
        (n, d): choose_epsilon(n, d) for n in range(2, 10) for d in range(2, n + 1)
    }
    assert got == {nd: Fraction(1, 2 ** e) for nd, e in EPS_EXPONENT.items()}


def _fraction_amatrix_row(n, d, k, sigma, eps):
    # the deformation-matrix row over the rationals, written out separately
    width = n - d
    row = [Fraction(0)] * width
    for j in range(1, min(k, width + 1)):
        row[j - 1] = Fraction((-1) ** k * comb(k - 2, j - 1))
    if k <= width:
        row[k - 1] = sigma * eps
    return tuple(row)


def test_integer_rows_are_the_cleared_rational_rows():
    # the integer row is the rational row times the lcm of its denominators;
    # at d = 0 its rational view is the cube's normal vector.  One call
    # returns the requested rows in the requested order, singly or together.
    rng = random.Random(5150)
    dyadic = [Fraction(1, 2 ** e) for e in rng.sample(range(1, 65), 4)]
    for eps in [Fraction(0), Fraction(1), Fraction(3, 37), Fraction(2, 9), *dyadic]:
        for n in range(1, 10):
            signed = [(k, sigma) for k in range(n, 0, -1) for sigma in (-1, 1)]
            for d in range(n + 1):
                want = [int_row(_fraction_amatrix_row(n, d, k, s, eps)) for k, s in signed]
                assert deformation_rows(n, d, signed, eps) == want, (n, d, eps)
                for (k, sigma), row in zip(signed, want):
                    assert deformation_rows(n, d, [(k, sigma)], eps) == [row], (n, d, k, sigma, eps)
            for k, sigma in signed:
                want = _fraction_amatrix_row(n, 0, k, sigma, eps)
                assert constraint_row(n, k, sigma, eps) == want


def _leibniz_det(rows):
    total = Fraction(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _certify_by_leibniz(n, d, eps):
    width = n - d
    for rows in combinations(range(2, n + 1), width):
        sign_rows = [k for k in rows if k <= width]
        for signs in product((-1, 1), repeat=len(sign_rows)):
            sigma = dict(zip(sign_rows, signs))
            at = [
                _leibniz_det([_fraction_amatrix_row(n, d, k, sigma.get(k, 1), e) for k in rows])
                for e in (eps, 0)
            ]
            if at[1] == 0 or at[0] * at[1] <= 0:
                return False
    return True


def test_certificate_matches_rational_determinants():
    # eps = 1 makes some minors vanish, e.g. rows {2, 3} of (4, 2); the
    # seeded draws add eps p/q < 1 with q <= 40, accepted and refused alike
    rng = random.Random(6106)
    drawn = [Fraction(rng.randint(1, q - 1), q) for q in rng.sample(range(2, 41), 8)]
    accepted = refused = 0
    for eps in (Fraction(3, 37), Fraction(2, 9), Fraction(1, 3), Fraction(4, 5), Fraction(5, 7), 1, *drawn):
        for n in range(3, 7):
            for d in range(2, n):
                want = _certify_by_leibniz(n, d, eps)
                assert certify_epsilon(n, d, eps) == want, (n, d, eps)
                accepted += want
                refused += not want
    assert accepted > 30 and refused > 5
