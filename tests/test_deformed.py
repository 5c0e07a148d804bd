import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest

from ncpoly import deformed
from ncpoly.deformed import (
    _keeps_sign,
    _minor_table,
    _sign_label,
    _signed_minors,
    build_deformed_cube,
    certify_epsilon,
    choose_epsilon,
    common_epsilon,
    cube_vertices_labeled,
    deformation_columns,
    deformation_rows,
    project_last,
    projected_cube,
)
from ncpoly.errors import ConstructionError, NcpolyError, SkeletonViolationError
from ncpoly.intops import bareiss_det, clear_denominators
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


def test_build_refuses_a_float_epsilon():
    # 0.1 is not 1/10: as a Fraction it is 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="not float"):
        build_deformed_cube(3, 0.1)
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\]$"):
        build_deformed_cube(3, "3/2")


def test_certificate_refuses_a_float_epsilon():
    with pytest.raises(TypeError, match="not float"):
        certify_epsilon(5, 3, 0.25)
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\]$"):
        certify_epsilon(5, 3, 0)
    assert certify_epsilon(5, 3, "1/4") is certify_epsilon(5, 3, Fraction(1, 4))


def test_projected_cube_refuses_a_float_epsilon():
    with pytest.raises(TypeError, match="not float"):
        projected_cube(4, 3, 0.25)
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\]$"):
        projected_cube(4, 3, 2)
    assert projected_cube(4, 3, "1/4").epsilon == Fraction(1, 4)


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
    for n, eps in [(2, Fraction(1, 2)), (3, Fraction(1, 4)), (3, 1), (11, Fraction(1, 2))]:
        # eps = 1, the boundary of the allowed range, still gives a cube; at
        # n = 11 the check reads the 2048 tight sets of one H->V, with no
        # face lattice
        labels = cube_vertices_labeled(build_deformed_cube(n, eps)).labels
        assert len(set(labels)) == len(labels) == 2 ** n


def test_sign_label_needs_exactly_one_side():
    # tight masks: bit i is inequality i
    assert _sign_label(0b101001, 3) == (-1, 1, 1)
    # bits past the 2n paired inequalities are not read
    assert _sign_label(0b1101001, 3) == (-1, 1, 1)
    assert _sign_label(0b101011, 3) is None
    assert _sign_label(0b1001, 3) is None


def _lattice_cube_check(h):
    # the check cube_vertices_labeled made before it read tight sets
    # alone: rebuild the face lattice from the incidence of the 2n paired
    # inequalities and compare it with the n-cube's face by face, which
    # verify_skeleton_equivalence does at r = n - 1
    n = h.dim
    try:
        verts, _ = vertices_and_tight_sets(h)
    except NcpolyError:
        return False
    if len(verts) != 2 ** n:
        return False
    labels = []
    for _, tight in verts:
        sides = [[s for s, j in ((-1, 2 * k), (1, 2 * k + 1)) if tight >> j & 1] for k in range(n)]
        if any(len(side) != 1 for side in sides):
            return False
        labels.append(tuple(side[0] for side in sides))
    if len(set(labels)) != 2 ** n:
        return False
    facets = [
        sum(1 << i for i, (_, tight) in enumerate(verts) if tight >> j & 1)
        for j in range(2 * n)
    ]
    if not all(facets):
        return False
    return verify_skeleton_equivalence(IncidenceStructure(2 ** n, facets, labels=labels), n, n - 1)


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
        if want:
            labels = cube_vertices_labeled(h).labels
            assert len(set(labels)) == len(labels) == 2 ** h.dim, h.inequalities
        else:
            with pytest.raises(NcpolyError):
                cube_vertices_labeled(h)
        answers.append(want)
    assert (answers.count(True), answers.count(False)) == (87, 67)


def test_certify_refuses_epsilon_out_of_range():
    # checked before the n == d shortcut, with build_deformed_cube's error
    for n, d, eps in [(6, 4, 0), (5, 5, -7), (6, 4, 2), (4, 4, Fraction(3, 2)), (5, 3, Fraction(-1, 2))]:
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\]$"):
            certify_epsilon(n, d, eps)
    assert certify_epsilon(4, 2, 1) is False and certify_epsilon(4, 4, 1) is True


def test_certify_refuses_dimensions_out_of_range():
    for call, args in [
        (certify_epsilon, (5, 0, Fraction(1, 2))),
        (choose_epsilon, (5, 1)),
        (certify_epsilon, (3, 5, Fraction(1, 2))),
    ]:
        with pytest.raises(ValueError, match=r"^need n >= d >= 2$"):
            call(*args)


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
    v = cube_vertices_labeled(build_deformed_cube(3, Fraction(1, 4)))
    assert len(v.points) == 8
    assert len(set(v.labels)) == 8
    assert all(set(lab) <= {-1, 1} for lab in v.labels)


def test_project_last_identity_when_n_equals_d():
    v = cube_vertices_labeled(build_deformed_cube(3, Fraction(1, 4)))
    p = project_last(v, 3)
    assert p.points == v.points and p.labels == v.labels


def test_project_last_collision_error():
    v = VPolytope(2, [(0, 1), (1, 1)])
    with pytest.raises(SkeletonViolationError):
        project_last(v, 1)


@pytest.mark.parametrize("d", [0, -1])
def test_project_last_refuses_a_target_below_one(d):
    # a bad argument, not a collapsed projection or a dimension mismatch
    v = VPolytope(2, [(0, 1), (1, 1)])
    with pytest.raises(ValueError, match=r"^projection target must be at least 1$"):
        project_last(v, d)


def test_project_last_keeps_the_denominator():
    # at eps = 3/37 the cube's vertices share the denominator 27
    v = cube_vertices_labeled(build_deformed_cube(3, Fraction(3, 37)))
    p = project_last(v, 2)
    assert v.scale == p.scale == 27
    assert p.coords == tuple(c[1:] for c in v.coords)
    assert p.points == tuple(q[1:] for q in v.points) and p.labels == v.labels


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


# (n, d) -> e with choose_epsilon(n, d) == 1/2^e, recorded from the search
# that took one set of determinants per candidate eps: n <= 9 at the seed,
# n = 10..14 just before the search moved to one table of eps-free minors
EPS_EXPONENT = {
    (2, 2): 1, (3, 2): 1, (3, 3): 1, (4, 2): 1, (4, 3): 1, (4, 4): 1, (5, 2): 2,
    (5, 3): 1, (5, 4): 1, (5, 5): 1, (6, 2): 3, (6, 3): 2, (6, 4): 1, (6, 5): 1,
    (6, 6): 1, (7, 2): 4, (7, 3): 3, (7, 4): 2, (7, 5): 1, (7, 6): 1, (7, 7): 1,
    (8, 2): 6, (8, 3): 4, (8, 4): 3, (8, 5): 2, (8, 6): 1, (8, 7): 1, (8, 8): 1,
    (9, 2): 7, (9, 3): 6, (9, 4): 4, (9, 5): 3, (9, 6): 2, (9, 7): 1, (9, 8): 1,
    (9, 9): 1, (10, 2): 8, (10, 3): 7, (10, 4): 6, (10, 5): 4, (10, 6): 3, (10, 7): 2,
    (10, 8): 1, (10, 9): 1, (10, 10): 1, (11, 2): 9, (11, 3): 9, (11, 4): 7,
    (11, 5): 6, (11, 6): 4, (11, 7): 3, (11, 8): 2, (11, 9): 1, (11, 10): 1,
    (11, 11): 1, (12, 2): 10, (12, 3): 10, (12, 4): 9, (12, 5): 7, (12, 6): 6,
    (12, 7): 4, (12, 8): 3, (12, 9): 2, (12, 10): 1, (12, 11): 1, (12, 12): 1,
}
EPS_EXPONENT_SLOW = {(13, 4): 10, (13, 6): 7, (14, 4): 12}


def test_choose_epsilon_matches_recorded_exponents():
    got = {
        (n, d): choose_epsilon(n, d) for n in range(2, 13) for d in range(2, n + 1)
    }
    assert got == {nd: Fraction(1, 2 ** e) for nd, e in EPS_EXPONENT.items()}


@pytest.mark.slow
@pytest.mark.parametrize("n,d", sorted(EPS_EXPONENT_SLOW))
def test_choose_epsilon_matches_recorded_exponents_past_twelve(n, d):
    assert choose_epsilon(n, d) == Fraction(1, 2 ** EPS_EXPONENT_SLOW[n, d])


def _halving_walk(n, d):
    # the eps search upper_face_subdivision made before common_epsilon:
    # start where (n, d+1) certifies, halve until (n, d) certifies as well
    eps = choose_epsilon(n, d + 1)
    while not (certify_epsilon(n, d, eps) and certify_epsilon(n, d + 1, eps)):
        eps /= 2
        if eps < Fraction(1, 2 ** 64):
            raise ConstructionError("no certified epsilon found down to 2^-64")
    return eps


def test_common_epsilon_matches_the_halving_walk():
    for n in range(3, 10):
        for d in range(2, n):
            assert common_epsilon(n, [d, d + 1]) == _halving_walk(n, d), (n, d)
    assert common_epsilon(7, [3, 4]) == Fraction(1, 8)


@pytest.mark.slow
@pytest.mark.parametrize("n", [10, 11])
def test_common_epsilon_matches_the_halving_walk_past_nine(n):
    for d in range(2, n):
        assert common_epsilon(n, [d, d + 1]) == _halving_walk(n, d), (n, d)


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
    # at d = 0 its rational view is the cube's normal vector, beside the
    # right-hand side 2^C(k,2)/eps^(k-1), and the cube holds it as an
    # integer row over its scale.  One call returns the requested rows in
    # the requested order, singly or together.
    rng = random.Random(5150)
    dyadic = [Fraction(1, 2 ** e) for e in rng.sample(range(1, 65), 4)]
    named = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 37), Fraction(2, 9)]
    for eps in [Fraction(0), *named, *dyadic]:
        for n in range(1, 10):
            signed = [(k, sigma) for k in range(n, 0, -1) for sigma in (-1, 1)]
            for d in range(n + 1):
                want = [
                    clear_denominators([_fraction_amatrix_row(n, d, k, s, eps)])[0][0]
                    for k, s in signed
                ]
                assert deformation_rows(n, d, signed, eps) == want, (n, d, eps)
                for (k, sigma), row in zip(signed, want):
                    assert deformation_rows(n, d, [(k, sigma)], eps) == [row], (n, d, k, sigma, eps)
            if eps:
                want = [
                    (_fraction_amatrix_row(n, 0, k, sigma, eps), Fraction(2 ** comb(k, 2)) / eps ** (k - 1))
                    for k in range(1, n + 1)
                    for sigma in (-1, 1)
                ]
                cube = build_deformed_cube(n, eps)
                assert list(cube.inequalities) == want, (n, eps)
                assert all(type(x) is int for row in cube.rows for x in row), (n, eps)


def test_rows_are_the_transposed_columns():
    # every signed row of every (n, d) with n <= 9, down to width 0, at the
    # golden eps of (n, d) and at eps off the certified ladder
    for n in range(1, 10):
        signed = [(k, sigma) for k in range(1, n + 1) for sigma in (-1, 1)]
        for d in range(n + 1):
            golden = [Fraction(1, 2 ** EPS_EXPONENT[n, d])] if d >= 2 else []
            for eps in [0, 1, Fraction(1, 3), Fraction(3, 37), Fraction(2, 9), *golden]:
                cols = deformation_columns(n, d, signed, eps)
                rows = deformation_rows(n, d, signed, eps)
                assert len(cols) == n - d and len(rows) == len(signed)
                assert all(len(col) == len(signed) for col in cols)
                assert rows == [tuple(col[i] for col in cols) for i in range(len(signed))]
                for (k, sigma), row in zip(signed, rows):
                    assert deformation_columns(n, d, [(k, sigma)], eps) == [[x] for x in row]


def test_columns_take_a_fraction_eps_as_given(monkeypatch):
    # an eps that is already a Fraction is read as it is, not converted again
    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    eps = Fraction(1, 8)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert deformation_columns(5, 2, [(1, -1), (3, 1)], eps) == [[-1, -8], [0, -8], [0, 1]]
    assert built == []
    assert deformation_columns(5, 2, [(1, -1), (3, 1)], "1/8") == [[-1, -8], [0, -8], [0, 1]]
    assert built == [("1/8",)]


def test_columns_refuse_a_float_epsilon():
    # 0.1 is not 1/10: the rows would carry its binary value's 2^55
    with pytest.raises(TypeError, match="not float"):
        deformation_rows(3, 1, [(2, 1)], 0.1)
    with pytest.raises(TypeError, match="not float"):
        deformation_columns(5, 2, [(1, -1), (3, 1)], 0.125)
    # the eps = 0 rows of the certificate, ints, Fractions and strings
    for eps, row in ((0, (1, 0)), (2, (1, 2)), (Fraction(1, 10), (10, 1)), ("1/10", (10, 1))):
        assert deformation_rows(3, 1, [(2, 1)], eps) == [row]


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


def _certificate_eps():
    # eps = 1 makes some minors vanish, e.g. rows {2, 3} of (4, 2); the
    # seeded draws add eps p/q < 1 with q <= 40, accepted and refused alike
    rng = random.Random(6106)
    drawn = [Fraction(rng.randint(1, q - 1), q) for q in rng.sample(range(2, 41), 8)]
    return (Fraction(3, 37), Fraction(2, 9), Fraction(1, 3), Fraction(4, 5), Fraction(5, 7), 1, *drawn)


def test_certificate_matches_rational_determinants():
    accepted = refused = 0
    for eps in _certificate_eps():
        for n in range(3, 7):
            for d in range(2, n):
                want = _certify_by_leibniz(n, d, eps)
                assert certify_epsilon(n, d, eps) == want, (n, d, eps)
                accepted += want
                refused += not want
    assert accepted > 30 and refused > 5


def test_minor_table_transform_is_every_signed_minor():
    # each subset's eps-free coefficients, transformed at eps = p/q, give at
    # bitmask T the minor of the q-scaled integer rows with sigma = -1 on the
    # rows T names; the coefficient at S = 0 is the eps = 0 minor
    for eps in _certificate_eps():
        for n in range(3, 8):
            for d in range(2, n + 1):
                subsets = list(combinations(range(2, n + 1), n - d))
                table = list(_minor_table(n, d))
                assert len(table) == len(subsets)
                for rows, coeffs in zip(subsets, table):
                    m = sum(k <= n - d for k in rows)
                    assert len(coeffs) == 2 ** m
                    assert coeffs[0] == bareiss_det(deformation_rows(n, d, [(k, 1) for k in rows], 0))
                    want = [
                        bareiss_det(deformation_rows(
                            n, d, [(k, -1 if t >> i & 1 else 1) for i, k in enumerate(rows)], eps
                        ))
                        for t in range(2 ** m)
                    ]
                    assert _signed_minors(coeffs, Fraction(eps)) == want, (n, d, rows, eps)


def _full_matrix_minor_table(n, d):
    # the table's defining form: c_S is the full (n-d) x (n-d) eps = 0 minor
    # with the rows in S replaced by their unit vectors
    width = n - d
    at_zero = deformation_rows(n, d, [(k, 1) for k in range(1, n + 1)], 0)
    unit = [tuple(int(j == k - 1) for j in range(width)) for k in range(1, n + 1)]
    return [
        [bareiss_det([unit[k - 1] if s >> i & 1 else at_zero[k - 1] for i, k in enumerate(rows)])
         for s in range(2 ** sum(k <= width for k in rows))]
        for rows in combinations(range(2, n + 1), width)
    ]


@pytest.mark.parametrize("n", range(3, 10))
def test_minor_table_expands_the_unit_rows_away(n):
    for d in range(2, n + 1):
        assert list(_minor_table(n, d)) == _full_matrix_minor_table(n, d), (n, d)


def test_zero_eps_free_minor_refuses_before_any_transform(monkeypatch):
    # a zero eps = 0 minor refuses every eps at once; the transform would
    # refuse it too, since its 2^m values sum to (2q)^m c_0 = 0
    transformed = []
    real = deformed._signed_minors
    monkeypatch.setattr(deformed, "_signed_minors", lambda c, e: transformed.append(c) or real(c, e))
    for coeffs in ([0], [0, 3], [0, -2, 5, 7]):
        for eps in (Fraction(1), Fraction(1, 2), Fraction(3, 37)):
            assert _keeps_sign(coeffs, eps) is False
    assert transformed == []
    assert _keeps_sign([4, 1], Fraction(1, 2)) is True
    assert _keeps_sign([-4, 1], Fraction(1, 2)) is True
    assert _keeps_sign([4, 9], Fraction(1, 2)) is False
    assert transformed == [[4, 1], [-4, 1], [4, 9]]
