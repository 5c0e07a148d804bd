from fractions import Fraction
from itertools import product

import pytest

from ncpoly import deformed, signvec, skeleton
from ncpoly.complexes import CubicalComplex, from_cube_facets
from ncpoly.deformed import (
    build_deformed_cube,
    certify_epsilon,
    choose_epsilon,
    cube_vertices_labeled,
    project_last,
)
from ncpoly.errors import ConstructionError
from ncpoly.polytope import (
    IncidenceStructure,
    VPolytope,
    face_lattice,
    face_masks,
    facets_from_vrep,
)
from ncpoly.skeleton import (
    dehn_sommerville_check,
    double_r_cubicality_check,
    upper_face_subdivision,
    verify_skeleton_equivalence,
)
from test_complexes import all_faces, face_dim


def test_cube_face_count_is_an_exact_int():
    # k above n has no faces: 0, not the float 2 ** (n - k) times 0
    for n in range(7):
        for k in range(n + 3):
            want = sum(1 for sv in product((-1, 0, 1), repeat=n) if face_dim(sv) == k)
            got = signvec.cube_face_count(n, k)
            assert type(got) is int and got == want, (n, k)


def cube_skeleton(n, r):
    """All faces of the n-cube of dimension at most r, as sign vectors."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    return list(all_faces(n, max_zeros=r))


def test_cube_skeleton_counts():
    sk = cube_skeleton(3, 1)
    by_dim = {}
    for sv in sk:
        by_dim[face_dim(sv)] = by_dim.get(face_dim(sv), 0) + 1
    assert by_dim == {0: 8, 1: 12}

    sk6 = cube_skeleton(6, 1)
    by_dim6 = {}
    for sv in sk6:
        by_dim6[face_dim(sv)] = by_dim6.get(face_dim(sv), 0) + 1
    assert by_dim6 == {0: 64, 1: 192}

    assert len(cube_skeleton(5, 0)) == 32

    # the mask closure of the whole n-cube has the same low faces
    for n, r in ((3, 1), (6, 1), (5, 0)):
        cube = from_cube_facets([signvec.vertex_set((0,) * n)]).faces_by_dim
        assert {k: cube[k] for k in range(r + 1)} == {
            k: {signvec.vertex_set(sv) for sv in cube_skeleton(n, r) if face_dim(sv) == k}
            for k in range(r + 1)
        }


def test_cube_skeleton_range_check():
    with pytest.raises(ValueError):
        cube_skeleton(3, 4)


def _labeled_cube(n):
    pts = list(product((-1, 1), repeat=n))
    return VPolytope(n, pts, labels=pts)


def test_cube_is_skeleton_equivalent_to_itself():
    inc = facets_from_vrep(_labeled_cube(3))
    for r in range(0, 3):
        assert verify_skeleton_equivalence(inc, 3, r)


@pytest.mark.parametrize("d", range(1, 7))
def test_cube_is_its_own_top_face(constructed, d):
    # the structure itself is its one d-face, so a d-cube passes at r = d,
    # and at r = d + 1, where neither has a face
    cubes = [facets_from_vrep(_labeled_cube(d))]
    if d >= 2:
        cubes.append(constructed(d, d)[1])
    for inc in cubes:
        for r in (d, d + 1):
            assert verify_skeleton_equivalence(inc, d, r), r
    if d >= 2:
        # a shadow with n > d has one d-face, the n-cube comb(n, d) 2^(n-d)
        _, inc = constructed(d + 1, d)
        assert not verify_skeleton_equivalence(inc, d + 1, d)


def test_skeleton_equivalence_needs_labels():
    inc = facets_from_vrep(VPolytope(2, [(-1, -1), (-1, 1), (1, -1), (1, 1)]))
    with pytest.raises(ValueError):
        verify_skeleton_equivalence(inc, 2, 0)


def test_skeleton_equivalence_rejects_negative_r():
    # a negative r would compare no faces and pass vacuously
    inc = facets_from_vrep(_labeled_cube(3))
    for r in (-1, -2):
        with pytest.raises(ValueError):
            verify_skeleton_equivalence(inc, 3, r)


def test_skeleton_equivalence_rejects_labels_off_the_cube():
    square = [0b0011, 0b1010, 0b1100, 0b0101]
    for labels in (
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        [(-1, -1), (-1, 1), (1, -1), (1, 1, 1)],
    ):
        inc = IncidenceStructure(4, square, labels=labels)
        for r in (0, 1):
            assert verify_skeleton_equivalence(inc, 2, r) is False


def test_shadow_skeleton_equivalence(constructed):
    pc, inc = constructed(5, 4)
    assert verify_skeleton_equivalence(inc, 5, 1)
    assert not verify_skeleton_equivalence(inc, 5, 2)


def _reference_skeleton_equivalence(inc, n, r):
    """The frozenset form of ``verify_skeleton_equivalence``: each cube face
    becomes the frozenset of its vertices' indices, looked up in the
    frozenset lattice."""
    if set(inc.labels) != set(product((-1, 1), repeat=n)):
        return False
    lattice = face_lattice(inc)
    faces = {k: set(lattice.get(k, ())) for k in range(r + 1)}
    if any(len(faces[k]) != signvec.cube_face_count(n, k) for k in faces):
        return False
    by_label = {lab: i for i, lab in enumerate(inc.labels)}
    for sv in all_faces(n, max_zeros=r):
        want = frozenset(
            by_label[signvec.vertex_tuple_from_bits(b, n)]
            for b in signvec.members(signvec.vertex_set(sv))
        )
        if want not in faces[face_dim(sv)]:
            return False
    return True


def _skeleton_mutants(inc):
    """The shadow with two labels swapped, with its first facet dropped, and
    with one label off {-1, +1}^n."""
    labels = list(inc.labels)
    swapped = labels[:]
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    off = labels[:]
    off[0] = (0, *off[0][1:])
    return [
        IncidenceStructure(inc.vertex_count, inc.facets, labels=swapped),
        IncidenceStructure(inc.vertex_count, inc.facets[1:], labels=labels),
        IncidenceStructure(inc.vertex_count, inc.facets, labels=off),
    ]


@pytest.mark.parametrize(
    "n,d",
    [(n, d) for n in range(4, 9) for d in range(2, n + 1)]
    + [pytest.param(9, d, marks=pytest.mark.slow) for d in range(2, 10)],
)
def test_skeleton_check_matches_frozenset_reference(constructed, n, d):
    _, inc = constructed(n, d)
    masks = face_masks(inc)
    r = d // 2 - 1
    want = _reference_skeleton_equivalence(inc, n, r)
    assert verify_skeleton_equivalence(inc, n, r) is want is True
    assert verify_skeleton_equivalence(inc, n, r + 1) is _reference_skeleton_equivalence(
        inc, n, r + 1
    ) is (n == d)
    # one lattice per structure: every check above read the stored masks
    assert face_masks(inc) is masks
    swapped, dropped, off = _skeleton_mutants(inc)
    for mutant in (swapped, dropped, off):
        for k in (r, r + 1):
            want = _reference_skeleton_equivalence(mutant, n, k)
            assert verify_skeleton_equivalence(mutant, n, k) is want, (k, mutant.facet_count)
    assert verify_skeleton_equivalence(swapped, n, r + 1) is False
    assert verify_skeleton_equivalence(off, n, r) is False


def _with_lattice(inc, lattice):
    """``inc`` with ``lattice`` stored as its face lattice: the faces every
    check reads through ``face_masks``."""
    out = IncidenceStructure(inc.vertex_count, inc.facets, labels=inc.labels)
    out._lattice = lattice
    return out


def test_skeleton_check_needs_both_face_conditions():
    # each mutant has the cube's labels and its k-face counts up to r, and
    # every face but one is a cube face: only the condition named fails
    inc = facets_from_vrep(_labeled_cube(3))
    masks = face_masks(inc)
    assert all(verify_skeleton_equivalence(inc, 3, r) for r in range(3))
    square = min(masks[2])
    edge = min(masks[1])
    diagonal = square & -square | 1 << square.bit_length() - 1
    assert diagonal not in masks[1]
    three = square & square - 1
    mutants = {
        # three vertices of a square span its two coordinates
        "2^k vertices": (_with_lattice(inc, {**masks, 2: masks[2] - {square} | {three}}), 2),
        # a square's diagonal spans two coordinates, not one
        "k-coordinate span": (_with_lattice(inc, {**masks, 1: masks[1] - {edge} | {diagonal}}), 1),
        # the square's four sides with two of them crossed over as diagonals
        "k-coordinate span, from incidence": (
            IncidenceStructure(
                4, [0b0011, 0b0110, 0b1100, 0b1001], labels=list(product((-1, 1), repeat=2))
            ),
            1,
        ),
    }
    for why, (mutant, r) in mutants.items():
        n = len(mutant.labels[0])
        counts = [len(face_masks(mutant)[k]) for k in range(r + 1)]
        assert counts == [signvec.cube_face_count(n, k) for k in range(r + 1)], why
        assert _reference_skeleton_equivalence(mutant, n, r) is False, why
        assert verify_skeleton_equivalence(mutant, n, r) is False, why
    # vertex 2's place taken by an index past the labels: the structure
    # refuses it when built, before any check reads its faces
    with pytest.raises(ValueError, match="facet 2 "):
        IncidenceStructure(
            4, [0b00011, 0b01010, 0b11000, 0b10001], labels=list(product((-1, 1), repeat=2))
        )


def test_skeleton_check_refuses_extra_faces():
    # pushing one cube vertex out folds its three squares into triangles:
    # every cube edge stays an edge, and three diagonals join them
    labels = list(product((-1, 1), repeat=3))
    pts = [tuple(2 * x for x in p) if p == (1, 1, 1) else p for p in labels]
    inc = facets_from_vrep(VPolytope(3, pts, labels=labels))
    assert len(face_masks(inc)[1]) == 15
    for r, want in ((0, True), (1, False)):
        assert verify_skeleton_equivalence(inc, 3, r) is want
        assert _reference_skeleton_equivalence(inc, 3, r) is want


def test_dehn_sommerville_known_vectors():
    assert dehn_sommerville_check((8, 12, 6), 3)
    assert dehn_sommerville_check((64, 192, 192, 64), 4)
    assert dehn_sommerville_check((64, 196, 198, 66), 4)
    assert dehn_sommerville_check((32, 80, 72, 24), 4)
    assert not dehn_sommerville_check((8, 12, 7), 3)
    assert not dehn_sommerville_check((64, 192, 192, 63), 4)


def test_dehn_sommerville_length_check():
    with pytest.raises(ValueError):
        dehn_sommerville_check((8, 12, 6), 4)


def _simplex(d):
    pts = [tuple(0 for _ in range(d))]
    for i in range(d):
        p = [0] * d
        p[i] = 1
        pts.append(tuple(p))
    return VPolytope(d, pts)


def test_double_r_cubicality():
    cube = facets_from_vrep(_labeled_cube(3))
    assert double_r_cubicality_check(cube, 1)
    for d in (3, 4):
        simplex = facets_from_vrep(_simplex(d))
        assert not double_r_cubicality_check(simplex, 1)


def test_double_r_refuses_negative_r():
    # r = -1 checked no face at all, so every incidence passed
    simplex = facets_from_vrep(_simplex(3))
    with pytest.raises(ValueError, match="need r >= 0"):
        double_r_cubicality_check(simplex, -1)


def test_double_r_on_shadow(constructed):
    pc, inc = constructed(5, 4)
    assert double_r_cubicality_check(inc, 1)


def test_upper_face_subdivision_5_4():
    sub = upper_face_subdivision(5, 4)
    # one cell per upper facet of the five-dimensional deformed cube: the
    # sigma=+1 side of constraint 1 plus both sides of constraints 2 and 4
    assert len(sub.facets()) == 5
    assert sub.f_vector()[0] == 32
    sub.validate()


def _per_cell_hull_faces(n, d):
    # reference: hull every cell again inside the d-projection
    eps = choose_epsilon(n, d + 1)
    while not certify_epsilon(n, d, eps):
        eps = eps / 2
    cube = cube_vertices_labeled(build_deformed_cube(n, eps))
    inc_upper = facets_from_vrep(project_last(cube, d + 1))
    lower = project_last(cube, d)
    cells = [
        facet
        for facet, (normal, _) in zip(inc_upper.incidence, inc_upper.inequalities)
        if normal[0] > 0
    ]
    # faces as masks over the shadow's vertex indices
    faces_by_dim = {d: {sum(1 << i for i in cell) for cell in cells}}
    for cell in cells:
        idx = sorted(cell)
        lattice = face_lattice(facets_from_vrep(VPolytope(d, [lower.points[i] for i in idx])))
        for k, faces in lattice.items():
            faces_by_dim.setdefault(k, set()).update(sum(1 << idx[i] for i in f) for f in faces)
    return CubicalComplex(faces_by_dim).faces_by_dim


@pytest.mark.parametrize(
    "n,d", [(4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 3), (6, 4), (6, 5)]
)
def test_upper_face_subdivision_matches_per_cell_hulls(n, d):
    assert upper_face_subdivision(n, d).faces_by_dim == _per_cell_hull_faces(n, d)


@pytest.mark.parametrize("n,d", [(5, 4), (6, 4), (6, 3)])
def test_upper_face_subdivision_hulls_twice(hull_calls, n, d):
    upper_face_subdivision(n, d)
    assert [v.dim for v in hull_calls] == [d + 1, d]


def test_upper_face_subdivision_needs_room():
    with pytest.raises(ValueError):
        upper_face_subdivision(4, 4)
    with pytest.raises(ValueError):
        upper_face_subdivision(4, 1)


def test_upper_face_subdivision_eps_walk_is_bounded(monkeypatch):
    # a minor that never keeps its sign stops the ladder at 2^-64; the walk
    # is deformed.common_epsilon's, over the tables of both shadows
    tried = []

    def never(coeffs, eps):
        tried.append(eps)
        return False

    monkeypatch.setattr(deformed, "_keeps_sign", never)
    with pytest.raises(ConstructionError, match=r"^no certified epsilon found down to 2\^-64$"):
        upper_face_subdivision(5, 4)
    assert tried == [Fraction(1, 2 ** e) for e in range(1, 65)]


def test_upper_face_subdivision_halves_until_both_shadows_certify(monkeypatch):
    # (5,3) first passes at 1/4, where (5,4) fails; both pass at 1/8.  Each
    # stand-in table is one entry naming its d.
    class Stop(Exception):
        pass

    def certify(d, eps):
        return eps <= Fraction(1, 4) if d == 3 else eps != Fraction(1, 4)

    def stop(n, eps):
        raise Stop(eps)

    monkeypatch.setattr(deformed, "_minor_table", lambda n, d: [d])
    monkeypatch.setattr(deformed, "_keeps_sign", certify)
    monkeypatch.setattr(skeleton, "build_deformed_cube", stop)
    with pytest.raises(Stop) as got:
        upper_face_subdivision(5, 3)
    assert got.value.args == (Fraction(1, 8),)


def test_upper_face_subdivision_builds_each_minor_table_once(monkeypatch):
    # one table per shadow, however many eps the ladder tries (1/2 .. 1/8)
    built = []
    original = deformed._minor_table

    def counted(n, d):
        built.append((n, d))
        return original(n, d)

    monkeypatch.setattr(deformed, "_minor_table", counted)
    upper_face_subdivision(7, 3)
    assert sorted(built) == [(7, 3), (7, 4)]


# (5,2) and (6,3) halve the eps that certifies (n, d+1) before (n, d) passes
@pytest.mark.parametrize(
    "n,d,fvec",
    [
        (4, 2, (16, 22, 7)),
        (4, 3, (16, 32, 22, 5)),
        (5, 2, (32, 46, 15)),
        (5, 3, (32, 60, 36, 7)),
        (6, 3, (64, 192, 178, 49)),
    ],
)
def test_upper_face_subdivision_fvectors(n, d, fvec):
    assert upper_face_subdivision(n, d).f_vector() == fvec


def _solve_remaining_f_entries(known, d):
    # solve the Dehn-Sommerville system for the unknown high f-entries
    from fractions import Fraction
    from math import comb

    r = len(known) - 1
    unknowns = list(range(r + 1, d))
    rows = []
    for k in range(0, d - 1):
        coeff = {i: Fraction((-1) ** i * 2 ** (i - k) * comb(i, k)) for i in range(k, d)}
        coeff[k] = coeff.get(k, Fraction(0)) - Fraction((-1) ** (d - 1))
        rhs = -sum(coeff.get(i, Fraction(0)) * known[i] for i in range(r + 1))
        rows.append([coeff.get(i, Fraction(0)) for i in unknowns] + [rhs])
    # exact Gaussian elimination
    piv = 0
    for col in range(len(unknowns)):
        pivot = next((i for i in range(piv, len(rows)) if rows[i][col]), None)
        assert pivot is not None, "system must determine every unknown"
        rows[piv], rows[pivot] = rows[pivot], rows[piv]
        pv = rows[piv][col]
        rows[piv] = [x / pv for x in rows[piv]]
        for i in range(len(rows)):
            if i != piv and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[piv])]
        piv += 1
    for i in range(piv, len(rows)):
        assert rows[i][-1] == 0, "overdetermined system must stay consistent"
    return {u: rows[j][-1] for j, u in enumerate(unknowns)}


@pytest.mark.parametrize("d", [4, 6])
def test_even_d_facet_count_follows_from_skeleton_and_dehn_sommerville(d):
    from math import comb

    from ncpoly.gale import f_formula

    r = d // 2 - 1
    for n in range(d, 11):
        known = [comb(n, k) * 2 ** (n - k) for k in range(r + 1)]
        solved = _solve_remaining_f_entries(known, d)
        assert solved[d - 1] == f_formula(n, d)


def test_shadow_graph_regularity(constructed):
    # 32 vertices, 80 edges, 5-regular: the 5-cube graph seen in dimension 4
    from ncpoly.polytope import graph_of

    pc, inc = constructed(5, 4)
    edges = graph_of(inc)
    assert len(edges) == 80
    degree = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert set(degree.values()) == {5}
