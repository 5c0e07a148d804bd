import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from ncpoly.deformed import projected_cube
from ncpoly.errors import (
    EmptyPolytopeError,
    SpanError,
    UnboundedPolytopeError,
)
from ncpoly.intops import cramer_left_kernel, int_rank
from ncpoly.polytope import (
    HPolytope,
    IncidenceStructure,
    VPolytope,
    canonical_inequality,
    f_vector,
    face_lattice,
    facets_from_vrep,
    graph_of,
    hypercube_graph_iso,
    is_cubical,
    to_off,
    vertices_and_tight_sets,
    vertices_from_hrep,
)


def unit_square():
    return HPolytope(
        2, [((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1)]
    )


def cube_vpoly(n, scale=1):
    return VPolytope(n, [tuple(scale * s for s in p) for p in product((-1, 1), repeat=n)])


def test_unit_square_vertices():
    v = vertices_from_hrep(unit_square())
    assert set(v.points) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_unbounded_detected():
    h = HPolytope(2, [((1, 0), 1), ((0, 1), 1)])
    with pytest.raises(UnboundedPolytopeError):
        vertices_from_hrep(h)


def test_unbounded_with_vertex_detected():
    # a wedge: has a basic feasible point but recedes to infinity
    h = HPolytope(2, [((-1, 0), 0), ((0, -1), 0), ((-1, -1), -1)])
    with pytest.raises(UnboundedPolytopeError):
        vertices_from_hrep(h)


def test_empty_detected():
    h = HPolytope(1, [((1,), 0), ((-1,), -1)])
    with pytest.raises(EmptyPolytopeError):
        vertices_from_hrep(h)


def test_rank_deficient_empty_detected():
    h = HPolytope(2, [((1, 0), 0), ((-1, 0), -1)])
    with pytest.raises(EmptyPolytopeError):
        vertices_from_hrep(h)


def test_rank_deficient_feasible_is_unbounded():
    h = HPolytope(2, [((1, 0), 1), ((-1, 0), 0)])
    with pytest.raises(UnboundedPolytopeError):
        vertices_from_hrep(h)


def test_cube_facets():
    inc = facets_from_vrep(cube_vpoly(3))
    assert inc.facet_count == 6
    assert all(len(f) == 4 for f in inc.incidence)


def test_cube_f_vector_and_graph():
    inc = facets_from_vrep(cube_vpoly(3))
    assert f_vector(inc) == (8, 12, 6)
    edges = graph_of(inc)
    assert len(edges) == 12
    degree = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert set(degree.values()) == {3}
    assert is_cubical(inc)


def test_span_error():
    flat = VPolytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(SpanError):
        facets_from_vrep(flat)


def test_interior_point_is_not_a_vertex():
    pts = [(-1, -1), (-1, 1), (1, -1), (1, 1), (0, 0), (1, 0)]
    inc = facets_from_vrep(VPolytope(2, pts))
    lattice = face_lattice(inc)
    verts = {next(iter(f)) for f in lattice[0]}
    assert verts == {0, 1, 2, 3}
    # the non-extreme boundary point shows up inside its edge's incidence
    assert any(5 in f and len(f) == 3 for f in inc.incidence)


def _cube_hrep(n, bound=1):
    ineqs = []
    for i in range(n):
        for s in (-1, 1):
            normal = [0] * n
            normal[i] = s
            ineqs.append((normal, bound))
    return HPolytope(n, ineqs)


def test_oracle_soundness_on_h_polytopes():
    # round trip: every oracle facet must coincide with one of the input
    # inequalities after canonicalization
    for h in (unit_square(), _cube_hrep(3), _cube_hrep(4, bound=2)):
        v = vertices_from_hrep(h)
        inc = facets_from_vrep(v)
        given = {canonical_inequality(n, r) for n, r in h.inequalities}
        assert set(inc.inequalities) == given


def test_face_lattice_closed_under_intersection():
    inc = facets_from_vrep(cube_vpoly(3, scale=2))
    lattice = face_lattice(inc)
    faces = [f for fs in lattice.values() for f in fs]
    face_set = set(faces)
    for a, b in combinations(faces, 2):
        c = a & b
        assert not c or c in face_set


def _brute_force_cube_iso(edges, n):
    verts = sorted({x for e in edges for x in e})
    if len(verts) != 2 ** n or len(edges) != n * 2 ** (n - 1):
        return None
    edge_set = {frozenset(e) for e in edges}
    cube_edges = {
        frozenset({a, a ^ (1 << i)}) for a in range(2 ** n) for i in range(n)
    }
    adj = {v: set() for v in verts}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    order = verts
    assign = {}
    used = set()

    def ok(v, code):
        for w in adj[v]:
            if w in assign and frozenset({code, assign[w]}) not in cube_edges:
                return False
        for w in order:
            if w in assign and w not in adj[v]:
                if frozenset({code, assign[w]}) in cube_edges:
                    return False
        return True

    def search(i):
        if i == len(order):
            return True
        v = order[i]
        for code in range(2 ** n):
            if code in used:
                continue
            if ok(v, code):
                assign[v] = code
                used.add(code)
                if search(i + 1):
                    return True
                used.discard(code)
                del assign[v]
        return False

    return dict(assign) if search(0) else None


def _cube_graph_edges(n):
    return [
        tuple(sorted((a, a ^ (1 << i)))) for a in range(2 ** n) for i in range(n)
        if a < a ^ (1 << i)
    ]


def _moebius_ladder_edges(m):
    # 3-regular, not bipartite, 2m vertices
    edges = [(i, (i + 1) % (2 * m)) for i in range(2 * m)]
    edges += [(i, i + m) for i in range(m)]
    return [tuple(sorted(e)) for e in edges]


@pytest.mark.parametrize(
    "edges,n",
    [
        (_cube_graph_edges(3), 3),
        (_cube_graph_edges(4), 4),
        ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 2),  # K4
        (_moebius_ladder_edges(4), 3),
        (_cube_graph_edges(3)[:-1], 3),  # one missing edge
    ],
)
def test_hypercube_iso_matches_brute_force(edges, n):
    ours = hypercube_graph_iso(edges, n)
    brute = _brute_force_cube_iso(edges, n)
    assert (ours is None) == (brute is None)
    if ours is not None:
        codes = {sum((1 << i) for i, s in enumerate(lab) if s > 0) for lab in ours.values()}
        assert codes == set(range(2 ** n))
        cube_edges = {
            frozenset({a, a ^ (1 << i)}) for a in range(2 ** n) for i in range(n)
        }
        for a, b in edges:
            ca = sum((1 << i) for i, s in enumerate(ours[a]) if s > 0)
            cb = sum((1 << i) for i, s in enumerate(ours[b]) if s > 0)
            assert frozenset({ca, cb}) in cube_edges


def test_wrong_vertex_count_immediately_absent():
    assert hypercube_graph_iso([(0, 1), (1, 2), (2, 0)], 2) is None


def test_off_export_cube():
    off = to_off(facets_from_vrep(cube_vpoly(3)))
    lines = off.strip().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "8 6 12"
    assert all(len(line.split()) == 5 for line in lines[10:])


def test_off_export_exact_decimal():
    pts = [(0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 3))]
    off = to_off(facets_from_vrep(VPolytope(2, pts)))
    assert "0.5" in off and "1/3" in off


def test_json_round_trip_fields():
    h = unit_square()
    d = h.to_json_dict()
    assert d["dim"] == 2 and len(d["inequalities"]) == 4
    assert d["inequalities"][0]["normal"] == ["-1", "0"]
    v = vertices_from_hrep(h)
    dv = v.to_json_dict()
    assert dv["points"][0] == ["0", "0"]
    inc = facets_from_vrep(v)
    di = inc.to_json_dict()
    assert di["vertex_count"] == 4 and di["facet_count"] == 4


def test_incidence_json_ignores_call_history():
    inc = facets_from_vrep(cube_vpoly(3))
    before = inc.to_json_dict()
    f_vector(inc)
    assert inc.to_json_dict() == before


def test_random_3d_hulls_close_up():
    # completeness check for the oracle: on random rational point sets the
    # boundary must satisfy Euler's formula and be edge-closed
    import random

    from fractions import Fraction

    rng = random.Random(31337)
    done = 0
    while done < 12:
        pts = {
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
            for _ in range(rng.randint(5, 10))
        }
        pts = sorted(pts)
        v = VPolytope(3, pts)
        try:
            inc = facets_from_vrep(v)
        except SpanError:
            continue
        lattice = face_lattice(inc)
        f0, f1, f2 = (len(lattice.get(k, ())) for k in range(3))
        assert f0 - f1 + f2 == 2
        for e in lattice[1]:
            assert sum(1 for f in inc.incidence if e <= f) == 2
        done += 1


def test_crown_graph_is_the_3_cube():
    # K(4,4) minus a perfect matching is a 3-cube graph in disguise; the
    # labeling search must find it from an arbitrary vertex numbering
    left = [0, 1, 2, 3]
    right = [4, 5, 6, 7]
    edges = [
        (a, b) for a in left for b in right if b - 4 != a
    ]
    iso = hypercube_graph_iso(edges, 3)
    assert iso is not None


def _brute_force_facets(v):
    """Reference V->H: the hyperplane through every affinely independent
    d-subset of the points, kept when it supports them.  Returns the facet
    incidence and the canonical inequalities, sorted by inequality."""
    mult = lcm(*(x.denominator for p in v.points for x in p))
    hom = [tuple(int(x * mult) for x in p) + (1,) for p in v.points]
    found = {}
    for subset in combinations(hom, v.dim):
        u = cramer_left_kernel([list(col) for col in zip(*subset)])
        if u is None:
            continue
        vals = [sum(a * b for a, b in zip(u, p)) for p in hom]
        if all(s <= 0 for s in vals):
            u, vals = tuple(-a for a in u), [-s for s in vals]
        elif any(s < 0 for s in vals):
            continue
        ineq = canonical_inequality([Fraction(-a) for a in u[:-1]], Fraction(u[-1], mult))
        found[ineq] = frozenset(i for i, s in enumerate(vals) if s == 0)
    order = sorted(found)
    return [found[k] for k in order], order


def _random_point_set(rng, d):
    """Some corners of [-2, 2]^d (non-simplicial facets), grid points on its
    boundary (non-vertex points inside facets) and inside it."""
    corners = list(product((-2, 2), repeat=d))
    pts = set(rng.sample(corners, rng.randint(d + 1, len(corners))))
    for _ in range(rng.randint(1, 6)):
        p = [rng.randint(-2, 2) for _ in range(d)]
        if rng.random() < 0.5:
            p[rng.randrange(d)] = rng.choice((-2, 2))
        pts.add(tuple(p))
    return VPolytope(d, sorted(pts))


def test_hull_matches_brute_force_reference():
    rng = random.Random(20261017)
    checked = 0
    while checked < 50:
        v = _random_point_set(rng, 2 + checked % 3)
        try:
            inc = facets_from_vrep(v)
        except SpanError:
            continue
        incidence, inequalities = _brute_force_facets(v)
        assert list(inc.incidence) == incidence
        assert list(inc.inequalities) == inequalities
        checked += 1


def _random_box_cuts():
    """Thirty boxes [-3, 3]^d, d = 2..4, cut by random half-spaces that keep
    the origin."""
    rng = random.Random(5)
    for trial in range(30):
        d = 2 + trial % 3
        h = _cube_hrep(d, bound=3)
        cuts = [
            ([rng.randint(-3, 3) for _ in range(d)], rng.randint(1, 6))
            for _ in range(rng.randint(1, 4))
        ]
        yield HPolytope(d, list(h.inequalities) + [c for c in cuts if any(c[0])])


def test_random_box_cuts_round_trip():
    # H -> V -> H -> V: every facet found is one of the given inequalities,
    # and the facets alone give back the same vertices
    for h in _random_box_cuts():
        d = h.dim
        v = vertices_from_hrep(h)
        inc = facets_from_vrep(v)
        given = {canonical_inequality(n, r) for n, r in h.inequalities}
        assert set(inc.inequalities) <= given
        assert vertices_from_hrep(HPolytope(d, inc.inequalities)).points == v.points


def test_tight_sets_match_fraction_evaluation():
    # the zero sets the H->V hull returns are exactly the inequalities that
    # hold with equality at each vertex, evaluated in exact rationals
    for h in _random_box_cuts():
        for point, tight in vertices_and_tight_sets(h):
            assert tight == {
                i
                for i, (normal, rhs) in enumerate(h.inequalities)
                if sum(a * x for a, x in zip(normal, point)) == rhs
            }


def _intersection_closure(incidence):
    faces, frontier = set(incidence), set(incidence)
    while frontier:
        frontier = {f & g for f in frontier for g in incidence if f & g} - faces
        faces |= frontier
    return faces


def test_graded_dimension_is_affine_rank():
    # on point sets with non-vertex boundary points: the lattice graded from
    # incidence alone holds every nonempty intersection of facets, each at
    # the affine rank of its points
    rng = random.Random(20261018)
    checked = 0
    while checked < 40:
        v = _random_point_set(rng, 2 + checked % 3)
        try:
            inc = facets_from_vrep(v)
        except SpanError:
            continue
        mult = lcm(*(x.denominator for p in v.points for x in p))
        ipts = [tuple(int(x * mult) for x in p) for p in v.points]
        lattice = face_lattice(inc)
        faces = [f for fs in lattice.values() for f in fs]
        assert len(faces) == len(set(faces))
        assert set(faces) == _intersection_closure(inc.incidence)
        for k, fs in lattice.items():
            for f in fs:
                base, *rest = (ipts[i] for i in sorted(f))
                assert int_rank([[a - b for a, b in zip(p, base)] for p in rest]) == k
        checked += 1


def test_coordinate_free_lattice_is_the_same():
    rng = random.Random(7)
    structures = [facets_from_vrep(projected_cube(5, 4).shadow)]
    while len(structures) < 16:
        try:
            structures.append(facets_from_vrep(_random_point_set(rng, 2 + len(structures) % 3)))
        except SpanError:
            continue
    for inc in structures:
        bare = IncidenceStructure(inc.vertex_count, inc.incidence)
        assert face_lattice(bare) == face_lattice(inc)
        assert f_vector(bare) == f_vector(inc)
