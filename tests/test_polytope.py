import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from ncpoly import classify, polytope
from ncpoly.cyclic import cyclic_configuration
from ncpoly.deformed import build_deformed_cube, projected_cube
from ncpoly.errors import (
    DimensionError,
    EmptyPolytopeError,
    NcpolyError,
    SpanError,
    UnboundedPolytopeError,
)
from ncpoly.intops import echelon, primitive
from ncpoly.polytope import (
    HPolytope,
    IncidenceStructure,
    VPolytope,
    _extreme_rays,
    f_vector,
    face_lattice,
    face_masks,
    facets_from_vrep,
    graph_of,
    hypercube_graph_iso,
    is_cubical,
    vertices_and_tight_sets,
    vertices_from_hrep,
)
from test_linalg import echelon_kernel, left_kernel


def _int_row(row):
    """A rational row times the lcm of its denominators, as integers: the
    references' own clearing, one row at a time, apart from ``HPolytope``'s
    common scale."""
    mult = lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (mult // x.denominator) for x in row)


def canonical_inequality(normal, rhs):
    """Primitive integer form of normal . x <= rhs (positive scaling only):
    the reference for the inequalities ``facets_from_vrep`` writes."""
    row = primitive(_int_row((*normal, rhs)))
    return tuple(row[:-1]), row[-1]


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


# normal . x <= 10 in R^5, the fifth coordinate unused.  Fourier-Motzkin
# elimination without redundancy removal grows these 14 rows to 33, 270,
# 7,585 and 7,239,424 rows, about 49 s in all.
_FLAT_NORMALS = [
    (1, -5, 3, 1, 0), (0, 1, 4, -5, 0), (2, -5, -3, 4, 0), (-2, -4, -2, 2, 0),
    (0, 3, 0, 3, 0), (-1, 2, -4, 4, 0), (0, -1, -5, 1, 0), (-4, -2, 0, 3, 0),
    (4, 0, -3, 0, 0), (-1, 3, -4, -1, 0), (5, 0, -1, -3, 0), (-4, 5, -3, -1, 0),
    (2, -3, -5, -4, 0), (4, 3, 1, -5, 0),
]


def test_rank_deficient_system_is_decided_at_once():
    # x_1 <= -1 and -x_1 <= -1 make the second system inconsistent
    rows = [(normal, 10) for normal in _FLAT_NORMALS]
    clash = [((1, 0, 0, 0, 0), -1), ((-1, 0, 0, 0, 0), -1)]
    for system, error in [(rows, UnboundedPolytopeError), (rows + clash, EmptyPolytopeError)]:
        start = time.perf_counter()
        with pytest.raises(error):
            vertices_from_hrep(HPolytope(5, system))
        assert time.perf_counter() - start < 1


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
        # twelve entries but eleven edges: (3, 7) missing, (0, 1) listed twice
        ([e for e in _cube_graph_edges(3) if e != (3, 7)] + [(0, 1)], 3),
        ([e for e in _cube_graph_edges(3) if e != (3, 7)] + [(1, 0)], 3),
        # only the final check refuses these two: two disjoint K4s, and the
        # 3-cube with the edge (3, 7) moved to the chord (0, 7) at vertex 0
        ([(a + o, b + o) for o in (0, 4) for a, b in combinations(range(4), 2)], 3),
        ([e for e in _cube_graph_edges(3) if e != (3, 7)] + [(0, 7)], 3),
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


def test_json_round_trip_fields():
    h = unit_square()
    d = h.to_json_dict()
    assert d["dim"] == 2 and len(d["inequalities"]) == 4
    assert d["inequalities"][0]["normal"] == ["-1", "0"]
    v = vertices_from_hrep(h)
    dv = v.to_json_dict()
    assert dv["points"][0] == ["0", "0"]


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
        u = left_kernel([list(col) for col in zip(*subset)])
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


def _rational_vertices(h):
    """``vertices_and_tight_sets`` with each vertex as a Fraction tuple."""
    verts, scale = vertices_and_tight_sets(h)
    return [(tuple(Fraction(x, scale) for x in p), tight) for p, tight in verts]


def test_tight_sets_match_fraction_evaluation():
    # the zero sets the H->V hull returns are exactly the inequalities that
    # hold with equality at each vertex, evaluated in exact rationals
    for h in _random_box_cuts():
        for point, tight in _rational_vertices(h):
            assert tight == sum(
                1 << i
                for i, (normal, rhs) in enumerate(h.inequalities)
                if sum(a * x for a, x in zip(normal, point)) == rhs
            )


def test_vertices_come_in_fraction_tuple_order():
    # the integer coordinates over one denominator order the vertices as
    # comparing their Fraction tuples does, on deformed cubes too; at
    # eps = 3/37 one coordinate has different denominators at different
    # vertices
    cubes = {
        (n, eps): build_deformed_cube(n, eps)
        for n in range(3, 7)
        for eps in (Fraction(1, 3), Fraction(3, 37), Fraction(2, 9))
    }
    for h in [*_random_box_cuts(), *cubes.values()]:
        verts = _rational_vertices(h)
        assert verts == sorted(verts, key=lambda e: e[0])
    for (n, eps), h in cubes.items():
        dens = {tuple(x.denominator for x in p) for p, _ in _rational_vertices(h)}
        assert (len(dens) > 1) is (eps == Fraction(3, 37)), (n, eps)


def _reference_vertices_and_tight_sets(h):
    """Reference H->V in Fractions: each vertex y / t of a ray (y, t) of the
    homogenized cone as a Fraction tuple, with its tight set, sorted by
    those tuples; the errors as ``vertices_and_tight_sets`` raises them.
    The cone is built from the ``inequalities`` view, each row cleared on
    its own."""
    d = h.dim
    int_rows = [_int_row(normal + (rhs,)) for normal, rhs in h.inequalities]
    cone = [tuple(-x for x in r[:-1]) + (r[-1],) for r in int_rows]
    cone.append((0,) * d + (1,))
    rays = _extreme_rays(cone, d + 1)
    if rays is None:
        basis = [e for _, e, _ in echelon([c[:d] for c in cone])]
        sub = [tuple(sum(a * b for a, b in zip(c, e)) for e in basis) + (c[d],) for c in cone]
        if any(ray[-1] for ray, _ in _extreme_rays(sub, len(basis) + 1)):
            raise UnboundedPolytopeError("normals do not span; feasible set has a line")
        raise EmptyPolytopeError("inconsistent inequality system")
    finite = [(ray, tight) for ray, tight in rays if ray[d]]
    if not finite:
        raise EmptyPolytopeError("no basic feasible point")
    if len(finite) < len(rays):
        raise UnboundedPolytopeError("recession cone has an extreme ray")
    return sorted(
        ((tuple(Fraction(x, ray[d]) for x in ray[:d]), tight) for ray, tight in finite),
        key=lambda e: e[0],
    )


def _h_fixtures():
    """The H-systems of this module and of the cube check in
    ``test_deformed``, and deformed cubes for 2 <= n <= 8 at five eps."""
    from test_deformed import _cube_check_family

    yield from (unit_square(), _cube_hrep(3), _cube_hrep(4, bound=2))
    yield from _random_box_cuts()
    yield from _rank_deficient_systems(300)
    yield from _cube_check_family()
    for n in range(2, 9):
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(2, 9), Fraction(3, 37)):
            yield build_deformed_cube(n, eps)


def _outcome(f, h):
    try:
        return f(h)
    except NcpolyError as exc:
        return type(exc), str(exc)


def test_integer_vertices_match_the_fraction_reference():
    # the same vertices, order, tight sets and errors; the scale is the
    # least common denominator of the vertices' rays, so it is no smaller
    # than the denominators the reduced Fractions have
    outcomes = Counter()
    for h in _h_fixtures():
        want = _outcome(_reference_vertices_and_tight_sets, h)
        got = _outcome(vertices_and_tight_sets, h)
        if isinstance(want, list):
            verts, scale = got
            assert all(type(x) is int for p, _ in verts for x in p)
            assert scale % lcm(*(x.denominator for p, _ in want for x in p)) == 0
            assert _rational_vertices(h) == want
            outcomes["vertices"] += 1
        else:
            assert got == want, h.inequalities
            outcomes["error"] += 1
    assert outcomes == {"vertices": 206, "error": 316}


def test_one_h_system_at_every_scale():
    # a system as built, its rational rows as given, its integer rows times k
    # over k times its scale, and its rational rows times k over the scale k
    # (the deformed cubes are built over their own scale): the same view,
    # JSON, vertices and tight sets, and the same error, class and message,
    # on infeasible, unbounded and rank-deficient systems
    rng = random.Random(20261021)
    outcomes = Counter()
    for h in _h_fixtures():
        a = HPolytope(h.dim, h.inequalities)
        assert all(type(x) is int for r in a.rows for x in r) and a.scale >= 1
        k = rng.randint(2, 40)
        b = HPolytope(h.dim, [(tuple(k * x for x in r[:-1]), k * r[-1]) for r in a.rows], k * a.scale)
        c = HPolytope(h.dim, [(tuple(k * x for x in n), k * r) for n, r in h.inequalities], k)
        want = _outcome(vertices_and_tight_sets, a)
        for other in (h, b, c):
            assert other.inequalities == a.inequalities
            assert other.to_json_dict() == a.to_json_dict()
            assert _outcome(vertices_and_tight_sets, other) == want, h.inequalities
        outcomes[want[0] if isinstance(want[0], type) else "vertices"] += 1
    assert outcomes == {"vertices": 206, EmptyPolytopeError: 76, UnboundedPolytopeError: 240}


def test_hpolytope_rows_are_over_one_scale():
    h = HPolytope(2, [((Fraction(1, 2), 0), 1), ((0, Fraction(-1, 3)), Fraction(5, 4))])
    assert (h.rows, h.scale) == (((6, 0, 12), (0, -4, 15)), 12)
    h = HPolytope(2, [((1, 2), 3), ((-1, 0), 0)], scale=6)
    assert (h.rows, h.scale) == (((1, 2, 3), (-1, 0, 0)), 6)
    assert h.inequalities == (
        ((Fraction(1, 6), Fraction(1, 3)), Fraction(1, 2)),
        ((Fraction(-1, 6), Fraction(0)), Fraction(0)),
    )
    for scale in (0, -2, 2.0, Fraction(1, 2)):
        with pytest.raises(ValueError, match="scale must be a positive int"):
            HPolytope(1, [((1,), 1)], scale=scale)


def _fm_feasible(rows, d):
    """Reference feasibility of normal . x <= rhs, given as integer rows
    (normal..., rhs): Fourier-Motzkin elimination of one column at a time,
    with no redundancy removal, so for small systems only."""
    rows = [list(r) for r in rows]
    for col in range(d):
        pos, neg, rest = [], [], []
        for r in rows:
            (pos if r[col] > 0 else neg if r[col] < 0 else rest).append(r)
        for p in pos:
            for q in neg:
                rest.append([p[j] * -q[col] + q[j] * p[col] for j in range(d + 1)])
        rows = [list(primitive(r)) for r in rest]
    return all(r[d] >= 0 for r in rows)


def _rank_deficient_systems(count):
    """Seeded systems of 1 to 6 rows in R^d, d = 2..4, whose normals are
    small combinations of at most d-1 generators, so they never span."""
    rng = random.Random(12)
    for trial in range(count):
        d = 2 + trial % 3
        gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, d - 1))]
        gens[0][rng.randrange(d)] = rng.choice((-2, -1, 1, 2))
        rows = []
        for _ in range(rng.randint(1, 6)):
            normal = [0] * d
            while not any(normal):
                coeffs = [rng.randint(-2, 2) for _ in gens]
                normal = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(d)]
            rows.append((normal, rng.randint(-3, 5)))
        yield HPolytope(d, rows)


def _hrep_error(h):
    with pytest.raises(NcpolyError) as err:
        vertices_and_tight_sets(h)
    return err.type, str(err.value)


def test_rank_deficient_verdict_matches_fourier_motzkin():
    feasible = []
    for h in _rank_deficient_systems(2000):
        feasible.append(_fm_feasible([_int_row(n + (r,)) for n, r in h.inequalities], h.dim))
        want = UnboundedPolytopeError if feasible[-1] else EmptyPolytopeError
        assert _hrep_error(h)[0] is want, h.inequalities
    assert (feasible.count(True), feasible.count(False)) == (1408, 592)


def _shuffled(rng, items):
    """A random order of ``items``, and the old index of each new position."""
    perm = rng.sample(range(len(items)), len(items))
    return [items[i] for i in perm], perm


def test_hull_is_independent_of_point_order():
    # the same inequalities; each facet's points renamed by the shuffle
    rng = random.Random(20261019)
    checked = 0
    while checked < 40:
        v = _random_point_set(rng, 2 + checked % 3)
        try:
            inc = facets_from_vrep(v)
        except SpanError:
            continue
        points, perm = _shuffled(rng, v.points)
        other = facets_from_vrep(VPolytope(v.dim, points))
        assert other.inequalities == inc.inequalities
        assert [frozenset(perm[i] for i in f) for f in other.incidence] == list(inc.incidence)
        checked += 1


def test_vertices_are_independent_of_row_order():
    # the same vertices; each tight set renamed by the shuffle, and the same
    # error, class and message, when the normals do not span
    rng = random.Random(20261020)
    for h in _random_box_cuts():
        rows, perm = _shuffled(rng, h.inequalities)
        other, scale = vertices_and_tight_sets(HPolytope(h.dim, rows))
        renamed = [(p, sum(1 << perm[i] for i in range(len(perm)) if t >> i & 1)) for p, t in other]
        assert (renamed, scale) == vertices_and_tight_sets(h)
    for h in _rank_deficient_systems(300):
        rows, _ = _shuffled(rng, h.inequalities)
        assert _hrep_error(HPolytope(h.dim, rows)) == _hrep_error(h)


def _intersection_closure(incidence):
    faces, frontier = set(incidence), set(incidence)
    while frontier:
        frontier = {f & g for f in frontier for g in incidence if f & g} - faces
        faces |= frontier
    return faces


def _cut_sizes(inc, face):
    """The sizes of ``face``'s proper nonempty intersections with the facets."""
    facets = [sum(1 << i for i in f) for f in inc.incidence]
    return {c.bit_count() for c in {face & g for g in facets} - {0, face}}


def test_graded_dimension_is_affine_rank():
    # the lattice graded from incidence alone holds every nonempty
    # intersection of facets, each at the affine rank of its points: on
    # point sets with non-vertex boundary points, and on the square pyramid
    # and the non-cubical witness, where some face's cuts come in two sizes
    # (a triangle of the pyramid meets the opposite one in the apex alone)
    pyramid = VPolytope(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])
    witness = VPolytope(4, classify.NONCUBICAL_WITNESS_POINTS)
    mixed = [(v, facets_from_vrep(v)) for v in (pyramid, witness)]
    for _, inc in mixed:
        faces = [f for masks in face_masks(inc).values() for f in masks]
        assert any(len(_cut_sizes(inc, f)) > 1 for f in faces)
    assert f_vector(mixed[0][1]) == (5, 8, 5)
    rng = random.Random(20261018)
    drawn = []
    while len(drawn) < 40:
        v = _random_point_set(rng, 2 + len(drawn) % 3)
        try:
            drawn.append((v, facets_from_vrep(v)))
        except SpanError:
            continue
    for v, inc in mixed + drawn:
        mult = lcm(*(x.denominator for p in v.points for x in p))
        ipts = [tuple(int(x * mult) for x in p) for p in v.points]
        lattice = face_lattice(inc)
        faces = [f for fs in lattice.values() for f in fs]
        assert len(faces) == len(set(faces))
        assert set(faces) == _intersection_closure(inc.incidence)
        for k, fs in lattice.items():
            for f in fs:
                base, *rest = (ipts[i] for i in sorted(f))
                assert len(echelon([[a - b for a, b in zip(p, base)] for p in rest])) == k


def test_incidence_structure_refuses_facets_outside_its_vertices():
    # facet i is a nonempty vertex mask below 1 << vertex_count; the error
    # names the first facet that is not
    for facets, index in (
        ([0b0011, 0b10001], 1),
        ([0b10000, 0b0011], 0),
        ([0b0011, 0], 1),
        ([-1], 0),
    ):
        with pytest.raises(ValueError, match=f"facet {index} "):
            IncidenceStructure(4, facets)
    # a facet given as a vertex set is not a mask
    with pytest.raises(TypeError):
        IncidenceStructure(4, [{0, 7}])
    inc = IncidenceStructure(4, [0b1111, 0b0001])
    assert inc.facets == (0b1111, 0b0001) and inc.facet_count == 2
    assert inc.incidence == (frozenset({0, 1, 2, 3}), frozenset({0}))


def test_incidence_structure_refuses_a_repeated_facet():
    # the lattice keys its faces by mask, so a repeated facet would be
    # counted in facet_count and dropped from the f-vector; the error names
    # the repeat and the facet it repeats
    for facets, index, first in (
        ([0b0011, 0b0110, 0b1100, 0b1001, 0b0011], 4, 0),
        ([0b0011, 0b0110, 0b0110], 2, 1),
    ):
        with pytest.raises(ValueError, match=f"facet {index} repeats facet {first}$"):
            IncidenceStructure(4, facets)


def test_coordinate_free_lattice_is_the_same():
    rng = random.Random(7)
    structures = [facets_from_vrep(projected_cube(5, 4).shadow)]
    while len(structures) < 16:
        try:
            structures.append(facets_from_vrep(_random_point_set(rng, 2 + len(structures) % 3)))
        except SpanError:
            continue
    for inc in structures:
        bare = IncidenceStructure(inc.vertex_count, inc.facets)
        assert face_lattice(bare) == face_lattice(inc)
        assert f_vector(bare) == f_vector(inc)


def _frozenset_view(inc):
    """Each stored mask as the frozenset of its set bits, each level sorted."""
    return {
        k: tuple(
            sorted(
                (frozenset(i for i in range(inc.vertex_count) if m >> i & 1) for m in masks),
                key=sorted,
            )
        )
        for k, masks in face_masks(inc).items()
    }


def test_face_masks_match_face_lattice():
    structures = [
        facets_from_vrep(projected_cube(n, d).shadow) for n in range(2, 7) for d in range(2, n + 1)
    ]
    structures += [
        facets_from_vrep(VPolytope(4, classify.CUBICAL_WITNESS_POINTS)),
        facets_from_vrep(VPolytope(4, classify.NONCUBICAL_WITNESS_POINTS)),
        facets_from_vrep(classify.first_construction(4)[1]),
        facets_from_vrep(classify.first_construction(6)[1]),
    ]
    # faces whose cuts have more than one size, so that only the neighbours
    # are handed down: cyclic polytopes (the benchmark's pairs) and shadows
    # with n > d
    cyclic_pairs = ((10, 4), (12, 4), (9, 5), (11, 6))
    structures += [facets_from_vrep(cyclic_configuration(n, d)) for n, d in cyclic_pairs]
    structures += [facets_from_vrep(projected_cube(n, d).shadow) for n, d in ((7, 5), (8, 6))]
    rng = random.Random(20261018)
    want = len(structures) + 40
    while len(structures) < want:
        try:
            structures.append(facets_from_vrep(_random_point_set(rng, 2 + len(structures) % 3)))
        except SpanError:
            continue
    # 0/1-polytopes: random vertex subsets of the 5-cube and the 6-cube
    rng = random.Random(20261021)
    zero_one = []
    for d, count in ((5, 16), (6, 8)):
        corners = list(product((0, 1), repeat=d))
        want = len(zero_one) + count
        while len(zero_one) < want:
            try:
                v = VPolytope(d, sorted(rng.sample(corners, rng.randint(d + 1, len(corners)))))
                zero_one.append(facets_from_vrep(v))
            except SpanError:
                continue
    # the two places where the list of cuts must agree with the set of them:
    # a face whose cuts have two sizes, and a face that two facets cut alike
    mixed = repeated = False
    for inc in zero_one:
        for fs in face_masks(inc).values():
            for f in fs:
                cuts = [f & g for g in inc.facets if 0 != f & g != f]
                mixed |= len(set(map(int.bit_count, cuts))) > 1
                repeated |= len(set(cuts)) < len(cuts)
    assert mixed and repeated
    structures += zero_one
    for inc in structures:
        masks = face_masks(inc)
        assert all(type(level) is frozenset for level in masks.values())
        assert list(face_lattice(inc).items()) == list(_frozenset_view(inc).items())
        assert masks == all_facets_face_masks(inc)
        # the masks are the one lattice the structure stores
        assert inc._lattice is masks and face_masks(inc) is masks


# ---------------------------------------------------------------------------
# the hull and the lattice against the full-scan forms they replace
# ---------------------------------------------------------------------------


def _full_scan_extreme_rays(rows, width, branches=None):
    """Reference for ``polytope._extreme_rays``: the same double description
    with the combinatorial adjacency test run as a scan of every current ray
    for one that vanishes on the pair's common zero set.  ``branches``, when
    given, counts the pairs that reach the test by the branch the library
    takes: "simple" when either zero set has width-1 rows, else "indexed",
    and holds at "first indexed cut" the number of cuts made before the
    first "indexed" pair (the library builds its row index there)."""
    basis = [i for i, _, _ in echelon(rows)]
    if len(basis) < width:
        return None
    rays, zeros = [], []
    for i in basis:
        ray = echelon_kernel(echelon([rows[j] for j in basis if j != i]), width)
        if sum(a * b for a, b in zip(rows[i], ray)) < 0:
            ray = tuple(-x for x in ray)
        rays.append(ray)
        zeros.append(sum(1 << j for j in basis if j != i))
    in_basis = set(basis)
    for cut, k in enumerate(k for k in range(len(rows)) if k not in in_basis):
        row = rows[k]
        vals = [sum(a * b for a, b in zip(row, ray)) for ray in rays]
        pos = [i for i, s in enumerate(vals) if s > 0]
        neg = [i for i, s in enumerate(vals) if s < 0]
        new_rays, new_zeros = [], []
        for p in pos:
            for q in neg:
                common = zeros[p] & zeros[q]
                if common.bit_count() < width - 2:
                    continue
                if branches is not None:
                    simple = width - 1 in (zeros[p].bit_count(), zeros[q].bit_count())
                    branches["simple" if simple else "indexed"] += 1
                    if not simple:
                        branches.setdefault("first indexed cut", cut)
                if any(z & common == common for i, z in enumerate(zeros) if i != p and i != q):
                    continue
                sp, sq = vals[p], vals[q]
                new_rays.append(primitive([sp * b - sq * a for a, b in zip(rays[p], rays[q])]))
                new_zeros.append(common | 1 << k)
        keep = [i for i, s in enumerate(vals) if s >= 0]
        rays = [rays[i] for i in keep] + new_rays
        zeros = [zeros[i] | (1 << k if vals[i] == 0 else 0) for i in keep] + new_zeros
    return list(zip(rays, zeros))


def all_facets_face_masks(inc):
    """Reference for ``face_masks``: the same top-down grading, with every
    face intersected with every facet; built afresh on each call."""
    facets = [sum(1 << i for i in f) for f in inc.incidence]
    levels = [frozenset(facets)]
    while True:
        below = set()
        for f in levels[-1]:
            cuts = sorted({f & g for g in facets} - {0, f}, key=int.bit_count, reverse=True)
            kept = []
            for cut in cuts:
                if all(cut & k != cut for k in kept):
                    kept.append(cut)
            below.update(kept)
        if not below:
            break
        levels.append(frozenset(below))
    top = len(levels) - 1
    return {top - depth: levels[depth] for depth in range(top, -1, -1)}


def _homogenized(v):
    """The rows ``facets_from_vrep`` hands to ``_extreme_rays``."""
    return [p + (1,) for p in v.coords]


@st.composite
def _box_point_sets(draw):
    """Some corners of [-2, 2]^d, d = 2..4, and grid points of the box, half
    of them moved onto one of its facets: facets and intermediate rays with
    more than d points, so zero sets exceed width-1."""
    d = draw(st.integers(2, 4))
    corners = list(product((-2, 2), repeat=d))
    pts = set(draw(st.lists(st.sampled_from(corners), min_size=1, max_size=len(corners))))
    for p in draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), max_size=6)):
        if draw(st.booleans()):
            p[draw(st.integers(0, d - 1))] = draw(st.sampled_from((-2, 2)))
        pts.add(tuple(p))
    return VPolytope(d, sorted(pts))


@settings(max_examples=200, deadline=None)
@given(_box_point_sets())
def test_hull_and_lattice_match_references_on_drawn_sets(v):
    rows = _homogenized(v)
    rays = _extreme_rays(rows, v.dim + 1)
    assert rays == _full_scan_extreme_rays(rows, v.dim + 1)
    if rays is None:
        with pytest.raises(SpanError):
            facets_from_vrep(v)
        return
    inc = facets_from_vrep(v)
    assert (list(inc.incidence), list(inc.inequalities)) == _brute_force_facets(v)
    assert face_masks(inc) == all_facets_face_masks(inc)


def _same_structure(a, b):
    return (a.vertex_count, a.incidence, a.inequalities, a.labels) == (
        b.vertex_count, b.incidence, b.inequalities, b.labels
    )


def _rescaled(v, k):
    """The points of ``v`` again, as coords times k over scale times k."""
    return VPolytope(v.dim, [tuple(k * x for x in p) for p in v.coords], v.labels, k * v.scale)


@settings(max_examples=100, deadline=None)
@given(_box_point_sets(), st.integers(2, 10**12))
def test_hull_is_the_same_at_every_scale(v, k):
    # the primitive facet inequalities do not depend on the common
    # denominator, nor does the incidence
    try:
        inc = facets_from_vrep(v)
    except SpanError:
        with pytest.raises(SpanError):
            facets_from_vrep(_rescaled(v, k))
        return
    assert _same_structure(facets_from_vrep(_rescaled(v, k)), inc)


def test_hull_is_the_same_at_every_scale_on_rational_sets():
    rng = random.Random(20261019)
    checked = 0
    while checked < 30:
        d = 2 + checked % 3
        pts = {
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
            for _ in range(rng.randint(d + 1, 9))
        }
        v = VPolytope(d, sorted(pts), labels=[(i,) for i in range(len(pts))])
        try:
            inc = facets_from_vrep(v)
        except SpanError:
            continue
        for k in (2, 3, 7 ** 20):
            assert _same_structure(facets_from_vrep(_rescaled(v, k)), inc)
        checked += 1


def test_rational_and_integer_points_give_one_polytope():
    rational = [(Fraction(1, 2), Fraction(-3, 4)), (2, Fraction(5, 6)), (Fraction(-4, 3), 0)]
    labels = [(1, -1), (1, 1), (-1, 1)]
    a = VPolytope(2, rational, labels)
    assert a.scale == 12 and a.coords == ((6, -9), (24, 10), (-16, 0))
    # the same points at a scale that is not the least one
    b = VPolytope(2, [(30, -45), (120, 50), (-80, 0)], labels, scale=60)
    assert all(type(x) is int for p in a.coords + b.coords for x in p)
    assert a.points == b.points == tuple(
        tuple(Fraction(x) for x in p) for p in rational
    )
    assert a.to_json_dict() == b.to_json_dict() == {
        "dim": 2,
        "points": [["1/2", "-3/4"], ["2", "5/6"], ["-4/3", "0"]],
        "labels": ["+-", "++", "-+"],
    }
    # whole-valued Fractions become ints and leave the scale at 1
    c = VPolytope(2, [(Fraction(4, 2), 1), (0, Fraction(3))])
    assert c.scale == 1 and c.coords == ((2, 1), (0, 3))
    assert [type(x) for p in c.coords for x in p] == [int] * 4


def test_vpolytope_checks_hold_on_integer_points():
    with pytest.raises(ValueError, match="pairwise distinct"):
        VPolytope(2, [(2, 4), (2, 4)], scale=2)
    with pytest.raises(ValueError, match="pairwise distinct"):
        # one point, 3/2, once with a whole-valued Fraction entry
        VPolytope(1, [(Fraction(6, 2),), (3,)], scale=2)
    with pytest.raises(DimensionError):
        VPolytope(2, [(1, 2), (3,)], scale=5)
    with pytest.raises(ValueError, match="one label per point"):
        VPolytope(1, [(1,), (2,)], labels=[(1,)], scale=4)
    with pytest.raises(ValueError, match="labels must be pairwise distinct"):
        VPolytope(1, [(1,), (2,)], labels=[(1,), (1,)], scale=4)
    with pytest.raises(ValueError, match="uniform length"):
        VPolytope(1, [(1,), (2,)], labels=[(1,), (1, -1)], scale=4)
    for scale in (0, -2, 2.0, Fraction(1, 2)):
        with pytest.raises(ValueError, match="scale must be a positive int"):
            VPolytope(1, [(1,)], scale=scale)


def test_vpolytope_refuses_float_points():
    with pytest.raises(TypeError, match="not float"):
        VPolytope(2, [(0.1, 0), (1, 1), (0, 1)])


def test_hpolytope_refuses_float_entries():
    with pytest.raises(TypeError, match="not float"):
        HPolytope(2, [((1, 0), 1), ((0, 0.5), 1)])
    with pytest.raises(TypeError, match="not float"):
        HPolytope(1, [((1,), 0.25)])


def _adjacency_branches(v):
    branches = Counter()
    _full_scan_extreme_rays(_homogenized(v), v.dim + 1, branches)
    return branches


@pytest.mark.parametrize("branch", ["simple", "indexed"])
def test_drawn_sets_reach_both_adjacency_branches(branch):
    # ``find`` raises NoSuchExample when no drawn set takes the branch
    find(
        _box_point_sets(),
        lambda v: _adjacency_branches(v)[branch] > 0,
        settings=settings(database=None, max_examples=500, phases=[Phase.generate]),
        random=random.Random(21),
    )


def _cone_calls(monkeypatch, run):
    """The (rows, width) of every ``_extreme_rays`` call ``run()`` makes."""
    calls = []
    original = polytope._extreme_rays
    monkeypatch.setattr(
        polytope,
        "_extreme_rays",
        lambda rows, width: calls.append((rows, width)) or original(rows, width),
    )
    run()
    return calls


def _first_indexed_cut(rows, width):
    """The rays must equal the full scan's; returns the number of cuts made
    before the first pair that needs the third-ray search (None when no pair
    does), and the number of cuts."""
    branches = Counter()
    assert _extreme_rays(rows, width) == _full_scan_extreme_rays(rows, width, branches)
    return branches.get("first indexed cut"), len(rows) - width


@pytest.mark.parametrize("n", range(2, 9))
def test_extreme_rays_match_full_scan_when_no_pair_needs_the_search(monkeypatch, n):
    # every pair of the deformed cube's H->V has a simple side, so the row
    # index is never built; nor is it for a simplicial cyclic hull
    (call,) = _cone_calls(
        monkeypatch, lambda: vertices_and_tight_sets(build_deformed_cube(n, Fraction(1, 2)))
    )
    assert _first_indexed_cut(*call) == (None, n)
    for d in range(2, min(n, 6)):
        first, cuts = _first_indexed_cut(_homogenized(cyclic_configuration(n + 1, d)), d + 1)
        assert first is None and cuts == n - d


@pytest.mark.parametrize("d", [3, 4])
def test_extreme_rays_match_full_scan_when_the_search_comes_late(monkeypatch, d):
    # the d-cube cut by sum x <= d - 2 keeps a simple side on every pair;
    # the cut x_1 <= 1/2 after it separates two vertices of that cut's
    # facet, each on d + 1 facets, so the row index is first built there
    extra = [((1,) * d, d - 2), ((1,) + (0,) * (d - 1), Fraction(1, 2))]
    h = HPolytope(d, [*_cube_hrep(d).inequalities, *extra])
    (call,) = _cone_calls(monkeypatch, lambda: vertices_and_tight_sets(h))
    first, cuts = _first_indexed_cut(*call)
    # the last cut is t >= 0, which every vertex of the cone meets
    assert first == cuts - 2


@pytest.mark.parametrize("n,d", [(5, 3), (5, 4), (6, 4), (6, 6)])
def test_extreme_rays_match_full_scan_when_the_search_comes_early(n, d):
    # a cube shadow needs the search at its third cut of dozens (at the
    # first, every ray of the simplicial start is simple), so the row index
    # is built early and kept up to the end
    first, cuts = _first_indexed_cut(_homogenized(projected_cube(n, d).shadow), d + 1)
    assert first == 2 and cuts > 25


@pytest.fixture
def full_scan_checked(monkeypatch):
    """Every ``_extreme_rays`` call the library makes is checked against the
    full-scan reference, ray for ray and zero set for zero set, in order;
    the returned Counter counts the calls by width."""
    widths = Counter()
    original = polytope._extreme_rays

    def checked(rows, width):
        rays = original(rows, width)
        assert rays == _full_scan_extreme_rays(rows, width)
        widths[width] += 1
        return rays

    monkeypatch.setattr(polytope, "_extreme_rays", checked)
    return widths


def test_extreme_rays_match_full_scan_on_h_systems(full_scan_checked):
    for h in _random_box_cuts():
        vertices_and_tight_sets(h)
    for h in _rank_deficient_systems(200):
        with pytest.raises(NcpolyError):
            vertices_and_tight_sets(h)
    classify.first_construction(4)  # H->V and V->H of one system
    assert sum(full_scan_checked.values()) >= 30 + 200 + 2


@pytest.mark.parametrize("n", range(2, 9))
def test_extreme_rays_match_full_scan_on_the_grid(full_scan_checked, n):
    # both hull directions of every (n, d): H->V of the deformed cube and
    # V->H of its projection
    for d in range(2, n + 1):
        facets_from_vrep(projected_cube(n, d).shadow)
    assert full_scan_checked[n + 1] >= 1
    assert sum(full_scan_checked.values()) >= 2 * (n - 1)
