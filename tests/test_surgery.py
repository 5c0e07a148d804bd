from collections import Counter
from itertools import combinations, product

import pytest

from ncpoly import signvec, surgery
from ncpoly.complexes import CubicalComplex, _link_is_surface, from_cube_facets
from ncpoly.errors import ConstructionError
from ncpoly.gale import facet_vertex_masks, facets_gale, to_sign_vector
from ncpoly.skeleton import dehn_sommerville_check
from ncpoly.surgery import (
    FACET_A,
    FACET_B,
    FACET_C,
    boundary_complex,
    build_psi,
    chain_edge_facet_degrees,
    intersection_lemma_check,
    phi_boundary_faces,
    verify_sphere_like,
)
from test_complexes import face_dim, is_subface, meet, opposite, subfaces, zero_positions

# the chain as sign vectors: the gale labels the surgery's masks come from
CHAIN = tuple(map(signvec.parse, ("-+00+0", "-00++0", "--0+00")))


def _boundary_sign_vectors():
    return [to_sign_vector(a, surgery.N) for a in facets_gale(surgery.N, surgery.D)]


def _boundary_masks():
    return facet_vertex_masks(surgery.N, surgery.D)


def _phi():
    # the chain A u B u C as a subcomplex of the boundary
    return from_cube_facets([FACET_A, FACET_B, FACET_C])


def test_chain_meets():
    assert tuple(map(signvec.vertex_set, CHAIN)) == (FACET_A, FACET_B, FACET_C)
    ab = FACET_A & FACET_B
    bc = FACET_B & FACET_C
    assert ab == signvec.vertex_set(signvec.parse("-+0++0"))
    assert bc == signvec.vertex_set(signvec.parse("--0++0"))
    assert FACET_A & FACET_C == 0
    assert ab.bit_count() == 4
    assert bc.bit_count() == 4


def test_phi_has_16_vertices():
    assert {FACET_A, FACET_B, FACET_C} <= _boundary_masks()
    phi = _phi()
    # three 3-cubes sharing two quadrilaterals: 8 + 8 + 8 - 4 - 4
    assert phi.f_vector()[0] == 16
    assert len(phi.facets()) == 3


def test_phi_boundary_is_a_2_sphere():
    bd = from_cube_facets(phi_boundary_faces())
    assert bd.dim == 2
    assert bd.euler_characteristic() == 2
    assert bd.is_connected()
    quads = bd.faces_by_dim[2]
    for e in bd.faces_by_dim[1]:
        assert sum(1 for q in quads if e & q == e) == 2
    assert len(quads) == 14


def test_rejected_candidate_patterns_are_not_facets():
    # facets of the shape (-,0,u,0,+,v) or (-,0,w,+,0,x) would break the
    # chain-disjointness argument; none may exist
    facets = set(_boundary_sign_vectors())
    assert {signvec.vertex_set(f) for f in facets} == _boundary_masks()
    for f in facets:
        assert not (f[0] == -1 and f[1] == 0 and f[3] == 0 and f[4] == 1)
        assert not (f[0] == -1 and f[1] == 0 and f[3] == 1 and f[4] == 0)


def test_intersection_lemma():
    assert intersection_lemma_check()
    assert len(_boundary_masks()) - 3 == 61


def test_psi_f_vector():
    psi = build_psi()
    base = boundary_complex()
    assert psi.f_vector() == (64, 196, 198, 66)
    assert base.f_vector() == (64, 192, 192, 64)
    diff = tuple(a - b for a, b in zip(psi.f_vector(), base.f_vector()))
    assert diff == (0, 4, 6, 2)


def test_psi_stays_cubical_and_valid():
    psi = build_psi()
    psi.validate()  # 2^k vertex counts, cover counts, intersection closure
    assert dehn_sommerville_check(psi.f_vector(), 4)


def test_psi_sphere_certificate():
    report = verify_sphere_like(build_psi())
    assert report.ridges_in_two_facets
    assert report.connected
    assert report.euler_zero
    assert report.links_ok
    assert report.ok


def test_unmodified_boundary_passes_certificate():
    report = verify_sphere_like(boundary_complex())
    assert report.ok


def test_phi_alone_fails_closedness():
    report = verify_sphere_like(_phi())
    assert not report.ridges_in_two_facets
    assert not report.ok


def test_chain_edge_degrees():
    degrees = chain_edge_facet_degrees()
    assert len(degrees) == 8
    values = sorted(degrees.values())
    assert all(v >= 4 for v in values)
    assert values.count(5) == 4
    # keyed by edge mask: the edges of B-C and B-A, counted on sign vectors
    facet_a, facet_b, facet_c = CHAIN
    facets = _boundary_sign_vectors()
    want = {
        signvec.vertex_set(edge): sum(is_subface(edge, f) for f in facets)
        for other in (facet_c, facet_a)
        for edge in subfaces(opposite(facet_b, meet(facet_b, other)), 1)
    }
    assert degrees == want


def _torus():
    """The cubical 3-torus on Z_4^3: vertex ID x + 4y + 16z, and from each
    vertex one face for each set of directions it spans."""
    faces_by_dim = {}
    for x, y, z in product(range(4), repeat=3):
        for dx, dy, dz in product((0, 1), repeat=3):
            ids = {
                (x + a) % 4 + 4 * ((y + b) % 4) + 16 * ((z + c) % 4)
                for a in range(dx + 1)
                for b in range(dy + 1)
                for c in range(dz + 1)
            }
            faces_by_dim.setdefault(dx + dy + dz, set()).add(_mask(ids))
    return CubicalComplex(faces_by_dim)


def test_torus_passes_the_sphere_certificate():
    # a recorded limit: verify_sphere_like checks necessary conditions only,
    # and this torus, with the f-vector of the boundary of C_4^6, passes them
    # all though it is no sphere; telling the two apart needs a shelling
    torus = _torus()
    torus.validate()
    assert torus.f_vector() == boundary_complex().f_vector() == (64, 192, 192, 64)
    report = verify_sphere_like(torus)
    assert report.ridges_in_two_facets
    assert report.connected
    assert report.euler_zero
    assert report.links_ok
    assert report.ok


def test_counter_example_property():
    from ncpoly.gale import f_formula

    psi = build_psi()
    assert psi.f_vector()[3] == 66 > f_formula(6, 4) == 64


# ---------------------------------------------------------------------------
# references: the earlier, hand-written forms of the surgery and the sphere
# checks, kept to compare the face-operation versions against
# ---------------------------------------------------------------------------


def _mask(vertex_ids):
    """A face given by its vertex IDs, as the vertex bitmask complexes use."""
    return sum(1 << v for v in vertex_ids)


def _id_sets(cx):
    """The faces of ``cx`` as frozensets of vertex IDs, by dimension: the
    earlier face format the reference scans below were written for."""
    return {k: {signvec.members(f) for f in fs} for k, fs in cx.faces_by_dim.items()}


def _sorted_ids(face):
    """The sorted vertex IDs of a face: the order the tests pick faces in."""
    return sorted(signvec.members(face))


def _reference_glue_ball_cells():
    """The glued cells built vertex by vertex from coordinate tuples."""

    def bits(vt):
        return sum(1 << i for i, s in enumerate(vt) if s == 1)

    facet_a, facet_b, facet_c = CHAIN
    ab = meet(facet_a, facet_b)
    bc = meet(facet_b, facet_c)
    top = opposite(facet_a, ab)
    bottom = opposite(facet_c, bc)
    p, q = zero_positions(top)

    def vert(base, sp, sq):
        sv = list(base)
        sv[p] = sp
        sv[q] = sq
        return bits(sv)

    edges = []
    for sp in (-1, 1):
        for sq in (-1, 1):
            edges.append(frozenset({vert(top, sp, sq), vert(bottom, sp, sq)}))

    central = frozenset(
        vert(base, sp, sq)
        for base in (top, bottom)
        for sp in (-1, 1)
        for sq in (-1, 1)
    )

    side_quads = []
    for pos, other in ((p, q), (q, p)):
        for s in (-1, 1):
            quad = set()
            for base in (top, bottom):
                for t in (-1, 1):
                    sv = list(base)
                    sv[pos] = s
                    sv[other] = t
                    quad.add(bits(sv))
            side_quads.append((pos, s, frozenset(quad)))

    path_quads = []
    for sp in (-1, 1):
        for sq in (-1, 1):
            quad = {vert(top, sp, sq), vert(ab, sp, sq), vert(bc, sp, sq), vert(bottom, sp, sq)}
            path_quads.append(frozenset(quad))

    phi_vertices = signvec.members(
        signvec.vertex_set(facet_a) | signvec.vertex_set(facet_b) | signvec.vertex_set(facet_c)
    )
    side_cubes = [
        frozenset(b for b in phi_vertices if signvec.vertex_tuple_from_bits(b, surgery.N)[pos] == s)
        for pos, s, _ in side_quads
    ]
    quads = [fq for _, _, fq in side_quads] + path_quads
    return tuple(list(map(_mask, cells)) for cells in (edges, quads, [central] + side_cubes))


def _reference_intersection_lemma_check(chain, facets):
    """The lemma on sign vectors, for the chain (A, B, C) among ``facets``:
    the boundary closed under subfaces and its maximal common face found by
    a scan; the disjointness half is unchanged."""
    facet_a, facet_b, facet_c = chain
    ab = meet(facet_a, facet_b)
    bc = meet(facet_b, facet_c)
    others = [f for f in facets if f not in chain]
    quads = Counter(q for top in chain for q in subfaces(top, 2))
    boundary_all = set()
    for q, c in quads.items():
        if c == 1 and q not in (ab, bc):
            for k in range(3):
                boundary_all.update(subfaces(q, k))
    for facet in others:
        common = [w for w in boundary_all if is_subface(w, facet)]
        if not common:
            continue
        maximal = [w for w in common if not any(u != w and is_subface(w, u) for u in common)]
        if len(maximal) != 1:
            return False
        top = maximal[0]
        if set(common) != set(sub for k in range(face_dim(top) + 1) for sub in subfaces(top, k)):
            return False
    pairs = (
        (opposite(facet_a, ab), opposite(facet_b, ab)),
        (opposite(facet_b, bc), opposite(facet_c, bc)),
        (opposite(facet_a, ab), opposite(facet_c, bc)),
    )
    for x, y in pairs:
        xv = signvec.vertex_set(x)
        yv = signvec.vertex_set(y)
        for facet in others:
            fv = signvec.vertex_set(facet)
            if fv & xv and fv & yv:
                return False
    return True


def _reference_is_connected(cx):
    verts = sorted(cx.vertex_ids)
    if not verts:
        return True
    adj = {v: set() for v in verts}
    for e in _id_sets(cx).get(1, ()):
        a, b = sorted(e)
        adj[a].add(b)
        adj[b].add(a)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def _reference_vertex_link_surface_check(cx, v):
    by_dim = _id_sets(cx)
    edges = [f for f in by_dim.get(1, ()) if v in f]
    quads = [f for f in by_dim.get(2, ()) if v in f]
    cubes = [f for f in by_dim.get(3, ()) if v in f]
    if len(edges) - len(quads) + len(cubes) != 2:
        return False
    for q in quads:
        if sum(1 for c in cubes if q < c) != 2:
            return False
    if not cubes:
        return False
    quad_to_cubes = {}
    for c in cubes:
        for q in quads:
            if q < c:
                quad_to_cubes.setdefault(q, []).append(c)
    seen = {cubes[0]}
    stack = [cubes[0]]
    while stack:
        c = stack.pop()
        for q, cs in quad_to_cubes.items():
            if q < c:
                for c2 in cs:
                    if c2 not in seen:
                        seen.add(c2)
                        stack.append(c2)
    return len(seen) == len(cubes)


def _boundary_chains():
    """Every chain (A, B, C) of boundary facets of (6,4) whose consecutive
    meets are quadrilaterals and whose ends are disjoint."""
    facets = _boundary_sign_vectors()

    def quad_meet(f, g):
        m = meet(f, g)
        return m is not None and face_dim(m) == 2

    return [
        (a, b, c)
        for b in facets
        for a in facets
        if quad_meet(a, b)
        for c in facets
        if c != a and quad_meet(b, c) and meet(a, c) is None
    ]


def _link_at(cx, v):
    # the per-vertex verdict inside vertex_links_are_surfaces: the link test
    # on the edges, quads and cubes at v
    return _link_is_surface(*([f for f in cx.faces_by_dim.get(k, ()) if f >> v & 1] for k in (1, 2, 3)))


def _cubical_cone(triangles):
    """A cubical complex whose link at vertex 0 is the simplicial complex
    ``triangles``: each triangle T spans the cube of the subsets of T
    (vertex ID = bitmask), with every interval [A, B] inside it a face."""

    def subsets(mask):
        out = [0]
        for i in range(mask.bit_length()):
            if mask >> i & 1:
                out += [s | 1 << i for s in out]
        return out

    faces_by_dim = {}
    for t in triangles:
        for upper in subsets(sum(1 << x for x in t)):
            for lower in subsets(upper):
                face = _mask(lower | s for s in subsets(upper & ~lower))
                faces_by_dim.setdefault(bin(upper & ~lower).count("1"), set()).add(face)
    return CubicalComplex(faces_by_dim)


def _octahedron(xp, xm, yp, ym, zp, zm):
    """Triangles of the octahedron with antipodal pairs (xp, xm), (yp, ym),
    (zp, zm): one vertex from each pair."""
    return [(x, y, z) for x in (xp, xm) for y in (yp, ym) for z in (zp, zm)]


def _loose_complex():
    """A 3-cube with a path of two edges through a vertex (8) in no cube,
    and a vertex (9) in no edge: the link of 8 has Euler characteristic 2."""
    cube = from_cube_facets([signvec.vertex_set((0, 0, 0))])
    return CubicalComplex(
        {
            0: set(cube.faces_by_dim[0]) | {_mask({8}), _mask({9})},
            1: set(cube.faces_by_dim[1]) | {_mask({8, 0}), _mask({8, 1})},
            2: cube.faces_by_dim[2],
            3: cube.faces_by_dim[3],
        }
    )


def _reference_validate(cx):
    """The earlier ``CubicalComplex.validate``, which intersected every pair
    of faces; returns its error message, or None when it accepts."""
    by_dim = _id_sets(cx)
    for k, faces in by_dim.items():
        for f in faces:
            if len(f) != 2 ** k:
                return f"{k}-face with {len(f)} vertices"
    for k in sorted(by_dim):
        if k == 0:
            continue
        below = by_dim.get(k - 1, frozenset())
        for f in by_dim[k]:
            cnt = sum(1 for g in below if g < f)
            if cnt != 2 * k:
                return f"{k}-face with {cnt} codimension-1 subfaces"
    all_faces = [f for faces in by_dim.values() for f in faces]
    face_set = set(all_faces)
    for a, b in combinations(all_faces, 2):
        c = a & b
        if c and c not in face_set:
            return "face family not closed under intersection"
    return None


def _squares_sharing_a_diagonal():
    """Squares 0-1-3-2 and 0-4-3-5: they share the vertices 0 and 3 but no
    edge, so the two facets meet in a set that is not a face."""
    squares = [(0, 1, 3, 2), (0, 4, 3, 5)]
    return CubicalComplex(
        {
            0: {_mask({v}) for v in range(6)},
            1: {_mask({q[i], q[i - 1]}) for q in squares for i in range(4)},
            2: {_mask(q) for q in squares},
        }
    )


def test_validate_matches_all_pairs_reference():
    psi = build_psi()
    cut = min(psi.faces_by_dim[3], key=_sorted_ids)
    psi_cut = CubicalComplex({**psi.faces_by_dim, 3: psi.faces_by_dim[3] - {cut}})
    for cx in (psi, boundary_complex(), _phi(), psi_cut):
        cx.validate()
        assert _reference_validate(cx) is None


def _reference_scan_validate(cx):
    """``CubicalComplex.validate`` with its codimension-1 count done by the
    earlier scan over every (k-face, (k-1)-face) pair; returns the error
    message, or None when it accepts."""
    by_dim = _id_sets(cx)
    for k, faces in by_dim.items():
        for f in faces:
            if len(f) != 2 ** k:
                return f"{k}-face with {len(f)} vertices"
    for k in sorted(by_dim):
        if k == 0:
            continue
        below = by_dim.get(k - 1, frozenset())
        for f in by_dim[k]:
            cnt = sum(1 for g in below if g < f)
            if cnt != 2 * k:
                return f"{k}-face with {cnt} codimension-1 subfaces"
    face_set = {f for faces in by_dim.values() for f in faces}
    facets = by_dim[max(by_dim)]
    if not all(any(f <= g for g in facets) for f in face_set):
        return "face in no facet"
    for a, b in combinations(facets, 2):
        c = a & b
        if c and c not in face_set:
            return "face family not closed under intersection"
    return None


def _reference_is_pseudomanifold(cx):
    """The earlier all-pairs ridge-in-facet scan."""
    by_dim = _id_sets(cx)
    top = cx.dim
    ridges = by_dim.get(top - 1, frozenset())
    return all(sum(1 for f in by_dim[top] if r < f) == 2 for r in ridges)


def _validate_message(cx):
    try:
        cx.validate()
    except ConstructionError as exc:
        return str(exc)
    return None


def _one_face_changed(cx):
    """Copies of ``cx`` with its first face of some dimension dropped, and
    with one extra face: a new vertex, or the union of two disjoint
    (k-1)-faces that is not already a k-face."""
    by_dim = cx.faces_by_dim
    out = []
    for k in sorted(by_dim):
        out.append(CubicalComplex({**by_dim, k: by_dim[k] - {min(by_dim[k], key=_sorted_ids)}}))
    out.append(CubicalComplex({**by_dim, 0: by_dim[0] | {_mask({max(cx.vertex_ids) + 1})}}))
    for k in range(1, cx.dim + 1):
        below = sorted(by_dim[k - 1], key=_sorted_ids)
        extra = next(
            a | b for a, b in combinations(below, 2) if not a & b and a | b not in by_dim[k]
        )
        out.append(CubicalComplex({**by_dim, k: by_dim[k] | {extra}}))
    return out


def test_indexed_counts_match_all_pairs_scans():
    from ncpoly.classify import neighborly_triples, pklm_sphere

    spheres = [build_psi(), boundary_complex()]
    spheres += [pklm_sphere(d, t) for d in (4, 5, 6) for t in neighborly_triples(d)]
    outcomes = []
    for sphere in spheres:
        for cx in [sphere, *_one_face_changed(sphere)]:
            want = _reference_scan_validate(cx), _reference_is_pseudomanifold(cx)
            assert (_validate_message(cx), cx.is_pseudomanifold()) == want
            outcomes.append(want)
    # every sphere is accepted, and the changed copies are refused both ways
    assert outcomes.count((None, True)) >= len(spheres)
    assert any(msg and "codimension-1" in msg for msg, _ in outcomes)
    assert any(msg is None for msg, ok in outcomes if not ok)


def test_validate_refuses_facets_meeting_outside_a_face():
    cx = _squares_sharing_a_diagonal()
    assert _reference_validate(cx) == "face family not closed under intersection"
    with pytest.raises(ConstructionError, match="not closed under intersection"):
        cx.validate()


def test_validate_refuses_a_face_in_no_facet():
    # the all-pairs scan accepted the edges and vertices outside the cube
    loose = _loose_complex()
    assert _reference_validate(loose) is None
    with pytest.raises(ConstructionError, match="face in no facet"):
        loose.validate()


def test_glued_cells_match_reference():
    assert surgery._glue_ball_cells() == _reference_glue_ball_cells()


def test_intersection_lemma_matches_reference_on_every_chain(monkeypatch):
    chains = _boundary_chains()
    assert len(chains) == 384
    facets = _boundary_sign_vectors()
    outcomes = []
    for chain in chains:
        for name, f in zip(("FACET_A", "FACET_B", "FACET_C"), chain):
            monkeypatch.setattr(surgery, name, signvec.vertex_set(f))
        got = intersection_lemma_check()
        assert got == _reference_intersection_lemma_check(chain, facets), chain
        outcomes.append(got)
    assert outcomes.count(True) == 8
    assert CHAIN in [t for t, ok in zip(chains, outcomes) if ok]


def test_a_chain_meeting_in_an_edge_is_refused(monkeypatch):
    # consecutive chain facets must share a quad: here A and B of the
    # boundary of (6,4) share only an edge, B and C a quad, A and C nothing
    facets = sorted(_boundary_masks())
    chain = next(
        (a, b, c)
        for a in facets
        for b in facets
        if (a & b).bit_count() == 2
        for c in facets
        if (b & c).bit_count() == 4 and not a & c
    )
    for name, f in zip(("FACET_A", "FACET_B", "FACET_C"), chain):
        monkeypatch.setattr(surgery, name, f)
    for call in (intersection_lemma_check, build_psi, chain_edge_facet_degrees):
        with pytest.raises(ConstructionError, match="^the three facets do not form a chain$"):
            call()


def test_lemma_refuses_a_facet_through_an_inner_quad(monkeypatch):
    # the 3-face 0+0++0 holds the quad A-B of the chain, so it meets the
    # chain boundary in that quad's four edges, not in one face; it touches
    # no pair the disjointness half looks at, so only the closure half sees it
    extra = signvec.parse("0+0++0")
    masks = _boundary_masks() | {signvec.vertex_set(extra)}
    monkeypatch.setattr(surgery, "facet_vertex_masks", lambda n, d: masks)
    assert _reference_intersection_lemma_check(CHAIN, _boundary_sign_vectors() + [extra]) is False
    assert intersection_lemma_check() is False


@pytest.mark.parametrize("missing", ["FACET_A", "FACET_B", "FACET_C"])
def test_build_psi_refuses_a_chain_facet_missing_from_the_boundary(monkeypatch, missing):
    # without its membership check, the surgery removes a facet that is not
    # there, and the complex it returns still validates
    masks = _boundary_masks() - {getattr(surgery, missing)}
    monkeypatch.setattr(surgery, "facet_vertex_masks", lambda n, d: masks)
    assert intersection_lemma_check()
    with pytest.raises(ConstructionError, match="^chain facet missing from the facet list$"):
        build_psi()


def test_sphere_checks_match_reference():
    psi = build_psi()
    cut = min(psi.faces_by_dim[3], key=_sorted_ids)
    psi_cut = CubicalComplex({**psi.faces_by_dim, 3: psi.faces_by_dim[3] - {cut}})
    assert not verify_sphere_like(psi_cut).ok
    verdicts = []
    for cx in (psi, boundary_complex(), _phi(), psi_cut, _loose_complex()):
        assert cx.is_connected() == _reference_is_connected(cx)
        links = [_reference_vertex_link_surface_check(cx, v) for v in sorted(cx.vertex_ids)]
        assert [_link_at(cx, v) for v in sorted(cx.vertex_ids)] == links
        # the one-pass check over every vertex gives the per-vertex verdicts' conjunction
        assert cx.vertex_links_are_surfaces() is all(links)
        verdicts.append(all(links))
    assert verdicts == [True, True, False, False, False]
    assert psi.vertex_links_are_surfaces() is True
    assert psi_cut.vertex_links_are_surfaces() is False


def test_vertex_in_no_cube_has_no_surface_link():
    loose = _loose_complex()
    assert loose.is_connected() is False
    assert _reference_vertex_link_surface_check(loose, 8) is False
    assert _link_at(loose, 8) is False
    assert loose.vertex_links_are_surfaces() is False


def test_link_with_a_quad_in_four_cubes_is_not_closed():
    # two octahedra glued along the link edges {0, 1} and {2, 3} only: the
    # link has Euler characteristic 8 - 22 + 16 = 2 and is connected, but
    # each glued link edge lies in four link triangles
    first = _octahedron(0, 2, 1, 3, 4, 5)
    second = _octahedron(0, 3, 1, 2, 6, 7)
    cx = _cubical_cone(first + second)
    assert _link_at(cx, 0) is False
    assert _reference_vertex_link_surface_check(cx, 0) is False
    sphere = _cubical_cone(first)
    assert _link_at(sphere, 0) is True
    assert _reference_vertex_link_surface_check(sphere, 0) is True
    # every other vertex of a cone lies on its boundary, so neither complex
    # passes the check over all vertices
    for c in (cx, sphere):
        assert c.vertex_links_are_surfaces() is False
        assert not all(_reference_vertex_link_surface_check(c, v) for v in c.vertex_ids)
