"""Local surgery on the boundary of the 64-vertex cubical 4-polytope.

A chain of three facets A, B, C (3-cubes sharing two quadrilaterals) is cut
out of the boundary complex and replaced by a cubical ball on the same 16
vertices: one central cube stretched between the free quadrilaterals of A
and C, four side cubes wrapping around it, four new edges and eight new
quadrilaterals, no new vertices.  The result is a cubical 3-sphere with
more facets than the polytope it came from.
The glued cells and the intersection lemma are built from the cube-face
operations of ``signvec`` (``meet``, ``vertex_set``, ``is_subface``); every
face is a vertex bitmask over the cube's vertex IDs, so a union of faces is
an OR of masks.
"""

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_

from . import signvec
from .complexes import CubicalComplex, from_cube_facets
from .errors import ConstructionError
from .gale import facets_gale, to_sign_vector

N = 6
D = 4

FACET_A = signvec.parse("-+00+0")
FACET_B = signvec.parse("-00++0")
FACET_C = signvec.parse("--0+00")


def boundary_facets():
    """Facet sign vectors of the 64-vertex projected cube."""
    return [to_sign_vector(a, N) for a in facets_gale(N, D)]


def boundary_complex() -> CubicalComplex:
    return from_cube_facets(boundary_facets())


def _quad_between():
    ab = signvec.meet(FACET_A, FACET_B)
    bc = signvec.meet(FACET_B, FACET_C)
    if ab is None or bc is None or signvec.meet(FACET_A, FACET_C) is not None:
        raise ConstructionError("the three facets do not form a chain")
    return ab, bc


def build_phi() -> CubicalComplex:
    """The chain A u B u C as a subcomplex of the boundary."""
    facets = set(boundary_facets())
    for f in (FACET_A, FACET_B, FACET_C):
        if f not in facets:
            raise ConstructionError("chain facet missing from the facet list")
    return from_cube_facets([FACET_A, FACET_B, FACET_C])


def phi_boundary_faces():
    """2-faces of the chain lying in exactly one of its three cubes."""
    ab, bc = _quad_between()
    counts = Counter(
        q for top in (FACET_A, FACET_B, FACET_C) for q in signvec.subfaces(top, 2)
    )
    inner = {ab, bc}
    return [q for q, c in counts.items() if c == 1 and q not in inner]


def phi_boundary_complex() -> CubicalComplex:
    return from_cube_facets(phi_boundary_faces())


def intersection_lemma_check() -> bool:
    """Every other facet meets the chain boundary in at most one face.

    The boundary faces inside a facet F are the faces of meet(q, F) over the
    boundary quads q, so they form one face's closure exactly when one of
    those meets holds all the others.  Additionally re-checks the three
    disjointness facts behind it: no facet sees vertices of both members of
    (A-B, B-A), (B-C, C-B), (A-B, C-B).
    """
    ab, bc = _quad_between()
    a_minus_b = _opposite(FACET_A, ab)
    b_minus_a = _opposite(FACET_B, ab)
    b_minus_c = _opposite(FACET_B, bc)
    c_minus_b = _opposite(FACET_C, bc)

    others = [f for f in boundary_facets() if f not in (FACET_A, FACET_B, FACET_C)]

    boundary = phi_boundary_faces()
    for facet in others:
        meets = [m for m in (signvec.meet(q, facet) for q in boundary) if m is not None]
        if meets and not any(
            all(signvec.is_subface(m, top) for m in meets) for top in meets
        ):
            return False

    for x, y in ((a_minus_b, b_minus_a), (b_minus_c, c_minus_b), (a_minus_b, c_minus_b)):
        xv, yv = signvec.vertex_set(x), signvec.vertex_set(y)
        for facet in others:
            fv = signvec.vertex_set(facet)
            if fv & xv and fv & yv:
                return False
    return True


def _opposite(facet, quad):
    """Face of ``facet`` opposite to the subface ``quad``."""
    out = list(facet)
    changed = False
    for i, (f, q) in enumerate(zip(facet, quad)):
        if f == 0 and q != 0:
            out[i] = -q
            changed = True
    if not changed:
        raise ConstructionError("quad is not a proper subface")
    return tuple(out)


def _glue_ball_cells():
    """New cells of the surgery: 4 edges, 8 quads, 5 cubes (vertex masks).
    The central cube stretches from A-B down to C-B; a side cube for each
    free coordinate value wraps between a central side quad and the chain
    boundary.

    Every cell is the OR of the vertex masks of some chain faces, with the
    free coordinates p, q of A-B and C-B fixed where the cell says."""
    ab, bc = _quad_between()
    top = _opposite(FACET_A, ab)  # A - B
    bottom = _opposite(FACET_C, bc)  # C - B
    free = signvec.zero_positions(top)
    if signvec.zero_positions(bottom) != free or len(free) != 2:
        raise ConstructionError("top and bottom quads do not share free coordinates")
    p, q = free

    def cell(faces, fixed):
        # every chain face is free at p and q, so the meet only fixes them
        fix = tuple(fixed.get(i, 0) for i in range(N))
        return reduce(or_, (signvec.vertex_set(signvec.meet(f, fix)) for f in faces))

    corners = [{p: sp, q: sq} for sp in (-1, 1) for sq in (-1, 1)]
    sides = [{pos: s} for pos in (p, q) for s in (-1, 1)]

    edges = [cell((top, bottom), c) for c in corners]
    side_quads = [cell((top, bottom), s) for s in sides]
    # path quads: top edge -> its A-quad edge -> B-quad edge -> bottom edge,
    # closed by a new edge; one for each (sign at p, sign at q) pair
    path_quads = [cell((top, ab, bc, bottom), c) for c in corners]
    central = cell((top, bottom), {})
    side_cubes = [cell((FACET_A, FACET_B, FACET_C), s) for s in sides]

    cubes = [central] + side_cubes
    if any(cube.bit_count() != 8 for cube in cubes):
        raise ConstructionError("glued cube does not have 8 vertices")
    return edges, side_quads + path_quads, cubes


def build_psi() -> CubicalComplex:
    """Perform the surgery and validate the resulting complex."""
    if not intersection_lemma_check():
        raise ConstructionError("intersection lemma fails; surgery unsafe")
    ab, bc = _quad_between()
    base = boundary_complex()
    remove_3 = {signvec.vertex_set(f) for f in (FACET_A, FACET_B, FACET_C)}
    remove_2 = {signvec.vertex_set(ab), signvec.vertex_set(bc)}
    edges, quads, cubes = _glue_ball_cells()
    faces_by_dim = {
        0: set(base.faces_by_dim[0]),
        1: set(base.faces_by_dim[1]) | set(edges),
        2: (set(base.faces_by_dim[2]) - remove_2) | set(quads),
        3: (set(base.faces_by_dim[3]) - remove_3) | set(cubes),
    }
    psi = CubicalComplex(faces_by_dim)
    psi.validate()
    if not psi.is_pseudomanifold():
        raise ConstructionError("surgered complex is not a pseudomanifold")
    return psi


@dataclass
class SphereReport:
    ridges_in_two_facets: bool
    connected: bool
    euler_zero: bool
    links_ok: bool

    @property
    def ok(self):
        return (
            self.ridges_in_two_facets
            and self.connected
            and self.euler_zero
            and self.links_ok
        )


def verify_sphere_like(cx: CubicalComplex) -> SphereReport:
    """Certificate that a cubical 3-complex looks like a closed 3-sphere:
    pseudomanifold, connected, Euler characteristic 0, and every vertex link
    a closed connected surface with Euler characteristic 2."""
    ridges = cx.is_pseudomanifold()
    connected = cx.is_connected()
    euler = cx.euler_characteristic() == 0
    links = cx.vertex_links_are_surfaces()
    return SphereReport(ridges, connected, euler, links)


def chain_edge_facet_degrees():
    """Facet degrees, in the unmodified boundary, of the eight edges of the
    two quadrilaterals B-C and B-A."""
    ab, bc = _quad_between()
    b_minus_c = _opposite(FACET_B, bc)
    b_minus_a = _opposite(FACET_B, ab)
    facets = boundary_facets()
    degrees = {}
    for quad in (b_minus_c, b_minus_a):
        for edge in signvec.subfaces(quad, 1):
            degrees[edge] = sum(
                1 for f in facets if signvec.is_subface(edge, f)
            )
    return degrees
