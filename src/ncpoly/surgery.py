"""Local surgery on the boundary of the 64-vertex cubical 4-polytope.

A chain of three facets A, B, C (3-cubes sharing two quadrilaterals) is cut
out of the boundary complex and replaced by a cubical ball on the same 16
vertices: one central cube stretched between the free quadrilaterals of A
and C, four side cubes wrapping around it, four new edges and eight new
quadrilaterals, no new vertices.  The result is a cubical 3-sphere with
more facets than the polytope it came from.
Every face is a vertex bitmask over the 6-cube's vertex IDs, and the face
algebra is bitwise (``complexes``): the meet of two faces is ``a & b``, a
union of faces is an OR, and the face of a cube F opposite its facet Q is
``F & ~Q``.  Sign vectors appear only as the gale labels of the facets.
"""

from collections import Counter, namedtuple
from functools import reduce
from operator import or_

from . import signvec
from .complexes import CubicalComplex, codim1_faces, free_coordinates, from_cube_facets
from .errors import ConstructionError
from .gale import facet_vertex_masks

N = 6
D = 4

FACET_A = signvec.vertex_set(signvec.parse("-+00+0"))
FACET_B = signvec.vertex_set(signvec.parse("-00++0"))
FACET_C = signvec.vertex_set(signvec.parse("--0+00"))


def boundary_complex() -> CubicalComplex:
    return from_cube_facets(facet_vertex_masks(N, D))


def _quad_between():
    ab = FACET_A & FACET_B
    bc = FACET_B & FACET_C
    if ab.bit_count() != 4 or bc.bit_count() != 4 or FACET_A & FACET_C:
        raise ConstructionError("the three facets do not form a chain")
    return ab, bc


def phi_boundary_faces():
    """2-faces of the chain lying in exactly one of its three cubes."""
    ab, bc = _quad_between()
    counts = Counter(q for top in (FACET_A, FACET_B, FACET_C) for q in codim1_faces(top))
    return [q for q, c in counts.items() if c == 1 and q not in (ab, bc)]


def intersection_lemma_check() -> bool:
    """Every other facet meets the chain boundary in at most one face.

    The boundary faces inside a facet F are the faces of q & F over the
    boundary quads q, so they form one face's closure exactly when the OR
    of the nonzero meets is one of them.  Additionally re-checks the three
    disjointness facts behind it: no facet sees vertices of both members of
    (A-B, B-A), (B-C, C-B), (A-B, C-B).
    """
    ab, bc = _quad_between()
    a_minus_b = FACET_A & ~ab
    b_minus_a = FACET_B & ~ab
    b_minus_c = FACET_B & ~bc
    c_minus_b = FACET_C & ~bc

    others = facet_vertex_masks(N, D) - {FACET_A, FACET_B, FACET_C}

    boundary = phi_boundary_faces()
    for facet in others:
        meets = [m for m in (q & facet for q in boundary) if m]
        if meets and reduce(or_, meets) not in meets:
            return False

    for x, y in ((a_minus_b, b_minus_a), (b_minus_c, c_minus_b), (a_minus_b, c_minus_b)):
        if any(facet & x and facet & y for facet in others):
            return False
    return True


def _glue_ball_cells():
    """New cells of the surgery: 4 edges, 8 quads, 5 cubes (vertex masks).
    The central cube stretches from A-B down to C-B; a side cube for each
    free coordinate value wraps between a central side quad and the chain
    boundary.

    Every cell is the OR of some chain faces, cut to the vertices whose
    bits p and q (the free coordinates of A-B and C-B) take the cell's
    values."""
    ab, bc = _quad_between()
    top = FACET_A & ~ab  # A - B
    bottom = FACET_C & ~bc  # C - B
    free = free_coordinates(top)
    if free_coordinates(bottom) != free or free.bit_count() != 2:
        raise ConstructionError("top and bottom quads do not share free coordinates")
    p, q = (i for i in range(N) if free >> i & 1)

    def cell(faces, fixed):
        ids = signvec.members(reduce(or_, faces))
        return sum(1 << v for v in ids if all(v >> i & 1 == b for i, b in fixed.items()))

    corners = [{p: bp, q: bq} for bp in (0, 1) for bq in (0, 1)]
    sides = [{i: b} for i in (p, q) for b in (0, 1)]

    edges = [cell((top, bottom), c) for c in corners]
    side_quads = [cell((top, bottom), s) for s in sides]
    # path quads: top edge -> its A-quad edge -> B-quad edge -> bottom edge,
    # closed by a new edge; one for each (bit p, bit q) pair
    path_quads = [cell((top, ab, bc, bottom), c) for c in corners]
    central = cell((top, bottom), {})
    side_cubes = [cell((FACET_A, FACET_B, FACET_C), s) for s in sides]

    cubes = [central] + side_cubes
    if any(cube.bit_count() != 8 for cube in cubes):
        raise ConstructionError("glued cube does not have 8 vertices")
    return edges, side_quads + path_quads, cubes


def build_psi() -> CubicalComplex:
    """Perform the surgery on the boundary facets A, B, C; validate the result."""
    if not intersection_lemma_check():
        raise ConstructionError("intersection lemma fails; surgery unsafe")
    ab, bc = _quad_between()
    base = boundary_complex().faces_by_dim
    if not {FACET_A, FACET_B, FACET_C} <= base[3]:
        raise ConstructionError("chain facet missing from the facet list")
    edges, quads, cubes = _glue_ball_cells()
    faces_by_dim = {
        0: base[0],
        1: base[1] | set(edges),
        2: (base[2] - {ab, bc}) | set(quads),
        3: (base[3] - {FACET_A, FACET_B, FACET_C}) | set(cubes),
    }
    psi = CubicalComplex(faces_by_dim)
    psi.validate()
    if not psi.is_pseudomanifold():
        raise ConstructionError("surgered complex is not a pseudomanifold")
    return psi


class SphereReport(namedtuple(
    "SphereReport", "ridges_in_two_facets connected euler_zero links_ok"
)):
    __slots__ = ()

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
    two quadrilaterals B-C and B-A, keyed by edge mask."""
    ab, bc = _quad_between()
    facets = facet_vertex_masks(N, D)
    return {
        edge: sum(edge & f == edge for f in facets)
        for quad in (FACET_B & ~bc, FACET_B & ~ab)
        for edge in codim1_faces(quad)
    }
