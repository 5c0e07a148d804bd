"""Skeleton comparison, f-vector identities, and the upper-face subdivision.

Skeleton equivalence is checked through the explicit vertex labeling carried
over from the projection, not by isomorphism search: every low cube face
must map to a face of the target of the same dimension, and nothing else may
appear.
"""

from math import comb

from . import signvec
from .complexes import CubicalComplex
from .deformed import (
    certify_epsilon,
    choose_epsilon,
    cube_vertices_labeled,
    project_last,
)
from .errors import ConstructionError
from .polytope import (
    IncidenceStructure,
    VPolytope,
    face_lattice,
    facets_from_vrep,
)


def cube_skeleton(n, r):
    """All faces of the n-cube of dimension at most r, as sign vectors."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    return list(signvec.all_faces(n, max_zeros=r))


def verify_skeleton_equivalence(inc: IncidenceStructure, n, r) -> bool:
    """Does the labeled incidence structure share the cube's r-skeleton?

    (a) the vertex-label set of every cube face of dimension <= r is a face
    of the structure of the same dimension, and (b) the structure has no
    further faces of dimension <= r.  Vertex i is the cube vertex labels[i],
    a tuple in {-1, +1}^n.
    """
    if r < 0:
        raise ValueError("need r >= 0")
    if inc.labels is None:
        raise ValueError("skeleton comparison needs vertex labels")
    if len(set(inc.labels)) != inc.vertex_count:
        raise ValueError("vertex labels must be distinct")
    if inc.vertex_count != 2 ** n:
        return False
    lattice = face_lattice(inc, up_to_dim=r)
    faces = {k: set(lattice.get(k, ())) for k in range(r + 1)}
    if any(len(faces[k]) != signvec.cube_face_count(n, k) for k in faces):
        return False
    by_label = {lab: i for i, lab in enumerate(inc.labels)}
    for sv in signvec.all_faces(n, max_zeros=r):
        want = frozenset(
            by_label[signvec.vertex_tuple_from_bits(b, n)]
            for b in signvec.vertices_bits(sv)
        )
        if want not in faces[signvec.face_dim(sv)]:
            return False
    return True


def dehn_sommerville_check(fvec, d) -> bool:
    """Linear f-vector identities every cubical d-polytope satisfies."""
    if len(fvec) != d:
        raise ValueError("need a length-d f-vector")
    for k in range(0, d - 1):
        lhs = sum(
            (-1) ** i * 2 ** (i - k) * comb(i, k) * fvec[i] for i in range(k, d)
        )
        if lhs != (-1) ** (d - 1) * fvec[k]:
            return False
    return True


def double_r_cubicality_check(inc: IncidenceStructure, r) -> bool:
    """Every proper face of dimension <= 2r has 2^dim vertices."""
    return all(
        len(f) == 2 ** k
        for k, faces in face_lattice(inc, up_to_dim=2 * r).items()
        for f in faces
    )


def upper_face_subdivision(n, d):
    """Subdivision of the d-projection induced by the (d+1)-projection.

    The (d+1)-dimensional projected cube maps onto the d-dimensional one by
    deleting the coordinate that links them (the first of its d+1).  Facets
    whose outward normal is positive in that coordinate project to cells
    tiling the d-polytope.  Verifies the tiling and that no face of
    dimension <= floor(d/2)-1 is interior; returns the cell complex.
    """
    if d < 2 or n < d + 1:
        raise ValueError("need n >= d+1 and d >= 2")
    eps = choose_epsilon(n, d + 1)
    halved = False
    while not certify_epsilon(n, d, eps):
        eps = eps / 2
        halved = True
    if halved and not certify_epsilon(n, d + 1, eps):
        raise ConstructionError(f"epsilon {eps} fails the minor-sign certificate")
    # both shadows come from one cube, so vertex i is the same in each
    cube = cube_vertices_labeled(n, eps)
    inc_upper = facets_from_vrep(project_last(cube, d + 1))
    lower = project_last(cube, d)
    inc_lower = facets_from_vrep(lower)

    cells = [
        frozenset(facet)
        for facet, (normal, _) in zip(inc_upper.incidence, inc_upper.inequalities)
        if normal[0] > 0
    ]
    if not cells:
        raise ConstructionError("no upper facets found")

    covered = set().union(*cells)
    if covered != set(range(len(lower.points))):
        raise ConstructionError("cells do not cover every vertex")

    lower_facet_sets = [set(f) for f in inc_lower.incidence]

    # cell face lattices, computed geometrically inside the d-projection
    cell_lattices = []
    for cell in cells:
        idx = sorted(cell)
        sub = VPolytope(d, [lower.points[i] for i in idx])
        sub_inc = facets_from_vrep(sub)
        lat = face_lattice(sub_inc)
        cell_lattices.append(
            {
                k: {frozenset(idx[i] for i in f) for f in faces}
                for k, faces in lat.items()
            }
        )

    # ridges: shared by exactly two cells or lying in a boundary facet
    ridge_count = {}
    for lat in cell_lattices:
        for ridge in lat.get(d - 1, ()):
            ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
    for ridge, cnt in ridge_count.items():
        on_boundary = any(ridge <= fs for fs in lower_facet_sets)
        if cnt == 2 and not on_boundary:
            continue
        if cnt == 1 and on_boundary:
            continue
        raise ConstructionError("ridge neither interior-shared nor on the boundary")

    # no interior faces of dimension <= floor(d/2) - 1
    r = d // 2 - 1
    faces_by_dim = {}
    for lat in cell_lattices:
        for k, faces in lat.items():
            faces_by_dim.setdefault(k, set()).update(faces)
    for k in range(r + 1):
        for f in faces_by_dim.get(k, ()):
            if not any(f <= fs for fs in lower_facet_sets):
                raise ConstructionError(f"interior {k}-face in the subdivision")

    faces_by_dim[d] = set(cells)
    return CubicalComplex(faces_by_dim)
