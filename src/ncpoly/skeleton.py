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
    cube_faces_match,
    projected_cube,
    shadow_incidence,
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
    further faces of dimension <= r.
    """
    if inc.labels is None:
        raise ValueError("skeleton comparison needs vertex labels")
    if len(set(inc.labels)) != inc.vertex_count:
        raise ValueError("vertex labels must be distinct")
    if inc.vertex_count != 2 ** n:
        return False
    return cube_faces_match(face_lattice(inc, up_to_dim=r), inc.labels, n, r)


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
    if n < d + 1:
        raise ValueError("need n >= d+1")
    eps = choose_epsilon(n, d + 1)
    while not certify_epsilon(n, d, eps):
        eps = eps / 2
    upper = projected_cube(n, d + 1, eps)
    lower = projected_cube(n, d, eps)
    inc_upper = shadow_incidence(upper)
    inc_lower = shadow_incidence(lower)

    label_to_lower = {lab: i for i, lab in enumerate(lower.shadow.labels)}

    cells = []
    for facet, (normal, rhs) in zip(inc_upper.incidence, inc_upper.inequalities):
        if normal[0] <= 0:
            continue
        cells.append(
            frozenset(label_to_lower[inc_upper.labels[i]] for i in facet)
        )
    if not cells:
        raise ConstructionError("no upper facets found")

    covered = set().union(*cells)
    if covered != set(range(len(lower.shadow.points))):
        raise ConstructionError("cells do not cover every vertex")

    lower_facet_sets = [set(f) for f in inc_lower.incidence]

    # cell face lattices, computed geometrically inside the d-projection
    cell_lattices = []
    for cell in cells:
        idx = sorted(cell)
        sub = VPolytope(d, [lower.shadow.points[i] for i in idx])
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
