"""Skeleton comparison, f-vector identities, and the upper-face subdivision.

Skeleton equivalence is checked through the explicit vertex labeling carried
over from the projection, not by isomorphism search: the target must have as
many low faces as the cube, each the vertex set of a cube face of its dimension.
"""

from functools import reduce
from itertools import product
from math import comb
from operator import or_

from . import signvec
from .complexes import CubicalComplex
from .deformed import build_deformed_cube, common_epsilon, cube_vertices_labeled, project_last
from .errors import ConstructionError
from .polytope import IncidenceStructure, face_masks, facets_from_vrep


def verify_skeleton_equivalence(inc: IncidenceStructure, n, r) -> bool:
    """Does the labeled incidence structure share the cube's r-skeleton?

    (a) the vertex-label set of every cube face of dimension <= r is a face
    of the structure of the same dimension, and (b) the structure has no
    further faces of dimension <= r.  Vertex i is the cube vertex labels[i];
    labels that are not exactly the tuples of {-1, +1}^n give False.

    Read off the lattice: with k-face counts equal to the cube's, every
    k-face must have 2^k vertices whose labels vary on exactly k
    coordinates, so that they are the vertices of the cube k-face those
    span.  Distinct faces give distinct cube faces, so the equal counts
    give (a) and (b).
    """
    if r < 0:
        raise ValueError("need r >= 0")
    if inc.labels is None:
        raise ValueError("skeleton comparison needs vertex labels")
    labels = set(inc.labels)
    if len(labels) != inc.vertex_count:
        raise ValueError("vertex labels must be distinct")
    if labels != set(product((-1, 1), repeat=n)):
        return False
    masks = face_masks(inc)
    if any(len(masks.get(k, ())) != signvec.cube_face_count(n, k) for k in range(r + 1)):
        return False
    # plus[j] holds the vertices labeled +1 at j; f varies at j when it meets it and its complement
    plus = [sum(1 << i for i, lab in enumerate(inc.labels) if lab[j] == 1) for j in range(n)]
    return all(
        f.bit_count() == 1 << k and sum(0 != f & p != f for p in plus) == k
        for k in range(r + 1)
        for f in masks.get(k, ())
    )


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
        f.bit_count() == 1 << k
        for k, masks in face_masks(inc).items()
        if k <= 2 * r
        for f in masks
    )


def upper_face_subdivision(n, d):
    """Subdivision of the d-projection induced by the (d+1)-projection.

    The (d+1)-dimensional projected cube maps onto the d-dimensional one by
    deleting the coordinate that links them (the first of its d+1).  Facets
    whose outward normal is positive in that coordinate project to cells
    tiling the d-polytope.  The projection is injective on each such facet,
    so a cell's faces are read from the (d+1)-polytope's face lattice.
    Both shadows come from one cube, at the largest eps of the ladder that
    certifies both.  Verifies the tiling and that no face of dimension
    <= floor(d/2)-1 is interior; returns the cell complex.
    """
    if d < 2 or n < d + 1:
        raise ValueError("need n >= d+1 and d >= 2")
    eps = common_epsilon(n, [d, d + 1])
    # both shadows come from one cube, so vertex i is the same in each
    cube = cube_vertices_labeled(build_deformed_cube(n, eps))
    inc_upper = facets_from_vrep(project_last(cube, d + 1))
    lower = project_last(cube, d)
    inc_lower = facets_from_vrep(lower)

    # faces, cells and facets as vertex bitmasks (bit i is vertex i)
    cells = [
        f for f, (normal, _) in zip(inc_upper.facets, inc_upper.inequalities) if normal[0] > 0
    ]
    if not cells:
        raise ConstructionError("no upper facets found")

    if reduce(or_, cells) != (1 << len(lower.coords)) - 1:
        raise ConstructionError("cells do not cover every vertex")

    # upper facets are not vertical, so each cell's faces are the upper faces in it
    faces_by_dim = {
        k: {f for f in masks if any(f & cell == f for cell in cells)}
        for k, masks in face_masks(inc_upper).items()
        if k < d
    }

    # ridges: shared by exactly two cells or lying in a boundary facet
    for ridge in faces_by_dim[d - 1]:
        cnt = sum(ridge & cell == ridge for cell in cells)
        on_boundary = any(ridge & fs == ridge for fs in inc_lower.facets)
        if cnt == 2 and not on_boundary:
            continue
        if cnt == 1 and on_boundary:
            continue
        raise ConstructionError("ridge neither interior-shared nor on the boundary")

    # no interior faces of dimension <= floor(d/2) - 1
    r = d // 2 - 1
    for k in range(r + 1):
        for f in faces_by_dim[k]:
            if not any(f & fs == f for fs in inc_lower.facets):
                raise ConstructionError(f"interior {k}-face in the subdivision")

    faces_by_dim[d] = cells
    return CubicalComplex(faces_by_dim)
