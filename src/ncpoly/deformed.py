"""The deformed n-cube, its epsilon certificate, and the projection.

The cube is the solution set of, for k = 1..n,

    eps*|x_k|  <=  2^binom(k,2) / eps^(k-1)  -  (-1)^k * sum_{j<k} binom(k-2, j-1) * x_j

with 0 < eps <= 1.  Projecting a suitable (certified) instance to its last d
coordinates yields a cubical d-polytope whose low skeleton is that of the
n-cube.  The certificate checks that every maximal minor of the deformation
matrix keeps its eps=0 sign, over all sign choices that can occur.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb

from . import signvec
from .errors import ConstructionError, NcpolyError, SkeletonViolationError
from .intops import bareiss_det, int_row
from .polytope import (
    HPolytope,
    IncidenceStructure,
    VPolytope,
    face_lattice,
    facets_from_vrep,
    vertices_and_tight_sets,
)


def constraint_row(n, k, sigma, epsilon):
    """Normal vector of the side-sigma inequality of constraint k (1-based)."""
    eps = Fraction(epsilon)
    row = [Fraction(0)] * n
    for j in range(1, k):
        row[j - 1] = Fraction((-1) ** k * comb(k - 2, j - 1))
    row[k - 1] = sigma * eps
    return tuple(row)


def constraint_rhs(k, epsilon):
    eps = Fraction(epsilon)
    return Fraction(2 ** comb(k, 2)) / eps ** (k - 1)


def build_deformed_cube(n, epsilon) -> HPolytope:
    """The 2n inequalities, ordered k = 1..n with the minus side first."""
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    ineqs = []
    for k in range(1, n + 1):
        rhs = constraint_rhs(k, eps)
        for sigma in (-1, 1):
            ineqs.append((constraint_row(n, k, sigma, eps), rhs))
    return HPolytope(n, ineqs)


def amatrix_row(n, d, k, sigma, epsilon):
    """Row k of the n x (n-d) deformation matrix for sign choice sigma."""
    eps = Fraction(epsilon)
    width = n - d
    row = [Fraction(0)] * width
    for j in range(1, min(k, width + 1)):
        row[j - 1] = Fraction((-1) ** k * comb(k - 2, j - 1))
    if k <= width:
        row[k - 1] = sigma * eps
    return tuple(row)


def certify_epsilon(n, d, epsilon) -> bool:
    """Sign-stability certificate for the deformation matrix minors.

    For every (n-d)-subset of rows 2..n and every sign pattern on the rows
    that actually carry a diagonal epsilon entry, the maximal minor must be
    nonzero and agree in sign with its value at epsilon = 0.
    """
    if n == d:
        return True
    eps = Fraction(epsilon)
    width = n - d
    for rows in combinations(range(2, n + 1), width):
        sign_rows = [k for k in rows if k <= width]
        for signs in product((-1, 1), repeat=len(sign_rows)):
            sigma = dict(zip(sign_rows, signs))
            at_eps = [int_row(amatrix_row(n, d, k, sigma.get(k, 1), eps)) for k in rows]
            at_zero = [int_row(amatrix_row(n, d, k, sigma.get(k, 1), 0)) for k in rows]
            dv = bareiss_det(at_eps)
            d0 = bareiss_det(at_zero)
            if d0 == 0 or dv == 0 or (dv > 0) != (d0 > 0):
                return False
    return True


@lru_cache(maxsize=None)
def choose_epsilon(n, d) -> Fraction:
    """Largest epsilon in {1/2, 1/4, 1/8, ...} passing the certificate."""
    for e in range(1, 65):
        eps = Fraction(1, 2 ** e)
        if certify_epsilon(n, d, eps):
            return eps
    raise ConstructionError("no certified epsilon found down to 2^-64")


def _sign_label(tight, n):
    """The tight side (-1 or +1) of each constraint pair k = 1..n, read from
    a vertex's tight-inequality set; None when a pair has both sides or
    neither tight."""
    if any((2 * k in tight) == (2 * k + 1 in tight) for k in range(n)):
        return None
    return tuple(1 if 2 * k + 1 in tight else -1 for k in range(n))


def cube_vertices_labeled(n, epsilon) -> VPolytope:
    """Vertex description of the deformed cube, labeled by tight signs."""
    verts = vertices_and_tight_sets(build_deformed_cube(n, epsilon))
    labels = [_sign_label(tight, n) for _, tight in verts]
    if None in labels:
        raise ConstructionError("vertex without a unique tight sign choice")
    return VPolytope(n, [p for p, _ in verts], labels)


def verify_combinatorial_cube(h: HPolytope) -> bool:
    """True when the solution set is a combinatorial n-cube.

    Checks 2^n vertices, a unique tight sign choice per vertex, and that the
    face lattice (from the tight-constraint incidences) is the cube lattice.
    """
    n = h.dim
    try:
        verts = vertices_and_tight_sets(h)
    except NcpolyError:
        return False
    if len(verts) != 2 ** n:
        return False
    labels = [_sign_label(tight, n) for _, tight in verts]
    if None in labels or len(set(labels)) != 2 ** n:
        return False
    # every vertex has exactly n tight inequalities, so it is simple and each
    # nonempty tight set is a facet: face_lattice gets a polytope's incidence
    incidence = [
        frozenset(i for i, (_, tight) in enumerate(verts) if j in tight)
        for j in range(2 * n)
    ]
    if not all(incidence):
        return False
    struct = IncidenceStructure(len(verts), incidence)
    return cube_faces_match(face_lattice(struct), labels, n, n - 1)


def cube_faces_match(lattice, labels, n, top):
    """Are the k-faces of ``lattice``, for every k <= top, exactly the faces
    of the n-cube?  Vertex i of the lattice is the cube vertex labels[i], a
    tuple in {-1, +1}^n; each cube k-face must appear as a k-face of the
    lattice, and the counts must agree.
    """
    faces = {k: set(lattice.get(k, ())) for k in range(top + 1)}
    if any(len(faces[k]) != signvec.cube_face_count(n, k) for k in faces):
        return False
    by_label = {lab: i for i, lab in enumerate(labels)}
    for sv in signvec.all_faces(n, max_zeros=top):
        want = frozenset(
            by_label[signvec.vertex_tuple_from_bits(b, n)]
            for b in signvec.vertices_bits(sv)
        )
        if want not in faces[signvec.face_dim(sv)]:
            return False
    return True


def project_last(v: VPolytope, d) -> VPolytope:
    """Truncate every point to its last d coordinates, keeping labels."""
    if v.dim < d:
        raise ValueError("ambient dimension below projection target")
    pts = [p[v.dim - d:] for p in v.points]
    if len(set(pts)) != len(pts):
        raise SkeletonViolationError("projection collapsed two vertices")
    return VPolytope(d, pts, v.labels)


@dataclass(frozen=True)
class ProjectedCube:
    """A deformed cube together with its certified projection."""

    n: int
    d: int
    epsilon: Fraction
    hrep: HPolytope
    cube: VPolytope
    shadow: VPolytope


@lru_cache(maxsize=None)
def projected_cube(n, d, epsilon=None) -> ProjectedCube:
    """Build the certified projection pipeline for parameters (n, d)."""
    if not n >= d >= 2:
        raise ValueError("need n >= d >= 2")
    if epsilon is None:
        eps = choose_epsilon(n, d)
    else:
        eps = Fraction(epsilon)
        if not certify_epsilon(n, d, eps):
            raise ConstructionError(f"epsilon {eps} fails the minor-sign certificate")
    h = build_deformed_cube(n, eps)
    cube = cube_vertices_labeled(n, eps)
    shadow = project_last(cube, d)
    return ProjectedCube(n, d, eps, h, cube, shadow)


def shadow_incidence(pc: ProjectedCube) -> IncidenceStructure:
    """Vertex-facet incidence of the projected polytope, by the hull oracle."""
    return facets_from_vrep(pc.shadow)
