"""The deformed n-cube, its epsilon certificate, and the projection.

The cube is the solution set of, for k = 1..n,

    eps*|x_k|  <=  2^binom(k,2) / eps^(k-1)  -  (-1)^k * sum_{j<k} binom(k-2, j-1) * x_j

with 0 < eps <= 1.  Projecting a suitable (certified) instance to its last d
coordinates yields a cubical d-polytope whose low skeleton is that of the
n-cube.  The certificate checks that every maximal minor of the deformation
matrix keeps its eps=0 sign, over all sign choices that can occur.

The deformation matrix is written once, in ``deformation_rows``, with
integer entries.  Each caller builds the rows it needs in one call: the
certificate its 2n signed rows and n eps = 0 rows, the positive-circuit test
its n-d+1 rows; the cube's normals (``constraint_row``) are its rows over
the rationals.

That the deformed cube is combinatorially the n-cube is read off the tight
sets H->V returns, with no face lattice: ``_labeled_cube`` labels each vertex
by its tight side of every pair and checks for 2^n distinct labels.  Every
``cube_vertices_labeled``, and so every ``projected_cube``, runs that check.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .errors import ConstructionError, NcpolyError, SkeletonViolationError
from .intops import bareiss_det
from .polytope import (
    HPolytope,
    IncidenceStructure,
    VPolytope,
    facets_from_vrep,
    vertices_and_tight_sets,
)


def deformation_rows(n, d, signed_rows, epsilon):
    """Rows of the n x (n-d) deformation matrix, as integers, one for each
    (k, sigma) in ``signed_rows``: entry j < k is (-1)^k binom(k-2, j-1),
    entry k is sigma*eps.  A row that carries the eps entry is scaled by
    eps's denominator, which keeps the sign of every minor and of every
    left-kernel entry."""
    eps = Fraction(epsilon)
    p, q = eps.numerator, eps.denominator
    width = n - d
    return [
        tuple([
            (-1) ** k * comb(k - 2, j - 1) * (q if k <= width else 1) if j < k
            else sigma * p if j == k
            else 0
            for j in range(1, width + 1)
        ])
        for k, sigma in signed_rows
    ]


def constraint_row(n, k, sigma, epsilon):
    """Normal vector of the side-sigma inequality of constraint k (1-based):
    row k of the n x n deformation matrix, as Fractions."""
    q = Fraction(epsilon).denominator
    (row,) = deformation_rows(n, 0, [(k, sigma)], epsilon)
    return tuple(Fraction(x, q) for x in row)


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


def certify_epsilon(n, d, epsilon) -> bool:
    """Sign-stability certificate for the deformation matrix minors.

    For every (n-d)-subset of rows 2..n and every sign pattern on the rows
    that actually carry a diagonal epsilon entry, the maximal minor must be
    nonzero and agree in sign with its value at epsilon = 0.
    """
    if not 0 < Fraction(epsilon) <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if n == d:
        return True
    width = n - d
    # each of the 2n signed rows and the n eps = 0 rows is built once
    signed = [(k, sigma) for k in range(1, n + 1) for sigma in (-1, 1)]
    at_eps = dict(zip(signed, deformation_rows(n, d, signed, epsilon)))
    at_zero = dict(enumerate(deformation_rows(n, d, [(k, 1) for k in range(1, n + 1)], 0), 1))
    for rows in combinations(range(2, n + 1), width):
        # at eps = 0 the signs sigma do not enter the matrix
        d0 = bareiss_det([at_zero[k] for k in rows])
        if d0 == 0:
            return False
        # rows come in increasing order, so those carrying eps come first
        m = sum(k <= width for k in rows)
        unsigned = [at_eps[k, 1] for k in rows[m:]]
        for signs in product((-1, 1), repeat=m):
            dv = bareiss_det([at_eps[ks] for ks in zip(rows, signs)] + unsigned)
            if dv == 0 or (dv > 0) != (d0 > 0):
                return False
    return True


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


def _labeled_cube(h: HPolytope) -> VPolytope:
    """Vertices of ``h``, labeled by tight signs, when ``h`` is a
    combinatorial n-cube whose 2n inequalities come in pairs (2k, 2k+1) of
    opposite facets; raises an NcpolyError otherwise.

    H->V must give 2^n vertices, each tight on exactly one side of every
    pair, with distinct labels.  That is enough: every vertex of an
    n-polytope lies on at least n facets, and each facet is one of the
    inequalities, so a vertex tight on exactly n of them is simple and all n
    are facets.  The labels then run over all of {-1, +1}^n, every
    inequality is a facet, and the vertex-facet incidence is the cube's,
    which fixes the face lattice.
    """
    n = h.dim
    verts = vertices_and_tight_sets(h)
    labels = [_sign_label(tight, n) for _, tight in verts]
    if None in labels:
        raise ConstructionError("vertex without a unique tight sign choice")
    if not len(set(labels)) == len(labels) == 2 ** n:
        raise ConstructionError(f"{len(verts)} vertices do not carry the 2^{n} sign labels")
    return VPolytope(n, [p for p, _ in verts], labels)


def cube_vertices_labeled(n, epsilon) -> VPolytope:
    """Vertex description of the deformed cube, labeled by tight signs;
    raises ConstructionError unless it is a combinatorial n-cube."""
    return _labeled_cube(build_deformed_cube(n, epsilon))


def verify_combinatorial_cube(h: HPolytope) -> bool:
    """True when the solution set is a combinatorial n-cube, its inequalities
    paired as in ``build_deformed_cube``.  Reads only the H->V tight sets;
    ``_labeled_cube`` says why that suffices."""
    try:
        _labeled_cube(h)
    except NcpolyError:
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
