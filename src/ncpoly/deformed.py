"""The deformed n-cube, its epsilon certificate, and the projection.

The cube is the solution set of, for k = 1..n,

    eps*|x_k|  <=  2^binom(k,2) / eps^(k-1)  -  (-1)^k * sum_{j<k} binom(k-2, j-1) * x_j

with 0 < eps <= 1.  Projecting a suitable (certified) instance to its last d
coordinates yields a cubical d-polytope whose low skeleton is that of the
n-cube.  The certificate checks that every maximal minor of the deformation
matrix keeps its eps=0 sign, over all sign choices that can occur.  A row
k <= n-d carries eps only on its diagonal, so a minor is multilinear in
z_k = sigma_k*eps: the sum over row sets S of c_S * prod_{k in S} z_k, c_S
the eps = 0 minor with the rows in S made unit vectors.  One table of these
eps-free c_S decides every candidate eps = p/q: the 2^m signed minors,
times q^m, are one Walsh-Hadamard transform of c_S p^|S| q^(m-|S|).

The deformation matrix is written once, in column form, in
``deformation_columns``, with integer entries.  The positive-circuit test
takes its n-d+1 rows as columns, which is what its elimination reads;
``deformation_rows`` is their transpose, from which the certificate takes
its n eps = 0 rows in one call, and ``build_deformed_cube`` its 2n rows,
handed to ``HPolytope`` as integers over one scale.

Every eps decision is made here: ``common_epsilon`` walks the one ladder
1/2, 1/4, ..., 1/2^64 over one minor table per dimension it must certify,
and a given eps is read by ``_fraction``, which refuses a float.

That the deformed cube is combinatorially the n-cube is read off the tight
sets H->V returns, with no face lattice: ``cube_vertices_labeled`` labels
each vertex by its tight side of every pair and checks for 2^n distinct
labels.  Every ``projected_cube`` runs that check.  The cube's vertices
stay integer coordinates over the one denominator H->V returns, and
``project_last`` slices them and keeps it, so no Fraction is built from
the cube's rows through H->V to the hull.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import ConstructionError, SkeletonViolationError
from .intops import bareiss_det
from .polytope import (
    HPolytope,
    IncidenceStructure,
    VPolytope,
    facets_from_vrep,
    vertices_and_tight_sets,
)


def deformation_columns(n, d, signed_rows, epsilon):
    """Columns of the n x (n-d) deformation matrix, as integers, restricted
    to one row for each (k, sigma) in ``signed_rows``: row k has entry
    (-1)^k binom(k-2, j-1) at j < k and sigma*eps at j = k.  A row that
    carries the eps entry is scaled by eps's denominator, which keeps the
    sign of every minor and of every left-kernel entry."""
    eps = _fraction(epsilon)
    p, q = eps.numerator, eps.denominator
    width = n - d
    cols = [[] for _ in range(width)]
    for k, sigma in signed_rows:
        s = 1 if k % 2 == 0 else -1
        if k <= width:
            # binomial prefix, the eps entry, then the zero tail
            s *= q
            for j in range(k - 1):
                cols[j].append(s * comb(k - 2, j))
            cols[k - 1].append(sigma * p)
            for j in range(k, width):
                cols[j].append(0)
        else:
            for j in range(width):
                cols[j].append(s * comb(k - 2, j))
    return cols


def deformation_rows(n, d, signed_rows, epsilon):
    """The rows of ``deformation_columns``, as tuples (empty at n = d)."""
    cols = deformation_columns(n, d, signed_rows, epsilon)
    return list(zip(*cols)) if cols else [()] * len(signed_rows)


def _fraction(epsilon) -> Fraction:
    """eps as a Fraction, as given if one; a float is refused, not being exact."""
    if isinstance(epsilon, float):
        raise TypeError("epsilon must be an int, a Fraction or a string, not float")
    return epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)


def _epsilon(epsilon) -> Fraction:
    """eps in (0, 1] as a Fraction, read by ``_fraction``."""
    eps = _fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    return eps


def build_deformed_cube(n, epsilon) -> HPolytope:
    """The 2n inequalities, k = 1..n with the minus side first, over q p^(n-1)
    at eps = p/q: ``deformation_rows``' row k times p^(n-1), rhs 2^C(k,2) q^k p^(n-k)."""
    eps = _epsilon(epsilon)
    p, q = eps.numerator, eps.denominator
    signed = [(k, sigma) for k in range(1, n + 1) for sigma in (-1, 1)]
    lift = p ** (n - 1)
    return HPolytope(n, [
        (tuple(lift * x for x in row), 2 ** comb(k, 2) * q ** k * p ** (n - k))
        for (k, _), row in zip(signed, deformation_rows(n, 0, signed, eps))
    ], q * lift)


def _minor_table(n, d):
    """The eps-free coefficients c_S of the maximal minor of each
    (n-d)-subset of rows 2..n, S a bitmask over its first m rows (those
    k <= n-d), one list per subset as the caller reads them.  Row i in S is
    the unit vector at column k_i - 1; expanding along those rows (Laplace)
    leaves (-1)^(sum of i + k_i - 1 over S) times the eps = 0 minor of the
    other rows without those columns, as k_i increases with i."""
    if not n >= d >= 2:
        raise ValueError("need n >= d >= 2")
    width = n - d
    at_zero = deformation_rows(n, d, [(k, 1) for k in range(1, n + 1)], 0)

    def coefficient(rows, s):
        unit = [i for i in range(width) if s >> i & 1]
        cut = {rows[i] - 1 for i in unit}
        keep = [j for j in range(width) if j not in cut]
        minor = bareiss_det(
            [[at_zero[k - 1][j] for j in keep] for i, k in enumerate(rows) if not s >> i & 1]
        )
        return -minor if sum(unit) + sum(cut) & 1 else minor

    return (
        [coefficient(rows, s) for s in range(2 ** sum(k <= width for k in rows))]
        for rows in combinations(range(2, n + 1), width)
    )


def _signed_minors(coeffs, eps):
    """q^m times the minor at eps = p/q for each sign pattern T (bit i set
    when row i takes sigma = -1): the Walsh-Hadamard transform (Fino &
    Algazi 1976) in Good's form, whose pass i weighs row i by q or p."""
    p, q, v = eps.numerator, eps.denominator, coeffs
    for _ in range(len(coeffs).bit_length() - 1):
        lo, hi = v[::2], v[1::2]
        v = [q * a + p * b for a, b in zip(lo, hi)] + [q * a - p * b for a, b in zip(lo, hi)]
    return v


def _keeps_sign(coeffs, eps):
    """Every signed minor at eps has the sign of c_0, the nonzero eps = 0 minor."""
    return coeffs[0] != 0 and min(x * coeffs[0] for x in _signed_minors(coeffs, eps)) > 0


def certify_epsilon(n, d, epsilon) -> bool:
    """Sign-stability certificate for the deformation matrix minors.

    For every (n-d)-subset of rows 2..n and every sign pattern on the rows
    that actually carry a diagonal epsilon entry, the maximal minor must be
    nonzero and agree in sign with its value at epsilon = 0.
    """
    table = _minor_table(n, d)
    eps = _epsilon(epsilon)
    return all(_keeps_sign(coeffs, eps) for coeffs in table)


def common_epsilon(n, dims) -> Fraction:
    """Largest epsilon in {1/2, 1/4, ..., 1/2^64} passing the certificate
    of (n, d) for every d in ``dims``; each d's minor table is built once.
    Raises ValueError on an empty ``dims``, which would certify nothing."""
    tables = [coeffs for d in dims for coeffs in _minor_table(n, d)]
    if not tables:  # every d has at least one table
        raise ValueError("need at least one d")
    for eps in (Fraction(1, 2 ** e) for e in range(1, 65)):
        if all(_keeps_sign(coeffs, eps) for coeffs in tables):
            return eps
    raise ConstructionError("no certified epsilon found down to 2^-64")


def choose_epsilon(n, d) -> Fraction:
    """Largest epsilon in {1/2, 1/4, 1/8, ...} passing the certificate."""
    return common_epsilon(n, [d])


def _sign_label(tight, n):
    """The tight side (-1 or +1) of each constraint pair k = 1..n, read from
    bits 2k and 2k+1 of a vertex's tight-inequality mask; None when a pair
    has both sides or neither tight."""
    if any((tight >> 2 * k & 3) in (0, 3) for k in range(n)):
        return None
    return tuple(1 if tight >> 2 * k + 1 & 1 else -1 for k in range(n))


def cube_vertices_labeled(h: HPolytope) -> VPolytope:
    """Vertices of ``h``, labeled by tight signs, when ``h`` is a
    combinatorial n-cube given by exactly 2n inequalities, in pairs
    (2k, 2k+1) of opposite facets; raises an NcpolyError otherwise.

    H->V must give 2^n vertices, each tight on exactly one side of every
    pair, with distinct labels.  That is enough: every vertex of an
    n-polytope lies on at least n facets, and each facet is one of the
    inequalities, so a vertex tight on exactly n of them is simple and all n
    are facets.  The labels then run over all of {-1, +1}^n, every
    inequality is a facet, and the vertex-facet incidence is the cube's,
    which fixes the face lattice.
    """
    n = h.dim
    if len(h.rows) != 2 * n:
        raise ConstructionError(f"{len(h.rows)} inequalities, not the {2 * n} of {n} pairs")
    verts, scale = vertices_and_tight_sets(h)
    labels = [_sign_label(tight, n) for _, tight in verts]
    if None in labels:
        raise ConstructionError("vertex without a unique tight sign choice")
    if not len(set(labels)) == len(labels) == 2 ** n:
        raise ConstructionError(f"{len(verts)} vertices do not carry the 2^{n} sign labels")
    return VPolytope(n, [p for p, _ in verts], labels, scale)


def project_last(v: VPolytope, d) -> VPolytope:
    """Truncate every point to its last d coordinates, keeping labels and
    the common denominator."""
    if d < 1:
        raise ValueError("projection target must be at least 1")
    if v.dim < d:
        raise ValueError("ambient dimension below projection target")
    try:
        return VPolytope(d, [p[v.dim - d:] for p in v.coords], v.labels, v.scale)
    except ValueError as exc:
        # v's labels passed these checks already, so a repeated point failed
        raise SkeletonViolationError("projection collapsed two vertices") from exc


class ProjectedCube(namedtuple("ProjectedCube", "n d epsilon hrep cube shadow")):
    """A deformed cube (``hrep``, ``cube``) for the Fraction ``epsilon``,
    together with its certified projection ``shadow``."""

    __slots__ = ()


def projected_cube(n, d, epsilon=None) -> ProjectedCube:
    """Build the certified projection pipeline for parameters (n, d)."""
    if epsilon is None:
        eps = choose_epsilon(n, d)
    else:
        eps = _epsilon(epsilon)
        if not certify_epsilon(n, d, eps):
            raise ConstructionError(f"epsilon {eps} fails the minor-sign certificate")
    h = build_deformed_cube(n, eps)
    cube = cube_vertices_labeled(h)
    shadow = project_last(cube, d)
    return ProjectedCube(n, d, eps, h, cube, shadow)


def shadow_incidence(pc: ProjectedCube) -> IncidenceStructure:
    """Vertex-facet incidence of the projected polytope, by the hull oracle."""
    return facets_from_vrep(pc.shadow)
