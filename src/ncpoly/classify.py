"""The n = d+1 family: explicit constructions, the liftable classification,
and the extremality of the neighborly member.

The liftable polytopes live abstractly inside the boundary of the (d+1)-cube
as the boundary spheres of balls assembled from k opposite facet pairs, l
single facets, and m untouched pairs (k + l + m = d + 1).  Their f-vectors
follow a closed formula whose correction term is minimized, over all valid
triples, exactly by the neighborly one.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from math import comb

from . import signvec
from .complexes import CubicalComplex
from .errors import TheoremViolationError
from .polytope import (
    HPolytope,
    VPolytope,
    face_masks,
    facets_from_vrep,
    graph_of,
    hypercube_graph_iso,
    is_cubical,
    vertices_from_hrep,
)


# ---------------------------------------------------------------------------
# first construction: conv(Q x 2Q u 2Q x Q)
# ---------------------------------------------------------------------------


def first_construction(d):
    """The symmetric even-dimensional example: H- and V-description of
    conv(Q x 2Q u 2Q x Q) with Q = [-1, 1]^(d/2), cross-checked by the
    oracle in both directions."""
    if d % 2 or d < 2:
        raise ValueError("this construction needs even d >= 2")
    r = d // 2
    pts = set()
    for small in product((-1, 1), repeat=r):
        for big in product((-2, 2), repeat=r):
            pts.add(small + big)
            pts.add(big + small)
    v = VPolytope(d, sorted(pts))
    ineqs = []
    for i in range(d):
        for s in (-1, 1):
            normal = [0] * d
            normal[i] = s
            ineqs.append((normal, 2))
    for i in range(r):
        for j in range(r, d):
            for si, sj in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
                normal = [0] * d
                normal[i] = si
                normal[j] = sj
                ineqs.append((normal, 3))
    h = HPolytope(d, ineqs)
    hv = vertices_from_hrep(h)
    if set(hv.points) != set(v.points):
        raise TheoremViolationError("H- and V-descriptions disagree")
    inc = facets_from_vrep(v)
    # both sides are primitive integer rows (normal..., rhs)
    if set(h.rows) != {n + (rhs,) for n, rhs in inc.inequalities}:
        raise TheoremViolationError("oracle facets differ from the stated system")
    return h, v


# ---------------------------------------------------------------------------
# the liftable family
# ---------------------------------------------------------------------------


def valid_triples(d):
    """Normalized triples (k, l, m): k >= m >= 1, l >= 1, k+l+m = d+1."""
    out = []
    for k in range(1, d + 1):
        for m in range(1, k + 1):
            l = d + 1 - k - m
            if l >= 1:
                out.append((k, l, m))
    return sorted(out)


def _ball_facets(d, k, l, m):
    """Ball facets as (position, sign): both sides for the first k pairs,
    the plus side for the next l."""
    facets = [(i, s) for i in range(k) for s in (-1, 1)]
    facets += [(i, 1) for i in range(k, k + l)]
    return facets


def _check_triple(d, triple):
    """The ball needs k + l + m = d + 1 with l >= 1 and k, m >= 0."""
    k, l, m = triple
    if k + l + m != d + 1 or l < 1 or k < 0 or m < 0:
        raise ValueError("invalid triple")
    return k, l, m


def pklm_sphere(d, triple) -> CubicalComplex:
    """Boundary sphere of the ball: faces of the (d+1)-cube lying in a
    facet of the ball and in a facet of its complement.  Faces are read by
    zero set, then by the mask of their +1 coordinates."""
    k, l, m = _check_triple(d, triple)
    ball = _ball_facets(d, k, l, m)
    # the ball facets on each side, as bitmasks of positions
    plus = sum(1 << i for i, s in ball if s > 0)
    minus = sum(1 << i for i, s in ball if s < 0)
    faces_by_dim = {dim: set() for dim in range(d)}
    for dim in range(d):
        for zeros in combinations(range(d + 1), dim):
            # the face freeing just the zeroes, at the all-minus base and at
            # every mask over the fixed coordinates; its vertices there are
            # base | o = base + o, so its vertex mask is low << base
            low = signvec.vertex_set([0 if i in zeros else -1 for i in range(d + 1)])
            bases = signvec.vertices_bits([-1 if i in zeros else 0 for i in range(d + 1)])
            for base in bases:
                neg = bases[-1] ^ base  # the fixed coordinates at -1
                if (base & plus or neg & minus) and (base & ~plus or neg & ~minus):
                    faces_by_dim[dim].add(low << base)
    return CubicalComplex(faces_by_dim)


def pklm_fvector(d, triple):
    """Closed-form f-vector (f_0, ..., f_{d-1}) of the boundary sphere."""
    k, l, m = _check_triple(d, triple)
    out = []
    for i in range(d + 1, 1, -1):  # f_{d+1-i} for i = d+1 .. 2
        total = comb(d + 1, i) * 2 ** i - delta(i, k, l, m)
        out.append(total)
    return tuple(out)


def delta(i, k, l, m) -> int:
    """Correction term subtracted from the cube-face count."""
    return sum(
        comb(l, i - j) * (comb(k, j) + comb(m, j)) * 2 ** j for j in range(i + 1)
    )


def neighborly_triples(d):
    """Triples whose sphere shares the cube's floor(d/2)-1 skeleton.

    A triple qualifies exactly when m >= r+1 (with k >= m forcing the twin
    condition).  For even d there is one triple; for odd d exactly two, tied
    through delta(i, k, 2, k) = delta(i, k+1, 1, k).
    """
    if d < 4:
        raise ValueError("need d >= 4")
    r = d // 2 - 1
    return [t for t in valid_triples(d) if t[2] >= r + 1]


class UBCReport(namedtuple("UBCReport", "d checked failures minimizers neighborly")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.failures


def ubc_polytope_case(d) -> UBCReport:
    """Exhaustively verify the four monotonicity facts about delta and that
    the neighborly triple(s) minimize it (so maximize every f_i)."""
    triples = valid_triples(d)
    neighborly = neighborly_triples(d)
    failures = []
    seen = {}  # the checks name most deltas more than once; compute each once

    def dl(*key):
        return seen[key] if key in seen else seen.setdefault(key, delta(*key))

    checked = 0
    for i in range(0, d + 2):
        for (k, l, m) in triples:
            if k > m:
                checked += 1
                if dl(i, k, l, m) < dl(i, k - 1, l, m + 1):
                    failures.append(("shift-pair", i, (k, l, m)))
            if l >= 2:
                checked += 1
                if dl(i, k, l, m) < dl(i, k + 1, l - 2, m + 1):
                    failures.append(("split-l", i, (k, l, m)))
            if l == 2 and k > m:
                checked += 1
                if dl(i, k, 2, m) < dl(i, k, 1, m + 1):
                    failures.append(("drop-l2", i, (k, l, m)))
            if l == 2 and k == m:
                checked += 1
                if dl(i, k, 2, k) != dl(i, k + 1, 1, k):
                    failures.append(("tie", i, (k, l, m)))
    minimizers = {}
    for i in range(2, d + 2):
        best = min(dl(i, *t) for t in triples)
        argmin = [t for t in triples if dl(i, *t) == best]
        minimizers[i] = argmin
        for t in neighborly:
            if dl(i, *t) != best:
                failures.append(("neighborly-not-minimal", i, t))
    report = UBCReport(d, checked, failures, minimizers, neighborly)
    if failures:
        raise TheoremViolationError(f"delta relations failed: {failures[:3]}")
    return report


# ---------------------------------------------------------------------------
# the two ambiguity witnesses: 4-polytopes with the 5-cube graph
# ---------------------------------------------------------------------------


def _sign_expand(rows):
    pts = []
    for a, b, c, e in rows:
        for sa in (-1, 1):
            for sb in (-1, 1):
                pts.append((sa * Fraction(a), sb * Fraction(b), Fraction(c), Fraction(e)))
    return pts


CUBICAL_WITNESS_POINTS = _sign_expand(
    [
        (1, 1, 1, 1),
        (1, 1, 4, 1),
        (2, 2, 3, Fraction(4, 5)),
        (2, 2, 2, Fraction(4, 5)),
        (3, 3, 2, Fraction(1, 2)),
        (3, 3, 3, Fraction(1, 2)),
        (4, 4, 0, 0),
        (4, 4, 5, 0),
    ]
)

# The last coordinate is a lifting height over the 12-vertex base facet at
# x4 = 0; the five heights are pinned exactly by requiring the 22 non-base
# facets to be planar (see the coplanarity test).
NONCUBICAL_WITNESS_POINTS = _sign_expand(
    [
        (1, 1, 1, 0),
        (2, 2, 4, 0),
        (3, 3, 3, 1),
        (3, 3, 2, Fraction(5, 4)),
        (4, 4, 2, Fraction(41, 20)),
        (4, 4, 3, Fraction(9, 5)),
        (Fraction(56, 13), Fraction(56, 13), 0, Fraction(779, 260)),
        (5, 5, 16, 0),
    ]
)


class WitnessReport(namedtuple(
    "WitnessReport", "all_vertices cube_graph cubical cube_facet_at_base large_facet_sizes"
)):
    __slots__ = ()

    @property
    def ok(self):
        return self.all_vertices and self.cube_graph


def _witness_report(points):
    inc = facets_from_vrep(VPolytope(4, points))
    masks = face_masks(inc)
    all_vertices = len(masks.get(0, ())) == len(points)
    iso = hypercube_graph_iso(graph_of(inc), 5)
    cubical = is_cubical(inc)
    base = [
        f for f, (normal, rhs) in zip(inc.facets, inc.inequalities)
        if normal == (0, 0, 0, -1) and rhs == 0
    ]
    # the faces of the base facet are the faces of the polytope inside it
    cube_facet_at_base = bool(base) and base[0].bit_count() == 8 and all(
        f.bit_count() == 1 << k for k, fs in masks.items() for f in fs if f & base[0] == f
    )
    large = sorted(f.bit_count() for f in inc.facets if f.bit_count() > 8)
    return WitnessReport(
        all_vertices=all_vertices,
        cube_graph=iso is not None,
        cubical=cubical,
        cube_facet_at_base=cube_facet_at_base,
        large_facet_sizes=large,
    )


def verify_ambiguity_witnesses():
    """Check both embedded 32-point polytopes: the cubical one (with a
    3-cube facet in the x4 = 0 hyperplane) and the non-cubical one (with a
    single 12-vertex facet), both carrying the 5-cube graph."""
    cub = _witness_report(CUBICAL_WITNESS_POINTS)
    noncub = _witness_report(NONCUBICAL_WITNESS_POINTS)
    return cub, noncub
