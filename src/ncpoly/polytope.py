"""Exact polytope representations and the geometric hull oracle.

Both enumeration directions are one exact routine: the extreme rays of a
pointed integer cone, by incremental double description.  Facets of a
V-polytope are the extreme rays of the cone of affine functions that are
nonnegative on its points; vertices of an H-polytope are the extreme rays of
its homogenized cone with last coordinate positive.  All arithmetic is on
Python integers, so results are exact.  A V-polytope keeps its points as
integer coordinates over one positive denominator (``coords``, ``scale``):
H->V returns its vertices in that form, and the hull reads them as they
are.  An H-polytope holds its integer rows (normal..., rhs) alike (``rows``,
``scale``), and H->V cones them as they are.  Fractions appear only in the
``points`` and ``inequalities`` views and in JSON.

Each ray's zero set is the incidence it carries, as the bitmask the cone
routine computes: the points on a facet (``IncidenceStructure.facets``), or
the inequalities tight at a vertex.  Nothing downstream recomputes it.  The
face lattice is graded from the facet masks alone (Kaibel & Pfetsch 2002)
into vertex bitmasks (``face_masks``), the face format of ``complexes``;
``incidence`` and ``face_lattice`` are their frozenset views.
"""

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul, or_

from .errors import (
    DimensionError,
    EmptyPolytopeError,
    SpanError,
    UnboundedPolytopeError,
)
from .intops import clear_denominators, echelon, primitive, simplicial_rays
from .signvec import members, vertex_tuple_from_bits


class HPolytope:
    """Inequality description: normal . x <= rhs, in a fixed order.

    The order of the inequality list is part of the identity; constraint
    indices are meaningful to callers.  Inequality i is ``rows[i] / scale``,
    integers (normal..., rhs) over one positive int, read as in ``VPolytope``.
    """

    __slots__ = ("dim", "rows", "scale")

    def __init__(self, dim, inequalities, scale=1):
        self.dim = dim
        self.rows, self.scale = clear_denominators(((*n, b) for n, b in inequalities), scale)
        if any(len(r) != dim + 1 for r in self.rows):
            raise DimensionError("normal length differs from dimension")
        if not all(any(r[:-1]) for r in self.rows):
            raise ValueError("all-zero normal")

    @property
    def inequalities(self):
        """The (normal, rhs) pairs as Fractions, rebuilt on each read."""
        s = self.scale
        rows = [tuple(Fraction(x, s) for x in r) for r in self.rows]
        return tuple((r[:-1], r[-1]) for r in rows)

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "inequalities": [
                {"normal": [str(x) for x in n], "rhs": str(r)}
                for n, r in self.inequalities
            ],
        }


class VPolytope:
    """Vertex description with optional sign-vector labels per point.

    Point i is ``coords[i] / scale``: integer coordinates over one positive
    integer denominator.  The constructor reads point i as
    ``points[i] / scale``, with int or Fraction entries, and clears any
    Fractions into ``scale``.  ``points`` is the rational view.
    """

    __slots__ = ("dim", "coords", "scale", "labels")

    def __init__(self, dim, points, labels=None, scale=1):
        self.dim = dim
        pts, self.scale = clear_denominators(points, scale)
        if any(len(p) != dim for p in pts):
            raise DimensionError("point length differs from dimension")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        self.coords = pts
        if labels is not None:
            labels = tuple(tuple(s) for s in labels)
            if len(labels) != len(pts):
                raise ValueError("one label per point required")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be pairwise distinct")
            if len({len(s) for s in labels}) > 1:
                raise ValueError("labels must have uniform length")
        self.labels = labels

    @property
    def points(self):
        """The points as Fraction tuples, rebuilt on each read."""
        s = self.scale
        return tuple(tuple(Fraction(x, s) for x in p) for p in self.coords)

    def to_json_dict(self):
        d = {
            "dim": self.dim,
            "points": [[str(x) for x in p] for p in self.points],
        }
        if self.labels is not None:
            d["labels"] = ["".join("+" if s > 0 else "-" for s in lab) for lab in self.labels]
        return d


class IncidenceStructure:
    """Vertex-facet incidence plus the face lattice derived from it: facet i
    is ``facets[i]``, the nonempty bitmask of its vertices (bit v is vertex v),
    and no two facets have the same mask."""

    def __init__(self, vertex_count, facets, labels=None, inequalities=None):
        self.vertex_count = vertex_count
        self.facets = tuple(facets)
        self.facet_count = len(self.facets)
        first = {}  # mask -> index of its first facet
        for i, f in enumerate(self.facets):
            if not 0 < f < 1 << vertex_count:
                raise ValueError(f"facet {i} is empty or has a vertex past {vertex_count - 1}")
            if first.setdefault(f, i) != i:
                raise ValueError(f"facet {i} repeats facet {first[f]}")
        self.labels = labels
        self.inequalities = inequalities
        self._lattice = None  # face_masks(self), built on first use

    @property
    def incidence(self):
        """The facets as frozensets of vertex indices, rebuilt on each read."""
        return tuple(map(members, self.facets))


# ---------------------------------------------------------------------------
# the cone routine behind both hull directions
# ---------------------------------------------------------------------------


def _index(holders, zeros, first):
    """OR the ids first, first + 1, ... of the rays with these zero sets into
    ``holders`` at every row each vanishes on; returns the next free id."""
    for z in zeros:
        bit = 1 << first
        first += 1
        while z:
            j = z.bit_length() - 1
            holders[j] |= bit
            z ^= 1 << j
    return first


def _extreme_rays(rows, width):
    """Extreme rays of the pointed cone {u : row . u >= 0 for every row}.

    Incremental double description (Motzkin et al. 1953; Fukuda & Prodon,
    "Double description method revisited", 1996).  The cone of ``width``
    independent rows, taken greedily in input order, is simplicial, and its
    rays come from one elimination (``intops.simplicial_rays``); the other
    rows then cut it one at a time, in input order.  A cut keeps the
    rays on its nonnegative side and adds the primitive combination of
    every adjacent pair it separates.  Rays p and q are adjacent exactly
    when their common zero set Z has at least width-2 rows and no third ray
    vanishes on all of Z.

    That test looks for no third ray when Z_p or Z_q has exactly width-1
    rows: an extreme ray's zero set has rank width-1, so those rows are
    independent, and the width-2 rows of Z bound a 2-face whose only rays
    are p and q.  This covers every vertex of a simple H-polytope and every
    facet of a simplicial hull.  Otherwise the third ray is looked up in
    ``holders``, the bitmask of the rays that vanish on each row, which is
    built from the live rays' zero sets at the first pair that needs it, so
    a run whose pairs all have a simple side never builds it.  From then on
    a ray keeps the id it was made with, and ids grow in creation order,
    which is also the order of the ray list, so the index is only ever added
    to: a cut ORs each new ray into the rows it vanishes on, and the rays it
    drops leave ``live``.  The live rays that vanish on all of Z are the AND
    of Z's rows, taken until only p and q are left.  ``rows`` are integer
    vectors of length ``width``.

    Returns (ray, zero set) pairs: a primitive integer ray and the bitmask
    of the row indices on which it vanishes.  Returns None when the rows have
    rank below ``width``, so the cone is not pointed.
    """
    basis = [i for i, _, _ in echelon(rows)]
    if len(basis) < width:
        return None
    rays = simplicial_rays([rows[i] for i in basis])
    every = sum(1 << i for i in basis)
    zeros = [every ^ 1 << i for i in basis]

    holders = None  # built at the first pair that reads it
    in_basis = set(basis)
    for k, row in enumerate(rows):
        if k in in_basis:
            continue
        vals = [sum(map(mul, row, ray)) for ray in rays]
        pos = [i for i, s in enumerate(vals) if s > 0]
        neg = [(i, zeros[i]) for i, s in enumerate(vals) if s < 0]
        new_rays, new_zeros = [], []
        for p in pos:
            zp = zeros[p]
            p_simple = zp.bit_count() == width - 1
            for q, zq in neg:
                common = zp & zq
                if common.bit_count() < width - 2:
                    continue
                if not p_simple and zq.bit_count() != width - 1:
                    if holders is None:
                        # the live rays take the ids 0, 1, ... in list order
                        holders = [0] * len(rows)
                        next_id = _index(holders, zeros, 0)
                        ids, live = list(range(next_id)), (1 << next_id) - 1
                    pair = 1 << ids[p] | 1 << ids[q]
                    alive, rest = live, common
                    while alive != pair and rest:
                        j = rest.bit_length() - 1
                        alive &= holders[j]
                        rest ^= 1 << j
                    if alive != pair:
                        continue
                sp, sq = vals[p], vals[q]
                new_rays.append(primitive([sp * b - sq * a for a, b in zip(rays[p], rays[q])]))
                new_zeros.append(common | 1 << k)
        keep = [i for i, s in enumerate(vals) if s >= 0]
        if holders is not None:
            for q, _ in neg:
                live ^= 1 << ids[q]
            for i in keep:
                if not vals[i]:
                    holders[k] |= 1 << ids[i]
            first, next_id = next_id, _index(holders, new_zeros, next_id)
            live |= (1 << next_id) - (1 << first)
            ids = [ids[i] for i in keep] + list(range(first, next_id))
        rays = [rays[i] for i in keep] + new_rays
        zeros = [zeros[i] | (1 << k if vals[i] == 0 else 0) for i in keep] + new_zeros
    return list(zip(rays, zeros))


# ---------------------------------------------------------------------------
# vertex enumeration from an H-description
# ---------------------------------------------------------------------------


def vertices_and_tight_sets(h: HPolytope):
    """All vertices of a bounded H-polytope over one denominator, sorted.

    Returns ``(verts, scale)``: ``verts`` pairs each vertex's integer
    coordinates y * (scale // t) with the bitmask of the inequalities tight
    at it (bit i is inequality i), and ``scale`` is L, the lcm of the
    vertices' t, so vertex i is ``verts[i][0] / scale``.  The sort is by
    those integer coordinates, which orders the vertices as their rational
    values.

    The extreme rays (y, t) of the homogenized cone
    {(y, t) : normal . y <= rhs * t, t >= 0} are the vertices y / t when
    t > 0 and the extreme recession directions y when t = 0; a vertex's
    tight set is its ray's zero set.
    Raises UnboundedPolytopeError / EmptyPolytopeError when the system does
    not describe a (nonempty, bounded) polytope.
    """
    d = h.dim
    cone = [tuple(-x for x in r[:-1]) + (r[-1],) for r in h.rows]
    cone.append((0,) * d + (1,))
    rays = _extreme_rays(cone, d + 1)
    # the cone has rank d+1 exactly when the normals span R^d
    if rays is None:
        # normal . x sees only x's part in the normals' row space, so the
        # system in coordinates z of an echelon basis of that space is
        # feasible exactly when this one is; its cone is pointed
        basis = [e for _, e, _ in echelon([c[:d] for c in cone])]
        sub = [tuple(sum(a * b for a, b in zip(c, e)) for e in basis) + (c[d],) for c in cone]
        if any(ray[-1] for ray, _ in _extreme_rays(sub, len(basis) + 1)):
            raise UnboundedPolytopeError("normals do not span; feasible set has a line")
        raise EmptyPolytopeError("inconsistent inequality system")
    finite = [(ray, tight) for ray, tight in rays if ray[d]]
    if not finite:
        raise EmptyPolytopeError("no basic feasible point")
    if len(finite) < len(rays):
        raise UnboundedPolytopeError("recession cone has an extreme ray")
    den = lcm(*(ray[d] for ray, _ in finite))
    verts = [(tuple(x * (den // ray[d]) for x in ray[:d]), tight) for ray, tight in finite]
    verts.sort(key=lambda e: e[0])
    return verts, den


def vertices_from_hrep(h: HPolytope) -> VPolytope:
    """All vertices of a bounded H-polytope, sorted."""
    verts, scale = vertices_and_tight_sets(h)
    return VPolytope(h.dim, [p for p, _ in verts], scale=scale)


# ---------------------------------------------------------------------------
# facet enumeration from a V-description (the geometric oracle)
# ---------------------------------------------------------------------------


def facets_from_vrep(v: VPolytope) -> IncidenceStructure:
    """All facets of conv(points), sorted by primitive integer inequality.

    The facets are the extreme rays of the cone of affine functions
    nonnegative on every point, u . (x, 1) >= 0; a facet's vertex set is the
    ray's zero set: the mask of every point on it, vertex or not.
    """
    d, mult = v.dim, v.scale
    rays = _extreme_rays([p + (1,) for p in v.coords], d + 1)
    if rays is None:
        raise SpanError("points do not affinely span the ambient space")
    entries = []
    for u, inc in rays:
        # u . (x, 1) >= 0 on the unscaled points: -mult*u[:d] . x <= u[d],
        # made primitive, so the same at every scale
        row = primitive((*(-mult * a for a in u[:d]), u[d]))
        entries.append((inc, (row[:-1], row[-1])))
    entries.sort(key=lambda e: e[1])
    return IncidenceStructure(
        vertex_count=len(v.coords),
        facets=[inc for inc, _ in entries],
        labels=v.labels,
        inequalities=tuple(ineq for _, ineq in entries),
    )


# ---------------------------------------------------------------------------
# face lattice, graph, cubicality
# ---------------------------------------------------------------------------


def face_masks(inc: IncidenceStructure):
    """Proper faces as vertex bitmasks (bit i is vertex i), grouped by
    dimension: ``{dim: frozenset of masks}``.  Built once per structure.

    Graded from the facet masks ``inc.facets`` alone, top down (Kaibel &
    Pfetsch, "Computing the face lattice of a polytope from its
    vertex-facet incidences", 2002): the facets sit at depth 0, and the
    faces one dimension below a face F are the maximal proper nonempty
    intersections of F with the facets (all of them, with no scan, when
    they have one size, as on cubical and simplicial polytopes: two
    distinct sets of one size never nest).  Only the facets that cut F,
    meeting it without holding it, give such an intersection, and F hands
    down only its neighbours, those whose cut is maximal.  F walks the list
    it was handed once, taking each cut F & g once, and each face below F
    takes F's list of cutters as it stands.  That loses no face (the
    diamond property): a facet H of a facet c of F is a ridge of F, so it
    lies in exactly one other facet F & g of F, and H = c & g.  So any
    parent's list serves c, the last one written stands, and only the
    lists of the level being cut are kept.  A polytope's face lattice is
    graded, so every face is reached at one depth only, and its dimension
    is the depth of the vertices minus its own.  The keys run from 0 to
    d-1 with no gap.
    """
    if inc._lattice is None:
        # each face of the level -> a list that holds every neighbour of it
        level = dict.fromkeys(inc.facets, inc.facets)
        levels = []
        while level:
            levels.append(frozenset(level))
            below = {}
            for f, inherited in level.items():
                # one pass: cuts[i] is f & cutters[i]
                cutters, cuts = [], []
                for g in inherited:
                    c = f & g
                    if 0 != c != f:
                        cutters.append(g)
                        cuts.append(c)
                if len(set(map(int.bit_count, cuts))) > 1:
                    # larger cuts first, so a cut is maximal when no kept one holds it
                    kept = []
                    for cut in sorted(set(cuts), key=int.bit_count, reverse=True):
                        for k in kept:
                            if cut & k == cut:
                                break
                        else:
                            kept.append(cut)
                    maximal = set(kept)
                    cutters = [g for g, c in zip(cutters, cuts) if c in maximal]
                    cuts = kept
                for c in cuts:
                    below[c] = cutters
            level = below
        top = len(levels) - 1
        inc._lattice = {top - depth: levels[depth] for depth in range(top, -1, -1)}
    return inc._lattice


def face_lattice(inc: IncidenceStructure):
    """Proper faces as canonical vertex sets grouped by dimension: the
    frozenset view of ``face_masks``, each level sorted, built per call."""
    return {
        k: tuple(sorted((members(m) for m in masks), key=sorted))
        for k, masks in face_masks(inc).items()
    }


def graph_of(inc: IncidenceStructure):
    """1-faces as sorted unordered vertex-index pairs."""
    return sorted(tuple(sorted(members(e))) for e in face_masks(inc).get(1, ()))


def f_vector(inc: IncidenceStructure):
    return tuple(len(masks) for masks in face_masks(inc).values())


def is_cubical(inc: IncidenceStructure) -> bool:
    """Every proper face a combinatorial cube, certified by 2^k vertex counts."""
    return all(
        f.bit_count() == 1 << k for k, masks in face_masks(inc).items() for f in masks
    )


# ---------------------------------------------------------------------------
# hypercube graph recognition
# ---------------------------------------------------------------------------


def hypercube_graph_iso(edges, n):
    """Labeling of a graph by {-1,+1}^n realizing an isomorphism with the
    n-cube graph, or None.

    The least vertex gets the all-minus label and its neighbors the unit
    flips; each later breadth-first level gets the union of its neighbors'
    bitmasks one level up.  A bijection onto the 2^n bitmasks under which
    every edge flips one bit, on n 2^(n-1) distinct edges, maps the edges
    one to one onto the cube's: it is an isomorphism.
    """
    verts = sorted({x for e in edges for x in e})
    if len(verts) != 2 ** n:
        return None
    adj = {x: set() for x in verts}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    frontier = sorted(adj[verts[0]])
    label = {verts[0]: 0} | {w: 1 << i for i, w in enumerate(frontier)}
    while frontier:
        up = set(frontier)
        frontier = sorted({x for w in frontier for x in adj[w] if x not in label})
        for x in frontier:
            label[x] = reduce(or_, (label[w] for w in adj[x] & up))
    if set(label.values()) != set(range(2 ** n)):
        return None
    # a repeated edge, in either orientation, is one edge of the graph
    if len({frozenset(e) for e in edges}) != n * 2 ** (n - 1):
        return None
    if any((label[a] ^ label[b]).bit_count() != 1 for a, b in edges):
        return None
    return {v: vertex_tuple_from_bits(label[v], n) for v in verts}
