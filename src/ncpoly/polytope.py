"""Exact polytope representations and the geometric hull oracle.

Both enumeration directions are one exact routine: the extreme rays of a
pointed integer cone, by incremental double description.  Facets of a
V-polytope are the extreme rays of the cone of affine functions that are
nonnegative on its points; vertices of an H-polytope are the extreme rays of
its homogenized cone with last coordinate positive.  All arithmetic is on
Python integers, so results are exact.

Each ray's zero set is the incidence it carries: the points on a facet, or
the inequalities tight at a vertex.  Nothing downstream recomputes it.  The
face lattice and its grading come from the vertex-facet incidence alone
(Kaibel & Pfetsch 2002), with no coordinate arithmetic.
"""

from fractions import Fraction
from math import lcm

from .errors import (
    DimensionError,
    EmptyPolytopeError,
    SpanError,
    UnboundedPolytopeError,
)
from .intops import (
    echelon_kernel,
    int_rank,
    int_row,
    primitive,
    reduce_row,
)


class HPolytope:
    """Inequality description: normal . x <= rhs, in a fixed order.

    The order of the inequality list is part of the identity; constraint
    indices are meaningful to callers.
    """

    __slots__ = ("dim", "inequalities")

    def __init__(self, dim, inequalities):
        self.dim = dim
        ineqs = []
        for normal, rhs in inequalities:
            normal = tuple(Fraction(x) for x in normal)
            if len(normal) != dim:
                raise DimensionError("normal length differs from dimension")
            if not any(normal):
                raise ValueError("all-zero normal")
            ineqs.append((normal, Fraction(rhs)))
        self.inequalities = tuple(ineqs)

    def __eq__(self, other):
        return (
            isinstance(other, HPolytope)
            and self.dim == other.dim
            and self.inequalities == other.inequalities
        )

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "inequalities": [
                {"normal": [str(x) for x in n], "rhs": str(r)}
                for n, r in self.inequalities
            ],
        }


class VPolytope:
    """Vertex description with optional sign-vector labels per point."""

    __slots__ = ("dim", "points", "labels")

    def __init__(self, dim, points, labels=None):
        self.dim = dim
        pts = tuple(tuple(Fraction(x) for x in p) for p in points)
        if any(len(p) != dim for p in pts):
            raise DimensionError("point length differs from dimension")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        self.points = pts
        if labels is not None:
            labels = tuple(tuple(s) for s in labels)
            if len(labels) != len(pts):
                raise ValueError("one label per point required")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be pairwise distinct")
            if len({len(s) for s in labels}) > 1:
                raise ValueError("labels must have uniform length")
        self.labels = labels

    def to_json_dict(self):
        d = {
            "dim": self.dim,
            "points": [[str(x) for x in p] for p in self.points],
        }
        if self.labels is not None:
            d["labels"] = ["".join("+" if s > 0 else "-" for s in lab) for lab in self.labels]
        return d


class IncidenceStructure:
    """Vertex-facet incidence plus the face lattice derived from it."""

    def __init__(self, vertex_count, incidence, coords=None, labels=None, inequalities=None):
        self.vertex_count = vertex_count
        self.incidence = tuple(frozenset(s) for s in incidence)
        self.facet_count = len(self.incidence)
        if any(not s for s in self.incidence):
            raise ValueError("empty facet")
        self.coords = coords
        self.labels = labels
        self.inequalities = inequalities
        self._lattice = None

    def to_json_dict(self):
        d = {
            "vertex_count": self.vertex_count,
            "facet_count": self.facet_count,
            "incidence": [sorted(s) for s in self.incidence],
        }
        if self.inequalities is not None:
            d["inequalities"] = [
                {"normal": [str(x) for x in n], "rhs": str(r)}
                for n, r in self.inequalities
            ]
        return d


def canonical_inequality(normal, rhs):
    """Primitive integer form of normal . x <= rhs (positive scaling only)."""
    row = primitive(int_row((*normal, rhs)))
    return tuple(row[:-1]), row[-1]


# ---------------------------------------------------------------------------
# the cone routine behind both hull directions
# ---------------------------------------------------------------------------


def _members(mask):
    """The frozenset of bit positions set in ``mask``."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(members)


def _extreme_rays(rows, width):
    """Extreme rays of the pointed cone {u : row . u >= 0 for every row}.

    Incremental double description (Motzkin et al. 1953; Fukuda & Prodon,
    "Double description method revisited", 1996).  The cone of ``width``
    independent rows, taken greedily in input order, is simplicial; the
    other rows then cut it one at a time, in input order.  A cut keeps the
    rays on its nonnegative side and adds the primitive combination of
    every adjacent pair it separates.  Rays p and q are adjacent exactly
    when their common zero set Z has at least width-2 rows and no third ray
    vanishes on all of Z.  ``rows`` are integer vectors of rank ``width``.

    Returns (ray, zero set) pairs: a primitive integer ray and the frozenset
    of row indices on which it vanishes.
    """
    basis, red = [], []
    for i, row in enumerate(rows):
        res = reduce_row(row, red)
        if any(res):
            basis.append(i)
            red.append((res, next(j for j, x in enumerate(res) if x)))
            if len(basis) == width:
                break
    rays, zeros = [], []
    for i in basis:
        others = []
        for j in basis:
            if j != i:
                res = reduce_row(rows[j], others)
                others.append((res, next(c for c, x in enumerate(res) if x)))
        ray = echelon_kernel(others, width)
        if sum(a * b for a, b in zip(rows[i], ray)) < 0:
            ray = tuple(-x for x in ray)
        rays.append(ray)
        zeros.append(sum(1 << j for j in basis if j != i))

    in_basis = set(basis)
    for k, row in enumerate(rows):
        if k in in_basis:
            continue
        vals = [sum(a * b for a, b in zip(row, ray)) for ray in rays]
        pos = [i for i, s in enumerate(vals) if s > 0]
        neg = [i for i, s in enumerate(vals) if s < 0]
        new_rays, new_zeros = [], []
        for p in pos:
            for q in neg:
                common = zeros[p] & zeros[q]
                if common.bit_count() < width - 2:
                    continue
                if any(z & common == common for i, z in enumerate(zeros) if i != p and i != q):
                    continue
                sp, sq = vals[p], vals[q]
                new_rays.append(primitive([sp * b - sq * a for a, b in zip(rays[p], rays[q])]))
                new_zeros.append(common | 1 << k)
        keep = [i for i, s in enumerate(vals) if s >= 0]
        rays = [rays[i] for i in keep] + new_rays
        zeros = [zeros[i] | (1 << k if vals[i] == 0 else 0) for i in keep] + new_zeros
    return [(ray, _members(z)) for ray, z in zip(rays, zeros)]


# ---------------------------------------------------------------------------
# vertex enumeration from an H-description
# ---------------------------------------------------------------------------


def _fm_feasible(rows, d):
    """Fourier-Motzkin feasibility for rows (normal..., rhs) over ints."""
    rows = [list(r) for r in rows]
    for col in range(d):
        pos, neg, rest = [], [], []
        for r in rows:
            (pos if r[col] > 0 else neg if r[col] < 0 else rest).append(r)
        for p in pos:
            for q in neg:
                rest.append(
                    [p[j] * -q[col] + q[j] * p[col] for j in range(d + 1)]
                )
        rows = [list(primitive(r)) for r in rest]
    return all(r[d] >= 0 for r in rows)


def vertices_and_tight_sets(h: HPolytope):
    """All vertices of a bounded H-polytope, sorted, each paired with the
    frozenset of indices of the inequalities tight at it.

    The extreme rays (y, t) of the homogenized cone
    {(y, t) : normal . y <= rhs * t, t >= 0} are the vertices y / t when
    t > 0 and the extreme recession directions y when t = 0; a vertex's
    tight set is its ray's zero set.
    Raises UnboundedPolytopeError / EmptyPolytopeError when the system does
    not describe a (nonempty, bounded) polytope.
    """
    d = h.dim
    int_rows = [int_row(normal + (rhs,)) for normal, rhs in h.inequalities]
    if int_rank([r[:-1] for r in int_rows]) < d:
        if _fm_feasible(int_rows, d):
            raise UnboundedPolytopeError("normals do not span; feasible set has a line")
        raise EmptyPolytopeError("inconsistent inequality system")

    cone = [tuple(-x for x in r[:-1]) + (r[-1],) for r in int_rows]
    cone.append((0,) * d + (1,))
    rays = _extreme_rays(cone, d + 1)
    verts = sorted(
        (tuple(Fraction(x, ray[d]) for x in ray[:d]), tight)
        for ray, tight in rays
        if ray[d]
    )
    if not verts:
        raise EmptyPolytopeError("no basic feasible point")
    if len(verts) < len(rays):
        raise UnboundedPolytopeError("recession cone has an extreme ray")
    return verts


def vertices_from_hrep(h: HPolytope) -> VPolytope:
    """All vertices of a bounded H-polytope, sorted."""
    return VPolytope(h.dim, [p for p, _ in vertices_and_tight_sets(h)])


# ---------------------------------------------------------------------------
# facet enumeration from a V-description (the geometric oracle)
# ---------------------------------------------------------------------------


def facets_from_vrep(v: VPolytope) -> IncidenceStructure:
    """All facets of conv(points), sorted by canonical inequality.

    The facets are the extreme rays of the cone of affine functions
    nonnegative on every point, u . (x, 1) >= 0; a facet's vertex set is the
    ray's zero set.  Non-vertex points on a facet belong to its incidence.
    """
    d = v.dim
    # one common scale clears every denominator and keeps the hull
    mult = lcm(*(x.denominator for p in v.points for x in p))
    hom = [tuple(int(x * mult) for x in p) + (1,) for p in v.points]
    if int_rank(hom) != d + 1:
        raise SpanError("points do not affinely span the ambient space")
    entries = []
    for u, inc in _extreme_rays(hom, d + 1):
        # u . (x, 1) >= 0 on all points: outward form is -u[:d] . x <= u[d]
        normal = tuple(-a for a in u[:d])
        entries.append((inc, canonical_inequality(normal, Fraction(u[d], mult))))
    entries.sort(key=lambda e: e[1])
    return IncidenceStructure(
        vertex_count=len(v.points),
        incidence=[inc for inc, _ in entries],
        coords=v.points,
        labels=v.labels,
        inequalities=tuple(ineq for _, ineq in entries),
    )


# ---------------------------------------------------------------------------
# face lattice, graph, cubicality
# ---------------------------------------------------------------------------


def face_lattice(inc: IncidenceStructure, up_to_dim=None):
    """Proper faces (as canonical vertex sets) grouped by dimension.

    Graded from the vertex-facet incidence alone, top down (Kaibel &
    Pfetsch, "Computing the face lattice of a polytope from its
    vertex-facet incidences", 2002): the facets sit at depth 0, and the
    faces one dimension below a face F are the maximal proper nonempty
    intersections of F with the facets.  A polytope's face lattice is
    graded, so every face is reached at one depth only, and its dimension
    is the depth of the vertices minus its own.  The keys run from 0 to d-1
    with no gap.
    """
    if inc._lattice is None:
        facets = [sum(1 << i for i in f) for f in inc.incidence]
        levels = [set(facets)]
        while True:
            below = set()
            for f in levels[-1]:
                # larger cuts first, so a cut is maximal when no kept one holds it
                cuts = sorted({f & g for g in facets} - {0, f}, key=int.bit_count, reverse=True)
                kept = []
                for cut in cuts:
                    if all(cut & k != cut for k in kept):
                        kept.append(cut)
                below.update(kept)
            if not below:
                break
            levels.append(below)
        top = len(levels) - 1
        inc._lattice = {
            top - depth: tuple(sorted((_members(m) for m in levels[depth]), key=sorted))
            for depth in range(top, -1, -1)
        }
    if up_to_dim is None:
        return inc._lattice
    return {k: fs for k, fs in inc._lattice.items() if k <= up_to_dim}


def polytope_dim(inc: IncidenceStructure):
    return max(face_lattice(inc)) + 1


def graph_of(inc: IncidenceStructure):
    """1-faces as sorted unordered vertex-index pairs."""
    lattice = face_lattice(inc)
    return sorted(tuple(sorted(e)) for e in lattice.get(1, ()))


def f_vector(inc: IncidenceStructure):
    return tuple(len(faces) for faces in face_lattice(inc).values())


def is_cubical(inc: IncidenceStructure) -> bool:
    """Every proper face a combinatorial cube, certified by 2^k vertex counts."""
    return all(
        len(f) == 2 ** k for k, faces in face_lattice(inc).items() for f in faces
    )


# ---------------------------------------------------------------------------
# hypercube graph recognition
# ---------------------------------------------------------------------------


def hypercube_graph_iso(edges, n):
    """Labeling of a graph by {-1,+1}^n realizing an isomorphism with the
    n-cube graph, or None.

    Anchor an arbitrary vertex at the all-minus label, give its neighbors the
    unit flips, then propagate: a vertex all of whose lower-level neighbors
    are labeled gets the union of their bitmasks.  A final pass checks that
    every edge is a single-coordinate flip, which makes the search exact.
    """
    verts = sorted({x for e in edges for x in e})
    if len(verts) != 2 ** n:
        return None
    adj = {x: set() for x in verts}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    anchor = verts[0]
    if len(adj[anchor]) != n:
        return None
    label = {anchor: 0}
    level = {anchor: 0}
    for i, w in enumerate(sorted(adj[anchor])):
        label[w] = 1 << i
        level[w] = 1
    frontier = sorted(adj[anchor])
    k = 1
    while frontier:
        nxt = set()
        for w in frontier:
            for x in adj[w]:
                if x not in level:
                    nxt.add(x)
        k += 1
        frontier = sorted(nxt)
        for x in frontier:
            preds = [label[w] for w in adj[x] if level.get(w) == k - 1]
            if len(preds) < 2:
                return None
            m = 0
            for p in preds:
                m |= p
            if bin(m).count("1") != k or m in label.values():
                return None
            label[x] = m
            level[x] = k
    if len(label) != 2 ** n:
        return None
    if len(edges) != n * 2 ** (n - 1):
        return None
    for a, b in edges:
        x = label[a] ^ label[b]
        if x == 0 or x & (x - 1):
            return None
    return {
        v: tuple(1 if label[v] >> i & 1 else -1 for i in range(n)) for v in verts
    }


# ---------------------------------------------------------------------------
# OFF export (inspection only, dim <= 3)
# ---------------------------------------------------------------------------


def _decimal_or_fraction(x: Fraction) -> str:
    num, den = x.numerator, x.denominator
    d = den
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d != 1:
        return f"{num}/{den}"
    digits = 0
    scaled = num
    while scaled % den:
        scaled *= 10
        digits += 1
    q = scaled // den
    if digits == 0:
        return str(q)
    s = str(abs(q)).rjust(digits + 1, "0")
    return ("-" if q < 0 else "") + s[:-digits] + "." + s[-digits:]


def _facet_cycle(face, edges):
    """Order the vertices of a 2-face along its edge cycle."""
    adj = {}
    for a, b in edges:
        if a in face and b in face:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    start = min(face)
    cycle = [start]
    prev = None
    cur = start
    while True:
        nbrs = [x for x in adj[cur] if x != prev]
        if not nbrs:
            return sorted(face)
        prev, cur = cur, nbrs[0]
        if cur == start:
            return cycle
        cycle.append(cur)


def to_off(inc: IncidenceStructure) -> str:
    """OFF text for objects of dimension at most 3, with exact coordinates."""
    if inc.coords is None:
        raise ValueError("OFF export needs coordinates")
    top = polytope_dim(inc)
    if top > 3:
        raise DimensionError("OFF export is limited to dimension <= 3")
    pts = [p + (Fraction(0),) * (3 - len(p)) for p in inc.coords]
    if top == 3:
        faces = [sorted(f) for f in face_lattice(inc)[2]]
        edges = [tuple(sorted(e)) for e in face_lattice(inc)[1]]
    elif top == 2:
        faces = [sorted(range(inc.vertex_count))]
        edges = [tuple(sorted(e)) for e in face_lattice(inc).get(1, ())]
    else:
        faces, edges = [], []
    lines = ["OFF", f"{len(pts)} {len(faces)} {len(edges)}"]
    for p in pts:
        lines.append(" ".join(_decimal_or_fraction(x) for x in p))
    for f in faces:
        cyc = _facet_cycle(frozenset(f), edges) if edges else f
        lines.append(f"{len(cyc)} " + " ".join(map(str, cyc)))
    return "\n".join(lines) + "\n"
