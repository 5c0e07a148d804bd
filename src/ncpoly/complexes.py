"""Abstract cubical cell complexes over integer vertex IDs.

Faces are vertex bitmasks (bit v for vertex ID v) grouped by dimension,
``{dim: frozenset of masks}``: the shape of ``polytope.face_masks``, so a
polytope's face lattice is a complex as it stands.  A k-face has 2^k
vertices.  The connectivity of a complex (vertices joined by edges) and of
a vertex link (cubes joined by quads) is one graph walk, ``_connected``.

Faces of the n-cube are masks over its vertex IDs too (bit i of an ID set
means coordinate i is +1; ``signvec.vertex_set`` turns a sign vector into
such a mask).  Two faces of one cube meet in a face whose vertex set is the
intersection, so the face algebra is bitwise: the meet is ``a & b`` (0 when
disjoint), a is a face of b when ``a & b == a``, and the face of F opposite
its facet Q is ``F & ~Q``.  ``free_coordinates`` and ``codim1_faces`` read
a face's coordinates off its vertex IDs.
"""

from collections import Counter
from functools import reduce
from itertools import combinations
from operator import and_, or_

from . import signvec
from .errors import ConstructionError


class CubicalComplex:
    """Faces by dimension, each a frozenset of masks; empty ones are dropped."""

    def __init__(self, faces_by_dim):
        self.faces_by_dim = {
            k: frozenset(faces) for k, faces in faces_by_dim.items() if faces
        }
        self.vertex_ids = signvec.members(reduce(or_, self.all_faces(), 0))

    @property
    def dim(self):
        return max(self.faces_by_dim)

    def f_vector(self):
        return tuple(len(self.faces_by_dim.get(k, ())) for k in range(self.dim + 1))

    def euler_characteristic(self):
        return sum((-1) ** k * f for k, f in enumerate(self.f_vector()))

    def facets(self):
        return self.faces_by_dim[self.dim]

    def all_faces(self):
        for k in sorted(self.faces_by_dim):
            yield from self.faces_by_dim[k]

    def validate(self):
        """Check the cubical-complex invariants; raise ConstructionError."""
        for k, faces in self.faces_by_dim.items():
            for f in faces:
                if f.bit_count() != 1 << k:
                    raise ConstructionError(f"{k}-face with {f.bit_count()} vertices")
        # every k-face must contain exactly 2k faces of dimension k-1
        for k in sorted(self.faces_by_dim):
            if k == 0:
                continue
            below = self.faces_by_dim.get(k - 1, frozenset())
            inside = Counter(f for _, f in _inclusions(below, self.faces_by_dim[k]))
            for f in self.faces_by_dim[k]:
                cnt = inside[f]
                if cnt != 2 * k:
                    raise ConstructionError(
                        f"{k}-face with {cnt} codimension-1 subfaces"
                    )
        # with every face in a facet and every two facets meeting in a face,
        # faces a of F and b of G meet inside the cube F & G, in a face of it
        face_set = set(self.all_faces())
        facets = self.facets()
        if not all(any(f & g == f for g in facets) for f in face_set):
            raise ConstructionError("face in no facet")
        for a, b in combinations(facets, 2):
            c = a & b
            if c and c not in face_set:
                raise ConstructionError("face family not closed under intersection")

    def is_pseudomanifold(self):
        """Every codimension-1 face in exactly two facets."""
        top = self.dim
        ridges = self.faces_by_dim.get(top - 1, frozenset())
        holding = Counter(r for r, _ in _inclusions(ridges, self.faces_by_dim[top]))
        return all(holding[r] == 2 for r in ridges)

    def is_connected(self):
        return _connected(self.vertex_ids, map(signvec.members, self.faces_by_dim.get(1, ())))

    def vertex_links_are_surfaces(self):
        """For a 3-dimensional complex: is the link of every vertex v a
        closed connected surface of Euler characteristic 2?  The faces at
        each vertex are grouped in one pass.

        Link cells: edges at v are link vertices, 2-faces at v are link
        edges, 3-cubes at v are link triangles.  Closed: every link edge
        lies in exactly two link triangles.  Connected: the link triangles
        are joined across shared link edges.
        """
        at = {v: ([], [], []) for v in self.vertex_ids}
        for k in (1, 2, 3):
            for f in self.faces_by_dim.get(k, ()):
                for v in signvec.members(f):
                    at[v][k - 1].append(f)
        return all(_link_is_surface(*faces) for faces in at.values())


def _link_is_surface(edges, quads, cubes):
    """The link test of ``CubicalComplex.vertex_links_are_surfaces`` on the
    edges, quads and cubes at one vertex v."""
    # a link with no triangles is no surface, though the walk below would
    # call its empty graph connected
    if len(edges) - len(quads) + len(cubes) != 2 or not cubes:
        return False
    cubes_at_quad = [[c for c in cubes if q & c == q != c] for q in quads]
    return all(len(cs) == 2 for cs in cubes_at_quad) and _connected(cubes, cubes_at_quad)


def _inclusions(small, big):
    """The pairs (g, f) with g in ``small``, f in ``big`` and g a proper
    subset of f.  A face holding g holds g's lowest vertex, so each g is
    tested only against the faces of ``big`` at that vertex."""
    at = {}
    for f in big:
        rest = f
        while rest:
            low = rest & -rest
            at.setdefault(low, []).append(f)
            rest ^= low
    for g in small:
        # the empty face lies in every face
        for f in at.get(g & -g, ()) if g else big:
            if g & f == g != f:
                yield g, f


def _connected(nodes, links):
    """True when ``links`` (groups of nodes, each group joined together)
    connect all of ``nodes``; an empty graph counts as connected."""
    touching = {x: [] for x in nodes}
    for link in links:
        for x in link:
            touching[x].append(link)
    stack = list(touching)[:1]
    seen = set(stack)
    while stack:
        for link in touching[stack.pop()]:
            for y in link:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == len(touching)


def free_coordinates(face):
    """The coordinates a cube face (a mask over cube vertex IDs) is free in,
    as a bitmask: the bits that vary over its vertex IDs."""
    ids = signvec.members(face)
    return reduce(or_, ids) ^ reduce(and_, ids)


def codim1_faces(face):
    """The 2k codimension-1 faces of a cube k-face, as masks: the face split
    on each free coordinate into the vertices with that bit set and the rest."""
    ids = signvec.members(face)
    free = reduce(or_, ids) ^ reduce(and_, ids)  # free_coordinates, on ids read once
    out = []
    for i in range(free.bit_length()):
        if free >> i & 1:
            upper = sum(1 << v for v in ids if v >> i & 1)
            out += [upper, face ^ upper]
    return out


def from_cube_facets(facets):
    """Downward closure of cube faces given as masks over the cube's vertex
    IDs (``signvec.vertex_set``)."""
    faces_by_dim = {}
    for f in facets:
        faces_by_dim.setdefault(f.bit_count().bit_length() - 1, set()).add(f)
    for k in range(max(faces_by_dim, default=0), 0, -1):
        below = faces_by_dim.setdefault(k - 1, set())
        for f in faces_by_dim.get(k, ()):
            below.update(codim1_faces(f))
    return CubicalComplex(faces_by_dim)
