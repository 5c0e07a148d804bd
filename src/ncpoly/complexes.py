"""Abstract cubical cell complexes over integer vertex IDs.

Faces are canonical vertex sets grouped by dimension; a k-face has 2^k
vertices.  This is the shared representation for subcomplexes of cube
boundaries and for the surgered sphere, where no coordinates exist.
"""

from dataclasses import dataclass, field
from itertools import combinations

from . import signvec
from .errors import ConstructionError


@dataclass
class CubicalComplex:
    faces_by_dim: dict
    vertex_ids: frozenset = field(default=None)

    def __post_init__(self):
        self.faces_by_dim = {
            k: frozenset(frozenset(f) for f in faces)
            for k, faces in self.faces_by_dim.items()
            if faces
        }
        if self.vertex_ids is None:
            ids = set()
            for faces in self.faces_by_dim.values():
                for f in faces:
                    ids |= f
            self.vertex_ids = frozenset(ids)

    @property
    def dim(self):
        return max(self.faces_by_dim)

    def f_vector(self):
        return tuple(
            len(self.faces_by_dim.get(k, ())) for k in range(self.dim + 1)
        )

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
                if len(f) != 2 ** k:
                    raise ConstructionError(f"{k}-face with {len(f)} vertices")
        # every k-face must contain exactly 2k faces of dimension k-1
        for k in sorted(self.faces_by_dim):
            if k == 0:
                continue
            below = self.faces_by_dim.get(k - 1, frozenset())
            for f in self.faces_by_dim[k]:
                cnt = sum(1 for g in below if g < f)
                if cnt != 2 * k:
                    raise ConstructionError(
                        f"{k}-face with {cnt} codimension-1 subfaces"
                    )
        all_faces = [f for faces in self.faces_by_dim.values() for f in faces]
        face_set = set(all_faces)
        for a, b in combinations(all_faces, 2):
            c = a & b
            if c and c not in face_set:
                raise ConstructionError("face family not closed under intersection")

    def is_pseudomanifold(self):
        """Every codimension-1 face in exactly two facets."""
        top = self.dim
        ridges = self.faces_by_dim.get(top - 1, frozenset())
        facets = self.faces_by_dim[top]
        return all(sum(1 for f in facets if r < f) == 2 for r in ridges)

    def is_connected(self):
        verts = sorted(self.vertex_ids)
        if not verts:
            return True
        adj = {v: set() for v in verts}
        for e in self.faces_by_dim.get(1, ()):
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    def vertex_link_surface_check(self, v):
        """For a 3-dimensional complex: is the link of v a closed connected
        surface of Euler characteristic 2?

        Link cells: edges at v are link vertices, 2-faces at v are link
        edges, 3-cubes at v are link triangles.
        """
        edges = [f for f in self.faces_by_dim.get(1, ()) if v in f]
        quads = [f for f in self.faces_by_dim.get(2, ()) if v in f]
        cubes = [f for f in self.faces_by_dim.get(3, ()) if v in f]
        chi = len(edges) - len(quads) + len(cubes)
        if chi != 2:
            return False
        # closed: every link edge (quad at v) lies in exactly two link
        # triangles (cubes at v)
        for q in quads:
            if sum(1 for c in cubes if q < c) != 2:
                return False
        # connected: walk link triangles across shared link edges
        if not cubes:
            return False
        quad_to_cubes = {}
        for c in cubes:
            for q in quads:
                if q < c:
                    quad_to_cubes.setdefault(q, []).append(c)
        seen = {cubes[0]}
        stack = [cubes[0]]
        while stack:
            c = stack.pop()
            for q, cs in quad_to_cubes.items():
                if q < c:
                    for c2 in cs:
                        if c2 not in seen:
                            seen.add(c2)
                            stack.append(c2)
        return len(seen) == len(cubes)


def from_cube_facets(n, facet_sign_vectors):
    """Downward closure of cube faces given by sign vectors, as a complex
    over vertex bitmask IDs."""
    faces_by_dim = {}
    seen = set()
    for top in facet_sign_vectors:
        k = signvec.face_dim(top)
        for j in range(k + 1):
            for sub in signvec.subfaces(top, j):
                if sub not in seen:
                    seen.add(sub)
                    faces_by_dim.setdefault(j, set()).add(signvec.vertex_set(sub))
    return CubicalComplex(faces_by_dim)
