"""The bitwise face algebra of ``complexes`` against the sign-vector forms it
replaced.

A face of the n-cube is a sign vector in {-1, 0, +1}^n (zeroes are the free
coordinates) or, in the library, the mask of its vertex IDs
(``signvec.vertex_set``).  The sign-vector operations below (``meet``,
``is_subface``, ``subfaces``, ``all_faces``, ``opposite`` and the closure
``sign_vector_closure``) were the library's before the surgery and the
closure moved to masks; they stay here as the references the mask code is
compared against, and other test files import them.
"""

from itertools import combinations, product

import pytest

from ncpoly import signvec
from ncpoly.complexes import CubicalComplex, codim1_faces, free_coordinates, from_cube_facets
from ncpoly.gale import facets_gale, to_sign_vector


def face_dim(sv):
    return sum(1 for s in sv if s == 0)


def is_subface(sub, face):
    """True when ``sub`` is a face of ``face`` (fills some of its zeroes)."""
    return all(f == 0 or s == f for s, f in zip(sub, face))


def meet(a, b):
    """Intersection of two cube faces, or None when they are disjoint."""
    out = []
    for x, y in zip(a, b):
        if x == 0:
            out.append(y)
        elif y == 0 or x == y:
            out.append(x)
        else:
            return None
    return tuple(out)


def subfaces(sv, k):
    """All k-faces of the cube face ``sv``."""
    zeros = signvec.zero_positions(sv)
    if k > len(zeros):
        return
    sv = list(sv)
    for keep in combinations(zeros, k):
        fill = [p for p in zeros if p not in keep]
        for signs in product((-1, 1), repeat=len(fill)):
            face = sv[:]
            for p, s in zip(fill, signs):
                face[p] = s
            yield tuple(face)


def all_faces(n, max_zeros):
    """Every face of the n-cube with at most ``max_zeros`` zeroes."""
    for sv in product((-1, 0, 1), repeat=n):
        if face_dim(sv) <= max_zeros:
            yield sv


def opposite(facet, quad):
    """Face of ``facet`` opposite to its subface ``quad``."""
    out = list(facet)
    changed = False
    for i, (f, q) in enumerate(zip(facet, quad)):
        if f == 0 and q != 0:
            out[i] = -q
            changed = True
    if not changed:
        raise ValueError("quad is not a proper subface")
    return tuple(out)


def sign_vector_closure(facet_sign_vectors):
    """The downward closure of sign-vector faces, as ``{dim: frozenset of
    vertex masks}``: the sign-vector form of ``from_cube_facets``."""
    faces = set()
    for top in facet_sign_vectors:
        for j in range(face_dim(top) + 1):
            faces.update(subfaces(top, j))
    faces_by_dim = {}
    for sv in faces:
        faces_by_dim.setdefault(face_dim(sv), set()).add(signvec.vertex_set(sv))
    return {k: frozenset(fs) for k, fs in faces_by_dim.items()}


CUBE_FACES = {n: list(all_faces(n, n)) for n in range(1, 5)}


@pytest.mark.parametrize("n", sorted(CUBE_FACES))
def test_meet_and_containment_are_bitwise(n):
    faces = CUBE_FACES[n]
    masks = [signvec.vertex_set(f) for f in faces]
    for a, am in zip(faces, masks):
        for b, bm in zip(faces, masks):
            m = meet(a, b)
            assert (0 if m is None else signvec.vertex_set(m)) == am & bm, (a, b)
            assert is_subface(a, b) == (am & bm == am), (a, b)


@pytest.mark.parametrize("n", sorted(CUBE_FACES))
def test_opposite_face_is_the_rest_of_the_vertices(n):
    checked = 0
    for f in CUBE_FACES[n]:
        fm = signvec.vertex_set(f)
        for q in subfaces(f, face_dim(f) - 1) if face_dim(f) else ():
            assert signvec.vertex_set(opposite(f, q)) == fm & ~signvec.vertex_set(q), (f, q)
            checked += 1
    # every k-face has 2k facets: sum over faces of 2k
    assert checked == sum(2 * face_dim(f) for f in CUBE_FACES[n])


@pytest.mark.parametrize("n", sorted(CUBE_FACES))
def test_codim1_faces_are_the_sign_vector_subfaces(n):
    for f in CUBE_FACES[n]:
        k = face_dim(f)
        mask = signvec.vertex_set(f)
        got = codim1_faces(mask)
        want = {signvec.vertex_set(s) for s in subfaces(f, k - 1)} if k else set()
        assert len(got) == 2 * k and set(got) == want, f
        assert free_coordinates(mask) == sum(1 << i for i in signvec.zero_positions(f))


BOUNDARIES = [(n, d) for n in range(3, 8) for d in range(3, n + 1)]


@pytest.mark.parametrize("n,d", BOUNDARIES)
def test_closure_matches_sign_vector_closure(n, d):
    facets = [to_sign_vector(a, n) for a in facets_gale(n, d)]
    cx = from_cube_facets([signvec.vertex_set(f) for f in facets])
    assert cx.faces_by_dim == sign_vector_closure(facets)
    assert cx.dim == d - 1


def test_closure_of_faces_of_mixed_dimension():
    tops = [signvec.parse("00+0"), signvec.parse("+--0"), signvec.parse("-+-+")]
    cx = from_cube_facets([signvec.vertex_set(f) for f in tops])
    assert cx.faces_by_dim == sign_vector_closure(tops)
    assert cx.f_vector() == (11, 13, 6, 1)
    assert from_cube_facets([]).faces_by_dim == {}


def test_a_negative_mask_is_refused():
    # a negative int has infinitely many bits set: listing them never ended,
    # so CubicalComplex hung in its constructor on a negative face mask
    assert signvec.members(0b1011) == frozenset({0, 1, 3})
    for bad in (signvec.members, lambda m: CubicalComplex({0: {m}})):
        with pytest.raises(ValueError, match="negative mask -2"):
            bad(-2)
