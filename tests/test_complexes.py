"""The bitwise face algebra of ``complexes`` against the sign-vector forms it
replaced.

A face of the n-cube is a sign vector in {-1, 0, +1}^n (zeroes are the free
coordinates) or, in the library, the mask of its vertex IDs
(``signvec.vertex_set``).  The sign-vector operations below (``meet``,
``is_subface``, ``subfaces``, ``all_faces``, ``opposite`` and the closure
``sign_vector_closure``) were the library's before the surgery and the
closure moved to masks; they stay here as the references the mask code is
compared against, and other test files import them.  The vertex-ID forms of
``free_coordinates`` and ``codim1_faces`` (the library's until they read a
face's coordinates off its lowest and highest vertex ID) stay here too.
"""

import signal
from functools import reduce
from itertools import combinations, product
from operator import and_, or_

import pytest

from ncpoly import complexes, signvec
from ncpoly.complexes import CubicalComplex, codim1_faces, free_coordinates, from_cube_facets
from ncpoly.gale import facet_vertex_masks, facets_gale, to_sign_vector


def face_dim(sv):
    return sum(1 for s in sv if s == 0)


def zero_positions(sv):
    return tuple(i for i, s in enumerate(sv) if s == 0)


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
    zeros = zero_positions(sv)
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
        assert free_coordinates(mask) == sum(1 << i for i in zero_positions(f))


def id_free_coordinates(face):
    """The free coordinates as the bits that vary over the face's vertex IDs."""
    ids = signvec.members(face)
    return reduce(or_, ids) ^ reduce(and_, ids)


def id_codim1_faces(face):
    """The face split on each free coordinate into the vertex IDs with that
    bit set and the rest."""
    ids = signvec.members(face)
    free = id_free_coordinates(face)
    out = []
    for i in range(free.bit_length()):
        if free >> i & 1:
            upper = sum(1 << v for v in ids if v >> i & 1)
            out += [upper, face ^ upper]
    return out


@pytest.mark.parametrize("n", range(6))
def test_face_readers_match_the_vertex_id_reference(n):
    # every face of the n-cube, the order of the codimension-1 faces included
    for f in all_faces(n, n):
        mask = signvec.vertex_set(f)
        assert codim1_faces(mask) == id_codim1_faces(mask), f
        assert free_coordinates(mask) == id_free_coordinates(mask), f


@pytest.mark.parametrize("n,d", [(n, d) for n in range(2, 10) for d in range(2, n + 1)])
def test_gale_closure_matches_the_vertex_id_closure(n, d, monkeypatch):
    masks = facet_vertex_masks(n, d)
    got = from_cube_facets(masks).faces_by_dim
    monkeypatch.setattr(complexes, "codim1_faces", id_codim1_faces)
    assert got == from_cube_facets(masks).faces_by_dim


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


def _within(seconds, call):
    """``call()``, stopped by an alarm after ``seconds``: a hang fails the
    test instead of stalling the suite."""

    def stop(signum, frame):
        raise TimeoutError(f"no result in {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_cube_face_refuses_negative_or_overlapping_bits():
    # a negative free mask has infinitely many bits, so the doubling never
    # ended; overlapping bits would shift the face onto wrong vertex IDs
    assert signvec.cube_face(0b101, 0b010) == sum(1 << v for v in (0b010, 0b011, 0b110, 0b111))
    for free, ones in ((-1, 0), (0, -1), (0b11, 0b10)):
        with pytest.raises(ValueError, match="no cube face"):
            _within(1, lambda: signvec.cube_face(free, ones))


def test_a_mask_that_is_no_cube_face_is_refused():
    # vertex IDs {0, 1, 3} span no face: its closure had a three-vertex
    # "1-face"; {1, 2} has the right count but is no edge, and was split
    # into the faces [2, 4, 4, 2]
    for bad in (0b1011, 0b0110, 0, -2):
        for read in (free_coordinates, codim1_faces):
            with pytest.raises(ValueError, match="is not a cube face"):
                read(bad)
    with pytest.raises(ValueError, match="mask 11 is not a cube face"):
        from_cube_facets([0b1011])
