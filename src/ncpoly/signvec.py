"""Sign vectors naming the faces of a combinatorial n-cube.

A face of the n-cube is a vector in {+1, -1, 0}^n; zero positions are the
free coordinates, so a face with k zeroes is a k-face.  Vertices are encoded
as bitmasks: bit i set means coordinate i equals +1.  Sign vectors are the
gale labels of facets and the text of the CLI; every face operation runs on
vertex masks instead.  ``vertex_set`` is the one bridge: it turns a face
into the bitmask of its vertex IDs, the face format of ``complexes``, and
``members`` lists the IDs in such a mask.
"""

from math import comb

CHARS = {-1: "-", 0: "0", 1: "+"}
VALUES = {"-": -1, "0": 0, "+": 1}


def parse(text):
    """Parse a string like '-+00+0' into a sign vector tuple."""
    try:
        return tuple(VALUES[c] for c in text)
    except KeyError:
        raise ValueError(f"bad sign vector {text!r}") from None


def fmt(sv):
    return "".join(CHARS[s] for s in sv)


def zero_positions(sv):
    return tuple(i for i, s in enumerate(sv) if s == 0)


def vertices_bits(sv):
    """All vertices of a face, as bitmasks over the +1 coordinates, in
    binary counting order over the free coordinates (the first is bit 0)."""
    base = 0
    for i, s in enumerate(sv):
        if s == 1:
            base |= 1 << i
    verts = [base]
    for pos in zero_positions(sv):
        bit = 1 << pos
        verts += [v | bit for v in verts]
    return verts


def vertex_set(sv):
    """The face's vertices as one mask: bit v set for each vertex ID v."""
    return sum(1 << v for v in vertices_bits(sv))


def members(mask):
    """The frozenset of bit positions set in ``mask``, which must not be
    negative: a negative int has infinitely many bits set."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def vertex_tuple_from_bits(bits, n):
    return tuple(1 if bits >> i & 1 else -1 for i in range(n))


def cube_face_count(n, k):
    """Number of k-faces of the n-cube."""
    return comb(n, k) * 2 ** (n - k) if k <= n else 0
