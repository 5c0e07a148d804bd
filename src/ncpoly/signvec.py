"""Sign vectors naming the faces of a combinatorial n-cube.

A face of the n-cube is a vector in {+1, -1, 0}^n; zero positions are the
free coordinates, so a face with k zeroes is a k-face.  Vertices are encoded
as bitmasks: bit i set means coordinate i equals +1.  Sign vectors are the
gale labels of facets and the text of the CLI; every face operation runs on
vertex masks instead.  ``cube_face(free, ones)`` turns a face into the mask
of its vertex IDs ``ones | s``, s a subset of ``free`` (the face format of
``complexes``; its lowest ID is ``ones``, its highest ``ones | free``).
``vertex_set`` applies it to a sign vector; ``members`` lists a mask's IDs.
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


def cube_face(free, ones):
    """The mask of the face free in the coordinates of ``free`` and +1 in
    those of ``ones`` (disjoint bitmasks): bit ``ones | s`` for each subset
    s of ``free``, built by doubling on each free bit, then shifted."""
    if free < 0 or ones < 0 or free & ones:
        raise ValueError(f"no cube face with free {free} and ones {ones}")
    mask = 1
    while free:
        b = free & -free
        mask |= mask << b
        free ^= b
    return mask << ones


def vertex_set(sv):
    """The face's vertices as one mask: bit v set for each vertex ID v."""
    free, ones = (sum(1 << i for i, s in enumerate(sv) if s == t) for t in (0, 1))
    return cube_face(free, ones)


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
