"""Moment-curve point configurations and their oriented-matroid structure.

These are the simplicial reference objects: the facet structure of the
convex hull of points on the moment curve is governed by the classical Gale
evenness condition, and the same facets come back from the positive
cocircuits of the homogenized configuration.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import DimensionError
from .polytope import VPolytope, facets_from_vrep
from .signvec import members


class CyclicConfiguration(namedtuple("CyclicConfiguration", "n rank ts")):
    """Homogenized points (1, t, t^2, ..., t^d) for increasing parameters;
    ``rank`` is d + 1."""

    __slots__ = ()

    def row(self, i):
        t = Fraction(self.ts[i])
        return tuple(t ** j for j in range(self.rank))


def cyclic_configuration(n, d, ts=None) -> CyclicConfiguration:
    if d + 1 > n:
        raise DimensionError("rank cannot exceed the number of points")
    ts = tuple(range(1, n + 1) if ts is None else ts)
    if any(isinstance(t, float) for t in ts):
        raise TypeError("parameters must be ints, Fractions or strings, not float")
    ts = tuple(map(Fraction, ts))
    if len(ts) != n:
        raise ValueError("need one parameter per point")
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("parameters must be strictly increasing")
    return CyclicConfiguration(n, d + 1, ts)


def classical_gale_even(subset, n) -> bool:
    """Classical evenness: between any two values outside the subset there
    is an even number of subset elements."""
    inside = set(subset)
    outside = [i for i in range(1, n + 1) if i not in inside]
    for a, b in combinations(outside, 2):
        if sum(1 for k in inside if a < k < b) % 2:
            return False
    return True


def gale_evenness_facets(n, d):
    """Facet index sets (1-based) of the cyclic d-polytope on n vertices."""
    if not n > d >= 2:
        raise ValueError("need n > d >= 2")
    return [
        frozenset(s)
        for s in combinations(range(1, n + 1), d)
        if classical_gale_even(s, n)
    ]


def cyclic_facet_count(n, d) -> int:
    return comb(n - (d + 1) // 2, d // 2) + comb(
        n - 1 - d // 2, (d - 1) // 2
    )


def positive_cocircuit_facets(cfg: CyclicConfiguration):
    """Facets recovered from positive cocircuits of the configuration.

    A hyperplane spanned by rank-1 points whose cocircuit (the sign pattern
    of the other points against it) is one-signed marks a facet; those are
    the facets of the hull of the dehomogenized points.  Returns their
    1-based vertex index sets.
    """
    v = VPolytope(cfg.rank - 1, [cfg.row(i)[1:] for i in range(cfg.n)])
    return {members(f << 1) for f in facets_from_vrep(v).facets}
