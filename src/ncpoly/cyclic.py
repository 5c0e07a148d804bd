"""Moment-curve point configurations and their oriented-matroid structure.

These are the simplicial reference objects: the facet structure of the
convex hull of points on the moment curve is governed by the classical Gale
evenness condition (``gale.gap_even`` on a subset's non-members), and the
same facets come back from the positive cocircuits of the homogenized
configuration.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import DimensionError
from .gale import gap_even
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
    if d < 1:
        raise ValueError("need d >= 1")
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


def gale_evenness_facets(n, d):
    """Facet index sets (1-based) of the cyclic d-polytope on n vertices:
    the d-subsets whose non-members are ``gap_even``, which is Gale's
    condition that an even number of members lies between any two
    non-members."""
    if not n > d >= 2:
        raise ValueError("need n > d >= 2")
    return [
        frozenset(s)
        for s in combinations(range(1, n + 1), d)
        if gap_even([i for i in range(1, n + 1) if i not in s])
    ]


def cyclic_facet_count(n, d) -> int:
    if not n > d >= 2:
        raise ValueError("need n > d >= 2")
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
