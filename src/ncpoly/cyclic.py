"""The cyclic d-polytope on n vertices: the simplicial reference object.

``cyclic_configuration`` is the integer moment curve, the points
(t, t^2, ..., t^d) for t = 1..n.  Its facets are given by the classical Gale
evenness condition (``gale.gap_even`` on a subset's non-members), and the
same facets come back from the positive cocircuits of the homogenized
points, which are the facets of their hull.
"""

from itertools import combinations
from math import comb

from .errors import DimensionError
from .gale import gap_even
from .polytope import VPolytope, facets_from_vrep
from .signvec import members


def cyclic_configuration(n, d) -> VPolytope:
    """The points (t, t^2, ..., t^d) for t = 1..n."""
    if d < 1:
        raise ValueError("need d >= 1")
    if d + 1 > n:
        raise DimensionError("rank cannot exceed the number of points")
    return VPolytope(d, [tuple(t ** j for j in range(1, d + 1)) for t in range(1, n + 1)])


def gale_evenness_facets(n, d):
    """Facet index sets (1-based) of the cyclic d-polytope on n vertices,
    in lexicographic order: the d-subsets whose non-members are
    ``gap_even``, which is Gale's condition that an even number of members
    lies between any two non-members."""
    if not n > d >= 2:
        raise ValueError("need n > d >= 2")
    # the non-member sets are walked in lexicographic order, and taking
    # complements reverses it, so the list is read backwards
    every = frozenset(range(1, n + 1))
    return [every.difference(t) for t in combinations(range(1, n + 1), n - d) if gap_even(t)][::-1]


def cyclic_facet_count(n, d) -> int:
    if not n > d >= 2:
        raise ValueError("need n > d >= 2")
    return comb(n - (d + 1) // 2, d // 2) + comb(
        n - 1 - d // 2, (d - 1) // 2
    )


def positive_cocircuit_facets(v: VPolytope):
    """Facets recovered from positive cocircuits of the points of ``v``.

    A hyperplane spanned by homogenized points whose cocircuit (the sign
    pattern of the other points against it) is one-signed marks a facet;
    those are the facets of the hull of ``v``.  Returns their 1-based vertex
    index sets.
    """
    return {members(f << 1) for f in facets_from_vrep(v).facets}
