"""Moment-curve point configurations and their oriented-matroid structure.

These are the simplicial reference objects: the facet structure of the
convex hull of points on the moment curve is governed by the classical Gale
evenness condition, and all chirotope signs of the homogenized configuration
are positive.  The dual carries an alternating row reorientation; its rank
is pinned by rank(primal) + rank(dual) = n.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import DimensionError
from .intops import bareiss_det, int_rank, int_row


@dataclass(frozen=True)
class CyclicConfiguration:
    """Homogenized points (1, t, t^2, ..., t^d) for increasing parameters."""

    n: int
    rank: int  # d + 1
    ts: tuple

    def row(self, i):
        t = Fraction(self.ts[i])
        return tuple(t ** j for j in range(self.rank))

    def matrix(self):
        return tuple(self.row(i) for i in range(self.n))


def cyclic_configuration(n, d, ts=None) -> CyclicConfiguration:
    if d + 1 > n:
        raise DimensionError("rank cannot exceed the number of points")
    if ts is None:
        ts = tuple(range(1, n + 1))
    ts = tuple(Fraction(t) for t in ts)
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("parameters must be strictly increasing")
    return CyclicConfiguration(n, d + 1, ts)


def chirotope(cfg: CyclicConfiguration, subset):
    """Sign of the maximal minor on the given point subset."""
    subset = tuple(subset)
    if len(subset) != cfg.rank:
        raise DimensionError("subset size must equal the rank")
    det = bareiss_det([int_row(cfg.row(i)) for i in subset])
    return 0 if det == 0 else (1 if det > 0 else -1)


def dual_configuration(cfg: CyclicConfiguration):
    """Representation of the dual: moment rows of complementary rank with
    every other row negated."""
    dual_rank = cfg.n - cfg.rank
    rows = []
    for i in range(cfg.n):
        t = Fraction(cfg.ts[i])
        sign = 1 if i % 2 == 0 else -1
        rows.append(tuple(sign * t ** j for j in range(dual_rank)))
    return tuple(rows)


def rank_pair(cfg: CyclicConfiguration):
    return (
        int_rank([int_row(r) for r in cfg.matrix()]),
        int_rank([int_row(r) for r in dual_configuration(cfg)]),
    )


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

    For each hyperplane spanned by rank-1 points, the cocircuit is the sign
    pattern of the remaining points against it; a one-signed pattern marks a
    facet.
    """
    d = cfg.rank - 1
    rows = [int_row(cfg.row(i)) for i in range(cfg.n)]
    facets = set()
    for subset in combinations(range(cfg.n), d):
        base = [rows[i] for i in subset]
        signs = set()
        zeros = set(subset)
        for i in range(cfg.n):
            if i in subset:
                continue
            det = bareiss_det(base + [rows[i]])
            if det == 0:
                zeros.add(i)
            else:
                signs.add(1 if det > 0 else -1)
        if len(signs) == 1:
            facets.add(frozenset(i + 1 for i in zeros))
    return facets
