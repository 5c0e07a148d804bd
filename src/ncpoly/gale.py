"""Purely combinatorial facet enumeration of the projected deformed cube.

Facets are named by signed index sets alpha inside {-1,+1,...,-n,+n} of size
n-d+1 with alpha disjoint from -alpha.  Writing p for the length of the
initial run 1..p of supported positions (p = 0 when position 1 is unused), a
label is a facet exactly when its support is that run followed by a tail
that starts past p+1 and is gap-even (an even number of unused positions
between consecutive used ones), and each run element a followed in the
support by b has the sign (-1)^(b+1).  The last run element, when the tail
is empty, and every tail element take either sign.

The closed-form count and the positive-circuit test over the deformation
matrix give two independent routes to the same facet set.  The circuit test
reads the label's rows through ``to_sign_vector``, builds their columns
(``deformation_columns``), and back-substitutes the rows' left kernel, the
columns' right kernel, over one ``echelon`` list, stopping at its first
entry that is not positive; nothing is kept from one label to the next.
"""

from itertools import combinations, product
from math import comb
from operator import mul

from . import signvec
from .deformed import deformation_columns
from .errors import FormulaError
from .intops import echelon


def gap_even(support) -> bool:
    """Even number of unused values between consecutive support elements."""
    return all((b - a - 1) % 2 == 0 for a, b in zip(support, support[1:]))


def facets_gale(n, d):
    """All facet labels of the projection, sorted by sign-vector order."""
    if not n >= d >= 2:
        raise ValueError("need n >= d >= 2")
    size = n - d + 1
    out = []
    for p in range(size + 1):
        for tail in combinations(range(p + 2, n + 1), size - p):
            if not gap_even(tail):
                continue
            support = [*range(1, p + 1), *tail]
            # run element a followed by b has the sign (-1)^(b+1); the rest are free
            forced = [(-1) ** (b + 1) * a for a, b in zip(support[:p], support[1:])]
            free = support[len(forced):]
            for signs in product((-1, 1), repeat=len(free)):
                out.append(frozenset(forced + [s * k for s, k in zip(signs, free)]))
    # sign-vector order (- < 0 < +) is base-3 order, digit 1 + sign at k
    weight = {s * k: s * 3 ** (n - k) for k in range(1, n + 1) for s in (-1, 1)}
    out.sort(key=lambda a: sum(map(weight.__getitem__, a)))
    return out


def to_sign_vector(alpha, n):
    """Sign vector of the cube face named by alpha (zeroes elsewhere).
    Raises ValueError unless alpha's elements lie in +-(1..n) and no two
    of them share an index, so that k and -k never meet."""
    sv = [0] * n
    for a in alpha:
        if not 0 < abs(a) <= n or sv[abs(a) - 1]:
            raise ValueError(f"label indices must be distinct and lie in 1..{n}")
        sv[abs(a) - 1] = 1 if a > 0 else -1
    return tuple(sv)


def alpha_is_positive_circuit(n, d, alpha, epsilon) -> bool:
    """The positive-circuit test for the cube face named by the signed label
    alpha, on the deformation-matrix rows (k, sign) it names: rank n-d and a
    strictly one-signed left-kernel vector.  Its free entry is |prod of
    pivots| > 0, so the test fails at the first other entry that is not
    positive.  Raises ValueError unless n >= d >= 2 and alpha has n-d+1
    elements that ``to_sign_vector`` accepts: none outside +-(1..n), and
    no index named twice, so alpha is disjoint from -alpha."""
    if not n >= d >= 2:
        raise ValueError("need n >= d >= 2")
    if len(alpha) != n - d + 1:
        raise ValueError("need exactly n-d+1 rows")
    signed_rows = [(k, s) for k, s in enumerate(to_sign_vector(alpha, n), 1) if s]
    red = echelon(deformation_columns(n, d, signed_rows, epsilon))
    if len(red) != n - d:
        return False
    # the free column is the one missing from the sum of the n-d pivots
    free = (n - d + 1) * (n - d) // 2
    scale = 1
    for _, prow, pc in red:
        free -= pc
        scale *= prow[pc]
    u = [0] * (n - d + 1)
    u[free] = abs(scale)
    for _, prow, pc in reversed(red):
        q, rem = divmod(-sum(map(mul, prow, u)), prow[pc])
        if rem:
            raise ArithmeticError("non-integral back-substitution")
        if q <= 0:
            return False
        u[pc] = q
    return True


def f_formula(n, d) -> int:
    """Closed-form facet count, cross-checked across three equivalent forms."""
    if not n >= d >= 2:
        raise ValueError("need n >= d >= 2")
    base = 2 * d
    f1 = base + 4 * sum(
        (comb(d // 2 + p + 1, p + 2) + comb((d + 1) // 2 + p, p + 2)) * 2 ** p
        for p in range(0, n - d)
    )
    f2 = base + sum(
        (comb(d // 2 + p - 1, p) + comb((d - 1) // 2 + p - 1, p)) * 2 ** p
        for p in range(2, n - d + 2)
    )
    k = d // 2
    if d % 2 == 1:
        # both floor terms coincide, so each summand doubles
        f3 = base + sum(comb(k + p - 1, p) * 2 ** (p + 1) for p in range(2, n - d + 2))
    else:
        f3 = base + sum(
            comb(k + p - 1, p) * (p + 2 * k - 2) * 2 ** p // (p + k - 1)
            for p in range(2, n - d + 2)
        )
    if not f1 == f2 == f3:
        raise FormulaError(f"facet-count forms disagree: {f1}, {f2}, {f3}")
    return f1


def facet_vertex_masks(n, d):
    """Facets as masks over cube-vertex IDs (``signvec.vertex_set``), for
    oracle diffs."""
    return {signvec.vertex_set(to_sign_vector(a, n)) for a in facets_gale(n, d)}


def facet_vertex_label_sets(n, d):
    """Facets as frozensets of vertex labels in {-1,+1}^n: the label view
    of ``facet_vertex_masks``."""
    return {
        frozenset(signvec.vertex_tuple_from_bits(v, n) for v in signvec.members(m))
        for m in facet_vertex_masks(n, d)
    }
