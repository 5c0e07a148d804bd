"""Purely combinatorial facet enumeration of the projected deformed cube.

Facets are named by signed index sets alpha inside {-1,+1,...,-n,+n} of size
n-d+1 with alpha disjoint from -alpha.  Writing p for the length of the
initial run of consecutive supported positions 1..p, a label is a facet
exactly when

  p = 0:  position 1 unused, the support is gap-even (an even number of
          unused positions between consecutive used ones), signs free;
  p >= 1: positions 1..p-1 carry the alternating signs -1,+2,-3,...; the
          sign at p is forced by the parity of the jump to the tail; the
          tail starts past p+1, is gap-even, and has free signs.

The closed-form count and the positive-circuit test over the deformation
matrix give two independent routes to the same facet set.
"""

from itertools import combinations, product
from math import comb

from . import signvec
from .deformed import deformation_rows
from .errors import FormulaError
from .intops import left_kernel


def gap_even(support) -> bool:
    """Even number of unused values between consecutive support elements."""
    return all((b - a - 1) % 2 == 0 for a, b in zip(support, support[1:]))


def facets_gale(n, d):
    """All facet labels of the projection, sorted by sign-vector order."""
    if not n >= d >= 2:
        raise ValueError("need n >= d >= 2")
    size = n - d + 1
    out = []
    # p = 0: position 1 unused
    for support in combinations(range(2, n + 1), size):
        if not gap_even(support):
            continue
        for signs in product((-1, 1), repeat=size):
            out.append(frozenset(s * k for s, k in zip(signs, support)))
    # p >= 1: forced alternating prefix, parity-forced sign at p, free tail
    for p in range(1, size + 1):
        tail_size = size - p
        prefix = [(-1) ** k * k for k in range(1, p)]
        if tail_size == 0:
            for sigma in (-1, 1):
                out.append(frozenset(prefix + [sigma * p]))
            continue
        for tail in combinations(range(p + 2, n + 1), tail_size):
            if not gap_even(tail):
                continue
            sigma = (-1) ** (p + 1) if (tail[0] - p) % 2 == 0 else (-1) ** p
            for signs in product((-1, 1), repeat=tail_size):
                out.append(
                    frozenset(prefix + [sigma * p] + [s * k for s, k in zip(signs, tail)])
                )
    out.sort(key=lambda a: signvec.lex_key(to_sign_vector(a, n)))
    return out


def initial_run(alpha) -> int:
    """p = min{i >= 0 : neither +(i+1) nor -(i+1) lies in alpha}."""
    support = {abs(a) for a in alpha}
    p = 0
    while p + 1 in support:
        p += 1
    return p


def to_sign_vector(alpha, n):
    """Sign vector of the cube face named by alpha (zeroes elsewhere)."""
    sv = [0] * n
    for a in alpha:
        sv[abs(a) - 1] = 1 if a > 0 else -1
    return tuple(sv)


def induced_rows_sigma(alpha):
    """Row subset and sign completion used by the positive-circuit test.

    Signs at positions outside the support never enter the selected rows and
    default to +1.
    """
    rows = tuple(sorted(abs(a) for a in alpha))
    sigma = {abs(a): (1 if a > 0 else -1) for a in alpha}
    return rows, sigma


def is_positive_circuit(n, d, sigma, rows, epsilon) -> bool:
    """True when the selected deformation-matrix rows have rank n-d and a
    strictly one-signed linear dependence.  ``sigma`` maps a row index to its
    sign; rows it does not name take +1.

    Raises ValueError unless ``rows`` holds exactly n-d+1 distinct indices
    in 1..n.
    """
    if len(rows) != n - d + 1:
        raise ValueError("need exactly n-d+1 rows")
    if not all(0 < k <= n for k in rows) or len(set(rows)) != len(rows):
        raise ValueError(f"row indices must be distinct and lie in 1..{n}")
    if n == d:
        return True
    v = left_kernel(deformation_rows(n, d, [(k, sigma.get(k, 1)) for k in rows], epsilon))
    return v is not None and all(x > 0 for x in v)


def alpha_is_positive_circuit(n, d, alpha, epsilon) -> bool:
    """The positive-circuit test for the cube face named by the signed label
    alpha.  Raises ValueError unless alpha has n-d+1 elements, none of them
    outside +-(1..n), and is disjoint from -alpha."""
    rows, sigma = induced_rows_sigma(alpha)
    return is_positive_circuit(n, d, sigma, rows, epsilon)


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


def facet_vertex_label_sets(n, d):
    """Facets as frozensets of vertex labels in {-1,+1}^n, for oracle diffs."""
    out = set()
    for alpha in facets_gale(n, d):
        sv = to_sign_vector(alpha, n)
        out.add(
            frozenset(
                signvec.vertex_tuple_from_bits(b, n) for b in signvec.vertices_bits(sv)
            )
        )
    return out
