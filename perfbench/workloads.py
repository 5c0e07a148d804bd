"""The four benchmark workloads: their operations and golden checks.

Each workload is a list of operations, built from the seed: the seed draws
the random point sets of ``hull-irregular`` and shuffles the order of the
other workloads.  An operation calls the public
API through module attributes (``deformed.choose_epsilon(...)``), never
through names bound at import time, so that the wrappers the worker installs
see every call.  An operation returns nothing; it raises ``GoldenMismatch``
when the program's output differs from its golden.

No operation queries an (n, d, eps) or a point set that another operation
of the same workload also queries: the worker enforces this, because the
library memoizes those queries and a repeat would be served from its cache.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Callable, NamedTuple

from ncpoly import classify, cli, cyclic, deformed, gale, polytope, skeleton, surgery


class GoldenMismatch(Exception):
    """An operation's output differs from its golden."""


class Op(NamedTuple):
    name: str
    run: Callable[[], None]


def expect(ok, what):
    if not ok:
        raise GoldenMismatch(what)


# ---------------------------------------------------------------------------
# goldens, recorded at the seed commit (f-vectors also from the paper)
# ---------------------------------------------------------------------------

# (n, d) -> f-vector of the projected deformed cube
GRID_FVECTORS = {
    (4, 2): (16, 16),
    (5, 2): (32, 32),
    (4, 3): (16, 28, 14),
    (5, 3): (32, 60, 30),
    (5, 4): (32, 80, 72, 24),
    (6, 3): (64, 124, 62),
    (6, 4): (64, 192, 192, 64),
}

CUBE_SIZES = (6, 7, 8)

# (n, d) -> e with choose_epsilon(n, d) == 1/2^e
EPS_EXPONENT = {
    (2, 2): 1, (3, 2): 1, (3, 3): 1, (4, 2): 1, (4, 3): 1, (4, 4): 1,
    (5, 2): 2, (5, 3): 1, (5, 4): 1, (5, 5): 1, (6, 2): 3, (6, 3): 2,
    (6, 4): 1, (6, 5): 1, (6, 6): 1, (7, 2): 4, (7, 3): 3, (7, 4): 2,
    (7, 5): 1, (7, 6): 1, (7, 7): 1, (8, 2): 6, (8, 3): 4, (8, 4): 3,
    (8, 5): 2, (8, 6): 1, (8, 7): 1, (8, 8): 1, (9, 2): 7, (9, 3): 6,
    (9, 4): 4, (9, 5): 3, (9, 6): 2, (9, 7): 1, (9, 8): 1, (9, 9): 1,
}

# (n, d) -> facet count of the projection
FACET_COUNT = {
    (2, 2): 4, (3, 2): 8, (3, 3): 6, (4, 2): 16, (4, 3): 14, (4, 4): 8,
    (5, 2): 32, (5, 3): 30, (5, 4): 24, (5, 5): 10, (6, 2): 64, (6, 3): 62,
    (6, 4): 64, (6, 5): 34, (6, 6): 12, (7, 2): 128, (7, 3): 126,
    (7, 4): 160, (7, 5): 98, (7, 6): 48, (7, 7): 14, (8, 2): 256,
    (8, 3): 254, (8, 4): 384, (8, 5): 258, (8, 6): 160, (8, 7): 62,
    (8, 8): 16, (9, 2): 512, (9, 3): 510, (9, 4): 896, (9, 5): 642,
    (9, 6): 480, (9, 7): 222, (9, 8): 80, (9, 9): 18,
}

SURGERY_FVECTOR = (64, 196, 198, 66)
CHAIN_EDGE_DEGREES = [4, 4, 4, 4, 5, 5, 5, 5]

# d -> relations checked by ubc_polytope_case(d)
UBC_CHECKED = {4: 30, 5: 70, 6: 112, 7: 189, 8: 270, 9: 396, 10: 528, 11: 715, 12: 910}

NEIGHBORLY_TRIPLES = {
    4: [(2, 1, 2)],
    5: [(2, 2, 2), (3, 1, 2)],
    6: [(3, 1, 3)],
    7: [(3, 2, 3), (4, 1, 3)],
}

UPPER_FACE_SUBDIVISION_54 = (32, 80, 76, 32, 5)
CYCLIC_PAIRS = ((10, 4), (12, 4), (9, 5), (11, 6))

RANDOM_SETS = 3
RANDOM_POINTS = 30
RANDOM_BOX = 6  # coordinates in [-6, 6]


# ---------------------------------------------------------------------------
# verify-grid and cube-hrep: `ncpoly verify` in process
# ---------------------------------------------------------------------------


def run_verify(n, d):
    """``ncpoly verify --n n --d d`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(["verify", "--n", str(n), "--d", str(d)])
    expect(rc == 0, f"verify ({n},{d}) exited {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def verify_op(n, d, fvec, eps):
    def run():
        report = run_verify(n, d)
        expect(report["pass"] is True, f"verify ({n},{d}) did not pass")
        expect(all(report["checks"].values()), f"verify ({n},{d}) checks {report['checks']}")
        expect(report["f_vector"] == list(fvec), f"f-vector {report['f_vector']} != {list(fvec)}")
        expect(report["epsilon"] == str(eps), f"epsilon {report['epsilon']} != {eps}")

    return Op(f"verify-{n}-{d}", run)


def shuffled(ops, seed):
    random.Random(f"{seed}:order").shuffle(ops)
    return ops


def verify_grid_ops():
    return [
        verify_op(n, d, fvec, Fraction(1, 2 ** EPS_EXPONENT[(n, d)]))
        for (n, d), fvec in GRID_FVECTORS.items()
    ]


def cube_hrep_ops():
    return [
        verify_op(n, n, tuple(comb(n, k) * 2 ** (n - k) for k in range(n)), Fraction(1, 2))
        for n in CUBE_SIZES
    ]


# ---------------------------------------------------------------------------
# labels: the combinatorial route
# ---------------------------------------------------------------------------


def signed_labels(n, d):
    """Every signed index set of size n-d+1 inside {-1,+1,...,-n,+n}."""
    size = n - d + 1
    return [
        frozenset(s * k for s, k in zip(signs, support))
        for support in combinations(range(1, n + 1), size)
        for signs in product((-1, 1), repeat=size)
    ]


def label_op(n, d, labels):
    def run():
        eps = deformed.choose_epsilon(n, d)
        expect(eps == Fraction(1, 2 ** EPS_EXPONENT[(n, d)]), f"epsilon {eps}")
        facets = set(gale.facets_gale(n, d))
        count = gale.f_formula(n, d)
        expect(
            len(facets) == count == FACET_COUNT[(n, d)], f"{len(facets)} facets, formula {count}"
        )
        for alpha in labels:
            if (alpha in facets) != gale.alpha_is_positive_circuit(n, d, alpha, eps):
                raise GoldenMismatch(f"label {sorted(alpha)}: facet and circuit routes disagree")

    return Op(f"labels-{n}-{d}", run)


def surgery_op():
    def run():
        expect(surgery.intersection_lemma_check(), "intersection lemma fails")
        psi = surgery.build_psi()
        expect(psi.f_vector() == SURGERY_FVECTOR, f"surgery f-vector {psi.f_vector()}")
        expect(surgery.verify_sphere_like(psi).ok, "surgered complex is not sphere-like")
        degrees = sorted(surgery.chain_edge_facet_degrees().values())
        expect(degrees == CHAIN_EDGE_DEGREES, f"chain edge degrees {degrees}")

    return Op("surgery", run)


def ubc_op(d):
    def run():
        report = classify.ubc_polytope_case(d)
        checked = report.checked
        expect(report.ok and checked == UBC_CHECKED[d], f"ubc d={d}: {checked} checked")

    return Op(f"ubc-{d}", run)


def pklm_op(d, triple):
    def run():
        got = classify.pklm_sphere(d, triple).f_vector()
        want = classify.pklm_fvector(d, triple)
        expect(got == want, f"pklm {d} {triple}: {got} != {want}")

    return Op(f"pklm-{d}-{'-'.join(map(str, triple))}", run)


def labels_ops():
    ops = [label_op(n, d, signed_labels(n, d)) for (n, d) in EPS_EXPONENT]
    ops.append(surgery_op())
    ops += [ubc_op(d) for d in UBC_CHECKED]
    ops += [pklm_op(d, t) for d, triples in NEIGHBORLY_TRIPLES.items() for t in triples]
    return ops


# ---------------------------------------------------------------------------
# hull-irregular: many small hulls on inputs that are not cube shadows
# ---------------------------------------------------------------------------


def witnesses_op():
    def run():
        cub, noncub = classify.verify_ambiguity_witnesses()
        expect(
            cub.all_vertices and cub.cube_graph and cub.cubical and cub.cube_facet_at_base,
            f"cubical witness {cub}",
        )
        expect(
            noncub.all_vertices
            and noncub.cube_graph
            and not noncub.cubical
            and noncub.large_facet_sizes == [12],
            f"non-cubical witness {noncub}",
        )

    return Op("witnesses", run)


def first_construction_op():
    def run():
        h, v = classify.first_construction(4)
        expect(len(v.points) == 32 and len(h.inequalities) == 24, "first construction size")

    return Op("first-construction-4", run)


def upper_face_subdivision_op():
    def run():
        fvec = skeleton.upper_face_subdivision(5, 4).f_vector()
        expect(fvec == UPPER_FACE_SUBDIVISION_54, f"subdivision f-vector {fvec}")

    return Op("upper-face-subdivision-5-4", run)


def cyclic_op(n, d):
    def run():
        got = cyclic.positive_cocircuit_facets(cyclic.cyclic_configuration(n, d))
        want = cyclic.gale_evenness_facets(n, d)
        expect(got == set(want), f"cyclic ({n},{d}): cocircuit facets differ from Gale evenness")
        expect(len(want) == cyclic.cyclic_facet_count(n, d), f"cyclic ({n},{d}) facet count")

    return Op(f"cyclic-{n}-{d}", run)


def random_points(rng):
    side = 2 * RANDOM_BOX + 1
    points = []
    for code in rng.sample(range(side ** 4), RANDOM_POINTS):
        point = []
        for _ in range(4):
            code, digit = divmod(code, side)
            point.append(digit - RANDOM_BOX)
        points.append(tuple(point))
    return points


def random_hull_op(index, points):
    def run():
        inc = polytope.facets_from_vrep(polytope.VPolytope(4, points))
        fvec = polytope.f_vector(inc)
        euler = len(fvec) == 4 and fvec[0] - fvec[1] + fvec[2] - fvec[3] == 0
        expect(euler, f"Euler's relation fails on {fvec}")
        expect(inc.facet_count >= 5, f"{inc.facet_count} facets")
        for facet, (normal, rhs) in zip(inc.incidence, inc.inequalities):
            values = [sum(a * x for a, x in zip(normal, p)) for p in points]
            expect(all(v <= rhs for v in values), f"inequality {normal} <= {rhs} cuts a point")
            tight = {i for i, v in enumerate(values) if v == rhs}
            expect(tight == facet, f"inequality {normal} <= {rhs} is tight off its facet")

    return Op(f"random-hull-{index}", run)


def hull_irregular_ops(seed):
    """In a fixed order: the library keeps every hull in its caches, so the
    peak RSS depends on which operation runs last, and with a seeded order it
    spread 10% over seeds."""
    rng = random.Random(f"{seed}:points")
    ops = [witnesses_op(), first_construction_op(), upper_face_subdivision_op()]
    ops += [cyclic_op(n, d) for n, d in CYCLIC_PAIRS]
    ops += [random_hull_op(i, random_points(rng)) for i in range(RANDOM_SETS)]
    return ops


# ---------------------------------------------------------------------------


# name -> operations, in the order they run, from the seed
WORKLOADS = {
    "verify-grid": lambda seed: shuffled(verify_grid_ops(), seed),
    "cube-hrep": lambda seed: shuffled(cube_hrep_ops(), seed),
    "labels": lambda seed: shuffled(labels_ops(), seed),
    "hull-irregular": hull_irregular_ops,
}
