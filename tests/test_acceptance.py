"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is exact integer/rational equality; there are no numeric
tolerances anywhere.  Each test prints a single PASS line on success (the
assertion machinery reports failures).
"""

from fractions import Fraction
from itertools import combinations, product

import pytest

from ncpoly.classify import (
    first_construction,
    neighborly_triples,
    pklm_fvector,
    ubc_polytope_case,
    valid_triples,
    verify_ambiguity_witnesses,
)
from ncpoly.deformed import projected_cube
from ncpoly.gale import (
    alpha_is_positive_circuit,
    f_formula,
    facet_vertex_label_sets,
    facets_gale,
)
from ncpoly.polytope import (
    f_vector,
    facets_from_vrep,
    graph_of,
    hypercube_graph_iso,
)
from ncpoly.skeleton import (
    dehn_sommerville_check,
    upper_face_subdivision,
    verify_skeleton_equivalence,
)
from ncpoly.surgery import (
    build_psi,
    chain_edge_facet_degrees,
    intersection_lemma_check,
    verify_sphere_like,
)

ORACLE_PAIRS = [(4, 2), (5, 2), (4, 3), (5, 4), (6, 4), (6, 5), (5, 3)]


def _shadow(n, d):
    pc = projected_cube(n, d)
    inc = facets_from_vrep(pc.shadow)
    return pc, inc


def test_criterion_01_facet_count_formula_matches_enumeration():
    for n in range(2, 11):
        for d in range(2, n + 1):
            assert len(facets_gale(n, d)) == f_formula(n, d), (n, d)
    for n in range(2, 11):
        assert f_formula(n, 2) == 2 ** n
        if n >= 3:
            assert f_formula(n, 3) == 2 ** n - 2
        if n >= 4:
            assert f_formula(n, 4) == (n - 2) * 2 ** (n - 2)
        if n >= 5:
            assert f_formula(n, 5) == (n - 4) * 2 ** (n - 2) + 2
    for d in range(2, 11):
        assert f_formula(d, d) == 2 * d
        assert f_formula(d + 1, d) == d * d + d + 2 * (d // 2)
    print("ACCEPTANCE 1 PASS: |facets_gale(n,d)| == f_formula(n,d) for 2<=d<=n<=10")


@pytest.mark.parametrize("n,d", ORACLE_PAIRS)
def test_criterion_02_oracle_equivalence(n, d):
    pc, inc = _shadow(n, d)
    oracle = {frozenset(pc.shadow.labels[i] for i in f) for f in inc.incidence}
    combinatorial = facet_vertex_label_sets(n, d)
    assert oracle == combinatorial
    print(f"ACCEPTANCE 2 PASS ({n},{d}): geometric facets == combinatorial facets")


@pytest.mark.parametrize("n,d", ORACLE_PAIRS)
def test_criterion_03_skeleton_theorem(n, d):
    pc, inc = _shadow(n, d)
    r = d // 2 - 1
    assert verify_skeleton_equivalence(inc, n, r)
    if n > d:
        assert not verify_skeleton_equivalence(inc, n, d // 2)
    print(f"ACCEPTANCE 3 PASS ({n},{d}): skeleton holds at r={r}, breaks at {d // 2}")


def test_criterion_03_graph_of_64_vertex_polytope_is_q6():
    from ncpoly.skeleton import double_r_cubicality_check

    pc, inc = _shadow(6, 4)
    assert double_r_cubicality_check(inc, 1)
    iso = hypercube_graph_iso(graph_of(inc), 6)
    assert iso is not None
    # and specifically via the projection labeling
    label_index = {lab: i for i, lab in enumerate(pc.shadow.labels)}
    edges = set(map(tuple, graph_of(inc)))
    expected = set()
    for lab in pc.shadow.labels:
        for i in range(6):
            other = lab[:i] + (-lab[i],) + lab[i + 1:]
            e = tuple(sorted((label_index[lab], label_index[other])))
            expected.add(e)
    assert edges == expected
    print("ACCEPTANCE 3 PASS: graph of the (6,4) shadow is the 6-cube graph via labels")


def test_criterion_04_f_vector_goldens():
    _, inc64 = _shadow(6, 4)
    assert f_vector(inc64) == (64, 192, 192, 64)
    psi = build_psi()
    assert psi.f_vector() == (64, 196, 198, 66)
    _, inc32 = _shadow(5, 4)
    fv32 = f_vector(inc32)
    assert fv32[0] == 32 and fv32[3] == 24
    _, v = first_construction(4)
    fc = f_vector(facets_from_vrep(v))
    assert fc[0] == 32 and fc[3] == 24
    assert psi.f_vector()[3] == 66 > f_formula(6, 4) == 64
    print("ACCEPTANCE 4 PASS: f-vector goldens incl. the 66 > 64 counter-example")


def test_criterion_05_dehn_sommerville_everywhere():
    produced = []
    for (n, d) in ORACLE_PAIRS:
        _, inc = _shadow(n, d)
        produced.append((f_vector(inc), d))
    _, v = first_construction(4)
    produced.append((f_vector(facets_from_vrep(v)), 4))
    produced.append((build_psi().f_vector(), 4))
    for t in valid_triples(4):
        produced.append((pklm_fvector(4, t), 4))
    for fv, d in produced:
        assert dehn_sommerville_check(fv, d), (fv, d)
    print(f"ACCEPTANCE 5 PASS: Dehn-Sommerville holds for all {len(produced)} produced f-vectors")


def test_criterion_06_classification_suite():
    for d in range(4, 11):
        got = set(neighborly_triples(d))
        if d % 2 == 0:
            assert got == {(d // 2, 1, d // 2)}
        else:
            s = (d - 1) // 2
            assert got == {(s + 1, 1, s), (s, 2, s)}
    for d in range(4, 13):
        report = ubc_polytope_case(d)
        assert report.ok and not report.failures
    for d in range(2, 21):
        assert len(valid_triples(d)) == d * d // 4
    print("ACCEPTANCE 6 PASS: neighborly triples, UBC relations (d<=12), triple counts (d<=20)")


def test_criterion_07_ambiguity_witnesses():
    cub, noncub = verify_ambiguity_witnesses()
    assert cub.all_vertices and cub.cube_graph and cub.cubical and cub.cube_facet_at_base
    assert noncub.all_vertices and noncub.cube_graph and not noncub.cubical
    assert noncub.large_facet_sizes == [12]
    print("ACCEPTANCE 7 PASS: both 32-point witnesses behave as required")


def test_criterion_08_surgery_certification():
    assert intersection_lemma_check()
    psi = build_psi()
    report = verify_sphere_like(psi)
    assert report.ok
    degrees = sorted(chain_edge_facet_degrees().values())
    assert len(degrees) == 8
    assert all(v >= 4 for v in degrees)
    assert degrees.count(5) == 4
    print("ACCEPTANCE 8 PASS: lemma over 61 facets, sphere certificate, edge degrees")


@pytest.mark.parametrize("n,d", [(5, 4), (6, 4)])
def test_criterion_09_stackedness(n, d):
    # upper_face_subdivision raises on any interior face of dim <= d//2 - 1
    sub = upper_face_subdivision(n, d)
    assert sub.f_vector()[0] == 2 ** n
    print(f"ACCEPTANCE 9 PASS ({n},{d}): subdivision has no low-dimensional interior faces")


def test_criterion_10_positive_circuit_equivalence():
    from ncpoly.deformed import choose_epsilon

    for n in range(2, 9):
        for d in range(2, n + 1):
            eps = choose_epsilon(n, d)
            facets = set(facets_gale(n, d))
            size = n - d + 1
            for support in combinations(range(1, n + 1), size):
                for signs in product((-1, 1), repeat=size):
                    alpha = frozenset(s * k for s, k in zip(signs, support))
                    assert (alpha in facets) == alpha_is_positive_circuit(
                        n, d, alpha, eps
                    ), (n, d, alpha)
    print("ACCEPTANCE 10 PASS: facet labels <=> positive circuits, both directions, n<=8")


def test_unbounded_ratio_trend_within_range():
    # the desk-scale stand-in for the asymptotic statement: f3/f0 for d=4
    # equals (n-2)/4 and increases strictly in n
    ratios = [Fraction(f_formula(n, 4), 2 ** n) for n in range(4, 11)]
    assert ratios == [Fraction(n - 2, 4) for n in range(4, 11)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    print("ACCEPTANCE NOTE PASS: facet/vertex ratio (n-2)/4 strictly increasing, 4<=n<=10")
