from fractions import Fraction
from itertools import product

import pytest

from ncpoly import classify, signvec
from ncpoly.classify import (
    CUBICAL_WITNESS_POINTS,
    NONCUBICAL_WITNESS_POINTS,
    delta,
    first_construction,
    neighborly_triples,
    pklm_fvector,
    pklm_sphere,
    _witness_report,
    ubc_polytope_case,
    valid_triples,
    verify_ambiguity_witnesses,
)
from ncpoly.gale import f_formula
from ncpoly.intops import bareiss_det, clear_denominators
from ncpoly.polytope import (
    VPolytope,
    f_vector,
    facets_from_vrep,
    graph_of,
    hypercube_graph_iso,
    is_cubical,
)
from ncpoly.skeleton import dehn_sommerville_check
from test_complexes import all_faces, face_dim


def test_first_construction_d4():
    h, v = first_construction(4)
    inc = facets_from_vrep(v)
    fv = f_vector(inc)
    assert fv[0] == 32 and fv[3] == 24
    assert is_cubical(inc)
    assert hypercube_graph_iso(graph_of(inc), 5) is not None


def test_first_construction_d2_degenerate_family():
    h, v = first_construction(2)
    inc = facets_from_vrep(v)
    assert f_vector(inc) == (8, 8)


def test_first_construction_rejects_odd():
    with pytest.raises(ValueError):
        first_construction(3)


def test_triple_count_is_floor_d2_over_4():
    for d in range(2, 21):
        assert len(valid_triples(d)) == d * d // 4


def test_neighborly_triples_small():
    assert neighborly_triples(4) == [(2, 1, 2)]
    assert set(neighborly_triples(5)) == {(3, 1, 2), (2, 2, 2)}
    assert neighborly_triples(6) == [(3, 1, 3)]
    for d in range(4, 11):
        expect = 1 if d % 2 == 0 else 2
        assert len(neighborly_triples(d)) == expect


def test_neighborly_facet_count_matches_closed_form():
    for d in range(4, 11):
        for t in neighborly_triples(d):
            assert pklm_fvector(d, t)[d - 1] == f_formula(d + 1, d)


def test_pklm_fvector_neighborly_d4():
    fv = pklm_fvector(4, (2, 1, 2))
    assert fv == (32, 80, 72, 24)
    assert fv[3] == 40 - 16


def test_pklm_formula_matches_direct_counting():
    for d in (3, 4, 5):
        for t in valid_triples(d):
            assert pklm_sphere(d, t).f_vector() == pklm_fvector(d, t)


def _ball_facets(d, k, l, m):
    """Ball facets as (position, sign): both sides for the first k pairs,
    the plus side for the next l."""
    facets = [(i, s) for i in range(k) for s in (-1, 1)]
    facets += [(i, 1) for i in range(k, k + l)]
    return facets


def _reference_pklm_faces(d, triples):
    """The earlier ``pklm_sphere`` scan, for several triples at once: every
    sign vector of the (d+1)-cube with at most d-1 zeroes is kept for a
    triple when it lies in a ball facet and in a facet of the complement."""
    sides = []
    for t in triples:
        ball = set(_ball_facets(d, *t))
        comp = [(i, s) for i in range(d + 1) for s in (-1, 1) if (i, s) not in ball]
        sides.append((ball, comp, {}))
    for sv in all_faces(d + 1, max_zeros=d - 1):
        verts = signvec.vertex_set(sv)
        for ball, comp, faces_by_dim in sides:
            if any(sv[i] == s for i, s in ball) and any(sv[i] == s for i, s in comp):
                faces_by_dim.setdefault(face_dim(sv), set()).add(verts)
    return [{k: frozenset(fs) for k, fs in faces.items()} for _, _, faces in sides]


@pytest.mark.parametrize("d", range(4, 9))
def test_pklm_sphere_matches_sign_vector_scan(d):
    triples = valid_triples(d)
    for t, want in zip(triples, _reference_pklm_faces(d, triples)):
        assert pklm_sphere(d, t).faces_by_dim == want, t


def test_pklm_symmetric_in_k_and_m():
    for d in range(3, 9):
        for (k, l, m) in valid_triples(d):
            assert pklm_fvector(d, (k, l, m)) == pklm_fvector(d, (m, l, k))


def test_pklm_missing_cap_loses_vertices():
    # m = 0 allowed by the ball definition but drops below 2^(d+1) vertices
    sph = pklm_sphere(4, (4, 1, 0))
    assert sph.f_vector()[0] < 32
    full = pklm_sphere(4, (2, 1, 2))
    assert full.f_vector()[0] == 32


def test_pklm_rejects_bad_triple():
    with pytest.raises(ValueError):
        pklm_sphere(4, (2, 2, 2))
    with pytest.raises(ValueError):
        pklm_sphere(4, (5, 0, 0))


def test_pklm_fvector_rejects_what_the_sphere_refuses():
    # k + l + m must be d + 1, with l >= 1 and k, m >= 0
    for d, triple in ((5, (1, 1, 1)), (4, (2, 2, 2)), (4, (5, 0, 0)), (4, (-1, 3, 3))):
        for build in (pklm_sphere, pklm_fvector):
            with pytest.raises(ValueError, match="invalid triple"):
                build(d, triple)
    assert pklm_fvector(4, (4, 1, 0)) == pklm_sphere(4, (4, 1, 0)).f_vector()


def test_delta_tie_identity_up_to_d12():
    # delta_i(k,2,k) == delta_i(k+1,1,k) for every i; this is why odd d has
    # two neighborly types with equal f-vectors
    for k in range(1, 6):
        for i in range(0, 15):
            assert delta(i, k, 2, k) == delta(i, k + 1, 1, k)


@pytest.mark.parametrize("d", range(4, 13))
def test_ubc_relations_and_minimizer(d):
    report = ubc_polytope_case(d)
    assert report.ok
    assert not report.failures
    for i, argmin in report.minimizers.items():
        for t in report.neighborly:
            assert t in argmin


def test_ubc_computes_each_delta_once(monkeypatch):
    # the relations and the minimizers name many deltas more than once; a
    # call computes each of them once and reports the same
    for d in (4, 7, 12):
        want = ubc_polytope_case(d)
        calls = []
        monkeypatch.setattr(classify, "delta", lambda *key: calls.append(key) or delta(*key))
        got = ubc_polytope_case(d)
        monkeypatch.undo()
        assert calls and len(calls) == len(set(calls))
        assert (got.checked, got.failures, got.minimizers, got.neighborly) == (
            want.checked, want.failures, want.minimizers, want.neighborly
        )


def _four_block_ubc(d):
    # ubc_polytope_case's (checked, failures) as it was written before its
    # relation table, one count/compare/record block per relation, reading
    # classify.delta at call time so a patched delta reaches it
    delta = classify.delta
    triples = valid_triples(d)
    failures = []
    checked = 0
    for i in range(0, d + 2):
        for (k, l, m) in triples:
            if k > m:
                checked += 1
                if delta(i, k, l, m) < delta(i, k - 1, l, m + 1):
                    failures.append(("shift-pair", i, (k, l, m)))
            if l >= 2:
                checked += 1
                if delta(i, k, l, m) < delta(i, k + 1, l - 2, m + 1):
                    failures.append(("split-l", i, (k, l, m)))
            if l == 2 and k > m:
                checked += 1
                if delta(i, k, 2, m) < delta(i, k, 1, m + 1):
                    failures.append(("drop-l2", i, (k, l, m)))
            if l == 2 and k == m:
                checked += 1
                if delta(i, k, 2, k) != delta(i, k + 1, 1, k):
                    failures.append(("tie", i, (k, l, m)))
    for i in range(2, d + 2):
        best = min(delta(i, *t) for t in triples)
        for t in neighborly_triples(d):
            if delta(i, *t) != best:
                failures.append(("neighborly-not-minimal", i, t))
    return checked, failures


@pytest.mark.parametrize("d", range(4, 13))
def test_ubc_table_counts_what_the_four_blocks_count(d):
    assert _four_block_ubc(d) == (ubc_polytope_case(d).checked, [])


def _lowered_delta(keys):
    # delta with the given (i, k, l, m) keys pushed far down
    return lambda *key: delta(*key) - (10 ** 9 if key in keys else 0)


def _injections(d):
    # pushing delta_i of one triple down fails every relation that triple
    # is held to at i; then every triple at once, and a delta that wobbles
    # over every key
    i = d // 2 + 1
    for t in valid_triples(d):
        yield _lowered_delta({(i, *t)})
    yield _lowered_delta({(i, *t) for t in valid_triples(d)})
    yield lambda i, k, l, m: delta(i, k, l, m) + (i * 7 + k * 5 + l * 3 + m) % 3 - 1


@pytest.mark.parametrize("d", [5, 9])
def test_ubc_injected_failures_match_the_four_blocks(monkeypatch, d):
    # odd d, so the tie applies too; each relation fails somewhere, and the
    # report holds every one of the reference's failures, in its order
    names = set()
    for patched in _injections(d):
        monkeypatch.setattr(classify, "delta", patched)
        _, want = _four_block_ubc(d)
        report = ubc_polytope_case(d)
        monkeypatch.undo()
        assert want and report.failures == want
        assert not report.ok
        names.update(name for name, _, _ in want)
    assert {"shift-pair", "split-l", "drop-l2", "tie"} <= names


def test_ubc_d4_maximizer_is_neighborly():
    report = ubc_polytope_case(4)
    facet_counts = {t: pklm_fvector(4, t)[3] for t in valid_triples(4)}
    assert max(facet_counts.values()) == facet_counts[(2, 1, 2)] == 24


def test_d5_both_neighborly_attain_34():
    for t in neighborly_triples(5):
        assert pklm_fvector(5, t)[4] == 34


def test_cubical_witness_report():
    cub, _ = verify_ambiguity_witnesses()
    assert cub.all_vertices
    assert cub.cube_graph
    assert cub.cubical
    assert cub.cube_facet_at_base
    assert cub.large_facet_sizes == []


def test_noncubical_witness_report():
    _, noncub = verify_ambiguity_witnesses()
    assert noncub.all_vertices
    assert noncub.cube_graph
    assert not noncub.cubical
    assert noncub.large_facet_sizes == [12]


def _base_facet_is_cube_by_rehull(points):
    # reference: hull the x4 = 0 facet again in R^3
    inc = facets_from_vrep(VPolytope(4, points))
    base = [
        f
        for f, (normal, rhs) in zip(inc.incidence, inc.inequalities)
        if normal == (0, 0, 0, -1) and rhs == 0
    ]
    if not base or len(base[0]) != 8:
        return False
    sub = VPolytope(3, [points[i][:3] for i in sorted(base[0])])
    return is_cubical(facets_from_vrep(sub))


def test_cube_facet_at_base_matches_rehull():
    cub, noncub = verify_ambiguity_witnesses()
    assert cub.cube_facet_at_base is _base_facet_is_cube_by_rehull(CUBICAL_WITNESS_POINTS) is True
    assert noncub.cube_facet_at_base is _base_facet_is_cube_by_rehull(NONCUBICAL_WITNESS_POINTS)


# pyramids over a 3-cube and over a square antiprism, the base at x4 = 0:
# neither is cubical, and only the first has a cube for its base facet
@pytest.mark.parametrize(
    "base,expect",
    [
        (list(product((-1, 1), repeat=3)), True),
        (
            [(a, b, 0) for a in (-1, 1) for b in (-1, 1)]
            + [(2, 0, 1), (-2, 0, 1), (0, 2, 1), (0, -2, 1)],
            False,
        ),
    ],
)
def test_cube_facet_at_base_on_pyramids(base, expect):
    points = [p + (0,) for p in base] + [(0, 0, 0, 1)]
    report = _witness_report(points)
    assert not report.cubical
    assert report.cube_facet_at_base is _base_facet_is_cube_by_rehull(points) is expect


def test_witnesses_hull_once_each(hull_calls):
    verify_ambiguity_witnesses()
    assert [v.points for v in hull_calls] == [
        VPolytope(4, CUBICAL_WITNESS_POINTS).points,
        VPolytope(4, NONCUBICAL_WITNESS_POINTS).points,
    ]


def test_noncubical_witness_12_vertex_facet_span():
    inc = facets_from_vrep(VPolytope(4, NONCUBICAL_WITNESS_POINTS))
    big = [f for f in inc.incidence if len(f) == 12]
    assert len(big) == 1
    pts = {NONCUBICAL_WITNESS_POINTS[i] for i in big[0]}
    expect = set()
    for (a, b, c) in ((1, 1, 1), (2, 2, 4), (5, 5, 16)):
        for sa in (-1, 1):
            for sb in (-1, 1):
                expect.add((Fraction(sa * a), Fraction(sb * b), Fraction(c), Fraction(0)))
    assert pts == expect


def test_noncubical_witness_heights_satisfy_coplanarity():
    # the five lifted ring heights are the unique solution of the facet
    # planarity system; pin each equation on the diagonal section
    A, B, H = (1, 1, 0), (2, 4, 0), (5, 16, 0)
    C, D = (3, 3, 1), (3, 2, Fraction(5, 4))
    E, F = (4, 2, Fraction(41, 20)), (4, 3, Fraction(9, 5))
    G = (Fraction(56, 13), 0, Fraction(779, 260))

    def coplanar(p, q, r, s):
        rows = [
            [q[i] - p[i] for i in range(3)],
            [r[i] - p[i] for i in range(3)],
            [s[i] - p[i] for i in range(3)],
        ]
        return bareiss_det(clear_denominators(rows)[0]) == 0

    assert coplanar(A, B, C, D)
    assert coplanar(B, C, F, H)
    assert coplanar(A, D, E, G)
    assert coplanar(C, D, E, F)
    assert coplanar(E, F, G, H)


def test_witness_fvectors_are_cubical_compatible():
    inc = facets_from_vrep(VPolytope(4, CUBICAL_WITNESS_POINTS))
    fv = f_vector(inc)
    assert fv[0] == 32 and fv[3] == 24
    assert dehn_sommerville_check(fv, 4)


def test_double_r_bound_is_sharp_on_noncubical_witness():
    # all low faces are cubes even though the polytope is not cubical
    from ncpoly.skeleton import double_r_cubicality_check

    inc = facets_from_vrep(VPolytope(4, NONCUBICAL_WITNESS_POINTS))
    assert double_r_cubicality_check(inc, 1)
    assert not is_cubical(inc)
