"""The geometric route against the combinatorial one on every pair
2 <= d <= n <= 8 that the acceptance suite's ORACLE_PAIRS leave out, and on
the seventeen n = 9 and n = 10 pairs behind the ``slow`` marker
(``pytest -m slow``).

For each pair the hull of the projected deformed cube must have exactly the
facets of the signed-label criterion, share the cube's
(floor(d/2)-1)-skeleton (and, for n > d, not its floor(d/2)-skeleton), be
cubical, and satisfy the Dehn-Sommerville relations.  Its face lattice, read
as a cubical complex with no conversion, must be a cubical (d-1)-sphere by
every test ``CubicalComplex`` has; so must the lattices of the oracle pairs,
of ``first_construction(4)`` and of the cubical ambiguity witness, while the
non-cubical witness is refused.  Every one of these lattices is also the
one the all-facets reference grades.  At d = 4 the hull's f-vector is the
closed form 2^(n-2) (4, 2n, 3n-6, n-2), and so is the f-vector of the
closure of the signed-label facets, with no hull, up to n = 12 (n = 13
behind the ``slow`` marker).
"""

import pytest
from test_acceptance import ORACLE_PAIRS

from ncpoly.classify import (
    CUBICAL_WITNESS_POINTS,
    NONCUBICAL_WITNESS_POINTS,
    first_construction,
)
from ncpoly.complexes import CubicalComplex, from_cube_facets
from ncpoly.deformed import projected_cube, shadow_incidence
from ncpoly.errors import ConstructionError
from ncpoly.gale import facet_vertex_label_sets, facet_vertex_masks
from ncpoly.polytope import VPolytope, f_vector, face_masks, facets_from_vrep, is_cubical
from ncpoly.skeleton import dehn_sommerville_check, verify_skeleton_equivalence
from test_polytope import all_facets_face_masks

GRID = [
    (n, d)
    for n in range(2, 9)
    for d in range(2, n + 1)
    if (n, d) not in ORACLE_PAIRS
] + [pytest.param(n, d, marks=pytest.mark.slow) for n in (9, 10) for d in range(2, n + 1)]


@pytest.mark.parametrize("n,d", GRID)
def test_geometric_route_matches_combinatorial(n, d):
    inc = shadow_incidence(projected_cube(n, d))
    oracle = {frozenset(inc.labels[i] for i in f) for f in inc.incidence}
    assert oracle == facet_vertex_label_sets(n, d)
    assert verify_skeleton_equivalence(inc, n, d // 2 - 1)
    if n > d:
        assert not verify_skeleton_equivalence(inc, n, d // 2)
    assert is_cubical(inc)
    assert dehn_sommerville_check(f_vector(inc), d)
    _assert_cubical_sphere(inc, d)


def _assert_cubical_sphere(inc, d):
    """The boundary complex of a cubical d-polytope: valid, a pseudomanifold,
    connected, with the Euler characteristic of a (d-1)-sphere; its lattice
    is the all-facets reference's."""
    assert face_masks(inc) == all_facets_face_masks(inc)
    cx = CubicalComplex(face_masks(inc))
    cx.validate()
    assert cx.is_pseudomanifold()
    assert cx.is_connected()
    assert cx.euler_characteristic() == 1 + (-1) ** (d - 1)


@pytest.mark.parametrize("n,d", ORACLE_PAIRS)
def test_oracle_pair_lattice_is_a_cubical_sphere(n, d):
    _assert_cubical_sphere(shadow_incidence(projected_cube(n, d)), d)


def test_construction_and_witness_lattices_are_cubical_spheres():
    _, v = first_construction(4)
    _assert_cubical_sphere(facets_from_vrep(v), 4)
    _assert_cubical_sphere(facets_from_vrep(VPolytope(4, CUBICAL_WITNESS_POINTS)), 4)
    noncubical = facets_from_vrep(VPolytope(4, NONCUBICAL_WITNESS_POINTS))
    assert face_masks(noncubical) == all_facets_face_masks(noncubical)
    with pytest.raises(ConstructionError, match="3-face with 12 vertices"):
        CubicalComplex(face_masks(noncubical)).validate()


@pytest.mark.parametrize(
    "n", [4, 5, 6, 7, 8] + [pytest.param(n, marks=pytest.mark.slow) for n in (9, 10)]
)
def test_d4_f_vector_is_the_closed_form(n):
    # the abstract's d = 4 count: f_3 = (f_0/4) log2(f_0/4), from the hull
    _assert_d4_closed_form(f_vector(facets_from_vrep(projected_cube(n, 4).shadow)), n)


@pytest.mark.parametrize(
    "n", list(range(4, 13)) + [pytest.param(13, marks=pytest.mark.slow)]
)
def test_d4_f_vector_is_the_closed_form_on_the_combinatorial_route(n):
    # the same count past the hull's n = 10: the closure of the
    # signed-label facets as cube faces
    _assert_d4_closed_form(from_cube_facets(facet_vertex_masks(n, 4)).f_vector(), n)


def _assert_d4_closed_form(f, n):
    assert f == tuple(2 ** (n - 2) * c for c in (4, 2 * n, 3 * n - 6, n - 2))
    quarter = f[0] // 4
    assert quarter == 1 << (n - 2) and f[3] == quarter * (quarter.bit_length() - 1)
