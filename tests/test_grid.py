"""The geometric route against the combinatorial one on every pair
2 <= d <= n <= 8 that the acceptance suite's ORACLE_PAIRS leave out, and on
the eight n = 9 pairs behind the ``slow`` marker (``pytest -m slow``).

For each pair the hull of the projected deformed cube must have exactly the
facets of the signed-label criterion, share the cube's
(floor(d/2)-1)-skeleton (and, for n > d, not its floor(d/2)-skeleton), be
cubical, and satisfy the Dehn-Sommerville relations.
"""

import pytest
from test_acceptance import ORACLE_PAIRS

from ncpoly.deformed import projected_cube, shadow_incidence
from ncpoly.gale import facet_vertex_label_sets
from ncpoly.polytope import f_vector, is_cubical
from ncpoly.skeleton import dehn_sommerville_check, verify_skeleton_equivalence

GRID = [
    (n, d)
    for n in range(2, 9)
    for d in range(2, n + 1)
    if (n, d) not in ORACLE_PAIRS
] + [pytest.param(9, d, marks=pytest.mark.slow) for d in range(2, 10)]


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
