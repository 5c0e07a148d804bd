"""Shared fixtures.

``constructed`` names the common pairing of a projected cube with the facet
incidence of its shadow.
"""

import pytest

from ncpoly.deformed import projected_cube
from ncpoly.polytope import facets_from_vrep


@pytest.fixture(scope="session")
def constructed():
    def _get(n, d):
        pc = projected_cube(n, d)
        inc = facets_from_vrep(pc.shadow)
        return pc, inc

    return _get
