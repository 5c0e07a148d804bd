"""Shared fixtures.

``constructed`` names the common pairing of a projected cube with the facet
incidence of its shadow.  ``hull_calls`` lists the input of every
``facets_from_vrep`` call made from an ``ncpoly`` module during a test.
"""

import sys

import pytest

from ncpoly import polytope
from ncpoly.deformed import projected_cube
from ncpoly.polytope import facets_from_vrep


@pytest.fixture(scope="session")
def constructed():
    def _get(n, d):
        pc = projected_cube(n, d)
        inc = facets_from_vrep(pc.shadow)
        return pc, inc

    return _get


@pytest.fixture
def hull_calls(monkeypatch):
    calls = []
    original = polytope.facets_from_vrep

    def counted(v):
        calls.append(v)
        return original(v)

    for name, module in list(sys.modules.items()):
        if name == "ncpoly" or name.startswith("ncpoly."):
            if getattr(module, "facets_from_vrep", None) is original:
                monkeypatch.setattr(module, "facets_from_vrep", counted)
    return calls
