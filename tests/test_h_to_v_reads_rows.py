"""H->V reads an ``HPolytope``'s integer ``rows`` as they are, never its
rational ``inequalities`` view, so no Fraction is built between
``build_deformed_cube`` and the vertices.  With the view made to raise on
read, the deformed-cube pipeline, the hull of its shadow, the upper-face
subdivision and H->V of the first construction's system all still run."""

import pytest

from ncpoly import classify
from ncpoly.deformed import projected_cube, shadow_incidence
from ncpoly.polytope import HPolytope, vertices_from_hrep
from ncpoly.skeleton import upper_face_subdivision


class ViewRead(Exception):
    pass


@pytest.fixture
def unreadable_view(monkeypatch):
    def read(self):
        raise ViewRead("HPolytope.inequalities was read")

    monkeypatch.setattr(HPolytope, "inequalities", property(read))


def test_h_to_v_never_reads_the_rational_view(unreadable_view):
    pc = projected_cube(6, 4)
    with pytest.raises(ViewRead):
        pc.hrep.inequalities
    assert len(pc.cube.coords) == 64
    assert shadow_incidence(pc).facet_count == 64
    assert len(upper_face_subdivision(5, 4).vertex_ids) == 32
    h, v = classify.first_construction(4)
    assert set(vertices_from_hrep(h).coords) == set(v.coords)
