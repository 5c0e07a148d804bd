"""Every reader of a hull's facets reads the vertex bitmasks the double
description computes (``IncidenceStructure.facets``), never the frozenset
``incidence`` view.  With the view made to raise on read, ``ncpoly verify``
on the benchmark's grid and one n = d cube, the upper-face subdivision, the
ambiguity witnesses, the first construction and the cyclic polytope's
cocircuit facets all still run and pass."""

import json

import pytest

from ncpoly import classify, cli
from ncpoly.cyclic import cyclic_configuration, gale_evenness_facets, positive_cocircuit_facets
from ncpoly.polytope import IncidenceStructure, VPolytope, facets_from_vrep
from ncpoly.skeleton import upper_face_subdivision


class ViewRead(Exception):
    pass


@pytest.fixture
def unreadable_view(monkeypatch):
    def read(self):
        raise ViewRead("IncidenceStructure.incidence was read")

    monkeypatch.setattr(IncidenceStructure, "incidence", property(read))


def test_the_view_is_unreadable(unreadable_view):
    inc = facets_from_vrep(VPolytope(2, [(0, 0), (1, 0), (0, 1)]))
    assert sorted(inc.facets) == [0b011, 0b101, 0b110]
    with pytest.raises(ViewRead):
        inc.incidence


@pytest.mark.parametrize(
    "n,d", [(4, 2), (5, 2), (4, 3), (5, 3), (5, 4), (6, 3), (6, 4), (8, 8)]
)
def test_verify_reads_facet_masks(unreadable_view, capsys, n, d):
    assert cli.main(["verify", "--n", str(n), "--d", str(d)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and all(report["checks"].values())


def test_other_facet_readers_read_masks(unreadable_view):
    assert len(upper_face_subdivision(5, 4).vertex_ids) == 32
    cub, noncub = classify.verify_ambiguity_witnesses()
    assert cub.ok and cub.cubical and cub.cube_facet_at_base
    assert noncub.ok and not noncub.cubical and noncub.large_facet_sizes == [12]
    _, v = classify.first_construction(4)
    assert len(v.coords) == 32
    facets = positive_cocircuit_facets(cyclic_configuration(10, 4))
    assert facets == set(gale_evenness_facets(10, 4))
