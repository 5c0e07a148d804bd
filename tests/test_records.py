"""The package's record types: four namedtuples built positionally in the
field order below, and the plain class ``CubicalComplex``."""

from fractions import Fraction

import pytest

from ncpoly.classify import UBCReport, WitnessReport
from ncpoly.complexes import CubicalComplex
from ncpoly.deformed import ProjectedCube, projected_cube
from ncpoly.surgery import SphereReport


@pytest.mark.parametrize(
    "record, fields",
    [
        (UBCReport, ("d", "checked", "failures", "minimizers", "neighborly")),
        (
            WitnessReport,
            ("all_vertices", "cube_graph", "cubical", "cube_facet_at_base", "large_facet_sizes"),
        ),
        (SphereReport, ("ridges_in_two_facets", "connected", "euler_zero", "links_ok")),
        (ProjectedCube, ("n", "d", "epsilon", "hrep", "cube", "shadow")),
    ],
)
def test_fields_in_positional_order(record, fields):
    assert record._fields == fields
    # the subclasses add methods, never a per-instance __dict__
    assert record.__slots__ == ()


def test_projected_cube_is_immutable():
    pc = projected_cube(3, 2)
    with pytest.raises(AttributeError):
        pc.epsilon = Fraction(1, 2)
    with pytest.raises(AttributeError):
        pc.extra = 1


def test_ubc_report_ok_means_no_failures():
    assert UBCReport(4, 10, [], {}, []).ok
    assert not UBCReport(4, 10, [("tie", 2, (1, 2, 1))], {}, []).ok


def test_witness_report_ok_reads_vertices_and_graph_only():
    for all_vertices in (False, True):
        for cube_graph in (False, True):
            for cubical in (False, True):
                report = WitnessReport(all_vertices, cube_graph, cubical, cubical, [12])
                assert report.ok == (all_vertices and cube_graph)


def test_sphere_report_ok_needs_all_four():
    assert SphereReport(True, True, True, True).ok
    for i in range(4):
        flags = [True] * 4
        flags[i] = False
        assert not SphereReport(*flags).ok


def test_cubical_complex_freezes_faces_and_drops_empty_dimensions():
    # a square on vertex IDs 0, 1, 2, 3 and a lone vertex 5, with no 3-faces
    faces = {0: [1, 2, 4, 8, 32], 1: {3, 5, 10, 12}, 2: (15,), 3: set()}
    cx = CubicalComplex(faces)
    assert cx.faces_by_dim == {
        0: frozenset({1, 2, 4, 8, 32}),
        1: frozenset({3, 5, 10, 12}),
        2: frozenset({15}),
    }
    assert all(type(fs) is frozenset for fs in cx.faces_by_dim.values())
    assert cx.vertex_ids == frozenset({0, 1, 2, 3, 5})
    assert cx.dim == 2
    assert cx.f_vector() == (5, 4, 1)
    # the complex keeps its own copy of the faces
    faces[1].add(48)
    assert 48 not in cx.faces_by_dim[1]
