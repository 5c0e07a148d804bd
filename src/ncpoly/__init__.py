"""Exact-arithmetic toolkit for neighborly cubical polytopes.

Constructs deformed n-cubes, projects them to cubical d-polytopes whose low
skeleta match the n-cube, enumerates their facets both geometrically and
combinatorially, and verifies the surrounding combinatorial facts (skeleton
equivalence, f-vector identities, the n = d+1 classification, and the
surgery counter-example sphere).
"""

from .classify import (
    first_construction,
    neighborly_triples,
    pklm_fvector,
    pklm_sphere,
    ubc_polytope_case,
    valid_triples,
    verify_ambiguity_witnesses,
)
from .complexes import CubicalComplex
from .cyclic import (
    cyclic_configuration,
    cyclic_facet_count,
    gale_evenness_facets,
)
from .deformed import (
    build_deformed_cube,
    certify_epsilon,
    choose_epsilon,
    common_epsilon,
    project_last,
    projected_cube,
)
from .gale import (
    f_formula,
    facets_gale,
    to_sign_vector,
)
from .polytope import (
    HPolytope,
    IncidenceStructure,
    VPolytope,
    f_vector,
    face_lattice,
    facets_from_vrep,
    graph_of,
    hypercube_graph_iso,
    is_cubical,
    vertices_from_hrep,
)
from .skeleton import (
    dehn_sommerville_check,
    double_r_cubicality_check,
    upper_face_subdivision,
    verify_skeleton_equivalence,
)
from .surgery import (
    build_psi,
    intersection_lemma_check,
    verify_sphere_like,
)

__all__ = [name for name in dir() if not name.startswith("_")]
