"""Exact rational cone complexes, tropical moduli of curves and rubber maps,
and the polyhedral semistability checks behind product formulas."""

from .exactgeom import (
    GeometryError,
    LinearMap,
    NotPointed,
    RankMismatch,
    RationalCone,
    cone_from_generators,
    cone_from_inequalities,
    image_cone,
    intersect,
    is_unimodular,
    lattice_surjective,
    zero_cone,
)
from .complexes import (
    ComplexMorphism,
    ConeComplex,
    ConicalSubset,
    FaceMap,
    check_weak_semistable,
    complex_from_fan,
    is_union_of_cones,
    validate_complex,
    validate_morphism,
)
from .subdivision import (
    RayOutside,
    SubdivisionOf,
    check_subdivision,
    common_refinement,
    compose_subdivisions,
    hyperplane_refine,
    pullback_subdivision,
    refine_until_conical,
    stellar_subdivide,
)
from .curves import (
    Disconnected,
    DualGraph,
    NoSuchEdge,
    Unstable,
    build_moduli_complex,
    canonical_form,
    contract_edge,
    enumerate_stable_graphs,
    genus,
    stabilize,
)
from .tropmaps import (
    ContactData,
    IncompatibleStabilizations,
    RubberMapType,
    build_map_complex,
    cycle_equations,
    enumerate_rubber_types,
    forgetful_image,
    moduli_cone,
    superimpose,
)
from .pipeline import (
    Report,
    build_gamma_subdivision,
    dr_support,
    figure1_demo,
    product_run,
    run_contacts,
    single_factor_run,
    verify_theorem_hypotheses,
)

__version__ = "0.1.0"
