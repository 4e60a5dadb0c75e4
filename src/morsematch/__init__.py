"""Complexes of discrete Morse matchings at desk scale.

Build small simplicial complexes, count and enumerate the matchings on their
Hasse diagrams (all, acyclic, and maximum acyclic) layer by layer,
materialize the associated complexes of matchings, compute exact integral
homology through sparse Smith normal forms, and mechanically check the
structural statements that tie all of it together.
"""

__version__ = "0.1.0"

from .complexes import (BudgetExceededError, SimplicialComplex, build_boundary,
                        build_simplex, cone, euler_characteristic, f_vector,
                        face_mask, face_vertices, is_full_subcomplex,
                        relabel, skeleton)
from .hasse import HasseDiagram, build_hasse, is_matching
from .homology import (HomologyResult, SparseIntMatrix, homology,
                       relative_homology, smith_normal_form)
from .layers import LayerSystem, enumerate_optimal, matching_counts
from .morse import (MatchingComplex, build_matching_complex,
                    induced_inclusion, matching_complex_f_vector)
from .specs import SpecError, build_from_spec, canonical_spec, load_facet_file
from .verify import VerificationReport, default_suite

__all__ = [
    "BudgetExceededError", "SimplicialComplex", "build_boundary",
    "build_simplex", "cone", "euler_characteristic", "f_vector",
    "face_mask", "face_vertices", "is_full_subcomplex", "relabel", "skeleton",
    "HasseDiagram", "build_hasse", "is_matching",
    "HomologyResult", "SparseIntMatrix",
    "homology", "relative_homology", "smith_normal_form",
    "LayerSystem", "enumerate_optimal", "matching_counts",
    "MatchingComplex", "build_matching_complex", "induced_inclusion",
    "matching_complex_f_vector",
    "SpecError", "build_from_spec", "canonical_spec", "load_facet_file",
    "VerificationReport", "default_suite",
    "__version__",
]
