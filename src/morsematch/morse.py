"""Complexes of matchings, materialized as simplicial complexes.

Vertex i of a matching complex is Hasse edge i of the base complex, in
canonical edge order, so a matching's edge bitmask is its face mask.  Three
variants are built:

  M   faces are the acyclic matchings (hereditary, closure automatic)
  MP  the subcomplex generated by the maximum-cardinality acyclic matchings
  GM  faces are all matchings, acyclicity dropped (hereditary)

All three are built from one layer system (see `layers`): its suffix
tables give the exact face count first, so a complex over the cap is
refused before anything is walked; M and GM then walk every per-layer
product, and MP closes the maximum matchings downward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, cone, f_vector
from .hasse import HasseDiagram, build_hasse
from .layers import (LayerSystem, iter_matchings_of_cardinality,
                     matching_counts, max_cardinality_info, suffix_tables)

VARIANTS = ("M", "MP", "GM")


class MaterializationLimitError(RuntimeError):
    """Projected face count exceeds the cap; use streamed counting instead."""


@dataclass
class MatchingComplex:
    variant: str
    base: SimplicialComplex
    hasse: Optional[HasseDiagram]
    complex: SimplicialComplex

    @property
    def is_void(self) -> bool:
        return self.complex.is_void

    @property
    def edge_count(self) -> int:
        """Size of the vertex universe: the base's Hasse edge count."""
        return self.hasse.edge_count if self.hasse else 0


def build_matching_complex(K: SimplicialComplex, variant: str,
                           max_faces: int = 10 ** 8) -> MatchingComplex:
    """Materialize the complex of matchings of K for the given variant.

    A base without Hasse edges (isolated vertices, the void complex) yields
    a void matching complex rather than an error.  Raises
    MaterializationLimitError when the projected face count exceeds
    `max_faces`, and LayeredInfeasibleError when the base is too wide for
    the layer transfer.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if K.is_void or K.dim == 0:
        return MatchingComplex(variant, K, None, SimplicialComplex.void(0))
    ls = LayerSystem(K)
    acyclic = variant != "GM"
    S = suffix_tables(ls, acyclic)
    if variant == "MP":
        best, cnt = max_cardinality_info(S[0][0])
        projected = cnt * (1 << best)  # closure upper bound
    else:
        projected = sum(S[0][0]) - 1  # exact: every non-empty matching
    if projected > max_faces:
        raise MaterializationLimitError(
            f"projected face count {projected} exceeds cap {max_faces}; "
            "use the streamed counting interface instead")

    if variant == "MP":
        closed: set[int] = set()
        for mask in iter_matchings_of_cardinality(ls, best, acyclic=True):
            sub = mask
            while sub:
                closed.add(sub)
                if len(closed) > max_faces:
                    raise MaterializationLimitError(
                        f"face count exceeded cap {max_faces} during closure")
                sub = (sub - 1) & mask
        masks = closed
    else:
        masks = [m for m in iter_matchings_of_cardinality(ls, None, acyclic) if m]

    cx = SimplicialComplex.from_faces(masks, ls.H.edge_count)
    return MatchingComplex(variant, K, ls.H, cx)


def matching_complex_f_vector(K: SimplicialComplex, variant: str,
                              max_faces: int = 10 ** 8) -> list[int]:
    """f-vector of the matching complex, streamed where possible.

    M and GM go through the counting engine without materializing anything;
    MP requires materialization (its facets' downward closure has no cheap
    counting form) and is therefore subject to the cap.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if K.is_void or K.dim == 0:
        return []
    if variant == "MP":
        return f_vector(build_matching_complex(K, "MP", max_faces).complex)
    return matching_counts(K, "all" if variant == "GM" else "acyclic")


def induced_inclusion(K: SimplicialComplex, L: SimplicialComplex) -> list[int]:
    """Vertex map of matching complexes induced by a subcomplex inclusion.

    Entry i is the index in the Hasse diagram of L of the i-th Hasse edge of
    K (the same pair of faces, located in the larger diagram).  Injective by
    construction, and empty for a void K; raises if K is not a subcomplex
    of L.
    """
    if not L.contains_complex(K):
        raise ValueError("K is not a subcomplex of L")
    if K.is_void:
        return []
    HK = build_hasse(K)
    HL = build_hasse(L)
    return [HL.edge(*HK.edge_faces(e)) for e in range(HK.edge_count)]


def cone_pair(K: SimplicialComplex, w0: int = 0,
              ) -> tuple[SimplicialComplex, int, int]:
    """Cone of K together with the distinguished Hasse edge (apex, apex*w0).

    Returns (CK, apex id, index of the edge pairing the apex vertex with the
    edge towards w0).  That single pair is compatible with every matching
    on K, which is what makes the inclusion of matching complexes
    null-homotopic; verifiers check exactly this compatibility.
    """
    if K.is_void:
        raise ValueError("cone over the void complex is not supported")
    if (1 << w0) not in K.face_index:
        raise ValueError(f"w0={w0} is not a vertex of K")
    CK, apex = cone(K)
    H = build_hasse(CK)
    e0 = H.edge(1 << apex, (1 << w0) | (1 << apex))
    return CK, apex, e0
