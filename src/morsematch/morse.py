"""Complexes of matchings, materialized as simplicial complexes.

Vertex i of a matching complex is Hasse edge i of the base complex, in
canonical edge order, so a matching's edge bitmask is its face mask.  Three
variants are built:

  M   faces are the acyclic matchings (hereditary, closure automatic)
  MP  the subcomplex generated by the maximum-cardinality acyclic matchings
  GM  faces are all matchings, acyclicity dropped (hereditary)

All three are built from one layer system (see `layers`): its suffix
tables give a projected face count first (exact for M and GM, an upper
bound for MP), so a complex over the cap is refused, with the package's one
refusal type `BudgetExceededError`, before anything is walked.  M and GM
then take their faces from the per-layer product (`layers.matching_faces`),
which lists them by size in canonical order, so they are stored with no
sort.  MP walks the maximum matchings as the walk yields them, a prefix
of the layers below the top with its group of top-layer completions: it
ORs each member into its prefix, closes the result downward, and sorts
its faces.  Every base goes this one way: a void or 0-dimensional base
has a Hasse diagram without edges, and its matching complex is void.

An inclusion K into L of bases induces the vertex map
`induced_inclusion(HK, HL)` between their matching complexes, read off
the two Hasse diagrams the caller already holds.
"""

from __future__ import annotations

from .complexes import BudgetExceededError, SimplicialComplex, f_vector
from .hasse import HasseDiagram
from .layers import (LayerSystem, iter_matchings_of_cardinality,
                     matching_counts, matching_faces, max_cardinality_info,
                     suffix_tables)

VARIANTS = ("M", "MP", "GM")


class MatchingComplex:
    """A matching complex and the Hasse diagram of its base, whose edges
    are its vertices."""

    __slots__ = ("hasse", "complex")

    def __init__(self, hasse: HasseDiagram, complex: SimplicialComplex):
        self.hasse = hasse
        self.complex = complex

    @property
    def is_void(self) -> bool:
        return self.complex.is_void

    @property
    def edge_count(self) -> int:
        """Size of the vertex universe: the base's Hasse edge count."""
        return self.complex.vertex_count


def build_matching_complex(K: SimplicialComplex, variant: str,
                           max_faces: int = 10 ** 8) -> MatchingComplex:
    """Materialize the complex of matchings of K for the given variant.

    A base without Hasse edges (isolated vertices, the void complex) yields
    a void matching complex.  Raises BudgetExceededError when the base is
    too wide for the layer transfer or the projected face count exceeds
    `max_faces`.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    ls = LayerSystem(K)
    acyclic = variant != "GM"
    S = suffix_tables(ls, acyclic)
    if variant == "MP":
        best, cnt = max_cardinality_info(S[0][0])
        projected = cnt * ((1 << best) - 1)  # closure bound, non-empty faces
    else:
        projected = sum(S[0][0]) - 1  # exact: every non-empty matching
    if projected > max_faces:
        raise BudgetExceededError(
            f"projected face count {projected} exceeds cap {max_faces}; "
            "use the streamed counting interface instead")

    H, E = ls.H, ls.H.edge_count
    if variant != "MP":
        # M and GM are hereditary: every matching is a face, and the
        # product lists them by size in canonical order
        faces = matching_faces(ls, acyclic)
        del ls, S  # free the layer lists and tables before the index
        return MatchingComplex(H, SimplicialComplex._from_sorted(faces, E))
    edges = (1 << E) - 1  # the walk also yields covered faces
    closed: set[int] = set()
    for acc, group in iter_matchings_of_cardinality(ls, best, acyclic=True):
        for x in group:
            sub = mask = (acc | x) & edges
            while sub:
                closed.add(sub)
                sub = (sub - 1) & mask
    # a downward closure: closed as built
    return MatchingComplex(H, SimplicialComplex._from_closed(closed, E))


def matching_complex_f_vector(K: SimplicialComplex, variant: str,
                              max_faces: int = 10 ** 8) -> list[int]:
    """f-vector of the matching complex, streamed where possible.

    M and GM go through the counting engine without materializing anything;
    MP requires materialization (its facets' downward closure has no cheap
    counting form) and is therefore subject to the cap.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "MP":
        return f_vector(build_matching_complex(K, "MP", max_faces).complex)
    return matching_counts(K, "all" if variant == "GM" else "acyclic")


def induced_inclusion(HK: HasseDiagram, HL: HasseDiagram) -> list[int]:
    """Vertex map of matching complexes induced by a subcomplex inclusion,
    read off the Hasse diagrams HK of K and HL of L.

    Entry i is the index in HL of the i-th Hasse edge of HK (the same pair
    of faces, located in the larger diagram).  Injective by construction,
    and empty when K has no Hasse edges; raises ValueError if K is not a
    subcomplex of L.
    """
    if not HL.base.contains_complex(HK.base):
        raise ValueError("K is not a subcomplex of L")
    return [HL.edge(*HK.edge_faces(e)) for e in range(HK.edge_count)]
