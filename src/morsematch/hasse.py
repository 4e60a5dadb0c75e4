"""Hasse diagrams, matchings, acyclicity, and critical faces.

Faces (vertex bitmasks) get global ids in canonical order (dimension, then
lex position), and Hasse edges are indexed by (layer p, lex lower, lex
upper).  That edge order is the vertex order of every complex of matchings
built downstream.  Both orders start at the lowest dimension, so a
skeleton L = skeleton(K, k) (the boundary of the n-simplex is its
(n-1)-skeleton) keeps K's first faces with the same gids and K's first
m = edge_count(L) Hasse edges in the same order: the induced
inclusion of L into K is range(m), a matching of L is a matching of K, and
a matching of K restricts to L as `mask & ((1 << m) - 1)`.

Matchings are edge-index bitmasks (Python ints).  A directed cycle in a
modified Hasse diagram can only alternate between two adjacent dimensions,
so acyclicity is decided layer by layer: adding a pair (lo, up) creates a
cycle exactly when the layer digraph already has a directed path from `up`
back down to `lo` through matched pairs.  `_layer_path_exists` is that one
test; the layer enumerator in `layers` and `is_acyclic` both use it.
Enumeration and counting live in `layers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import Face, SimplicialComplex, face_vertices


@dataclass
class CriticalReport:
    """Unmatched faces grouped by dimension."""
    by_dim: list[list[Face]]
    counts: list[int]


class HasseDiagram:
    """Indexed codimension-1 cover relation of a complex."""

    __slots__ = ("base", "offsets", "face_of_gid", "dim_of_gid", "facets_of",
                 "edges", "edge_count", "lower", "upper", "layer_of",
                 "edges_up", "edges_down", "edge_index")

    def __init__(self, K: SimplicialComplex):
        if K.is_void:
            raise ValueError("void complex has no Hasse diagram")
        self.base = K
        self.offsets = [0]
        for lst in K.faces_by_dim:
            self.offsets.append(self.offsets[-1] + len(lst))
        self.face_of_gid: list[Face] = [f for f in K.faces()]
        self.dim_of_gid: list[int] = []
        for d, lst in enumerate(K.faces_by_dim):
            self.dim_of_gid.extend([d] * len(lst))

        def gid(d: int, pos: int) -> int:
            return self.offsets[d] + pos

        # facet gids per face (empty for vertices), ascending; every facet
        # is present because the complex is downward closed.  Clearing a
        # higher bit gives a lex-smaller facet.
        index = K.face_index
        self.facets_of: list[tuple[int, ...]] = [()] * self.offsets[1]
        for d in range(1, K.dim + 1):
            off = self.offsets[d - 1]
            for f in K.faces_by_dim[d]:
                subs = []
                m = f
                while m:
                    b = m & -m
                    subs.append(off + index[f ^ b])
                    m ^= b
                subs.reverse()
                self.facets_of.append(tuple(subs))

        edges: list[tuple[int, int]] = []
        for d in range(1, K.dim + 1):
            layer = []
            for pos, f in enumerate(K.faces_by_dim[d]):
                up = gid(d, pos)
                for lo in self.facets_of[up]:
                    layer.append((lo, up))
            layer.sort()  # (lower gid, upper gid) == (lex lower, lex upper)
            edges.extend(layer)
        self.edges = edges
        self.edge_count = len(edges)
        self.lower = [e[0] for e in edges]
        self.upper = [e[1] for e in edges]
        self.layer_of = [self.dim_of_gid[lo] for lo, _ in edges]
        self.edge_index = {e: i for i, e in enumerate(edges)}

        self.edges_up: list[list[int]] = [[] for _ in self.face_of_gid]
        self.edges_down: list[list[int]] = [[] for _ in self.face_of_gid]
        for i, (lo, up) in enumerate(edges):
            self.edges_up[lo].append(i)
            self.edges_down[up].append(i)

    def gid(self, face: Face) -> int:
        """Global id of a face of the base."""
        return self.offsets[face.bit_count() - 1] + self.base.face_index[face]

    def edge_faces(self, e: int) -> tuple[Face, Face]:
        lo, up = self.edges[e]
        return self.face_of_gid[lo], self.face_of_gid[up]

    def mask_from_edges(self, edge_ids) -> int:
        m = 0
        for e in edge_ids:
            m |= 1 << e
        return m

    def __repr__(self) -> str:
        return f"HasseDiagram(edges={self.edge_count}, base={self.base!r})"


def build_hasse(K: SimplicialComplex) -> HasseDiagram:
    return HasseDiagram(K)


def _covered_faces(H: HasseDiagram, mask: int) -> Optional[int]:
    """Gid bitmask of the faces a set of Hasse edges touches; None when two
    of the edges share a face."""
    used = 0
    m = mask
    while m:
        b = m & -m
        lo, up = H.edges[b.bit_length() - 1]
        m ^= b
        fm = (1 << lo) | (1 << up)
        if used & fm:
            return None
        used |= fm
    return used


def is_matching(H: HasseDiagram, mask: int) -> bool:
    """Pairwise face-disjointness of a set of Hasse edges."""
    return _covered_faces(H, mask) is not None


def _layer_path_exists(facets: Sequence[Sequence[int]],
                       matched_up: dict[int, int],
                       start_up: int, target_lo: int) -> bool:
    """Would matching (target_lo, start_up) close a directed cycle?

    Searches for a path from start_up back down to target_lo through already
    matched pairs.  `facets[u]` lists the facets of upper face u, and
    `matched_up` maps matched lower faces to their partners, all in one
    index space.  The first hop may not use the cover edge being reversed,
    so facet target_lo is skipped when leaving start_up.
    """
    stack = []
    seen = set()
    for s in facets[start_up]:
        if s != target_lo:
            nxt = matched_up.get(s)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    while stack:
        t = stack.pop()
        for s in facets[t]:
            if s == target_lo:
                return True
            nxt = matched_up.get(s)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def is_acyclic(H: HasseDiagram, mask: int) -> bool:
    """Gradient vector field test; rejects non-matchings outright.

    Inserts the pairs one at a time: a cycle exists exactly when some
    insertion finds a path back to its own lower face.
    """
    if not is_matching(H, mask):
        raise ValueError("input is not a matching")
    matched: dict[int, int] = {}
    for e in face_vertices(mask):
        lo, up = H.lower[e], H.upper[e]
        if _layer_path_exists(H.facets_of, matched, up, lo):
            return False
        matched[lo] = up
    return True


def critical_faces(H: HasseDiagram, mask: int) -> CriticalReport:
    """Faces untouched by the matching, grouped by dimension."""
    used = _covered_faces(H, mask)
    if used is None:
        raise ValueError("input is not a matching")
    K = H.base
    by_dim: list[list[Face]] = [[] for _ in range(K.dim + 1)]
    for g, f in enumerate(H.face_of_gid):
        if not (used >> g) & 1:
            by_dim[H.dim_of_gid[g]].append(f)
    return CriticalReport(by_dim, [len(lst) for lst in by_dim])
