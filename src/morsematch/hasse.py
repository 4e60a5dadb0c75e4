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

Edge e runs from gid `lower[e]` up to gid `upper[e]` in layer
`layer_of[e]`, a face's dimension is its bit count minus one, and
`edge(lo, up)` finds an edge from its two faces.

Matchings are edge-index bitmasks (Python ints).  A directed cycle in a
modified Hasse diagram can only alternate between two adjacent dimensions,
so acyclicity is decided layer by layer: adding a pair (lo, up) creates a
cycle exactly when the layer digraph already has a directed path from `up`
back down to `lo` through matched pairs.  `_layer_path_exists` is that one
test; the layer enumerator in `layers` and `is_acyclic` both use it.
`critical_faces(H, mask)` returns the faces the matching leaves
unmatched as one list per dimension: entry d lists the critical d-faces
in canonical order, for d = 0 .. dim of the base.  Enumeration and
counting live in `layers`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .complexes import Face, SimplicialComplex, face_vertices


class HasseDiagram:
    """Indexed codimension-1 cover relation of a complex."""

    __slots__ = ("base", "offsets", "face_of_gid", "facets_of", "edge_count",
                 "lower", "upper", "layer_of", "edges_up", "edges_down")

    def __init__(self, K: SimplicialComplex):
        if K.is_void:
            raise ValueError("void complex has no Hasse diagram")
        self.base = K
        self.offsets = [0]
        for lst in K.faces_by_dim:
            self.offsets.append(self.offsets[-1] + len(lst))
        self.face_of_gid: list[Face] = [f for f in K.faces()]

        # facet gids per face (empty for vertices), ascending; every facet
        # is present because the complex is downward closed.  Clearing a
        # higher bit gives a lex-smaller facet.  A face's gid is its entry's
        # index in facets_of, and its cover edges are built with it.
        index = K.face_index
        self.facets_of: list[tuple[int, ...]] = [()] * self.offsets[1]
        self.lower: list[int] = []
        self.upper: list[int] = []
        self.layer_of: list[int] = []
        for d in range(1, K.dim + 1):
            off = self.offsets[d - 1]
            layer = []
            for f in K.faces_by_dim[d]:
                up = len(self.facets_of)
                subs = []
                m = f
                while m:
                    b = m & -m
                    subs.append(off + index[f ^ b])
                    m ^= b
                subs.reverse()
                self.facets_of.append(tuple(subs))
                layer.extend((lo, up) for lo in subs)
            layer.sort()  # (lower gid, upper gid) == (lex lower, lex upper)
            self.lower.extend(lo for lo, _ in layer)
            self.upper.extend(up for _, up in layer)
            self.layer_of.extend([d - 1] * len(layer))
        self.edge_count = len(self.lower)

        self.edges_up: list[list[int]] = [[] for _ in self.face_of_gid]
        self.edges_down: list[list[int]] = [[] for _ in self.face_of_gid]
        for e, (lo, up) in enumerate(zip(self.lower, self.upper)):
            self.edges_up[lo].append(e)
            self.edges_down[up].append(e)

    def gid(self, face: Face) -> int:
        """Global id of a face of the base; KeyError for any other mask."""
        return self.base.face_index[face] + self.offsets[face.bit_count() - 1]

    def edge(self, lo: Face, up: Face) -> int:
        """Index of the Hasse edge from face lo up to face up; KeyError if
        the two faces are not a cover pair of the base."""
        g = self.gid(up)
        for e in self.edges_up[self.gid(lo)]:
            if self.upper[e] == g:
                return e
        raise KeyError((lo, up))

    def edge_faces(self, e: int) -> tuple[Face, Face]:
        return self.face_of_gid[self.lower[e]], self.face_of_gid[self.upper[e]]

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
        e = b.bit_length() - 1
        m ^= b
        fm = (1 << H.lower[e]) | (1 << H.upper[e])
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


def critical_faces(H: HasseDiagram, mask: int) -> list[list[Face]]:
    """Faces untouched by the matching: entry d lists the critical d-faces
    in canonical order, read off the set bits of the unmatched-gid mask."""
    used = _covered_faces(H, mask)
    if used is None:
        raise ValueError("input is not a matching")
    by_dim: list[list[Face]] = [[] for _ in range(H.base.dim + 1)]
    free = ((1 << len(H.face_of_gid)) - 1) ^ used
    while free:
        b = free & -free
        f = H.face_of_gid[b.bit_length() - 1]
        by_dim[f.bit_count() - 1].append(f)
        free ^= b
    return by_dim
