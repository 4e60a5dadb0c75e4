"""Hasse diagrams and the matching test.

Faces (vertex bitmasks) get global ids in canonical order (dimension, then
lex position), and Hasse edges are indexed by (layer p, lex lower, lex
upper).  That edge order is the vertex order of every complex of matchings
built downstream.  Both orders start at the lowest dimension, so a
skeleton L = skeleton(K, k) (the boundary of the n-simplex is its
(n-1)-skeleton) keeps K's first faces with the same gids and K's first
m = edge_count(L) Hasse edges in the same order: the induced
inclusion of L into K is range(m), a matching of L is a matching of K, and
a matching of K restricts to L as `mask & ((1 << m) - 1)`.  The verifiers
rely on this prefix fact without checking it at run time;
`tests/test_morse.py::test_skeleton_edges_are_a_prefix` checks it on every
pair they reach.  Every complex has a diagram: a void or 0-dimensional
base has one with no edges.

Edge e runs from gid `lower[e]` up to gid `upper[e]` in layer
`layer_of[e]`, a face's dimension is its bit count minus one, and
`edge(lo, up)` finds an edge from its two faces.  `edges_up[g]` lists the
edges leaving face g upward; the edges into g join it to the faces
`facets_of[g]` names, so they are found with `edge` and not stored.

Matchings are edge-index bitmasks (Python ints).  `is_matching` tests
face-disjointness with a per-edge loop and builds no tables, since it also
runs on diagrams of whole matching complexes.  Acyclicity is not decided
here: a directed cycle in a modified Hasse diagram can only alternate
between two adjacent dimensions, so it is a per-layer condition, and the
layer enumerator decides it (`layers._enumerate_layer`).  The verifiers
that walk every maximum matching read the faces it leaves critical off
the covered faces that each walked matching carries above its edges
(`layers.iter_matchings_of_cardinality`); the tests check them against
the per-edge oracle `critical_faces` in `tests/oracles.py`.
Enumeration, counting and the canonical order of the matching complexes'
faces (`layers.matching_faces`) live in `layers`.
"""

from __future__ import annotations

from .complexes import Face, SimplicialComplex


class HasseDiagram:
    """Indexed codimension-1 cover relation of a complex."""

    __slots__ = ("base", "offsets", "face_of_gid", "facets_of", "edge_count",
                 "lower", "upper", "layer_of", "edges_up")

    def __init__(self, K: SimplicialComplex):
        self.base = K
        # a void base counts as one empty dimension of vertices, so
        # offsets[1] exists and the diagram has no faces and no edges
        self.offsets = [0]
        for lst in K.faces_by_dim or [[]]:
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
        for e, lo in enumerate(self.lower):
            self.edges_up[lo].append(e)

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


def is_matching(H: HasseDiagram, mask: int) -> bool:
    """Pairwise face-disjointness of a set of Hasse edges."""
    used = 0
    m = mask
    while m:
        b = m & -m
        e = b.bit_length() - 1
        m ^= b
        fm = (1 << H.lower[e]) | (1 << H.upper[e])
        if used & fm:
            return False
        used |= fm
    return True
