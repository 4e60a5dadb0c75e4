"""Finite abstract simplicial complexes with deterministic face indexing.

A face is a strictly increasing tuple of vertex ids.  Within each dimension
the face list is sorted lexicographically, and that order is canonical: it
fixes Hasse edge order, boundary matrix bases, and every on-disk format.

The void complex (zero faces) is representable; it shows up naturally as the
complex of matchings of a complex without cover pairs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

Face = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """An exhaustive search hit its configured node budget."""


def _closure(facets: Iterable[Face]) -> set[Face]:
    out: set[Face] = set()
    for f in facets:
        k = len(f)
        for size in range(1, k + 1):
            out.update(combinations(f, size))
    return out


class SimplicialComplex:
    """Immutable complex: per-dimension lex-sorted face lists plus an index.

    Instances must be built through the classmethods or the module-level
    constructors, which validate vertex ranges and downward closure.
    """

    __slots__ = ("vertex_count", "faces_by_dim", "face_index")

    def __init__(self, vertex_count: int, faces_by_dim: list[list[Face]],
                 face_index: dict[Face, tuple[int, int]]):
        self.vertex_count = vertex_count
        self.faces_by_dim = faces_by_dim
        self.face_index = face_index

    @classmethod
    def from_faces(cls, faces: Iterable[Face], vertex_count: Optional[int] = None,
                   ) -> "SimplicialComplex":
        """Build from an explicit face set; raises if not downward closed."""
        face_set = {tuple(f) for f in faces}
        for f in face_set:
            if len(f) == 0:
                raise ValueError("empty face is implicit and never stored")
            if list(f) != sorted(set(f)):
                raise ValueError(f"face {f!r} is not strictly increasing")
            if f[0] < 0:
                raise ValueError(f"negative vertex id in {f!r}")
        used = max((f[-1] for f in face_set), default=-1) + 1
        if vertex_count is None:
            vertex_count = used
        elif used > vertex_count:
            raise ValueError(f"vertex id {used - 1} outside universe 0..{vertex_count - 1}")
        dim = max((len(f) for f in face_set), default=0) - 1
        faces_by_dim: list[list[Face]] = [[] for _ in range(dim + 1)]
        for f in face_set:
            faces_by_dim[len(f) - 1].append(f)
        for lst in faces_by_dim:
            lst.sort()
        for d in range(1, dim + 1):
            for f in faces_by_dim[d]:
                for i in range(len(f)):
                    if f[:i] + f[i + 1:] not in face_set:
                        raise ValueError(f"face {f!r} missing subface; not a complex")
        index = {}
        for d, lst in enumerate(faces_by_dim):
            for i, f in enumerate(lst):
                index[f] = (d, i)
        return cls(vertex_count, faces_by_dim, index)

    @classmethod
    def from_facets(cls, facets: Iterable[Face], vertex_count: Optional[int] = None,
                    ) -> "SimplicialComplex":
        """Build the downward closure of the given generating faces."""
        return cls.from_faces(_closure(facets), vertex_count)

    @classmethod
    def void(cls, vertex_count: int = 0) -> "SimplicialComplex":
        return cls(vertex_count, [], {})

    # -- queries ---------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.faces_by_dim

    @property
    def dim(self) -> int:
        """Dimension; -1 for the void complex."""
        return len(self.faces_by_dim) - 1

    def total_faces(self) -> int:
        return sum(len(lst) for lst in self.faces_by_dim)

    def has_face(self, f: Face) -> bool:
        return f in self.face_index

    def faces(self) -> Iterator[Face]:
        """All faces in canonical order (dimension, then lex)."""
        for lst in self.faces_by_dim:
            yield from lst

    def vertices(self) -> list[int]:
        """Ids of the 0-faces (may be a proper subset of the universe)."""
        return [f[0] for f in self.faces_by_dim[0]] if self.faces_by_dim else []

    def contains_complex(self, other: "SimplicialComplex") -> bool:
        """Face-set inclusion (vertex ids compared literally)."""
        return all(f in self.face_index for f in other.faces())

    def induced(self, vertex_set: Iterable[int]) -> "SimplicialComplex":
        """Full subcomplex spanned by a vertex subset, on the same universe."""
        vs = set(vertex_set)
        faces = [f for f in self.faces() if vs.issuperset(f)]
        if not faces:
            return SimplicialComplex.void(self.vertex_count)
        return SimplicialComplex.from_faces(faces, self.vertex_count)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.faces_by_dim == other.faces_by_dim)

    __hash__ = None  # value equality; instances are not hashable

    def __repr__(self) -> str:
        if self.is_void:
            return f"SimplicialComplex(void, universe={self.vertex_count})"
        return (f"SimplicialComplex(dim={self.dim}, "
                f"f={tuple(len(l) for l in self.faces_by_dim)})")


# -- standard families ----------------------------------------------------

def build_simplex(n: int) -> SimplicialComplex:
    """Full simplex on n+1 vertices: all 2^(n+1) - 1 non-empty faces."""
    if n < 0:
        raise ValueError("n must be >= 0")
    verts = range(n + 1)
    faces = [c for k in range(1, n + 2) for c in combinations(verts, k)]
    return SimplicialComplex.from_faces(faces, n + 1)

def build_boundary(n: int) -> SimplicialComplex:
    """All proper non-empty faces of the n-simplex; dimension n - 1.

    n = 0 is rejected: the boundary of a point would be the void complex,
    which is constructible only through operations that naturally yield it.
    """
    if n < 1:
        raise ValueError("boundary requires n >= 1")
    verts = range(n + 1)
    faces = [c for k in range(1, n + 1) for c in combinations(verts, k)]
    return SimplicialComplex.from_faces(faces, n + 1)

def skeleton(K: SimplicialComplex, k: int) -> SimplicialComplex:
    """Faces of K of dimension at most k; K itself when k >= dim K."""
    if k < 0:
        raise ValueError("skeleton dimension must be >= 0")
    if k >= K.dim:
        return K
    faces = [f for d in range(k + 1) for f in K.faces_by_dim[d]]
    return SimplicialComplex.from_faces(faces, K.vertex_count)

def cone(K: SimplicialComplex) -> tuple[SimplicialComplex, int]:
    """Join with a fresh apex (id = old vertex_count); returns (CK, apex)."""
    if K.is_void:
        raise ValueError("cone over the void complex is not supported")
    apex = K.vertex_count
    faces: list[Face] = [(apex,)]
    for f in K.faces():
        faces.append(f)
        faces.append(f + (apex,))
    return SimplicialComplex.from_faces(faces, apex + 1), apex


# -- basic invariants ------------------------------------------------------

def f_vector(K: SimplicialComplex) -> list[int]:
    """Face counts by dimension; empty list for the void complex."""
    return [len(lst) for lst in K.faces_by_dim]

def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** d * len(lst) for d, lst in enumerate(K.faces_by_dim))

def star_link(K: SimplicialComplex, s: Face) -> tuple[set[Face], SimplicialComplex]:
    """Star of s (faces containing s) and link of s (a subcomplex)."""
    s = tuple(s)
    if s not in K.face_index:
        raise ValueError(f"{s!r} is not a face")
    s_set = set(s)
    star = {f for f in K.faces() if s_set.issubset(f)}
    link_faces = []
    for f in K.faces():
        if s_set.isdisjoint(f) and tuple(sorted(s_set.union(f))) in K.face_index:
            link_faces.append(f)
    if not link_faces:
        return star, SimplicialComplex.void(K.vertex_count)
    return star, SimplicialComplex.from_faces(link_faces, K.vertex_count)

def is_full_subcomplex(K: SimplicialComplex, sub) -> bool:
    """Is `sub` a full subcomplex of K?

    `sub` may be a SimplicialComplex (its faces must be faces of K) or a
    bare vertex set, which denotes the induced subcomplex and is full by
    construction.  Fullness means: every face of K whose vertices all lie
    in the subcomplex is itself a face of the subcomplex.
    """
    if isinstance(sub, SimplicialComplex):
        if not K.contains_complex(sub):
            raise ValueError("sub is not a subcomplex of K")
        induced = K.induced(sub.vertices())
        return induced.faces_by_dim == sub.faces_by_dim
    vs = set(sub)
    if not vs.issubset(range(K.vertex_count)):
        raise ValueError("vertex ids outside the universe of K")
    return True

def relabel(K: SimplicialComplex, mapping: Sequence[int] | dict[int, int],
            vertex_count: int) -> SimplicialComplex:
    """Apply an injective vertex map to every face."""
    get = mapping.__getitem__
    faces = [tuple(sorted(get(v) for v in f)) for f in K.faces()]
    return SimplicialComplex.from_faces(faces, vertex_count)


# -- small-instance isomorphism -------------------------------------------

def _degree_and_adjacency(K: SimplicialComplex):
    verts = K.vertices()
    deg: dict[int, list[int]] = {v: [0] * (K.dim + 1) for v in verts}
    for d, lst in enumerate(K.faces_by_dim):
        for f in lst:
            for v in f:
                deg[v][d] += 1
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for (a, b) in K.faces_by_dim[1] if K.dim >= 1 else []:
        adj[a].append(b)
        adj[b].append(a)
    return {v: tuple(d) for v, d in deg.items()}, adj


def _joint_signatures(K: SimplicialComplex, L: SimplicialComplex,
                      ) -> tuple[dict[int, int], dict[int, int]]:
    """Iterated refinement of per-vertex invariants, jointly over K and L.

    Starts from the per-dimension face-degree vector of each vertex and
    refines with sorted neighbour classes over the 1-skeletons.  One shared
    intern table keeps class labels comparable across the two complexes;
    refinement stops when the joint partition stabilises.
    """
    deg_k, adj_k = _degree_and_adjacency(K)
    deg_l, adj_l = _degree_and_adjacency(L)
    intern: dict[tuple, int] = {}
    code_k = {v: intern.setdefault(s, len(intern)) for v, s in deg_k.items()}
    code_l = {v: intern.setdefault(s, len(intern)) for v, s in deg_l.items()}
    n_classes = len(intern)
    while True:
        intern = {}
        nk = {v: intern.setdefault(
            (code_k[v], tuple(sorted(code_k[u] for u in adj_k[v]))),
            len(intern)) for v in code_k}
        nl = {v: intern.setdefault(
            (code_l[v], tuple(sorted(code_l[u] for u in adj_l[v]))),
            len(intern)) for v in code_l}
        if len(intern) == n_classes:
            return nk, nl
        code_k, code_l, n_classes = nk, nl, len(intern)


def is_isomorphic(K: SimplicialComplex, L: SimplicialComplex,
                  node_budget: int = 10_000_000) -> Optional[dict[int, int]]:
    """Search for a face-preserving vertex bijection K -> L.

    Returns the bijection as a dict on 0-face ids, or None if the complexes
    are not isomorphic.  Backtracking is pruned by iterated vertex-class
    refinement and incremental face checks in both directions.  Exceeding
    `node_budget` assignment attempts raises BudgetExceededError; it never
    silently returns None.
    """
    if K.is_void or L.is_void:
        raise ValueError("isomorphism search requires non-void complexes")
    if f_vector(K) != f_vector(L):
        return None
    sig_k, sig_l = _joint_signatures(K, L)
    by_class_l: dict[int, list[int]] = {}
    for v, s in sig_l.items():
        by_class_l.setdefault(s, []).append(v)
    from collections import Counter
    if Counter(sig_k.values()) != Counter(sig_l.values()):
        return None

    verts_k = K.vertices()
    faces_at_k: dict[int, list[Face]] = {v: [] for v in verts_k}
    for f in K.faces():
        for v in f:
            faces_at_k[v].append(f)
    faces_at_l: dict[int, list[Face]] = {v: [] for v in L.vertices()}
    for f in L.faces():
        for v in f:
            faces_at_l[v].append(f)

    mapping: dict[int, int] = {}
    inverse: dict[int, int] = {}
    nodes = 0

    def consistent(v: int, w: int) -> bool:
        # forward: K-faces inside dom(mapping)+v must land on L-faces
        for f in faces_at_k[v]:
            img = []
            ok = True
            for u in f:
                t = w if u == v else mapping.get(u)
                if t is None:
                    ok = False
                    break
                img.append(t)
            if ok and tuple(sorted(img)) not in L.face_index:
                return False
        # reverse: L-faces inside img(mapping)+w must pull back to K-faces
        for g in faces_at_l[w]:
            pre = []
            ok = True
            for u in g:
                t = v if u == w else inverse.get(u)
                if t is None:
                    ok = False
                    break
                pre.append(t)
            if ok and tuple(sorted(pre)) not in K.face_index:
                return False
        return True

    def extend() -> bool:
        nonlocal nodes
        if len(mapping) == len(verts_k):
            return True
        # most-constrained unassigned vertex first
        best_v, best_cands = None, None
        for v in verts_k:
            if v in mapping:
                continue
            cands = [w for w in by_class_l.get(sig_k[v], ()) if w not in inverse]
            if best_cands is None or len(cands) < len(best_cands):
                best_v, best_cands = v, cands
                if len(cands) <= 1:
                    break
        if not best_cands:
            return False
        for w in best_cands:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"isomorphism search exceeded {node_budget} nodes")
            if not consistent(best_v, w):
                continue
            mapping[best_v] = w
            inverse[w] = best_v
            if extend():
                return True
            del mapping[best_v]
            del inverse[w]
        return False

    if extend():
        return dict(mapping)
    return None
