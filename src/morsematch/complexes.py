"""Finite abstract simplicial complexes with deterministic face indexing.

A face is a vertex bitmask: the int with bit v set for every vertex v of
the face (vertex ids are non-negative; the empty face is implicit and never
stored).  `face_mask` and `face_vertices` convert to and from ascending
vertex lists, the form every JSON document shows.

Within each dimension the face list is in lex order of the ascending vertex
lists, and that order is canonical: it fixes Hasse edge order, boundary
matrix bases, and every on-disk format.  For two faces a != b of one
dimension, a comes first exactly when the lowest bit of a ^ b is in a, so
the order is descending order of the bit-reversed mask.

The void complex (zero faces) is representable; it shows up naturally as the
complex of matchings of a complex without cover pairs.

The standard builders and the facet closure refuse a base complex of more
than MAX_BASE_FACES faces with BudgetExceededError before allocating it.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

Face = int  # vertex bitmask

MAX_BASE_FACES = 1 << 20

# _REVERSE[b] is the byte b with its bit order reversed
_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class BudgetExceededError(RuntimeError):
    """An exhaustive search hit its configured node budget, or a base
    complex has more than MAX_BASE_FACES faces."""


def face_mask(vertices: Iterable[int]) -> Face:
    """Bitmask of a strictly increasing list of non-negative vertex ids."""
    vs = list(vertices)
    if vs != sorted(set(vs)):
        raise ValueError(f"face {vs!r} is not strictly increasing")
    if vs and vs[0] < 0:
        raise ValueError(f"negative vertex id in {vs!r}")
    mask = 0
    for v in vs:
        mask |= 1 << v
    return mask


def face_vertices(mask: Face) -> list[int]:
    """Ascending vertex ids of a face bitmask."""
    if mask < 0:
        raise ValueError(f"negative face bitmask {mask}")
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _check_base_size(what: str, count: int) -> None:
    if count > MAX_BASE_FACES:
        raise BudgetExceededError(
            f"{what} has {count} faces, above the base-complex cap of "
            f"{MAX_BASE_FACES}")


def _closure(facets: Iterable[Face]) -> set[Face]:
    out: set[Face] = set()
    for f in facets:
        k = f.bit_count()
        _check_base_size(f"the closure of a {k}-vertex facet", (1 << k) - 1)
        sub = f
        while sub:
            out.add(sub)
            sub = (sub - 1) & f
        _check_base_size("the facet closure", len(out))
    return out


class SimplicialComplex:
    """Immutable complex: per-dimension face-mask lists in canonical order
    plus an index from mask to (dimension, position).

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
        """Build from an explicit set of face masks; raises if not downward
        closed."""
        face_set = set(faces)
        grouped: dict[int, list[Face]] = {}
        for f in face_set:
            if type(f) is not int or f <= 0:
                raise ValueError(f"face {f!r} is not a non-empty vertex bitmask")
            grouped.setdefault(f.bit_count(), []).append(f)
        used = max(face_set, default=0).bit_length()
        if vertex_count is None:
            vertex_count = used
        elif used > vertex_count:
            raise ValueError(f"vertex id {used - 1} outside universe 0..{vertex_count - 1}")
        nbytes = max((used + 7) // 8, 1)
        faces_by_dim = [grouped.get(k, []) for k in range(1, max(grouped, default=0) + 1)]
        for lst in faces_by_dim:
            lst.sort(key=lambda f: f.to_bytes(nbytes, "little").translate(_REVERSE),
                     reverse=True)
        for lst in faces_by_dim[1:]:
            for f in lst:
                m = f
                while m:
                    b = m & -m
                    if f ^ b not in face_set:
                        raise ValueError(f"face {face_vertices(f)} misses its "
                                         f"facet {face_vertices(f ^ b)}; not a complex")
                    m ^= b
        index: dict[Face, tuple[int, int]] = {}
        for d, lst in enumerate(faces_by_dim):
            index.update(zip(lst, zip(repeat(d), range(len(lst)))))
        return cls(vertex_count, faces_by_dim, index)

    @classmethod
    def from_facets(cls, facets: Iterable[Face], vertex_count: Optional[int] = None,
                    ) -> "SimplicialComplex":
        """Build the downward closure of the given generating face masks."""
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
        return [f.bit_length() - 1 for f in self.faces_by_dim[0]] if self.faces_by_dim else []

    def contains_complex(self, other: "SimplicialComplex") -> bool:
        """Face-set inclusion (vertex ids compared literally)."""
        return all(f in self.face_index for f in other.faces())

    def induced(self, vertex_set: Iterable[int]) -> "SimplicialComplex":
        """Full subcomplex spanned by a vertex subset, on the same universe."""
        vs = 0
        for v in vertex_set:
            vs |= 1 << v
        faces = [f for f in self.faces() if f | vs == vs]
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
    _check_base_size(f"simplex:{n}", (1 << (n + 1)) - 1)
    return SimplicialComplex.from_faces(range(1, 1 << (n + 1)), n + 1)

def build_boundary(n: int) -> SimplicialComplex:
    """All proper non-empty faces of the n-simplex; dimension n - 1.

    n = 0 is rejected: the boundary of a point would be the void complex,
    which is constructible only through operations that naturally yield it.
    """
    if n < 1:
        raise ValueError("boundary requires n >= 1")
    _check_base_size(f"boundary:{n}", (1 << (n + 1)) - 2)
    return SimplicialComplex.from_faces(range(1, (1 << (n + 1)) - 1), n + 1)

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
    _check_base_size("the cone", 2 * K.total_faces() + 1)
    apex = K.vertex_count
    bit = 1 << apex
    faces: list[Face] = [bit]
    for f in K.faces():
        faces.append(f)
        faces.append(f | bit)
    return SimplicialComplex.from_faces(faces, apex + 1), apex


# -- basic invariants ------------------------------------------------------

def f_vector(K: SimplicialComplex) -> list[int]:
    """Face counts by dimension; empty list for the void complex."""
    return [len(lst) for lst in K.faces_by_dim]

def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** d * len(lst) for d, lst in enumerate(K.faces_by_dim))

def star_link(K: SimplicialComplex, s: Face) -> tuple[set[Face], SimplicialComplex]:
    """Star of s (faces containing s) and link of s (a subcomplex)."""
    if s not in K.face_index:
        raise ValueError(f"{face_vertices(s)} is not a face")
    star = {f for f in K.faces() if f & s == s}
    link_faces = [f for f in K.faces() if not f & s and f | s in K.face_index]
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
    bits = {v: 1 << mapping[v] for v in K.vertices()}
    faces = []
    for f in K.faces():
        img = 0
        while f:
            b = f & -f
            img |= bits[b.bit_length() - 1]
            f ^= b
        faces.append(img)
    return SimplicialComplex.from_faces(faces, vertex_count)


# -- small-instance isomorphism -------------------------------------------

def _degree_and_adjacency(K: SimplicialComplex):
    verts = K.vertices()
    deg: dict[int, list[int]] = {v: [0] * (K.dim + 1) for v in verts}
    for d, lst in enumerate(K.faces_by_dim):
        for f in lst:
            for v in face_vertices(f):
                deg[v][d] += 1
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for e in K.faces_by_dim[1] if K.dim >= 1 else []:
        a, b = face_vertices(e)
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
    if Counter(sig_k.values()) != Counter(sig_l.values()):
        return None

    verts_k = K.vertices()
    # the vertex lists of the faces at each vertex
    faces_at_k: dict[int, list[list[int]]] = {v: [] for v in verts_k}
    for f in K.faces():
        vs = face_vertices(f)
        for v in vs:
            faces_at_k[v].append(vs)
    faces_at_l: dict[int, list[list[int]]] = {v: [] for v in L.vertices()}
    for f in L.faces():
        vs = face_vertices(f)
        for v in vs:
            faces_at_l[v].append(vs)

    mapping: dict[int, int] = {}
    inverse: dict[int, int] = {}
    nodes = 0

    def consistent(v: int, w: int) -> bool:
        # forward: K-faces inside dom(mapping)+v must land on L-faces
        for f in faces_at_k[v]:
            img = 0
            for u in f:
                t = w if u == v else mapping.get(u)
                if t is None:
                    break
                img |= 1 << t
            else:
                if img not in L.face_index:
                    return False
        # reverse: L-faces inside img(mapping)+w must pull back to K-faces
        for g in faces_at_l[w]:
            pre = 0
            for u in g:
                t = v if u == w else inverse.get(u)
                if t is None:
                    break
                pre |= 1 << t
            else:
                if pre not in K.face_index:
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
