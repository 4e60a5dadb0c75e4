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

`SimplicialComplex.from_faces` is the entry for face sets from outside the
package: it checks that every face is a positive bitmask inside the vertex
universe and that the set is downward closed.  The package's own builders
produce sets that are closed by construction, so they skip those checks.
The standard families, `skeleton`, `cone`, `induced`, the facet closure,
`relabel` under a map that is not increasing and the MP variant of
`morse.build_matching_complex` call `_from_closed`, which sorts.
`relabel` under an increasing map and the M and GM variants produce each
dimension's faces already in canonical order and call `_from_sorted`,
which only stores them.  The tests hold every builder to the checked
entry.

The index from a face mask to its position in its dimension's list,
`face_index`, is built on first access: a Hasse diagram and a containment
test read it, and `homology` never builds it, so a matching complex that
is only reduced never holds one.

The standard builders and the facet closure refuse a base complex of more
than MAX_BASE_FACES faces with BudgetExceededError, the package's one
refusal type, before allocating it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

Face = int  # vertex bitmask

MAX_BASE_FACES = 1 << 20

# _REVERSE[b] is the byte b with its bit order reversed
_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class BudgetExceededError(RuntimeError):
    """A limit refuses the work before it starts: the base cap
    (MAX_BASE_FACES), the width rule (`layers.check_width`), a matching
    complex's projected face count, or a verifier's visit budget."""


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


def _check_base_size(what: str, count: int | str) -> None:
    if isinstance(count, str) or count > MAX_BASE_FACES:
        raise BudgetExceededError(
            f"{what} has {count} faces, above the base-complex cap of "
            f"{MAX_BASE_FACES}")


def _check_power_size(what: str, k: int, less: int) -> None:
    """_check_base_size for 2^k - less faces, less in {1, 2}: past the cap's
    bit length plus one, the count is over it and passed as a str, unbuilt."""
    big = k > MAX_BASE_FACES.bit_length() + 1
    _check_base_size(what, f"2^{k} - {less}" if big else (1 << k) - less)


def _universe(faces: set[Face], vertex_count: Optional[int]) -> int:
    """Vertex count of face masks from outside the package, by default the
    highest vertex used plus one; ValueError unless every mask is a
    positive int inside it."""
    for f in faces:
        if type(f) is not int or f <= 0:
            raise ValueError(f"face {f!r} is not a non-empty vertex bitmask")
    used = max(faces, default=0).bit_length()
    if vertex_count is None:
        return used
    if used > vertex_count:
        raise ValueError(f"vertex id {used - 1} outside universe 0..{vertex_count - 1}")
    return vertex_count


def _closure(facets: Iterable[Face]) -> set[Face]:
    out: set[Face] = set()
    for f in facets:
        k = f.bit_count()
        _check_power_size(f"the closure of a {k}-vertex facet", k, 1)
        sub = f
        while sub:
            out.add(sub)
            sub = (sub - 1) & f
        _check_base_size("the facet closure", len(out))
    return out


class SimplicialComplex:
    """Immutable complex: per-dimension face-mask lists in canonical order
    (the dimension of a mask f is f.bit_count() - 1), and on first access
    an index from mask to its position in its dimension's list.

    Instances must be built through the classmethods or the module-level
    constructors: `from_faces` validates a face set from outside, and every
    other constructor yields a complex by construction.
    """

    __slots__ = ("vertex_count", "faces_by_dim", "_face_index")

    def __init__(self, vertex_count: int, faces_by_dim: list[list[Face]]):
        self.vertex_count = vertex_count
        self.faces_by_dim = faces_by_dim
        self._face_index: Optional[dict[Face, int]] = None

    @property
    def face_index(self) -> dict[Face, int]:
        """Position of each face mask in its dimension's list, built on
        first access.  The dimensions share one list of positions, so a
        position is one int object however many dimensions hold it."""
        if self._face_index is None:
            positions = list(range(max(map(len, self.faces_by_dim), default=0)))
            index: dict[Face, int] = {}
            for lst in self.faces_by_dim:
                index.update(zip(lst, positions))
            self._face_index = index
        return self._face_index

    @classmethod
    def from_faces(cls, faces: Iterable[Face], vertex_count: Optional[int] = None,
                   ) -> "SimplicialComplex":
        """Build from an explicit set of face masks, the entry for input from
        outside the package.  Raises ValueError for a face that is not a
        positive int, a vertex outside 0..vertex_count-1 (the universe
        defaults to the highest vertex used) or a set that is not downward
        closed.  The package's own builders skip these checks through
        `_from_closed`, since their face sets are complexes by
        construction."""
        face_set = set(faces)
        cx = cls._from_closed(face_set, _universe(face_set, vertex_count))
        for lst in cx.faces_by_dim[1:]:
            for f in lst:
                m = f
                while m:
                    b = m & -m
                    if f ^ b not in face_set:
                        raise ValueError(f"face {face_vertices(f)} misses its "
                                         f"facet {face_vertices(f ^ b)}; not a complex")
                    m ^= b
        return cx

    @classmethod
    def _from_closed(cls, faces: Iterable[Face], vertex_count: int,
                     ) -> "SimplicialComplex":
        """Build from distinct positive face masks inside the universe that
        are downward closed, none of which is checked: group them by
        dimension and sort each group canonically."""
        grouped: dict[int, list[Face]] = {}
        for f in faces:
            grouped.setdefault(f.bit_count(), []).append(f)
        nbytes = max((vertex_count + 7) // 8, 1)
        faces_by_dim = [grouped.get(k, []) for k in range(1, max(grouped, default=0) + 1)]
        for lst in faces_by_dim:
            lst.sort(key=lambda f: f.to_bytes(nbytes, "little").translate(_REVERSE),
                     reverse=True)
        return cls._from_sorted(faces_by_dim, vertex_count)

    @classmethod
    def _from_sorted(cls, faces_by_dim: list[list[Face]], vertex_count: int,
                     ) -> "SimplicialComplex":
        """Build from the face lists of a complex, entry d listing the
        d-faces in canonical order, none of which is checked: store them."""
        return cls(vertex_count, faces_by_dim)

    @classmethod
    def from_facets(cls, facets: Iterable[Face], vertex_count: Optional[int] = None,
                    ) -> "SimplicialComplex":
        """Build the downward closure of the given generating face masks,
        checked as `from_faces` checks its faces; the closure is downward
        closed by construction."""
        facet_set = set(facets)
        vertex_count = _universe(facet_set, vertex_count)
        return cls._from_closed(_closure(facet_set), vertex_count)

    @classmethod
    def void(cls, vertex_count: int = 0) -> "SimplicialComplex":
        return cls(vertex_count, [])

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
        return SimplicialComplex._from_closed(faces, self.vertex_count)

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
    _check_power_size(f"simplex:{n}", n + 1, 1)
    return SimplicialComplex._from_closed(range(1, 1 << (n + 1)), n + 1)

def build_boundary(n: int) -> SimplicialComplex:
    """All proper non-empty faces of the n-simplex; dimension n - 1.

    n = 0 is rejected: the boundary of a point would be the void complex,
    which is constructible only through operations that naturally yield it.
    """
    if n < 1:
        raise ValueError("boundary requires n >= 1")
    _check_power_size(f"boundary:{n}", n + 1, 2)
    return SimplicialComplex._from_closed(range(1, (1 << (n + 1)) - 1), n + 1)

def skeleton(K: SimplicialComplex, k: int) -> SimplicialComplex:
    """Faces of K of dimension at most k; K itself when k >= dim K."""
    if k < 0:
        raise ValueError("skeleton dimension must be >= 0")
    if k >= K.dim:
        return K
    faces = [f for d in range(k + 1) for f in K.faces_by_dim[d]]
    return SimplicialComplex._from_closed(faces, K.vertex_count)

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
    return SimplicialComplex._from_closed(faces, apex + 1), apex


# -- basic invariants ------------------------------------------------------

def f_vector(K: SimplicialComplex) -> list[int]:
    """Face counts by dimension; empty list for the void complex."""
    return [len(lst) for lst in K.faces_by_dim]

def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** d * len(lst) for d, lst in enumerate(K.faces_by_dim))

def is_full_subcomplex(K: SimplicialComplex, sub: SimplicialComplex) -> bool:
    """Is the subcomplex `sub` of K full: is every face of K whose vertices
    all lie in `sub` a face of `sub`?  ValueError when some face of `sub`
    is not a face of K."""
    if not K.contains_complex(sub):
        raise ValueError("sub is not a subcomplex of K")
    return K.induced(sub.vertices()).faces_by_dim == sub.faces_by_dim

def relabel(K: SimplicialComplex, mapping: Sequence[int] | dict[int, int],
            vertex_count: int) -> SimplicialComplex:
    """Apply an injective vertex map to every face.  ValueError when the
    map sends a vertex of K outside 0..vertex_count-1 or two vertices of K
    to one: the image of a complex under an injective map into the
    universe is a complex, so the faces are built unchecked.

    A map increasing on the vertices of K, such as every induced inclusion
    the package builds, keeps the order of ascending vertex lists, so each
    dimension's image is already in canonical order and is not sorted;
    any other map's image is sorted."""
    bits = {}
    for v in K.vertices():
        w = mapping[v]
        if type(w) is not int or not 0 <= w < vertex_count:
            raise ValueError(f"vertex {v} maps to {w!r}, outside universe "
                             f"0..{vertex_count - 1}")
        bits[v] = 1 << w
    images = list(bits.values())  # in vertex order
    if len(set(images)) < len(images):
        raise ValueError("vertex map is not injective on the vertices of K")
    faces_by_dim = []
    for lst in K.faces_by_dim:
        out = []
        for f in lst:
            img = 0
            while f:
                b = f & -f
                img |= bits[b.bit_length() - 1]
                f ^= b
            out.append(img)
        faces_by_dim.append(out)
    if all(a < b for a, b in zip(images, images[1:])):
        return SimplicialComplex._from_sorted(faces_by_dim, vertex_count)
    return SimplicialComplex._from_closed(
        [f for lst in faces_by_dim for f in lst], vertex_count)
