"""Exact integral simplicial homology via sparse Smith normal form.

Boundary convention: the facet of a face mask obtained by removing its i-th
lowest set bit (dropping its i-th vertex in ascending order, i = 0, 1, ...)
carries sign (-1)^i, so the sign alternates with bit position, +1 on the
lowest bit.  Bases are the canonical lex-ordered face lists, so matrices are
reproducible bit for bit.

The Smith normal form is one sparse elimination in the rows of the matrix
(Dumas, Heckenbach, Saunders & Welker 2003).  It first takes unit pivots
only: it goes through the columns in order and pivots each one on the
active row that holds a +-1 there and has the fewest entries (ties to the
lower row), and it repeats the pass until a pass finds no unit.  The
unit-free residual is finished in place by Euclid steps on its smallest
entry: row operations reduce the pivot's column modulo the pivot, column
operations (which touch only the pivot row once its column is clear)
reduce its row, and any smaller remainder becomes the next pivot.  A pivot
left alone in its row and column is a diagonal entry, and its row is
dropped, so every row ends empty.  The gcd/lcm exchange of `divisor_chain`
turns the diagonal into the divisibility chain.  All arithmetic is exact;
Python integers make the growth harmless.

Homology holds one boundary matrix at a time: in increasing degree
(augmentation, then d_1, d_2, ...) each is built, reduced in place on its
own and dropped before the next is built.  The whole chain complex at once,
before excision and pairing, is built only by the tests (`boundary_matrices`
in `tests/oracles.py`).  Only the rank and the torsion carry over: degree d
has n_d - rank d_d - rank d_{d+1} free generators and the torsion of
d_{d+1}.

Before any matrix is built, `_excise` removes complete element matchings
(Jonsson, Simplicial Complexes of Graphs, 2008; Forman, Morse theory for
cell complexes, 1998), and only the faces it leaves are reduced.  R starts
as the faces of the chain complex: the faces of L, read off `faces_by_dim`,
outside the dropped subcomplex, plus the empty face 0 when the chain is
augmented.  For a pair (L, K), K's faces are checked to lie in that one
set, and removed there, before anything is excised; no face index is built.
`_excise` returns a fresh set, sized to what is left, and the chain set is
dropped as it returns, before the first boundary matrix is built.  The
vertices of L are visited once, in ascending order; vertex v is excised
when every f in R with v in f has f ^ v in R, and then all those f and
f ^ v leave R.  Each such step alone is exact over Z, torsion included.
Let A be the faces left out so far: the dropped subcomplex and the stars
excised before v.  A is a subcomplex, and the rule says that the part of
the closed star st v in A is closed under adding v, so it is a cone on v,
as st v is.  Hence C(A + st v, A) = C(st v, st v & A) is acyclic, and the
long exact sequence of the triple makes C(L, A) -> C(L, A + st v) a
quasi-isomorphism.  Where each case enters:

* Reduced absolute homology starts from the augmented chain; the first
  vertex always passes and takes the empty face with it.
* Unreduced absolute homology: without the empty face, the face {v} has no
  partner, so no vertex ever passes.  `homology` computes the reduced
  groups and adds one Z in degree 0.
* Relative homology starts without 0, so the rule refuses any vertex v
  with {v} in R.

R depends only on the face set, not on set iteration order, and the bases
are `faces_by_dim` filtered to R, so they keep the canonical order.

The matrices reduced are those of a Morse complex of R, not of R itself.
`_element_pairs` runs the ascending element matching on R (Jonsson
2008): for each vertex v of L in ascending order, every s in R with
v not in s and s | v in R is paired upward with s | v, and both faces
leave R.  What is left of R are the critical faces, the only basis
elements of the Morse complex (Forman 1998; Skoldberg, Morse theory from
an algebraic viewpoint, 2006; Kozlov, Combinatorial Algebraic Topology,
2008, ch. 11).  Its differential takes a critical face c to

    sum over the facets r of c of [c:r] phi(r),

where phi(r) = r for a critical r; phi(r) = 0 for r matched downward or
not in R; and for r paired upward with s = up[r],

    phi(r) = -[s:r] sum over the facets q != r of s of [s:q] phi(q),

which is r - [s:r] d s with every face paired upward flowed on in turn.
This is exact over Z, torsion included:

* A sequence of element matchings is acyclic on any family of sets: no
  path that goes up along pairs and down along the other incidences of R
  closes a cycle.  So the recursion for phi ends, and `_flow` evaluates it
  with an explicit stack and memoizes it for one degree at a time.
* Each pair (s, s | v) has incidence +-1 in the boundary of R, so the
  division by [s:r] that algebraic Morse theory needs stays in Z.
* Algebraic Morse theory then makes C(R) chain-homotopy equivalent to the
  Morse complex over Z, so its groups are those of C(R).

A residual that lies in one dimension, as M(K7)'s does, has no pairs and
is its own Morse complex.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import gcd

from .complexes import SimplicialComplex


class SparseIntMatrix:
    """Row-major sparse integer matrix; zero entries are never stored."""

    __slots__ = ("rows", "cols", "row")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.row: list[dict[int, int]] = [{} for _ in range(rows)]

    def set(self, r: int, c: int, v: int) -> None:
        if v:
            self.row[r][c] = v
        else:
            self.row[r].pop(c, None)

    def get(self, r: int, c: int) -> int:
        return self.row[r].get(c, 0)

    def nnz(self) -> int:
        return sum(len(d) for d in self.row)

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


def divisor_chain(divisors: Sequence[int]) -> tuple[int, ...]:
    """The positive divisors of a diagonal matrix as the divisibility chain
    d1 | d2 | ... of the same group (Z/x + Z/y = Z/gcd + Z/lcm).

    Units divide everything and are split off up front; the quadratic
    gcd/lcm exchange only runs on the handful of nontrivial entries.
    """
    ones = divisors.count(1)
    ds = sorted(d for d in divisors if d != 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                x, y = ds[i], ds[j]
                if y % x:
                    g = gcd(x, y)
                    ds[i], ds[j] = g, x * y // g
                    changed = True
        if changed:
            ds.sort()
    return (1,) * ones + tuple(ds)


def _reduce_column(rows: list[dict[int, int]], col_rows: list[set[int]],
                   r: int, c: int) -> None:
    """Reduce column c modulo its entry on row r by row operations: every
    other row r2 loses rows[r2][c] // rows[r][c] times row r.  A unit pivot
    clears the column; any other leaves remainders smaller than it."""
    pivot_row = rows[r]
    v = pivot_row[c]
    for r2 in list(col_rows[c]):
        if r2 == r:
            continue
        target = rows[r2]
        q = target[c] // v
        if not q:
            continue
        for c2, x in pivot_row.items():
            nv = target.get(c2, 0) - q * x
            if nv:
                target[c2] = nv
                col_rows[c2].add(r2)
            else:
                del target[c2]
                col_rows[c2].discard(r2)


def smith_normal_form(A: SparseIntMatrix) -> tuple[tuple[int, ...], int]:
    """Elementary divisors d1 | d2 | ... | dr (all positive) and the rank.

    Consumes A: it reduces `A.row` in place and empties every row.
    """
    rows = A.row
    # a matrix with no entries has rank 0; one column set each would cost
    # about 200 MB on the 0 x 823,543 residual d_6 of M(K8)
    if not any(rows):
        return (), 0
    col_rows: list[set[int]] = [set() for _ in range(A.cols)]
    for r, d in enumerate(rows):
        for c in d:
            col_rows[c].add(r)

    # row operations can put a unit into an earlier column, so pass over
    # the columns until a pass finds none
    units = 0
    progress = True
    while progress:
        progress = False
        for c, col in enumerate(col_rows):
            candidates = [(len(rows[r]), r) for r in col if rows[r][c] in (1, -1)]
            if not candidates:
                continue
            r = min(candidates)[1]
            # eliminate column c with row r, then drop the pivot row; the
            # leftover entries of row r are clearable by column operations
            # that touch nothing else, so dropping them costs no fill
            if len(col) > 1:
                _reduce_column(rows, col_rows, r, c)
            for c2 in rows[r]:
                col_rows[c2].discard(r)
            rows[r] = {}
            units += 1
            progress = True

    # unit-free residual: Euclid steps on the smallest entry until the
    # pivot stands alone in its row and column
    residual: list[int] = []
    while any(rows):
        _, r, c = min((abs(v), r, c) for r, d in enumerate(rows)
                      for c, v in d.items())
        while True:
            _reduce_column(rows, col_rows, r, c)
            rest = [(abs(rows[r2][c]), r2) for r2 in col_rows[c] if r2 != r]
            if rest:
                r = min(rest)[1]
                continue
            # column c holds only the pivot, so column operations touch
            # only row r: reduce the row modulo the pivot
            pivot_row = rows[r]
            p = pivot_row[c]
            for c2 in [c2 for c2 in pivot_row if c2 != c]:
                x = pivot_row[c2] % p
                if x:
                    pivot_row[c2] = x
                else:
                    del pivot_row[c2]
                    col_rows[c2].discard(r)
            rest = [(abs(x), c2) for c2, x in pivot_row.items() if c2 != c]
            if rest:
                c = min(rest)[1]
                continue
            residual.append(abs(p))
            rows[r] = {}
            col_rows[c].discard(r)
            break

    divisors = (1,) * units + divisor_chain(residual)
    return divisors, len(divisors)


# -- chain complexes ---------------------------------------------------------

def _chain_faces(L: SimplicialComplex, drop, augment: bool) -> set[int]:
    """The faces of L outside `drop` (a set, a dict or a list of faces),
    plus the empty face 0 when `augment`.  ValueError when some face of
    `drop` is not a face of L."""
    faces: set[int] = set()
    for lst in L.faces_by_dim:
        faces.update(lst)
    if not faces.issuperset(drop):
        raise ValueError("K is not a subcomplex of L")
    faces.difference_update(drop)
    if augment:
        faces.add(0)
    return faces


def _excise(L: SimplicialComplex, residual: set[int]) -> set[int]:
    """The chain faces `residual` (a `_chain_faces` set of L, excised in
    place) left once complete element matchings are excised: each vertex v
    in ascending order whose star in the residual R is a cone on v (f ^ v
    in R for every f in R holding v) takes its star and those faces out of
    R (see the module docstring)."""
    for v in L.faces_by_dim[0]:
        # one scan collects the star and checks it; most vertices fail, and
        # the first face missing its f ^ v stops the scan
        star = []
        for f in residual:
            if f & v:
                if f ^ v not in residual:
                    break
                star.append(f)
        else:
            residual.difference_update(star)
            residual.difference_update([f ^ v for f in star])
    return set(residual)  # a fresh table sized to what is left


def _element_pairs(L: SimplicialComplex, residual: set[int]) -> dict[int, int]:
    """The ascending element matching of the residual R of `_excise`, made
    in place: for each vertex v of L in ascending order, every s in R with
    v not in s and s | v in R is paired upward, and both faces leave R.
    Returns `up`, mapping each lower face s to its partner s | v; R is left
    holding the critical faces (see the module docstring).

    A face is paired with a vertex it holds, so each face waits in the
    bucket of its lowest vertex not yet visited, and a face that leaves R
    waits no more.  Only faces whose size - 1 occurs in R can have a
    partner below them, so a residual in one dimension indexes nothing."""
    sizes = {f.bit_count() for f in residual}
    upper = {k for k in sizes if k - 1 in sizes}
    up: dict[int, int] = {}
    if not upper:
        return up
    buckets: list[list[int] | None] = [[] for _ in range(L.vertex_count)]
    for f in residual:
        if f.bit_count() in upper:
            buckets[(f & -f).bit_length() - 1].append(f)
    for i in range(L.vertex_count):
        v = 1 << i
        above = -(v << 1)  # the bits above v
        for f in buckets[i]:
            if f not in residual:
                continue
            s = f ^ v
            if s in residual:
                up[s] = f
                residual.discard(s)
                residual.discard(f)
            elif rest := f & above:
                buckets[(rest & -rest).bit_length() - 1].append(f)
        buckets[i] = None
    return up


def _flow(r: int, up: dict[int, int], index: dict[int, int],
          memo: dict[int, dict[int, int]]) -> dict[int, int]:
    """phi(r) for a face r paired upward, as {row of `index`: coefficient}:
    -[s:r] sum over the facets q != r of s = up[r] of [s:q] phi(q), where
    phi is the row of a critical face in `index`, memoized in `memo` for a
    face paired upward, and 0 otherwise.  The facets a face waits for are
    flowed first, from an explicit stack; the matching is acyclic, so the
    waits never close a cycle."""
    stack = [r]
    while stack:
        t = stack[-1]
        if t in memo:
            stack.pop()
            continue
        s = up[t]
        x = s
        waits = []
        while x:
            b = x & -x
            q = s ^ b
            if q != t and q in up and q not in memo:
                waits.append(q)
            x ^= b
        if waits:
            stack.extend(waits)
            continue
        acc: dict[int, int] = {}
        sign = 1
        x = s
        while x:
            b = x & -x
            q = s ^ b
            if q == t:
                own = sign
            else:
                pos = index.get(q)
                if pos is not None:
                    acc[pos] = acc.get(pos, 0) + sign
                elif q in memo:
                    for pos, w in memo[q].items():
                        acc[pos] = acc.get(pos, 0) + sign * w
            sign = -sign
            x ^= b
        memo[t] = {pos: -own * w for pos, w in acc.items() if w}
        stack.pop()
    return memo[r]


def _boundaries(L: SimplicialComplex, faces: set[int],
                up: dict[int, int] | None = None) -> Iterator[SparseIntMatrix]:
    """Boundary matrices of the chain complex on the faces `faces` of L, in
    canonical order, one degree at a time; with `up`, the pairs of
    `_element_pairs`, the differentials of its Morse complex on the
    critical faces `faces`.

    Without pairs, `faces` is a `_chain_faces` set or a residual of
    `_excise`, and facets outside it have no row, so with the faces of a
    subcomplex left out this is the quotient complex of the pair.  dd = 0
    holds by construction: L is closed under taking faces, so both paths
    from a face down to each of its codimension-2 faces exist, with
    opposite signs; and when the faces left out form a subcomplex
    (`relative_homology` checks it for the dropped one, and every excision
    step keeps it so), a path through a face left out ends at a face left
    out, which has no row.

    With pairs, column c is the sum over the facets r of c of [c:r] phi(r)
    (`_flow`): a critical facet is its own row, a facet paired upward flows
    along its pair, and any other facet is 0.  dd = 0 holds because the
    Morse complex is a chain complex (see the module docstring).  The tests
    multiply the matrices out (`dd_nonzero` in `tests/oracles.py`).

    No matrix and no flow is kept here once yielded.  The augmentation is
    the boundary down to the empty face, mask 0.
    """
    lower = [0] if 0 in faces else []
    for by_dim in L.faces_by_dim:
        basis = [f for f in by_dim if f in faces]
        index = dict(zip(lower, range(len(lower))))
        m = SparseIntMatrix(len(lower), len(basis))
        rows = m.row
        memo: dict[int, dict[int, int]] = {}
        # with no rows every column is zero, as in a residual in one dimension
        for j, f in enumerate(basis if lower else ()):
            col: dict[int, int] = {}
            sign = 1
            x = f
            while x:
                b = x & -x
                r = f ^ b
                pos = index.get(r)
                if pos is not None:
                    col[pos] = col.get(pos, 0) + sign
                elif up and r in up:
                    for pos, w in _flow(r, up, index, memo).items():
                        col[pos] = col.get(pos, 0) + sign * w
                sign = -sign
                x ^= b
            for pos, w in col.items():
                if w:
                    rows[pos][j] = w
        del index, memo
        yield m
        del m
        lower = basis


class HomologyResult:
    """Betti numbers and torsion divisors per degree."""

    __slots__ = ("groups", "reduced", "void")

    def __init__(self, groups: list[tuple[int, tuple[int, ...]]],
                 reduced: bool, void: bool = False):
        self.groups = groups
        self.reduced = reduced
        self.void = void

    def betti(self, d: int) -> int:
        if 0 <= d < len(self.groups):
            return self.groups[d][0]
        return 0

    def torsion(self, d: int) -> tuple[int, ...]:
        if 0 <= d < len(self.groups):
            return self.groups[d][1]
        return ()

    def nonzero(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        return {d: g for d, g in enumerate(self.groups) if g[0] or g[1]}

    def is_torsion_free(self) -> bool:
        return all(not g[1] for g in self.groups)

    def to_json(self) -> list[dict]:
        return [{"degree": d, "betti": b, "torsion": list(t)}
                for d, (b, t) in enumerate(self.groups)]


def _homology_from_chain(chain: Iterator[SparseIntMatrix],
                         reduced: bool) -> HomologyResult:
    sizes, ranks, torsion = [], [], []
    for m in chain:
        sizes.append(m.cols)
        divisors, rank = smith_normal_form(m)
        del m  # d_d is dropped before d_{d+1} is built
        ranks.append(rank)
        torsion.append(tuple(x for x in divisors if x > 1))
    ranks.append(0)
    torsion.append(())
    groups = [(n - ranks[d] - ranks[d + 1], torsion[d + 1])
              for d, n in enumerate(sizes)]
    return HomologyResult(groups, reduced)


def homology(K: SimplicialComplex, reduced: bool = True) -> HomologyResult:
    """Integral homology; reduced by default.  Void input is a flagged
    empty result, never an error.

    No vertex passes the excision rule without the empty face, so the
    unreduced groups are the reduced ones plus one Z in degree 0."""
    if K.is_void:
        return HomologyResult([], reduced, void=True)
    h = _excised_homology(K, (), True, reduced)
    if not reduced:
        betti, torsion = h.groups[0]
        h.groups[0] = (betti + 1, torsion)
    return h


def relative_homology(L: SimplicialComplex, K: SimplicialComplex,
                      reduced: bool = True) -> HomologyResult:
    """Homology of the quotient chain complex of the pair (L, K).

    K must be a subcomplex of L (literal face containment): ValueError
    otherwise, raised before anything is excised.  For non-void K the
    reduced and unreduced relative groups agree, so the quotient is
    computed without augmentation; a void K degenerates to the absolute
    homology of L.
    """
    if K.is_void:
        return homology(L, reduced)
    return _excised_homology(L, list(K.faces()), False, reduced)


def _excised_homology(L: SimplicialComplex, drop: Sequence[int],
                      augment: bool, reduced: bool) -> HomologyResult:
    """Homology of the chain complex of L outside `drop`, reduced on the
    Morse complex of the element matching of its excised residual.  The
    chain set lives only as the argument of `_excise`, so it is freed as
    `_excise` returns its fresh residual, and the vertex buckets of
    `_element_pairs` as it returns, both before the first boundary
    matrix."""
    residual = _excise(L, _chain_faces(L, drop, augment))
    up = _element_pairs(L, residual)
    return _homology_from_chain(_boundaries(L, residual, up), reduced)
