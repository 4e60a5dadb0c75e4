"""Exact integral simplicial homology via sparse Smith normal form.

Boundary convention: the facet of a face mask obtained by clearing its i-th
lowest set bit (dropping its i-th vertex in ascending order, i = 0, 1, ...)
carries sign (-1)^i, so the sign alternates with bit position, +1 on the
lowest bit.  Bases are the canonical lex-ordered face lists, so matrices are
reproducible bit for bit.

The Smith normal form first eliminates with unit pivots only: it goes
through the columns in order and pivots each one on the active row that
holds a +-1 there and has the fewest entries (ties to the lower row), and it
repeats the pass until a pass finds no unit.  A dense textbook reduction
finishes the unit-free residual.  All arithmetic is exact; Python integers
make the growth harmless.

Homology holds one boundary matrix at a time: in increasing degree
(augmentation, then d_1, d_2, ...) each is built, reduced in place and
dropped before the next is built.  Only the rank, the torsion and the
clearing set carry over: the columns Q where the unit elimination of d_d
pivoted, on rows P, are faces of degree d, and d_{d+1} skips those rows.
This leaves its divisors and rank unchanged:

* A pivot row changes only by subtracting earlier pivot rows, so the pivot
  block factors as d_d[P, Q] = L U with L unit lower triangular and U
  triangular with a +-1 diagonal; det d_d[P, Q] = +-1.
* From d_d d_{d+1} = 0, d_{d+1}[Q, :] = -d_d[P, Q]^-1 d_d[P, Q'] d_{d+1}[Q', :]
  (Q' the other faces of degree d), an integer combination of the kept
  rows, which unimodular row operations zero.

The argument needs only dd = 0 and P among the rows of d_d, so it holds
when d_d was itself reduced with rows skipped, and for the quotient complex
of a pair.  Pivots of the dense residual do not feed the clearing.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

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


def _dense_smith(M: list[list[int]]) -> list[int]:
    """Textbook Smith reduction of a dense integer matrix, in place.

    Returns the diagonal divisors as a divisibility chain of positive
    integers.
    """
    nr = len(M)
    nc = len(M[0]) if nr else 0
    divisors: list[int] = []
    t = 0
    while True:
        pivot = None
        for i in range(t, nr):
            Mi = M[i]
            for j in range(t, nc):
                v = Mi[j]
                if v and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
                    if abs(v) == 1:
                        break
            if pivot is not None and abs(pivot[2]) == 1:
                break
        if pivot is None:
            break
        i, j, _ = pivot
        M[t], M[i] = M[i], M[t]
        if j != t:
            for row in M:
                row[t], row[j] = row[j], row[t]
        while True:
            if M[t][t] < 0:
                M[t] = [-x for x in M[t]]
            p = M[t][t]
            restart = False
            for i in range(t + 1, nr):
                v = M[i][t]
                if v:
                    q = v // p
                    if q:
                        Mt = M[t]
                        Mi = M[i]
                        for k in range(t, nc):
                            Mi[k] -= q * Mt[k]
                    if M[i][t]:
                        M[t], M[i] = M[i], M[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, nc):
                v = M[t][j]
                if v:
                    q = v // p
                    if q:
                        for row in M:
                            row[j] -= q * row[t]
                    if M[t][j]:
                        for row in M:
                            row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the rest of the submatrix for a proper chain
            dirty = False
            for i in range(t + 1, nr):
                Mi = M[i]
                for j in range(t + 1, nc):
                    if Mi[j] % p:
                        Mt = M[t]
                        for k in range(t, nc):
                            Mt[k] += Mi[k]
                        dirty = True
                        break
                if dirty:
                    break
            if not dirty:
                break
        divisors.append(M[t][t])
        t += 1
    return divisors


def smith_normal_form(A: SparseIntMatrix,
                      skip_rows: set[int] | frozenset[int] = frozenset(),
                      unit_pivots: set[int] | None = None
                      ) -> tuple[tuple[int, ...], int]:
    """Elementary divisors d1 | d2 | ... | dr (all positive) and the rank.

    Consumes A: it reduces `A.row` in place and leaves only the unit-free
    residual there.  Rows in `skip_rows` are emptied and left out; the
    caller vouches that they are integer combinations of the other rows
    (see the module docstring).  The columns where the unit elimination
    pivots are added to `unit_pivots` when it is given.
    """
    rows = A.row
    for r in skip_rows:
        rows[r] = {}
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
            pivot_row = rows[r]
            v = pivot_row[c]
            for r2 in list(col):
                if r2 == r:
                    continue
                target = rows[r2]
                q = target[c] * v  # v is +-1, so q == target[c] / v
                for c2, x in pivot_row.items():
                    nv = target.get(c2, 0) - q * x
                    if nv:
                        target[c2] = nv
                        col_rows[c2].add(r2)
                    else:
                        del target[c2]
                        col_rows[c2].discard(r2)
            for c2 in pivot_row:
                col_rows[c2].discard(r)
            rows[r] = {}
            units += 1
            if unit_pivots is not None:
                unit_pivots.add(c)
            progress = True

    # unit-free residual: finish densely
    live_rows = [r for r in range(A.rows) if rows[r]]
    live_cols = sorted({c for r in live_rows for c in rows[r]})
    residual: list[int] = []
    if live_rows:
        col_pos = {c: j for j, c in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for i, r in enumerate(live_rows):
            for c, v in rows[r].items():
                dense[i][col_pos[c]] = v
        residual = _dense_smith(dense)

    # units divide everything and the residual is already a positive chain
    divisors = [1] * units + residual
    return tuple(divisors), len(divisors)


# -- chain complexes ---------------------------------------------------------

def boundary_matrices(K: SimplicialComplex,
                      reduced: bool = True) -> list[SparseIntMatrix]:
    """Every boundary matrix of K in the canonical bases, all at once.

    Entry d maps C_d to C_{d-1} for d >= 1; entry 0 is the augmentation (one
    row of ones) when reduced, else a 0 x n_0 matrix.  This materialized
    form is for tests and oracles; `homology` streams the same matrices one
    degree at a time (dd = 0: see `_boundaries`).
    """
    if K.is_void:
        raise ValueError("void complex has no chain complex")
    return list(_boundaries(K, frozenset(), reduced))


def _boundaries(L: SimplicialComplex, drop,
                augment: bool) -> Iterator[SparseIntMatrix]:
    """Boundary matrices of the chain complex on the faces of L outside
    `drop`, in canonical order, one degree at a time.

    Facets that fall in `drop` have no row, so with drop = the faces of a
    subcomplex this is the quotient complex of the pair.  dd = 0 holds by
    construction: L is closed under taking faces, so both paths from a face
    down to each of its codimension-2 faces exist, with opposite signs; and
    when `drop` is a subcomplex (`relative_homology` checks it), a path
    through a dropped face ends at a dropped face, which has no row.  The
    tests multiply the matrices out (`dd_nonzero` in `tests/oracles.py`).

    No matrix is kept here once yielded.  The augmentation is the boundary
    down to the empty face, mask 0.
    """
    lower = [0] if augment else []
    for faces in L.faces_by_dim:
        basis = [f for f in faces if f not in drop]
        yield _boundary(lower, basis)
        lower = basis


def _boundary(lower: list[int], basis: list[int]) -> SparseIntMatrix:
    """The boundary from the faces `basis` to the faces `lower`."""
    index = dict(zip(lower, range(len(lower))))
    m = SparseIntMatrix(len(lower), len(basis))
    rows = m.row
    for j, f in enumerate(basis):
        sign = 1
        x = f
        while x:
            b = x & -x
            pos = index.get(f ^ b)
            if pos is not None:
                rows[pos][j] = sign
            sign = -sign
            x ^= b
    return m


@dataclass
class HomologyResult:
    """Betti numbers and torsion divisors per degree."""
    groups: list[tuple[int, tuple[int, ...]]]
    reduced: bool
    void: bool = False

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
    # increasing degree: the unit pivot columns of d_d are faces of degree d,
    # the rows of d_{d+1} that those pivots already decide
    sizes, ranks, torsion = [], [], []
    cleared: set[int] = set()
    for m in chain:
        sizes.append(m.cols)
        pivots: set[int] = set()
        divisors, rank = smith_normal_form(m, cleared, pivots)
        del m  # d_d is dropped before d_{d+1} is built
        ranks.append(rank)
        torsion.append(tuple(x for x in divisors if x > 1))
        cleared = pivots
    ranks.append(0)
    torsion.append(())
    groups = [(n - ranks[d] - ranks[d + 1], torsion[d + 1])
              for d, n in enumerate(sizes)]
    return HomologyResult(groups, reduced)


def homology(K: SimplicialComplex, reduced: bool = True) -> HomologyResult:
    """Integral homology; reduced by default.  Void input is a flagged
    empty result, never an error."""
    if K.is_void:
        return HomologyResult([], reduced, void=True)
    return _homology_from_chain(_boundaries(K, frozenset(), reduced), reduced)


def relative_homology(L: SimplicialComplex, K: SimplicialComplex,
                      reduced: bool = True) -> HomologyResult:
    """Homology of the quotient chain complex of the pair (L, K).

    K must be a subcomplex of L (literal face containment).  For non-void K
    the reduced and unreduced relative groups agree, so the quotient is
    computed without augmentation; a void K degenerates to the absolute
    homology of L.
    """
    if K.is_void:
        return homology(L, reduced)
    if not L.contains_complex(K):
        raise ValueError("K is not a subcomplex of L")
    return _homology_from_chain(_boundaries(L, K.face_index, False), reduced)
