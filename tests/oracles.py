"""Independent reference implementations used only by the tests.

Nothing here shares code with the package: acyclicity is decided on the
whole modified digraph, matchings are enumerated by filtering raw subsets,
critical faces are read off a per-edge scan, vertex-permutation orbits
come from every permutation, Smith normal forms come from sympy, and
dd = 0 is checked by multiplying the boundary matrices out.  These are the
slow-but-obvious routes the fast implementations are checked against.
The exceptions: `boundary_matrices`, the whole chain complex at once,
which the package's `homology` never builds, is made of the package's own
boundary matrices, so that dd = 0 and the SNF are checked on them;
`morse_matching_defect` checks pairs the package made, on its own DFS; the
list-based layer transfer at the end reads the package's layer tables and
checks only the packed coefficient arithmetic; the path-search layer
enumerator reads the package's `Layer` records; and the eager walk reads
the package's layer lists.
"""

from __future__ import annotations

from itertools import combinations, permutations

from morsematch.homology import _boundaries, _chain_faces


def modified_digraph_acyclic(H, mask: int) -> bool:
    """Cycle test on the full modified Hasse digraph, all layers at once."""
    n = len(H.face_of_gid)
    succ: list[list[int]] = [[] for _ in range(n)]
    for e in range(H.edge_count):
        lo, up = H.lower[e], H.upper[e]
        if (mask >> e) & 1:
            succ[lo].append(up)
        else:
            succ[up].append(lo)
    color = [0] * n  # 0 white, 1 grey, 2 black
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 1:
                    return False
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return True


def pairwise_disjoint(H, edges: tuple[int, ...]) -> bool:
    seen = set()
    for e in edges:
        lo, up = H.edge_faces(e)
        if lo in seen or up in seen:
            return False
        seen.add(lo)
        seen.add(up)
    return True


def brute_force_counts(H, mode: str) -> list[int]:
    """Counts of matchings by cardinality from raw subset filtering.

    Exponential in the edge count; callers keep it under ~18 edges.
    """
    assert H.edge_count <= 18, "brute force oracle limited to small diagrams"
    counts = [0] * (H.edge_count + 1)
    ids = range(H.edge_count)
    for k in range(1, H.edge_count + 1):
        for edges in combinations(ids, k):
            if not pairwise_disjoint(H, edges):
                continue
            mask = 0
            for e in edges:
                mask |= 1 << e
            if mode == "acyclic" and not modified_digraph_acyclic(H, mask):
                continue
            counts[k] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts[1:]


def all_matchings(H, mode: str) -> list[int]:
    """Every non-empty matching as an edge mask, by plain recursion over
    face-disjoint edge sets; mode "acyclic" keeps those whose modified
    digraph is acyclic."""
    out: list[int] = []

    def rec(start: int, mask: int, used: frozenset) -> None:
        for e in range(start, H.edge_count):
            lo, up = H.lower[e], H.upper[e]
            if lo in used or up in used:
                continue
            out.append(mask | (1 << e))
            rec(e + 1, mask | (1 << e), used | {lo, up})

    rec(0, 0, frozenset())
    if mode == "acyclic":
        out = [m for m in out if modified_digraph_acyclic(H, m)]
    return out


def counts_by_cardinality(masks) -> list[int]:
    """Dense f-vector: entry k-1 counts the masks with k bits."""
    sizes = [bin(m).count("1") for m in masks]
    return [sizes.count(k) for k in range(1, max(sizes, default=0) + 1)]


def snf_divisors_sympy(dense: list[list[int]]) -> tuple[int, ...]:
    """Elementary divisor chain of an integer matrix via sympy."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    if not dense or not dense[0]:
        return ()
    s = smith_normal_form(Matrix(dense), domain=ZZ)
    out = []
    for i in range(min(s.rows, s.cols)):
        v = int(s[i, i])
        if v:
            out.append(abs(v))
    return tuple(sorted(out))


def dd_nonzero(mats) -> tuple[int, int, int] | None:
    """First nonzero entry (degree d, row, column) of a product
    d_{d-1} d_d of the boundary matrices `mats` (entry d is d_d), or None
    when every product vanishes.  Row i of d_{d-1} d_d is the sum over mid
    of d_{d-1}[i, mid] times row mid of d_d."""
    for d in range(1, len(mats)):
        upper = mats[d].row
        for i, lower_row in enumerate(mats[d - 1].row):
            acc: dict[int, int] = {}
            for mid, w in lower_row.items():
                for j, v in upper[mid].items():
                    acc[j] = acc.get(j, 0) + w * v
            for j in sorted(acc):
                if acc[j]:
                    return d, i, j
    return None


def morse_matching_defect(family, pairs) -> str | None:
    """Why `pairs` ((lower, upper) face masks) is not an acyclic matching
    with unit incidences on the face family `family`, or None when it is.

    Each face is taken apart into its vertex list; the incidence of a
    pair is (-1)^i when dropping the i-th vertex of upper gives lower, and
    0 otherwise.  Acyclicity is a DFS over the modified Hasse digraph of
    the whole family: every face points to each of its facets in the
    family, except that a pair points from lower to upper."""
    family = set(family)
    matched: set[int] = set()
    reversed_edges = set()
    for lo, up in pairs:
        if lo not in family or up not in family:
            return f"pair {_bits(lo)} < {_bits(up)} leaves the family"
        if lo in matched or up in matched:
            return f"pair {_bits(lo)} < {_bits(up)} meets another pair"
        matched.update((lo, up))
        vs = _bits(up)
        incidence = [(-1) ** i for i in range(len(vs))
                     if vs[:i] + vs[i + 1:] == _bits(lo)]
        if incidence not in ([1], [-1]):
            return f"pair {_bits(lo)} < {_bits(up)} has incidence {incidence}"
        reversed_edges.add((lo, up))
    succ: dict[int, list[int]] = {f: [] for f in family}
    for f in family:
        vs = _bits(f)
        for i in range(len(vs)):
            g = sum(1 << v for v in vs[:i] + vs[i + 1:])
            if g not in family:
                continue
            if (g, f) in reversed_edges:
                succ[g].append(f)
            else:
                succ[f].append(g)
    color = dict.fromkeys(family, 0)  # 0 white, 1 grey, 2 black
    for root in sorted(family):
        if color[root]:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 1:
                    return f"the pairs close a cycle through {_bits(nxt)}"
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return None


def boundary_matrices(K, reduced: bool = True) -> list:
    """Every boundary matrix of K in the canonical bases, all at once,
    before any excision.  Entry d maps C_d to C_{d-1} for d >= 1; entry 0
    is the augmentation (one row of ones) when reduced, else a 0 x n_0
    matrix."""
    return list(_boundaries(K, _chain_faces(K, frozenset(), reduced)))


def critical_faces(H, mask: int) -> list[list[int]]:
    """Faces untouched by the matching `mask` of the diagram H: entry d
    lists the critical d-faces in canonical order, read off the set bits
    of the unmatched-gid mask.  ValueError when two edges share a face."""
    used = 0
    m = mask
    while m:
        b = m & -m
        e = b.bit_length() - 1
        m ^= b
        fm = (1 << H.lower[e]) | (1 << H.upper[e])
        if used & fm:
            raise ValueError("input is not a matching")
        used |= fm
    by_dim: list[list[int]] = [[] for _ in range(H.base.dim + 1)]
    free = ((1 << len(H.face_of_gid)) - 1) ^ used
    while free:
        b = free & -free
        f = H.face_of_gid[b.bit_length() - 1]
        by_dim[f.bit_count() - 1].append(f)
        free ^= b
    return by_dim


def orbit_reps_by_permutations(V: int, d: int) -> list[int]:
    """rep[m]: the least image of m under all V! permutations of range(V),
    m a mask over the (d+1)-subsets of range(V) in lex order."""
    faces = list(combinations(range(V), d + 1))
    index = {f: i for i, f in enumerate(faces)}
    images = [[index[tuple(sorted(p[v] for v in f))] for f in faces]
              for p in permutations(range(V))]
    return [min(sum(1 << img[i] for i in bits) for img in images)
            for bits in map(_bits, range(1 << len(faces)))]


# -- the list-based layer transfer -------------------------------------------
# Count vectors as lists, one coefficient add at a time: the reference for
# the packed-int arithmetic of `morsematch.layers.suffix_tables`.

def _vec_add_scaled(dst: list[int], src: list[int], mult: int, shift: int) -> None:
    need = len(src) + shift
    if len(dst) < need:
        dst.extend([0] * (need - len(dst)))
    for k, v in enumerate(src):
        if v:
            dst[k + shift] += mult * v


def list_suffix_tables(ls, acyclic: bool) -> list[list[list[int]]]:
    """S[d][U][k]: number of ways to match layers d.. with k pairs total,
    avoiding the lower faces in U (a bitmask over dimension d's tracked
    faces).  S[0] and S[D] have a single entry."""
    D = ls.D
    S: list = [None] * (D + 1)
    S[D] = [[1]]
    for d in range(D - 1, -1, -1):
        w = ls.tracked[d]
        size = 1 << w
        low, up_low = ls.tracked_mask[d], ls.tracked_mask[d + 1]
        q: list[list[int]] = [[] for _ in range(size)]
        nxt = S[d + 1]
        for (lmask, umask, s), mult in ls.classes(d, acyclic).items():
            _vec_add_scaled(q[lmask & low], nxt[umask & up_low], mult, s)
        # zeta transform: q[V] becomes the sum over all L subset of V
        for i in range(w):
            bit = 1 << i
            for m in range(size):
                if m & bit and q[m ^ bit]:
                    _vec_add_scaled(q[m], q[m ^ bit], 1, 0)
        full = size - 1
        S[d] = [q[full ^ u] for u in range(size)]
    return S


# -- the path-search layer enumerator ------------------------------------------
# One depth-first search per accepted pair: the reference for the candidate
# masks and the reach closure of `morsematch.layers._enumerate_layer`.

def _closes_cycle(facets, matched: dict[int, int], up: int, lo: int) -> bool:
    """Is there a path from upper face `up` down to lower face `lo` through
    matched pairs, leaving `up` by any facet but `lo`?"""
    stack = [matched[s] for s in facets[up] if s != lo and s in matched]
    seen = set(stack)
    while stack:
        for s in facets[stack.pop()]:
            if s == lo:
                return True
            t = matched.get(s)
            if t is not None and t not in seen:
                seen.add(t)
                stack.append(t)
    return False


def layer_matchings_reference(layer, acyclic: bool) -> list[tuple[int, int, int]]:
    """(lower, upper, edge_mask) of every matching of a `Layer`, by DFS over
    its edges in canonical order, testing each later edge for a shared face
    and, with `acyclic`, for a closed cycle.  Each matching is listed after
    the matchings that extend it, so the empty matching comes last."""
    out = []
    edges = layer.edges_local
    matched: dict[int, int] = {}  # lower local -> upper local

    def rec(start: int, lmask: int, umask: int, emask: int) -> None:
        for i in range(start, len(edges)):
            e, lo, up = edges[i]
            if (lmask >> lo) & 1 or (umask >> up) & 1:
                continue
            if acyclic and _closes_cycle(layer.upper_facets, matched, up, lo):
                continue
            nm = (lmask | (1 << lo), umask | (1 << up), emask | (1 << e))
            matched[lo] = up
            rec(i + 1, *nm)
            del matched[lo]
            out.append(nm)

    rec(0, 0, 0, 0)
    out.append((0, 0, 0))
    return out


# -- orders and walks over the package's layer lists ---------------------------

def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def by_size_in_canonical_order(masks) -> list[list[int]]:
    """Non-empty masks grouped by bit count, entry k - 1 holding those of
    k bits in lex order of their ascending bit lists."""
    groups: dict[int, list[int]] = {}
    for m in masks:
        groups.setdefault(m.bit_count(), []).append(m)
    return [sorted(groups.get(k, []), key=_bits)
            for k in range(1, max(groups, default=0) + 1)]


def eager_walk(ls, target: int, acyclic: bool, S) -> list[int]:
    """The packed matchings of `target` pairs in the order of the layer
    walk, read from an index built first over every layer's whole list:
    layers bottom up, at each layer the groups whose tracked lower mask
    avoids the faces the layer below covered, by increasing mask, each
    group in list order.  Above layer 0 a group's matchings have one pair
    per face of its mask, so a mask of more faces than pairs left is
    skipped; a branch is entered only when the suffix tables `S` leave it
    a completion of the right size."""
    index = []
    for d, lay in enumerate(ls.layers):
        groups: dict[int, list[int]] = {}
        for x in ls.matchings(d, acyclic):
            key = x >> lay.lower_shift & ls.tracked_mask[d]
            groups.setdefault(key, []).append(x)
        index.append(groups)
    out: list[int] = []

    def rec(d: int, avoid: int, k: int, acc: int) -> None:
        if d == ls.D:
            out.append(acc)
            return
        lay = ls.layers[d]
        for sub in sorted(index[d]):
            if sub & avoid or d and sub.bit_count() > target - k:
                continue
            for x in index[d][sub]:
                size = x.bit_count() // 3
                upper = x >> lay.upper_shift
                vec = S[d + 1][upper & ls.tracked_mask[d + 1]]
                need = target - k - size
                if 0 <= need < len(vec) and vec[need]:
                    rec(d + 1, upper, k + size, acc | x)

    if ls.D:
        rec(0, 0, 0, 0)
    elif target == 0:
        out.append(0)
    return out
