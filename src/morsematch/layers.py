"""Layer-by-layer transfer: the one engine that counts, walks and
materializes matchings on a Hasse diagram.

A matching decomposes uniquely into per-layer matchings (layer p holds the
pairs joining dimensions p and p+1), adjacent layers interact only through
the faces of the shared dimension, and acyclicity is a per-layer condition.
Counting therefore reduces to a transfer computation over subsets of each
dimension's shared faces: enumerate the matchings of every layer once, then
convolve counts across layers with a subset-sum (zeta) transform.  The
transfer keeps each count vector (counts by number of pairs) packed into one
Python int, W = edge_count + 1 bits per slot, so a layer matching costs one
shifted int add; no slot can overflow (see `suffix_tables`).

Only a face that is an upper face of layer d-1 and a lower face of layer d
(dimension >= 1, at least one coface) can be claimed from both sides, so
only those faces are tracked by the subset tables.  A dimension with more
than WIDTH_LIMIT tracked faces is refused with BudgetExceededError by
`check_width`, which reads the faces alone and otherwise returns each
dimension's tracked faces.  `LayerSystem` takes the complex, runs
`check_width` first and only then builds the Hasse diagram, so a refused
complex never gets one; the returned sets order its local indices.
Vertices and top faces are never tracked, so every 1-dimensional complex
is admitted.

A layer matching is one int, `edge_mask | lower << E + o[p] | upper <<
E + o[p+1]` for layer p, with o = `H.offsets`: the global Hasse-edge
bitmask below E = edge_count (a layer's edges are a contiguous range of
edge ids), then the local bitmasks over the layer's lower and upper faces
at the global positions of their dimensions.  Layer p's upper faces and
layer p+1's lower faces share dimension p+1, its local order and its
position, and a matching covers each face at most once, so OR-ing a
matching's layer parts gives, above bit E, exactly the faces it covers,
dimension by dimension, each in local order (tracked faces first).  Each
pair sets one bit of each part, so its pair count is `x.bit_count() //
3`; `Layer.unpack` splits it into (lower, upper, edge_mask).  Ints are
never tracked by the cycle collector, and one int takes about a third of
the memory of a 3-tuple.  `_enumerate_layer` lists
them by a DFS that carries a bitmask of the still-compatible later edges,
and, for acyclic matchings, a closure of the lower faces each matched face
reaches, so a pair closing a cycle is refused with a few ORs and no path
search.  `LayerSystem` owns everything derived from (K, acyclic): the
layer matchings, and the suffix tables that `suffix_tables` memoizes on
it.

On a full skeleton of a simplex on V vertices (`_full_skeleton`), the
vertex permutations act on every layer, and `suffix_tables` fills each
layer d >= 1 over the orbits of its lower masks: it enumerates only the
matchings whose lower faces are an orbit's least mask, one mask at a time,
and copies the sum to the rest of the orbit; the rest of the orbit also
shares the representative's unpacked table row, one list per orbit.  The
orbit table `_orbit_reps(V, d)` depends on (V, d) alone, so it is built
once per process and shared by every base and call.  The tables are those
of the full enumeration (see `suffix_tables`), and counting keeps no layer
list but layer 0's.  The DFS set-up of a layer (`Layer.dfs`: edge
positions, per-position conflict masks) is computed once per `Layer` and
reused by every enumeration of it, whatever `acyclic` and the lower mask.

A layer's matchings come out in the canonical order of their edge masks,
the empty matching last (see `_enumerate_layer`), and every edge of layer
d follows every edge of layer d-1.  So the per-layer product is in
canonical order too: `matching_faces(ls, acyclic)` lists every matching
by size in that order, the faces of M and GM with no sort.  It is the
one full enumeration of matchings.  The matchings of layers d.. that can
follow the layers below depend only on the tracked faces of dimension d
those leave blocked, so the product is built top down, each such suffix
once per blocked set and grouped by pair count (`_suffix`), and shared
by every matching of the layer below that blocks that set.

There is one walk over the product,
`iter_matchings_of_cardinality(ls, target, acyclic)`: it yields the
matchings of `target` pairs, the system's suffix tables serving as exact
lookahead, as (acc, group) pairs.  acc is the OR of a matching's parts
in the layers below the top, edge mask and covered faces, and group the
list of top-layer matchings that complete it; a group depends only on
the tracked faces acc leaves free and the pairs left, so it is built
once per walk for each and shared by every prefix that has them.  At
each node the walk takes the submasks of the tracked faces the layer
below left free, in increasing order, so the order of `acc | x` over the
pairs and their members is fixed (see its docstring), and it lists a
submask's layer matchings, `_enumerate_layer(layer, acyclic, submask)`,
only when it first reaches it.  `profile_counts(ls, target, acyclic)`
tallies that walk, one group at a time.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from itertools import combinations
from math import comb
from typing import Iterator

from .complexes import BudgetExceededError, SimplicialComplex
from .hasse import build_hasse

WIDTH_LIMIT = 18  # largest subset table: 2^WIDTH_LIMIT entries


def check_width(K: SimplicialComplex) -> list[set[int]]:
    """The tracked faces of each dimension d of K, 0 <= d <= max(dim, 0):
    the faces of dimension d >= 1 that some (d+1)-face contains, so none
    of dimension 0 or of the top dimension.  Raises BudgetExceededError
    for the lowest dimension with more than WIDTH_LIMIT of them."""
    out = [set()]
    for d in range(1, K.dim):
        tracked = set()
        for f in K.faces_by_dim[d + 1]:
            m = f
            while m:
                b = m & -m
                tracked.add(f ^ b)
                m ^= b
        if len(tracked) > WIDTH_LIMIT:
            raise BudgetExceededError(
                f"dimension {d} has {len(tracked)} tracked faces; its "
                f"subset table would need 2^{len(tracked)} entries "
                f"(limit 2^{WIDTH_LIMIT})")
        out.append(tracked)
    if K.dim >= 1:
        out.append(set())
    return out


class Layer:
    """The cover pairs between dimensions p and p + 1, in local indices.
    No __slots__: `dfs` is cached in the instance dict."""

    def __init__(self, lower_index: dict[int, int],
                 edges_local: list[tuple[int, int, int]],
                 upper_facets: list[list[int]],
                 lower_shift: int, upper_shift: int):
        # lower gid -> lower local
        self.lower_index = lower_index
        # (edge id, lower local, upper local), canonical edge order
        self.edges_local = edges_local
        # upper local -> lower locals of all its facets
        self.upper_facets = upper_facets
        # bit positions of the lower and upper parts of a packed matching
        self.lower_shift = lower_shift
        self.upper_shift = upper_shift

    def unpack(self, x: int) -> tuple[int, int, int]:
        """(lower, upper, edge_mask) of a packed layer matching."""
        return ((x >> self.lower_shift) & ((1 << len(self.lower_index)) - 1),
                x >> self.upper_shift, x & ((1 << self.lower_shift) - 1))

    @cached_property
    def dfs(self) -> tuple[list[int], list[tuple[int, int, int, int]],
                           list[int]]:
        """The set-up of `_enumerate_layer`, computed once per layer:
        `block`, each lower face's edge positions as a bitmask; `steps`,
        per edge position (bits, keep, lo, up): the bits the pair sets in
        a packed matching, the later positions compatible with it, and its
        lower and upper face; and `facet_mask`, each upper face's facets
        as a bitmask.  Only ints, lists and tuples, so caching it on the
        layer makes no reference cycle."""
        edges = self.edges_local
        n = len(edges)
        # block_end[i]: one past the last position of edge i's lower face
        block_end = list(range(1, n + 1))
        for i in range(n - 2, -1, -1):
            if edges[i][1] == edges[i + 1][1]:
                block_end[i] = block_end[i + 1]
        at_upper: list[list[int]] = [[] for _ in self.upper_facets]
        block = [0] * len(self.lower_index)
        for i, (_, lo, up) in enumerate(edges):
            at_upper[up].append(i)
            block[lo] |= 1 << i
        steps = []
        for i, (e, lo, up) in enumerate(edges):
            keep = (1 << n) - (1 << block_end[i])
            for j in at_upper[up]:
                if j >= block_end[i]:
                    keep ^= 1 << j
            bits = 1 << e | 1 << (self.lower_shift + lo) \
                | 1 << (self.upper_shift + up)
            steps.append((bits, keep, lo, up))
        facet_mask = [sum(1 << s for s in f) for f in self.upper_facets]
        return block, steps, facet_mask


class LayerSystem:
    """Layer matchings and suffix tables, each kept per value of `acyclic`,
    over the Hasse diagram `H` of a complex.

    Raises BudgetExceededError, before the diagram is built, when a
    dimension has more than WIDTH_LIMIT tracked faces.  Local indices of
    each dimension list its tracked faces first, so a local mask projects
    onto the subset-table index with `& tracked_mask[d]`.
    """

    def __init__(self, K: SimplicialComplex):
        tracked = check_width(K)
        self.H = H = build_hasse(K)
        self.D = max(K.dim, 0)  # number of layers, 0 for a void base
        # each dimension's gids, tracked first, each part in gid order
        order = [sorted(range(H.offsets[d], H.offsets[d + 1]),
                        key=lambda g: H.face_of_gid[g] not in tracked[d])
                 for d in range(self.D + 1)]
        self.tracked = [len(t) for t in tracked]
        self.tracked_mask = [(1 << t) - 1 for t in self.tracked]
        index = [{g: i for i, g in enumerate(gids)} for gids in order]
        E = H.edge_count
        self.layers: list[Layer] = []
        for p in range(self.D):
            lo_i, up_i = index[p], index[p + 1]
            edges_local = [(e, lo_i[H.lower[e]], up_i[H.upper[e]])
                           for e in range(H.edge_count) if H.layer_of[e] == p]
            upper_facets = [[lo_i[s] for s in H.facets_of[g]]
                            for g in order[p + 1]]
            self.layers.append(Layer(lo_i, edges_local, upper_facets,
                                     E + H.offsets[p], E + H.offsets[p + 1]))
        self._matchings: dict[tuple[int, bool], list[int]] = {}
        self._suffix: dict[bool, list[list[list[int]]]] = {}

    def matchings(self, d: int, acyclic: bool) -> list[int]:
        """All matchings within one layer, packed, in canonical order: the
        empty matching last (see `_enumerate_layer`)."""
        key = (d, acyclic)
        if key not in self._matchings:
            self._matchings[key] = _enumerate_layer(self.layers[d], acyclic)
        return self._matchings[key]

    def classes(self, d: int, acyclic: bool) -> dict[tuple[int, int, int], int]:
        """Matching counts aggregated by (lower mask, upper mask, size)."""
        unpack = self.layers[d].unpack
        return dict(Counter((lower, upper, lower.bit_count()) for lower, upper, _
                            in map(unpack, self.matchings(d, acyclic))))


def _enumerate_layer(layer: Layer, acyclic: bool,
                     lower: int | None = None) -> list[int]:
    """Every matching of the layer, packed (see the module docstring), in
    the canonical order of its edge mask, so the empty matching 0 comes
    last.  With `lower`, a mask over the layer's lower faces, only the
    matchings whose lower faces are exactly `lower`, in the same order.

    Canonical order puts mask a before mask b when the lowest bit of a ^ b
    is in a (see `complexes`).  The DFS takes edge positions, which are in
    edge id order, lowest first, and lists a matching after its subtree:
    its extensions hold it and higher bits, so they precede it, and the
    subtree of a lower position precedes that of a higher one.  With
    `lower` every listed matching has |lower| pairs and none extends
    another, so only the leaves are listed, in the same order.

    A node holds `cand`, the bitmask of later edge positions still
    compatible with its pairs; it takes them lowest first, and a child
    gets the rest less the taken edge's conflicts, so no conflicting edge
    is visited.  The edges of one lower face are a contiguous block of
    positions, in the order of the local lower indices that have edges,
    and those of an upper face one per facet; `keep` of a position clears
    its own block and its upper face's later edges.  With `lower`, a node
    branches only on the block of the lowest face of `lower` still
    unmatched, and only a node that has matched all of `lower` is listed.
    The positions, blocks and `keep` masks depend on the layer alone, not
    on `acyclic` or `lower`: they are `Layer.dfs`, computed on the first
    call and shared by every later one, such as the one call per orbit
    representative of the symmetric fill in `suffix_tables`.

    With `acyclic`, `reach[s]` is the bitmask of lower faces reachable in
    the modified digraph from matched lower face s, up to its partner and
    down.  Pair (lo, up) closes a cycle exactly when lo is reachable from
    up through its other facets.  A child gets a copy of `reach` with
    `reach[lo]` set and OR-ed into every entry that reached lo.
    """
    every = lower is None
    out: list[int] = []
    facets = layer.upper_facets
    block, steps, facet_mask = layer.dfs

    def rec(cand: int, x: int, reach: dict[int, int], todo: int) -> None:
        # todo: the faces of `lower` not yet matched (0 without `lower`)
        pick = cand
        if not every:
            face = todo & -todo
            todo ^= face
            pick &= block[face.bit_length() - 1]
        while pick:
            b = pick & -pick
            pick ^= b
            bits, keep, lo, up = steps[b.bit_length() - 1]
            if acyclic:
                lb = 1 << lo
                r = facet_mask[up] ^ lb
                for s in facets[up]:
                    if s in reach:
                        r |= reach[s]
                if r & lb:
                    continue
            y = x | bits
            if not (every or todo):
                out.append(y)
                continue
            c = cand & keep
            if c:
                if acyclic:
                    child = reach.copy()
                    for s, m in reach.items():
                        if m & lb:
                            child[s] = m | r
                    child[lo] = r
                    rec(c, y, child, todo)
                else:
                    rec(c, y, reach, todo)
            if every:
                out.append(y)  # after its extensions, which precede it

    if lower != 0:
        rec((1 << len(steps)) - 1, 0, {}, lower or 0)
    if not lower:
        out.append(0)
    # rec reaches itself through its closure; unbinding it breaks that
    # cycle, so the matchings are freed with their LayerSystem
    del rec
    return out


def _full_skeleton(K: SimplicialComplex) -> int | None:
    """V when K is a full skeleton of a simplex on its V vertices
    (dimension d holds all C(V, d+1) vertex subsets), None for any other
    base.  Only the face counts are read."""
    V = len(K.faces_by_dim[0]) if K.faces_by_dim else 0
    if any(len(faces) != comb(V, d + 1)
           for d, faces in enumerate(K.faces_by_dim)):
        return None
    return V


@cache
def _orbit_reps(V: int, d: int) -> list[int]:
    """rep[m]: the least mask in the S_V-orbit of m, a mask over the
    (d+1)-subsets of range(V) in lex order (bit i for the i-th subset).
    S_V is generated by the transposition (0 1) and the cycle v -> v+1
    mod V; the orbit's least mask does not depend on the generators.

    Depends on (V, d) alone, so it is built once per process and shared by
    every caller: callers must not mutate it."""
    faces = [sum(1 << v for v in c) for c in combinations(range(V), d + 1)]
    index = {f: i for i, f in enumerate(faces)}
    full = (1 << V) - 1
    # (0 1) swaps bits 0 and 1 of a face that holds one of them
    images = [[index[f ^ 3 if (f & 3) in (1, 2) else f] for f in faces],
              [index[(f << 1 | f >> (V - 1)) & full] for f in faces]]
    size = 1 << len(faces)
    maps = []
    for img in images:
        out = [0] * size
        for m in range(1, size):
            low = m & -m
            out[m] = out[m ^ low] | 1 << img[low.bit_length() - 1]
        maps.append(out)
    rep = [-1] * size
    for m in range(size):
        if rep[m] < 0:
            # m is the least mask not yet reached, so it is its orbit's least
            rep[m] = m
            stack = [m]
            while stack:
                x = stack.pop()
                for out in maps:
                    y = out[x]
                    if rep[y] < 0:
                        rep[y] = m
                        stack.append(y)
    return rep


def suffix_tables(ls: LayerSystem, acyclic: bool) -> list[list[list[int]]]:
    """S[d][U][k]: number of ways to match layers d.. with k pairs total,
    avoiding the lower faces in U (a bitmask over dimension d's tracked
    faces).  S[0] and S[D] have a single entry.  A vector has no trailing
    zeros, and is empty where no matching avoids U.  Computed once per
    `acyclic` and memoized on `ls`; callers must not mutate the result,
    whose rows may be shared (see below).

    The transfer packs each vector into one int, slot k in bits
    [k*W, (k+1)*W) with W = edge_count + 1: a vector sum is one int add and
    a shift by s pairs is `<< s*W`.  No slot can carry into the next: every
    slot of a table entry, and of every partial sum of the zeta transform,
    counts distinct sets of k Hasse edges, so it is at most
    C(edge_count, k) < 2^W.  The tables are unpacked into lists at the end.

    On a full skeleton on V vertices (see `_full_skeleton`), q[L] of a
    layer d >= 1 is computed only for the least mask L of each S_V-orbit,
    from the layer matchings whose lower faces are exactly L, and copied
    to the rest of the orbit; the orbits are read from `_orbit_reps(V, d)`,
    one shared table per (V, d) and process.  That table acts on the lex
    order of the (d+1)-subsets of range(V), which is the local order of
    layer d: every d-face with 1 <= d < D is tracked, so local order is
    canonical order, which the increasing relabelling of the vertices onto
    range(V) keeps, whatever the vertex ids.  This is exact because the
    vertex permutations are automorphisms of the base: S[D] = [[1]] is
    invariant, and a layer's matchings from L onto an upper set correspond
    one to one, pair count and acyclicity kept, to those from the image of
    L onto the image set, so by induction every table is invariant and
    q[L] depends only on L's orbit.  So is S[d][U]: only the least mask of
    each orbit gets its row unpacked, and every other U holds that same
    list, `S[d][U] is S[d][rep[U]]`.
    """
    if acyclic in ls._suffix:
        return ls._suffix[acyclic]
    V = _full_skeleton(ls.H.base)
    D = ls.D
    W = ls.H.edge_count + 1
    slot = (1 << W) - 1
    S: list = [None] * (D + 1)
    S[D] = [[1]]
    nxt = [1]  # packed S[d + 1]
    for d in range(D - 1, -1, -1):
        w = ls.tracked[d]
        size = 1 << w
        low, up_low = ls.tracked_mask[d], ls.tracked_mask[d + 1]
        lay = ls.layers[d]
        lo_shift, up_shift = lay.lower_shift, lay.upper_shift
        # a packed matching sets three bits per pair: k bits lift by k // 3 slots
        lift = [k // 3 * W for k in range(3 * len(lay.edges_local) + 1)]
        q = [0] * size
        rep = None
        if V is not None and d:
            rep = _orbit_reps(V, d)
            for L in range(size):
                if rep[L] < L:
                    q[L] = q[rep[L]]
                    continue
                acc = 0
                for x in _enumerate_layer(lay, acyclic, L):
                    acc += nxt[x >> up_shift & up_low] << lift[x.bit_count()]
                q[L] = acc
        else:
            for x in ls.matchings(d, acyclic):
                q[x >> lo_shift & low] += \
                    nxt[x >> up_shift & up_low] << lift[x.bit_count()]
        # zeta transform: q[U] becomes the sum over all L subset of U
        for i in range(w):
            bit = 1 << i
            for m in range(size):
                if m & bit:
                    q[m] += q[m ^ bit]
        # nxt[u] = q of the complement of u, which is q[size - 1 - u]
        nxt = q[::-1]
        S[d] = rows = []
        for u, v in enumerate(nxt):
            if rep is not None and rep[u] < u:
                rows.append(rows[rep[u]])  # the representative's own list
                continue
            vec = []
            while v:
                vec.append(v & slot)
                v >>= W
            rows.append(vec)
    ls._suffix[acyclic] = S
    return S


def max_cardinality_info(vec: list[int]) -> tuple[int, int]:
    """(maximum cardinality, count at the maximum) from a count vector
    without trailing zeros, such as a suffix-table entry."""
    return len(vec) - 1, vec[-1]


def _fitting(fits: dict[int, list[int]], blocked: int, shift: int,
             ) -> list[int]:
    """The matchings of fits[0] whose lower faces (at bit `shift` of a
    packed matching) avoid the mask `blocked`, in the order of fits[0].
    Each is filtered from the list of `blocked` less its highest face,
    and every list on the way is kept in `fits`."""
    xs = fits[0]
    sub, rest = 0, blocked
    while rest:
        low = rest & -rest
        rest ^= low
        sub |= low
        nxt = fits.get(sub)
        if nxt is None:
            bit = low << shift
            nxt = fits[sub] = [x for x in xs if not x & bit]
        xs = nxt
    return xs


def _suffix(ls: LayerSystem, fits: list[dict[int, list[int]]],
            memo: list[dict[int, list[list[int]]]], d: int, blocked: int,
            ) -> list[list[int]]:
    """The edge masks of the matchings of layers d.. whose layer-d lower
    faces avoid `blocked`, a mask over dimension d's tracked faces: entry
    k lists those of k pairs in canonical order.  Built once per (d,
    blocked) and kept in memo[d]; fits[d] holds layer d's filtered lists
    (see `_fitting`).  A module function, not a closure, so the memo
    makes no reference cycle.

    Every edge of layer d precedes every edge of the layers above, so a
    matching of layer d followed by the suffix above it, both in
    canonical order, is in canonical order; the suffix above depends only
    on the tracked faces of dimension d + 1 that the layer-d matching
    covers.  The last layer groups its fitting matchings by pair count."""
    groups = memo[d].get(blocked)
    if groups is not None:
        return groups
    lay = ls.layers[d]
    edges = (1 << ls.H.edge_count) - 1
    groups = memo[d][blocked] = []
    xs = _fitting(fits[d], blocked, lay.lower_shift)
    if d == ls.D - 1:
        for x in xs:
            k = x.bit_count() // 3
            while len(groups) <= k:
                groups.append([])
            groups[k].append(x & edges)
        return groups
    up_shift, up_low = lay.upper_shift, ls.tracked_mask[d + 1]
    for x in xs:
        above = _suffix(ls, fits, memo, d + 1, x >> up_shift & up_low)
        e, k = x & edges, x.bit_count() // 3
        while len(groups) < k + len(above):
            groups.append([])
        for j, ss in enumerate(above, k):
            groups[j].extend([e | s for s in ss] if e else ss)
    return groups


def matching_faces(ls: LayerSystem, acyclic: bool) -> list[list[int]]:
    """The edge masks of every non-empty matching, entry k - 1 listing
    those of k pairs in canonical order: the `faces_by_dim` of the complex
    of matchings, with no sort.

    Each layer's list is in canonical order (`LayerSystem.matchings`), and
    every edge of layer d follows every edge of layer d-1.  The product is
    built top down (`_suffix`): the matchings of layers d.. that fit below
    a given set of blocked tracked faces of dimension d are built once per
    set, grouped by pair count in canonical order, and shared by every
    matching of layer d-1 that blocks that set.  Layer 0 has no tracked
    faces, so its one suffix, less the empty matching, is the product.
    """
    if not ls.D:
        return []
    fits = [{0: ls.matchings(d, acyclic)} for d in range(ls.D)]
    memo: list[dict[int, list[list[int]]]] = [{} for _ in range(ls.D)]
    return _suffix(ls, fits, memo, 0, 0)[1:]


def iter_matchings_of_cardinality(ls: LayerSystem, target: int, acyclic: bool,
                                  ) -> Iterator[tuple[int, list[int]]]:
    """Yield every matching with exactly `target` pairs, as (acc, group)
    pairs: acc is the OR of the packed matchings of the layers below the
    top, and group the non-empty list of top-layer matchings that complete
    it, each of the pairs still to place, so the matchings are `acc | x`
    for x in group.  Such a value holds the matching's edge mask below bit
    E = edge_count, and above it the faces it covers, at `E +
    H.offsets[d]` for dimension d in local order (see the module
    docstring).  `y & ((1 << E) - 1)` is the edge mask, and the faces it
    leaves critical are `full ^ (y >> E)`, full holding one bit per face.
    A group depends only on the tracked faces that acc leaves free at the
    top layer's lower dimension and on the pairs left, and is built once
    per walk for each: prefixes that share them get the same list, which
    callers must not mutate.  With no layers, the one pair is (0, [0]) for
    target 0, the empty matching.

    Layers are filled bottom up, the suffix tables pruning every branch
    that cannot complete.  At layer d the tracked faces that the layer
    below left unmatched are free; their submasks are taken in increasing
    order, and each submask's layer matchings (those whose lower faces are
    exactly that submask) in canonical order; a top-layer group is the
    concatenation of those lists, less the matchings of another pair
    count.  So flattening the pairs gives a fixed order.  Layer 0 has no
    tracked faces, so its one submask group is its whole list.  A submask
    group of layer d >= 1 is listed by `_enumerate_layer(layer, acyclic,
    submask)` when the walk first reaches it with a submask whose size the
    pairs still to place allow, and kept for the rest of the walk.
    """
    D = ls.D
    S = suffix_tables(ls, acyclic)
    # groups[d][submask]: the layer-d matchings with exactly those lower faces
    groups: list[dict[int, list[int]]] = [{} for _ in range(D)]
    if D:
        groups[0][0] = ls.matchings(0, acyclic)
    # (free tracked faces, pairs left) -> the top-layer group that completes
    tops: dict[tuple[int, int], list[int]] = {}

    def listed(d: int, free: int, fewest: int, rest: int,
               ) -> Iterator[list[int]]:
        # the submask groups of the free faces, of fewest..rest faces
        memo = groups[d]
        sub = 0
        while True:
            if fewest <= sub.bit_count() <= rest:
                group = memo.get(sub)
                if group is None:
                    group = memo[sub] = _enumerate_layer(ls.layers[d],
                                                         acyclic, sub)
                yield group
            sub = (sub - free) & free
            if not sub:
                break

    def rec(d: int, avoid: int, k_acc: int, acc: int,
            ) -> Iterator[tuple[int, list[int]]]:
        # acc ORs the packed matchings of the layers below
        free = ls.tracked_mask[d] & ~avoid
        rest = target - k_acc  # pairs still to place
        nxt = S[d + 1]
        # above layer 0 every lower face is tracked, so a group's
        # matchings have as many pairs as its submask has bits, and the
        # layers above add at most len(nxt[0]) - 1
        fewest = rest - len(nxt[0]) + 1 if d else 0
        if d == D - 1:
            # nothing lies above the top layer, so its matchings complete
            # the walk with exactly the pairs still to place
            top = tops.get((free, rest))
            if top is None:
                top = tops[free, rest] = [
                    x for group in listed(d, free, fewest, rest)
                    for x in group if x.bit_count() // 3 == rest]
            if top:
                yield acc, top
            return
        up_shift = ls.layers[d].upper_shift
        up_low = ls.tracked_mask[d + 1]
        for group in listed(d, free, fewest, rest):
            for x in group:
                upper = x >> up_shift
                size = x.bit_count() // 3
                need = rest - size
                vec = nxt[upper & up_low]
                if 0 <= need < len(vec) and vec[need]:
                    yield from rec(d + 1, upper, k_acc + size, acc | x)

    try:
        if D:
            yield from rec(0, 0, 0, 0)
        elif target == 0:
            yield 0, [0]  # no layers: the empty matching is the only one
    finally:
        # break rec's self-reference, also when the walk is abandoned, so
        # the groups are freed without the cycle collector
        del rec


def profile_counts(ls: LayerSystem, target: int, acyclic: bool,
                   ) -> dict[tuple[int, ...], int]:
    """Counts of cardinality-`target` matchings by per-layer pair profile,
    tallied over the walk.  The members of a group all lie in the top
    layer and have one pair count, so they share their prefix's profile,
    read off the first."""
    layer_edges = [sum(1 << e for e, _, _ in lay.edges_local)
                   for lay in ls.layers]
    out: Counter = Counter()
    for acc, group in iter_matchings_of_cardinality(ls, target, acyclic):
        y = acc | group[0]
        out[tuple([(y & le).bit_count() for le in layer_edges])] += len(group)
    return dict(out)


def matching_counts(K: SimplicialComplex, mode: str = "acyclic") -> list[int]:
    """f-vector of the complex of matchings of K (counts by cardinality
    >= 1): of the acyclic matchings for mode "acyclic", of all matchings
    for mode "all".

    Raises ValueError for any other mode, and BudgetExceededError when a
    dimension has more than WIDTH_LIMIT tracked faces.
    """
    if mode not in ("acyclic", "all"):
        raise ValueError(f"mode must be 'acyclic' or 'all', got {mode!r}")
    return suffix_tables(LayerSystem(K), mode == "acyclic")[0][0][1:]


def enumerate_optimal(K: SimplicialComplex) -> tuple[int, int]:
    """Maximum acyclic matching cardinality on K and the number of
    matchings that reach it, counted through the layer transfer; (0, 1)
    when K has no Hasse edges, whose one matching is the empty one."""
    return max_cardinality_info(suffix_tables(LayerSystem(K), True)[0][0])
