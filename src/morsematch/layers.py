"""Layer-by-layer transfer: the one engine that counts, walks and
materializes matchings on a Hasse diagram.

A matching decomposes uniquely into per-layer matchings (layer p holds the
pairs joining dimensions p and p+1), adjacent layers interact only through
the faces of the shared dimension, and acyclicity is a per-layer condition.
Counting therefore reduces to a transfer computation over subsets of each
dimension's shared faces: enumerate the matchings of every layer once, then
convolve counts across layers with a subset-sum (zeta) transform.

Only a face that is an upper face of layer d-1 and a lower face of layer d
(dimension >= 1, at least one coface) can be claimed from both sides, so
only those faces are tracked by the subset tables.  A dimension with more
than WIDTH_LIMIT tracked faces is refused with LayeredInfeasibleError.
Vertices and top faces are never tracked, so every 1-dimensional complex
is admitted.

The suffix tables double as exact lookahead for walking only the matchings
of a prescribed cardinality; `iter_matchings` walks all of them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .hasse import HasseDiagram, _layer_path_exists

WIDTH_LIMIT = 18  # largest subset table: 2^WIDTH_LIMIT entries


class LayeredInfeasibleError(RuntimeError):
    """A dimension has more tracked faces than a subset table may index."""


@dataclass
class Layer:
    p: int
    lower_gids: list[int]
    upper_gids: list[int]
    lower_index: dict[int, int]
    upper_index: dict[int, int]
    # (edge id, lower local, upper local), canonical edge order
    edges_local: list[tuple[int, int, int]]
    # upper local -> lower locals of all its facets
    upper_facets: list[list[int]]


@dataclass(slots=True)
class LayerMatching:
    edge_mask: int   # global edge-index bitmask
    lower: int       # local bitmask over the layer's lower faces
    upper: int       # local bitmask over the layer's upper faces
    size: int


class LayerSystem:
    """Cached per-layer matching lists and their (lower, upper, size) classes.

    Local indices of each dimension list its tracked faces first, so a local
    mask projects onto the subset-table index with `& tracked_mask[d]`.
    """

    def __init__(self, H: HasseDiagram):
        self.H = H
        self.D = H.base.dim  # number of layers
        order: list[list[int]] = []
        self.tracked: list[int] = []
        for d in range(self.D + 1):
            gids = range(H.offsets[d], H.offsets[d + 1])
            shared = [g for g in gids if d and H.edges_up[g]]
            if len(shared) > WIDTH_LIMIT:
                raise LayeredInfeasibleError(
                    f"dimension {d} has {len(shared)} tracked faces; its "
                    f"subset table would need 2^{len(shared)} entries "
                    f"(limit 2^{WIDTH_LIMIT})")
            order.append(shared + [g for g in gids if not (d and H.edges_up[g])])
            self.tracked.append(len(shared))
        self.tracked_mask = [(1 << t) - 1 for t in self.tracked]
        index = [{g: i for i, g in enumerate(gids)} for gids in order]
        self.layers: list[Layer] = []
        for p in range(self.D):
            lo_i, up_i = index[p], index[p + 1]
            edges_local = [(e, lo_i[H.lower[e]], up_i[H.upper[e]])
                           for e in range(H.edge_count) if H.layer_of[e] == p]
            upper_facets = [[lo_i[s] for s in H.facets_of[g]]
                            for g in order[p + 1]]
            self.layers.append(Layer(p, order[p], order[p + 1], lo_i, up_i,
                                     edges_local, upper_facets))
        self._matchings: dict[tuple[int, bool], list[LayerMatching]] = {}
        self._classes: dict[tuple[int, bool], dict] = {}

    def matchings(self, d: int, acyclic: bool) -> list[LayerMatching]:
        """All matchings within one layer, empty matching included."""
        key = (d, acyclic)
        if key not in self._matchings:
            self._matchings[key] = _enumerate_layer(self.layers[d], acyclic)
        return self._matchings[key]

    def classes(self, d: int, acyclic: bool) -> dict[tuple[int, int, int], int]:
        """Matching counts aggregated by (lower mask, upper mask, size)."""
        key = (d, acyclic)
        if key not in self._classes:
            agg: Counter = Counter()
            for m in self.matchings(d, acyclic):
                agg[(m.lower, m.upper, m.size)] += 1
            self._classes[key] = dict(agg)
        return self._classes[key]


def _enumerate_layer(layer: Layer, acyclic: bool) -> list[LayerMatching]:
    """DFS over the layer's edges in canonical order; empty matching first."""
    out = [LayerMatching(0, 0, 0, 0)]
    edges = layer.edges_local
    n = len(edges)
    facets = layer.upper_facets
    matched: dict[int, int] = {}  # lower local -> upper local

    def rec(start: int, emask: int, lmask: int, umask: int, size: int) -> None:
        for i in range(start, n):
            e, lo, up = edges[i]
            if (lmask >> lo) & 1 or (umask >> up) & 1:
                continue
            if acyclic and _layer_path_exists(facets, matched, up, lo):
                continue
            nm = LayerMatching(emask | (1 << e), lmask | (1 << lo),
                               umask | (1 << up), size + 1)
            out.append(nm)
            if acyclic:
                matched[lo] = up
            rec(i + 1, nm.edge_mask, nm.lower, nm.upper, nm.size)
            if acyclic:
                del matched[lo]

    rec(0, 0, 0, 0, 0)
    return out


def _vec_add_scaled(dst: list[int], src: list[int], mult: int, shift: int) -> None:
    need = len(src) + shift
    if len(dst) < need:
        dst.extend([0] * (need - len(dst)))
    for k, v in enumerate(src):
        if v:
            dst[k + shift] += mult * v


def suffix_tables(ls: LayerSystem, acyclic: bool) -> list[list[list[int]]]:
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


def max_cardinality_info(vec: list[int]) -> tuple[int, int]:
    """(maximum cardinality, count at the maximum) from a count vector."""
    top = len(vec) - 1
    while top > 0 and vec[top] == 0:
        top -= 1
    return top, vec[top]


def profile_counts(ls: LayerSystem, S: list, target: int, acyclic: bool,
                   ) -> dict[tuple[int, ...], int]:
    """Counts of cardinality-`target` matchings by per-layer pair profile.

    Walks layer classes with exact suffix lookahead, so only states that
    complete to the target cardinality are expanded.
    """
    D = ls.D
    by_lower: list[dict[int, list[tuple[int, int, int]]]] = []
    for d in range(D):
        idx: dict[int, list[tuple[int, int, int]]] = {}
        for (lmask, umask, s), mult in ls.classes(d, acyclic).items():
            idx.setdefault(lmask & ls.tracked_mask[d], []).append((umask, s, mult))
        by_lower.append(idx)
    out: Counter = Counter()

    def walk(d: int, avoid: int, k_acc: int, profile: tuple[int, ...],
             mult_acc: int) -> None:
        if d == D:
            out[profile] += mult_acc
            return
        comp = ls.tracked_mask[d] & ~avoid
        nxt = S[d + 1]
        up_low = ls.tracked_mask[d + 1]
        idx = by_lower[d]
        sub = comp
        while True:
            classes = idx.get(sub)
            if classes:
                for umask, s, mult in classes:
                    need = target - k_acc - s
                    vec = nxt[umask & up_low]
                    if 0 <= need < len(vec) and vec[need]:
                        walk(d + 1, umask, k_acc + s, profile + (s,),
                             mult_acc * mult)
            if sub == 0:
                break
            sub = (sub - 1) & comp

    walk(0, 0, 0, (), 1)
    return dict(out)


def iter_matchings(ls: LayerSystem, acyclic: bool) -> Iterator[int]:
    """Yield the edge mask of every matching, the empty matching first.

    A product walk over the per-layer matchings: a layer's matching joins
    when its lower faces avoid the upper faces matched by the layer below.
    """
    D = ls.D
    per_layer = [ls.matchings(d, acyclic) for d in range(D)]

    def rec(d: int, avoid: int, acc_mask: int) -> Iterator[int]:
        if d == D:
            yield acc_mask
            return
        for m in per_layer[d]:
            if not m.lower & avoid:
                yield from rec(d + 1, m.upper, acc_mask | m.edge_mask)

    yield from rec(0, 0, 0)


def iter_matchings_of_cardinality(ls: LayerSystem, S: list, target: int,
                                  acyclic: bool) -> Iterator[int]:
    """Yield the edge mask of every matching with exactly `target` pairs.

    Deterministic order: layers are filled bottom up, each layer's matchings
    in canonical DFS order, with suffix tables pruning every branch that
    cannot complete.
    """
    D = ls.D
    by_size: list[dict[int, list[LayerMatching]]] = []
    for d in range(D):
        bucket: dict[int, list[LayerMatching]] = {}
        for m in ls.matchings(d, acyclic):
            bucket.setdefault(m.size, []).append(m)
        by_size.append(bucket)

    def rec(d: int, avoid: int, k_acc: int, acc_mask: int) -> Iterator[int]:
        if d == D:
            yield acc_mask
            return
        nxt = S[d + 1]
        up_low = ls.tracked_mask[d + 1]
        for s, bucket in by_size[d].items():
            need = target - k_acc - s
            if need < 0:
                continue
            for m in bucket:
                if m.lower & avoid:
                    continue
                vec = nxt[m.upper & up_low]
                if need < len(vec) and vec[need]:
                    yield from rec(d + 1, m.upper, k_acc + s,
                                   acc_mask | m.edge_mask)

    yield from rec(0, 0, 0, 0)


def matching_counts(H: HasseDiagram, mode: str = "acyclic") -> list[int]:
    """f-vector of the complex of matchings (counts by cardinality >= 1).

    Raises LayeredInfeasibleError when a dimension has more than
    WIDTH_LIMIT tracked faces.
    """
    return suffix_tables(LayerSystem(H), mode == "acyclic")[0][0][1:]


def enumerate_optimal(H: HasseDiagram) -> tuple[int, int]:
    """Maximum acyclic matching cardinality and the number of matchings
    that reach it, counted through the layer transfer."""
    S = suffix_tables(LayerSystem(H), acyclic=True)
    return max_cardinality_info(S[0][0])
