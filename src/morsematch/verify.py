"""Mechanical checks of the structural and enumerative statements.

Every verifier returns a VerificationReport carrying pass/fail status, the
instance parameters, timing, and on failure a concrete counterexample
witness.  Verifiers never run unboundedly: each takes a budget (counted in
visited matchings or faces) and reports skipped-budget instead of grinding.

restriction-fibers and top-facet-bijection share one restriction check: each
walks a skeleton alone and reads every fiber off the simplex's suffix tables.
The walk yields each prefix of the layers below the top with its shared
group of top-layer completions, so these checks and spanning-tree test a
group's members once per distinct group and prefix counts
(`_fresh_groups`), and read its fibers once per group.

cone-contiguity decides "acyclic matching of the cone" with the layer engine
(`_acyclic_matching`): the package has one cycle test, the reach closure of
`layers._enumerate_layer`.
"""

from __future__ import annotations

import time
from collections import Counter
from math import comb
from typing import Callable, Iterator, Optional

from .complexes import (BudgetExceededError, build_boundary, build_simplex,
                        cone, euler_characteristic, f_vector, face_vertices,
                        is_full_subcomplex, relabel, skeleton)
from .hasse import HasseDiagram, is_matching
from .layers import (LayerSystem, enumerate_optimal,
                     iter_matchings_of_cardinality, max_cardinality_info,
                     profile_counts, suffix_tables)
from .homology import (HomologyResult, divisor_chain, homology,
                       relative_homology)
from .morse import (MatchingComplex, build_matching_complex,
                    induced_inclusion, matching_complex_f_vector)
from .specs import build_from_spec, canonical_spec

DEFAULT_BUDGET = 10_000_000

# frozen reference data for the 4-simplex; euler-n4 checks a supplied vector
# against it, or recounts the whole vector from scratch
N4_F_VECTOR = (75, 2485, 47955, 598425, 5071367, 29844505, 122685075,
               350017175, 680808105, 876110235, 712961065, 343320335,
               88467825, 10315975, 380125)
N4_EULER = 212457
N4_TOP = 380125


class VerificationReport:
    """One check's outcome on one instance."""

    __slots__ = ("name", "instance", "status", "witness", "details",
                 "elapsed")

    def __init__(self, name: str, instance: dict, status: str,
                 witness: object = None, details: Optional[dict] = None,
                 elapsed: float = 0.0):
        self.name = name
        self.instance = instance
        self.status = status  # pass | fail | skipped-budget
        self.witness = witness
        self.details = {} if details is None else details
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"name": self.name, "instance": self.instance,
                "status": self.status, "witness": self.witness,
                "details": self.details}


class CheckFailure(Exception):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _run(name: str, instance: dict, fn: Callable[[], dict]) -> VerificationReport:
    t0 = time.perf_counter()
    try:
        details = fn() or {}
        status, witness = "pass", None
    except CheckFailure as f:
        status, witness, details = "fail", f.witness, {"message": str(f)}
    except BudgetExceededError as b:
        status, witness, details = "skipped-budget", None, {"reason": str(b)}
    return VerificationReport(name, instance, status, witness, details,
                              time.perf_counter() - t0)


def _ensure(cond: bool, message: str, witness=None) -> None:
    """Raise CheckFailure unless cond.  `witness` is a thunk, called only on
    failure, so a passing check never renders its counterexample."""
    if not cond:
        raise CheckFailure(message, witness() if witness else None)


def _edge_pairs(H: HasseDiagram, mask: int) -> list[list[list[int]]]:
    """JSON-friendly rendering of a matching as face pairs.  Bits past the
    edges, such as the covered faces a walk yields, are ignored."""
    out = []
    for e in face_vertices(mask & ((1 << H.edge_count) - 1)):
        lo, up = H.edge_faces(e)
        out.append([face_vertices(lo), face_vertices(up)])
    return out


# (canonical spec, variant) -> reduced homology of that matching complex,
# shared by the checks of one `default_suite` call and None outside one, so
# a verifier called on its own computes everything itself.  Only the
# results are kept: holding the complexes too would raise the peak memory.
_memo: Optional[dict[tuple[str, str], HomologyResult]] = None


def _reduced_homology(spec: str, variant: str, budget: int,
                      mc: Optional[MatchingComplex] = None) -> HomologyResult:
    """Reduced homology of the variant's matching complex of spec, read
    from the suite's memo when an earlier check computed it.  On a miss
    the complex `mc` is reduced, or built first when the caller has none."""
    key = (canonical_spec(spec), variant)
    if _memo is not None and key in _memo:
        return _memo[key]
    if mc is None:
        mc = build_matching_complex(build_from_spec(spec), variant,
                                    max_faces=budget)
    h = homology(mc.complex, reduced=True)
    if _memo is not None:
        _memo[key] = h
    return h


def _optimal_count(ls: LayerSystem, budget: int) -> tuple[int, int]:
    """The maximum cardinality and the number of maximum acyclic matchings,
    refused when a walk over them would go over the visit budget."""
    best, count = max_cardinality_info(suffix_tables(ls, acyclic=True)[0][0])
    if count > budget:
        raise BudgetExceededError(
            f"{count} optimal matchings exceed budget {budget}")
    return best, count


def _optimal_masks(ls: LayerSystem, budget: int,
                   ) -> tuple[int, Iterator[tuple[int, list[int]]]]:
    """The maximum cardinality and the walk over every maximum acyclic
    matching, as (prefix, group) pairs (see
    `layers.iter_matchings_of_cardinality`).  The visit budget is checked
    here, before the walk starts."""
    best = _optimal_count(ls, budget)[0]
    return best, iter_matchings_of_cardinality(ls, best, acyclic=True)


def _fresh_groups(H: HasseDiagram) -> Callable[[int, list[int]], bool]:
    """A test of whether the members of a walked pair (acc, group) can
    fail a check differently from those of a pair already seen.

    The checks read a walked matching y = acc | x through the faces it
    leaves critical, `full ^ (y >> E)`: how many there are, how many are
    vertices, and which are of the top dimension.  The prefix acc covers
    no face of the top dimension, so a member's outcome depends on acc
    only through the number of faces and of vertices acc covers.  So a
    group is fresh once per such pair of counts, at the first prefix that
    brings it: testing its members there, in order, finds the first
    failing matching of the walk.  Each group is held once seen, so no
    other list can take its id."""
    E = H.edge_count
    vertices = (1 << H.offsets[1]) - 1
    seen: dict[tuple[int, int, int], list[int]] = {}

    def fresh(acc: int, group: list[int]) -> bool:
        cover = acc >> E
        key = (id(group), cover.bit_count(), (cover & vertices).bit_count())
        if key in seen:
            return False
        seen[key] = group
        return True

    return fresh


def _acyclic_matching(ls: LayerSystem) -> Callable[[int], bool]:
    """The test of whether an edge mask is an acyclic matching of the
    diagram `ls.H`, by the per-layer rule of `layers`: the mask is a
    matching, and its part in each layer is the edge part of one of that
    layer's acyclic matchings.  So `layers._enumerate_layer` decides every
    cycle; the tests check this against the whole-digraph oracle.
    """
    edge_bits = (1 << ls.H.edge_count) - 1
    parts = []
    for d, layer in enumerate(ls.layers):
        span = sum(1 << e for e, _, _ in layer.edges_local)
        parts.append((span, {x & edge_bits for x in ls.matchings(d, True)}))

    def acyclic(mask: int) -> bool:
        return is_matching(ls.H, mask) and all(
            (mask & span) in found for span, found in parts)

    return acyclic


# -- counting and bijections -------------------------------------------------

def _restriction(n: int, k: int, budget: int,
                 ) -> tuple[HasseDiagram, int, int,
                            Iterator[tuple[int, list[int], list[int]]]]:
    """Restriction of the n-simplex's maximum matchings to its k-skeleton,
    k < n: the skeleton's diagram, the simplex's maximum count, the number
    `need` of pairs a restriction drops, and a walk yielding (acc, group,
    fibers) per pair of the skeleton's walk (see `_optimal_masks`):
    fibers[i] counts the ways layers >= k of the simplex place `need`
    pairs off the k-faces that the skeleton matching `acc | group[i]`
    matches.  Those are its top-dimension faces, which only its top-layer
    part x = group[i] covers, at `x >> E + H.offsets[k]` in gid order; the
    mask indexes the simplex's suffix table at dimension k directly, which
    tracks every k-face in gid order.  So a group's fibers are read once,
    when the walk first yields it, and shared like the group.  The
    simplex's LayerSystem comes first, so the width rule refuses it before
    anything is built."""
    K = build_simplex(n)
    S = suffix_tables(LayerSystem(K), acyclic=True)
    best_k, count_k = max_cardinality_info(S[0][0])
    ls_s = LayerSystem(skeleton(K, k))
    best_s, walk = _optimal_masks(ls_s, budget)
    H = ls_s.H
    shift = H.edge_count + H.offsets[k]
    table = S[k]
    need = best_k - best_s

    def fiber(x: int) -> int:
        vec = table[x >> shift]
        return vec[need] if need < len(vec) else 0

    def fibers() -> Iterator[tuple[int, list[int], list[int]]]:
        # id(group) -> (group, its fibers); the group is held so that no
        # other list can take its id
        memo: dict[int, tuple[list[int], list[int]]] = {}
        for acc, group in walk:
            hit = memo.get(id(group))
            if hit is None:
                hit = memo[id(group)] = (group, [fiber(x) for x in group])
            yield acc, group, hit[1]

    return H, count_k, need, fibers()


def verify_top_facet_bijection(n: int, budget: int = DEFAULT_BUDGET,
                               ) -> VerificationReport:
    """Deleting the pair on the top simplex maps maximum matchings of the
    simplex bijectively onto those of its boundary, the (n-1)-skeleton;
    adjoining it inverts.  Fibers over distinct boundary matchings are
    disjoint, so fibers of size 1 and equal counts make it a bijection."""
    def check() -> dict:
        if n < 2:
            raise CheckFailure("the bijection fails at n=1; n >= 2 required")
        H, count_k, need, walk = _restriction(n, n - 1, budget)
        _ensure(need == 1, "matching does not pair the top simplex exactly once")
        # a boundary matching leaves one vertex and one facet unmatched
        E, full = H.edge_count, (1 << len(H.face_of_gid)) - 1
        vertices = (1 << H.offsets[1]) - 1
        first_top = H.offsets[n - 1]
        fresh = _fresh_groups(H)
        count_b = 0
        for acc, group, fibers in walk:
            count_b += len(group)
            if not fresh(acc, group):
                continue
            for x, fiber in zip(group, fibers):
                y = acc | x
                free = full ^ (y >> E)
                if not (free.bit_count() == 2
                        and (free & vertices).bit_count() == 1
                        and (free >> first_top).bit_count() == 1):
                    raise CheckFailure(
                        "boundary matching lacks the expected two critical "
                        "faces", _edge_pairs(H, y))
                if fiber != 1:
                    raise CheckFailure(
                        f"a boundary matching has {fiber} extensions",
                        _edge_pairs(H, y))
        _ensure(count_k == count_b, f"facet counts differ: {count_k} != {count_b}")
        return {"count": count_k}

    return _run("top-facet-bijection", {"n": n}, check)


def verify_layer_counts(n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Every maximum acyclic matching on the n-simplex pairs exactly
    C(n, k+1) faces of dimension k upward, and its single critical face is a
    vertex."""
    def check() -> dict:
        K = build_simplex(n)
        ls = LayerSystem(K)
        best, count = _optimal_count(ls, budget)
        expected = tuple(comb(n, k + 1) for k in range(n))
        profiles = profile_counts(ls, best, acyclic=True)
        _ensure(profiles == {expected: count},
                f"layer profiles {profiles} differ from {expected}",
                lambda: {str(k): v for k, v in profiles.items()})
        # profile arithmetic: every face count is consumed except one vertex
        fv = f_vector(K)
        m = [fv[d] - (expected[d - 1] if d >= 1 else 0)
             - (expected[d] if d < n else 0) for d in range(n + 1)]
        _ensure(m == [1] + [0] * n, f"critical face counts {m} are not a single vertex")
        return {"count": count, "profile": list(expected)}

    return _run("layer-counts", {"n": n}, check)


def _facet_graph_edge(u: int, n: int) -> tuple[int, int]:
    """An (n-2)-face of the n-simplex misses exactly two vertices; those
    index the two facets containing it, an edge of the complete graph."""
    a, b = face_vertices(((1 << (n + 1)) - 1) & ~u)
    return a, b


def _is_spanning_tree(edges: list[tuple[int, int]], n_vertices: int) -> bool:
    if len(edges) != n_vertices - 1:
        return False
    parent = list(range(n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def verify_spanning_tree(n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Critical (n-2)-faces of a maximum matching on the (n-2)-skeleton form
    a spanning tree of the facet graph."""
    def check() -> dict:
        if n < 3:
            raise CheckFailure("requires n >= 3")
        ls = LayerSystem(skeleton(build_simplex(n), n - 2))
        H = ls.H
        E, full = H.edge_count, (1 << len(H.face_of_gid)) - 1
        vertices = (1 << H.offsets[1]) - 1
        first_top = H.offsets[n - 2]
        # the critical (n-2)-face sets already found to be trees, each as
        # its unmatched gids shifted down to the first (n-2)-face.  An
        # (n-2)-face is the edge between the two facets containing it, one
        # to one, so distinct critical sets are distinct edge sets.  Each
        # set is tested at the first matching that leaves it, which is the
        # witness if it fails, and only then decoded into faces.  A walked
        # matching carries the faces it covers above its edges, in gid
        # order on a full skeleton, so its unmatched gids are one XOR.
        # The members of a group are tested when it is fresh (see
        # `_fresh_groups`): at n = 4, 125 groups of the 625 pairs walked
        trees: set[int] = set()
        fresh = _fresh_groups(H)
        count = 0
        for acc, group in _optimal_masks(ls, budget)[1]:
            count += len(group)
            if not fresh(acc, group):
                continue
            for x in group:
                y = acc | x
                free = full ^ (y >> E)
                top = free >> first_top
                if top.bit_count() != n or (free & vertices).bit_count() != 1:
                    raise CheckFailure(
                        "unexpected critical face counts on the skeleton",
                        _edge_pairs(H, y))
                if top not in trees:
                    edges = [_facet_graph_edge(H.face_of_gid[first_top + i], n)
                             for i in face_vertices(top)]
                    if not _is_spanning_tree(edges, n + 1):
                        raise CheckFailure(
                            "critical faces do not form a spanning tree",
                            {"matching": _edge_pairs(H, y), "edges": edges})
                    trees.add(top)
        return {"count": count, "distinct_trees": len(trees)}

    return _run("spanning-tree", {"n": n}, check)


def verify_restriction_fibers(n: int, budget: int = DEFAULT_BUDGET,
                              ) -> VerificationReport:
    """Restriction to the (n-2)-skeleton maps maximum matchings of the
    simplex onto maximum matchings of the skeleton with every fiber of size
    exactly n+1."""
    def check() -> dict:
        if n < 3:
            raise CheckFailure("requires n >= 3")
        _, count_k, _, walk = _restriction(n, n - 2, budget)
        histogram: Counter = Counter()
        for _, _, fibers in walk:
            histogram.update(fibers)
        skeleton_count = sum(histogram.values())
        _ensure(count_k == (n + 1) * skeleton_count,
                f"{count_k} != {n + 1} x {skeleton_count}")
        sizes = set(histogram)
        _ensure(sizes == {n + 1}, f"fiber sizes {sizes} are not uniformly {n + 1}",
                lambda: {"histogram": {str(s): k for s, k in histogram.items()}})
        _ensure(sum(s * k for s, k in histogram.items()) == count_k,
                "fibers do not partition")
        return {"count": count_k, "skeleton_count": skeleton_count,
                "fiber_size": n + 1}

    return _run("restriction-fibers", {"n": n}, check)


# -- cones, inclusions, exact sequences ---------------------------------------

def verify_cone_contiguity(spec: str, w0: int = 0, budget: int = DEFAULT_BUDGET,
                           ) -> VerificationReport:
    """Every acyclic matching on K stays acyclic on the cone after adding
    the distinguished apex pair; this is the combinatorial content of the
    null-homotopy of the induced inclusion."""
    def check() -> dict:
        K = build_from_spec(spec)
        if (1 << w0) not in K.face_index:
            raise ValueError(f"w0={w0} is not a vertex of K")
        MK = build_matching_complex(K, "M", max_faces=budget)
        CK, apex = cone(K)
        ls = LayerSystem(CK)
        HC = ls.H
        acyclic = _acyclic_matching(ls)
        mapping = induced_inclusion(MK.hasse, HC)
        # the distinguished pair: the apex with its edge towards w0
        e0_bit = 1 << HC.edge(1 << apex, (1 << w0) | (1 << apex))
        _ensure(acyclic(e0_bit), "the apex pair itself is not acyclic")
        checked = 0
        for face in MK.complex.faces():
            lifted = 0
            for e in face_vertices(face):
                lifted |= 1 << mapping[e]
            union = lifted | e0_bit
            _ensure(acyclic(union),
                    "face plus apex pair is not an acyclic matching on the cone",
                    lambda: [face_vertices(face), _edge_pairs(HC, union)])
            checked += 1
        return {"faces_checked": checked}

    return _run("cone-contiguity", {"spec": spec, "w0": w0}, check)


def verify_pair_splitting(pairs: list[tuple[str, str]],
                          budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """For a cone pair, relative homology splits degreewise as the homology
    of the cone's matching complex plus the base's shifted by one."""
    def check() -> dict:
        results = {}
        for l_spec, k_spec in pairs:
            L = build_from_spec(l_spec)
            K = build_from_spec(k_spec)
            CK, _ = cone(K)
            if CK != L:
                raise ValueError(f"{l_spec} is not the cone over {k_spec}")
            ML = build_matching_complex(L, "M", max_faces=budget)
            MK = build_matching_complex(K, "M", max_faces=budget)
            hL = _reduced_homology(l_spec, "M", budget, ML)
            hK = _reduced_homology(k_spec, "M", budget, MK)
            emb = relabel(MK.complex, induced_inclusion(MK.hasse, ML.hasse),
                          ML.edge_count)
            rel = relative_homology(ML.complex, emb, reduced=True)
            top = max(ML.complex.dim + 1, 0)
            for d in range(top + 1):
                want_b = hL.betti(d) + hK.betti(d - 1)
                want_t = tuple(x for x in divisor_chain(hL.torsion(d)
                                                        + hK.torsion(d - 1))
                               if x > 1)
                _ensure(rel.betti(d) == want_b and rel.torsion(d) == want_t,
                        f"splitting fails at degree {d} for ({l_spec}, {k_spec}): "
                        f"rel={rel.betti(d)},{rel.torsion(d)} vs "
                        f"{want_b},{want_t}")
            results[f"({l_spec}, {k_spec})"] = {
                "relative": {str(d): g[0] for d, g in rel.nonzero().items()}}
        return results

    return _run("pair-splitting", {"pairs": [list(p) for p in pairs]}, check)


def verify_les_example(budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """The four-term exact sequence of the pair over the 3-simplex: relative
    rank 96 in degree 4, zero in degree 5, alternating ranks summing to 0."""
    def check() -> dict:
        d3 = build_simplex(3)
        bd3 = build_boundary(3)
        Md3 = build_matching_complex(d3, "M", max_faces=budget)
        Mbd3 = build_matching_complex(bd3, "M", max_faces=budget)
        hA = _reduced_homology("simplex:3", "M", budget, Md3)
        hB = _reduced_homology("boundary:3", "M", budget, Mbd3)
        # the boundary's Hasse edges are a prefix of the simplex's, so
        # M(bd3) is a subcomplex of M(d3) with the same vertex ids
        rel = relative_homology(Md3.complex, Mbd3.complex, reduced=True)
        _ensure(rel.betti(4) == 96 and not rel.torsion(4),
                f"relative degree 4 is {rel.betti(4)}, expected 96")
        _ensure(rel.betti(5) == 0, f"relative degree 5 is {rel.betti(5)}, expected 0")
        b24, b99, b21 = hB.betti(4), hA.betti(4), hB.betti(3)
        alternating = b24 - b99 + rel.betti(4) - b21
        _ensure(alternating == 0,
                f"alternating sum {b24}-{b99}+{rel.betti(4)}-{b21} != 0")
        return {"sequence": [b24, b99, rel.betti(4), b21]}

    return _run("les-example", {}, check)


def verify_inclusion_full(k_spec: str, l_spec: str,
                          budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """The induced map of matching complexes is injective, simplicial, and
    has full image."""
    def check() -> dict:
        K = build_from_spec(k_spec)
        L = build_from_spec(l_spec)
        MK = build_matching_complex(K, "M", max_faces=budget)
        ML = build_matching_complex(L, "M", max_faces=budget)
        mapping = induced_inclusion(MK.hasse, ML.hasse)
        _ensure(len(set(mapping)) == len(mapping), "induced vertex map not injective")
        emb = relabel(MK.complex, mapping, ML.edge_count)
        _ensure(ML.complex.contains_complex(emb),
                "image of a face is not a face (map not simplicial)")
        _ensure(is_full_subcomplex(ML.complex, emb), "image is not full")
        return {"vertices_mapped": len(mapping),
                "image_faces": emb.total_faces()}

    return _run("inclusion-full", {"K": k_spec, "L": l_spec}, check)


# -- generalized matchings ----------------------------------------------------

def verify_gm_structure(n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Covering of the generalized complex by the boundary part and the
    cones over the apex-pair links, and each link's reference invariants.

    The link of the apex pair (F_i, sigma) is identified with GM of the
    model cone(boundary(n-1)), apex n, by an explicit isomorphism: with F_i
    and its edges removed, the boundary of the n-simplex is the cone over
    the boundary of F_i with apex i = sigma minus F_i.  Model vertex j < n
    goes to the j-th vertex of F_i, the apex to i, and each model Hasse
    edge to the edge of the simplex between the image faces.  That edge
    map must be injective and carry the model's GM complex onto the link,
    so the reference invariants, checked once on the model, hold for every
    link.
    """
    def check() -> dict:
        if n not in (2, 3):
            raise CheckFailure("supported for n in {2, 3}")
        K = build_simplex(n)
        B = build_boundary(n)
        GK = build_matching_complex(K, "GM", max_faces=budget)
        GB = build_matching_complex(B, "GM", max_faces=budget)
        H = GK.hasse
        # the boundary's Hasse edges are a prefix of the simplex's, so a
        # boundary matching is a face of GK as it stands
        boundary_faces = set(GB.complex.faces())

        sigma_gid = H.offsets[n]
        sigma = H.face_of_gid[sigma_gid]
        # the n+1 apex pairs (F_i, sigma), F_i in lex order
        e_list = [H.edge(H.face_of_gid[g], sigma) for g in H.facets_of[sigma_gid]]
        apex_pairs = H.mask_from_edges(e_list)

        links: dict[int, set] = {e: set() for e in e_list}
        for face in GK.complex.faces():
            touching = face & apex_pairs
            _ensure(touching & (touching - 1) == 0,
                    "two apex pairs share a face; stars are not disjoint",
                    lambda: face_vertices(face))
            if not touching:
                _ensure(face in boundary_faces,
                        "face avoiding the top simplex is not a boundary matching",
                        lambda: face_vertices(face))
            elif face != touching:
                links[touching.bit_length() - 1].add(face ^ touching)

        # each link must equal the boundary matchings avoiding edges at F_i
        for e in e_list:
            f_i_gid = H.lower[e]
            f_i = H.face_of_gid[f_i_gid]
            into_f_i = [H.edge(H.face_of_gid[g], f_i) for g in H.facets_of[f_i_gid]]
            banned = H.mask_from_edges(H.edges_up[f_i_gid] + into_f_i)
            expected = {f for f in boundary_faces if not f & banned}
            _ensure(links[e] == expected,
                    "link of apex pair differs from the predicted subcomplex",
                    lambda: {"edge": e})

        model = build_matching_complex(cone(build_boundary(n - 1))[0], "GM",
                                       max_faces=budget)
        Lm = model.complex
        fv = f_vector(Lm)
        if n == 2:
            _ensure(fv == [4, 3], f"link f-vector {fv} != [4, 3]")
            pos = {v: i for i, v in enumerate(Lm.vertices())}
            edges = [tuple(pos[v] for v in face_vertices(f))
                     for f in Lm.faces_by_dim[1]]
            _ensure(_is_spanning_tree(edges, 4), "link is not a tree")
        else:
            _ensure(fv == [21, 162, 570, 924, 612, 116],
                    f"link f-vector {fv} is wrong")
            _ensure(euler_characteristic(Lm) == 1, "link Euler characteristic != 1")
            hL = homology(Lm, reduced=True)
            _ensure(hL.nonzero() == {3: (2, ()), 4: (2, ())},
                    f"link homology {hL.nonzero()} != Z^2 in degrees 3 and 4")
        details: dict = {"apex_pairs": len(e_list), "link_f_vector": fv}

        for e in e_list:
            _ensure(bool(links[e]), "apex pair has an empty link")
            f_i = H.face_of_gid[H.lower[e]]
            bits = [1 << v for v in face_vertices(f_i)] + [sigma ^ f_i]
            edge_bit = [1 << H.edge(*(sum(bits[v] for v in face_vertices(f))
                                      for f in model.hasse.edge_faces(me)))
                        for me in range(model.edge_count)]
            _ensure(len(set(edge_bit)) == len(edge_bit)
                    and {sum(edge_bit[v] for v in face_vertices(f))
                         for f in Lm.faces()} == links[e],
                    "link is not isomorphic to the cone model")
        return details

    return _run("gm-structure", {"n": n}, check)


# -- reference tables and the 4-simplex ---------------------------------------

def verify_reference_tables(budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Face vectors, Euler characteristics, homology, and maximum-matching
    counts for the 3-simplex and its boundary, against the reference data."""
    TABLE_F = {
        ("simplex:3", "M"): ([28, 300, 1544, 3932, 4632, 2128, 256], 100),
        ("boundary:3", "M"): ([24, 216, 896, 1692, 1248, 256], 4),
        ("simplex:3", "MP"): ([28, 300, 1544, 3680, 3672, 1600, 256], -80),
        ("boundary:3", "MP"): ([24, 216, 896, 1680, 1152, 256], -80),
    }
    TABLE_H = {
        ("simplex:3", "M"): {4: (99, ())},
        ("boundary:3", "M"): {3: (21, ()), 4: (24, ())},
        ("simplex:3", "MP"): {3: (81, ())},
        ("boundary:3", "MP"): {3: (81, ())},
        ("simplex:3", "GM"): {4: (39, ())},
        ("boundary:3", "GM"): {4: (39, ())},
    }

    def check() -> dict:
        for (spec, variant), want in TABLE_H.items():
            mc = None
            if (spec, variant) in TABLE_F:
                mc = build_matching_complex(build_from_spec(spec), variant,
                                            max_faces=budget)
                fv_want, chi_want = TABLE_F[spec, variant]
                fv = f_vector(mc.complex)
                chi = euler_characteristic(mc.complex)
                _ensure(fv == fv_want, f"f-vector of {variant}({spec}) is {fv}",
                        lambda: {"expected": fv_want})
                _ensure(chi == chi_want, f"chi of {variant}({spec}) is {chi}")
            h = _reduced_homology(spec, variant, budget, mc)
            _ensure(h.nonzero() == want,
                    f"homology of {variant}({spec}) is {h.nonzero()}",
                    lambda: {"expected": {str(k): list(v) for k, v in want.items()}})
            _ensure(h.is_torsion_free(), f"{variant}({spec}) has torsion")
        counts = {}
        for n, want in [(1, 2), (2, 9), (3, 256)]:
            _, c = enumerate_optimal(build_simplex(n))
            _ensure(c == want, f"optimal count on simplex:{n} is {c}, expected {want}")
            counts[n] = c
        return {"optimal_counts": counts}

    return _run("reference-tables", {}, check)


def verify_euler_obstruction_n4(fvec: Optional[list[int]] = None) -> VerificationReport:
    """Consistency of the 4-simplex face vector: alternating sum, reduced
    Euler characteristic, top entry, and the parity obstruction.  Without a
    supplied vector, the vector is counted from scratch."""
    def check() -> dict:
        computed = fvec is None
        vec = matching_complex_f_vector(build_simplex(4), "M") if computed else fvec
        _ensure(list(vec) == list(N4_F_VECTOR),
                "f-vector differs from the 15-entry reference",
                lambda: {"got": list(vec)})
        chi = sum((-1) ** d * v for d, v in enumerate(vec))
        _ensure(chi == N4_EULER, f"Euler characteristic {chi} != {N4_EULER}")
        _ensure(chi - 1 > 0, "reduced Euler characteristic is not positive")
        _ensure(vec[-1] == N4_TOP, f"top entry {vec[-1]} != {N4_TOP}")
        return {"euler_characteristic": chi,
                "reduced_euler_characteristic": chi - 1,
                "computed": computed,
                "parity": "positive reduced characteristic forces any "
                          "single-degree wedge to sit in even degree >= 4"}

    return _run("euler-n4", {}, check)


# -- conjecture evidence -------------------------------------------------------

def verify_conjecture_evidence(variant: str, n: int,
                               budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Homology equality between the simplex and boundary complexes for the
    pure or generalized variant.  Evidence only, never a proof."""
    name = f"conjecture-{'pure' if variant == 'MP' else 'gm'}"

    def check() -> dict:
        if n < 2:
            raise CheckFailure("requires n >= 2")
        ha = _reduced_homology(f"simplex:{n}", variant, budget)
        hb = _reduced_homology(f"boundary:{n}", variant, budget)
        _ensure(ha.nonzero() == hb.nonzero(),
                f"homology differs: {ha.nonzero()} vs {hb.nonzero()}")
        return {"label": "conjecture evidence (homology equality only)",
                "homology": {str(d): g[0] for d, g in ha.nonzero().items()}}

    return _run(name, {"variant": variant, "n": n}, check)


# -- suite assembly ------------------------------------------------------------

def _plan(max_n: int, named: bool) -> list[tuple[str, Callable, list[tuple]]]:
    """Every check of the suite, in declaration order, with the argument
    tuples of its instances for n up to max_n.  Fixed instances past n = 2
    run when max_n >= 3, euler-n4's when max_n >= 4, and all of them at
    any max_n when the check is `named`."""
    fixed = max_n >= 3 or named
    once = [()] if fixed else []
    pairs = [("simplex:1", "simplex:0"), ("simplex:2", "simplex:1")]
    inclusions = [("boundary:2", "simplex:2"), ("simplex:2", "simplex:2")]
    if fixed:
        pairs.append(("simplex:3", "simplex:2"))
        inclusions += [("boundary:3", "simplex:3"), ("simplex:2", "simplex:3")]

    def upto(lo: int, hi: int = max_n) -> list[tuple]:
        return [(n,) for n in range(lo, min(max_n, hi) + 1)]

    return [
        ("reference-tables", verify_reference_tables, once),
        ("top-facet-bijection", verify_top_facet_bijection, upto(2)),
        ("layer-counts", verify_layer_counts, upto(2)),
        ("spanning-tree", verify_spanning_tree, upto(3)),
        ("restriction-fibers", verify_restriction_fibers, upto(3)),
        ("cone-contiguity", verify_cone_contiguity,
         [(spec, 0) for spec in ("simplex:1", "boundary:2", "simplex:2")]),
        ("pair-splitting", verify_pair_splitting, [(pairs,)]),
        ("les-example", verify_les_example, once),
        ("inclusion-full", verify_inclusion_full, inclusions),
        ("gm-structure", verify_gm_structure, upto(2, 3)),
        ("conjecture-pure", verify_conjecture_evidence,
         [("MP", *a) for a in upto(2, 3)]),
        ("conjecture-gm", verify_conjecture_evidence,
         [("GM", *a) for a in upto(2, 3)]),
        # the recount takes no budget
        ("euler-n4", lambda budget: verify_euler_obstruction_n4(),
         [()] if max_n >= 4 or named else []),
    ]


def default_suite(max_n: int = 3, budget: int = DEFAULT_BUDGET,
                  only: Optional[str] = None) -> list[VerificationReport]:
    """Run the named check (or all of them) for every instance with n up to
    max_n, in declaration order.

    Checks with fixed instances above max_n are excluded from a full run but
    still execute when requested by name, reporting their own budget status.
    The checks of one call reduce each matching complex once; nothing is
    kept from one call to the next.
    """
    global _memo
    if only is not None and only not in CHECK_NAMES:
        raise ValueError(f"unknown check name {only!r}")
    _memo = {}
    try:
        return [fn(*args, budget=budget)
                for name, fn, instances in _plan(max_n, only is not None)
                if only in (None, name) for args in instances]
    finally:
        _memo = None


CHECK_NAMES = [name for name, _, _ in _plan(0, True)]
