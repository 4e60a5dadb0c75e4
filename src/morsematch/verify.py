"""Mechanical checks of the structural and enumerative statements.

Every verifier returns a VerificationReport carrying pass/fail status, the
instance parameters, timing, and on failure a concrete counterexample
witness.  Verifiers never run unboundedly: each takes a budget (counted in
visited matchings or faces) and reports skipped-budget instead of grinding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

from .complexes import (BudgetExceededError, SimplicialComplex, build_boundary,
                        build_simplex, cone, euler_characteristic, f_vector,
                        face_vertices, is_full_subcomplex, relabel, skeleton)
from .hasse import HasseDiagram, build_hasse, critical_faces, is_acyclic, is_matching
from .layers import (LayeredInfeasibleError, LayerSystem, enumerate_optimal,
                     iter_matchings_of_cardinality, max_cardinality_info,
                     profile_counts, suffix_tables)
from .homology import homology, relative_homology
from .morse import (MaterializationLimitError, build_matching_complex,
                    cone_pair, induced_inclusion, matching_complex_f_vector)
from .specs import build_from_spec

DEFAULT_BUDGET = 10_000_000

# frozen reference data for the 4-simplex; euler-n4 checks a supplied vector
# against it, or recounts the whole vector from scratch
N4_F_VECTOR = (75, 2485, 47955, 598425, 5071367, 29844505, 122685075,
               350017175, 680808105, 876110235, 712961065, 343320335,
               88467825, 10315975, 380125)
N4_EULER = 212457
N4_TOP = 380125


@dataclass
class VerificationReport:
    name: str
    instance: dict
    status: str                      # pass | fail | skipped-budget
    witness: object = None
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

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
    except (LayeredInfeasibleError, MaterializationLimitError,
            BudgetExceededError) as b:
        status, witness, details = "skipped-budget", None, {"reason": str(b)}
    return VerificationReport(name, instance, status, witness, details,
                              time.perf_counter() - t0)


def _ensure(cond: bool, message: str, witness=None) -> None:
    """Raise CheckFailure unless cond.  `witness` is a thunk, called only on
    failure, so a passing check never renders its counterexample."""
    if not cond:
        raise CheckFailure(message, witness() if witness else None)


def _edge_pairs(H: HasseDiagram, mask: int) -> list[list[list[int]]]:
    """JSON-friendly rendering of a matching as face pairs."""
    out = []
    for e in face_vertices(mask):
        lo, up = H.edge_faces(e)
        out.append([face_vertices(lo), face_vertices(up)])
    return out


def _optimal_masks(H: HasseDiagram, budget: int) -> tuple[int, list[int]]:
    """All maximum acyclic matchings, guarded by the visit budget."""
    ls = LayerSystem(H)
    S = suffix_tables(ls, acyclic=True)
    best, count = max_cardinality_info(S[0][0])
    if count > budget:
        raise BudgetExceededError(
            f"{count} optimal matchings exceed budget {budget}")
    return best, list(iter_matchings_of_cardinality(ls, S, best, acyclic=True))


# -- counting and bijections -------------------------------------------------

def verify_top_facet_bijection(n: int, budget: int = DEFAULT_BUDGET,
                               ) -> VerificationReport:
    """Deleting the pair on the top simplex maps maximum matchings of the
    simplex bijectively onto those of its boundary; adjoining it inverts."""
    def check() -> dict:
        if n < 2:
            raise CheckFailure("the bijection fails at n=1; n >= 2 required")
        K = build_simplex(n)
        B = build_boundary(n)
        HK = build_hasse(K)
        HB = build_hasse(B)
        m = HB.edge_count
        _ensure(induced_inclusion(B, K) == list(range(m)),
                "the boundary's Hasse edges are not a prefix of the simplex's")
        _, masks_k = _optimal_masks(HK, budget)
        _, masks_b = _optimal_masks(HB, budget)
        set_k, set_b = set(masks_k), set(masks_b)
        low = (1 << m) - 1

        phi: dict[int, int] = {}
        for F in masks_k:
            _ensure((F >> m).bit_count() == 1,
                    "matching does not pair the top simplex exactly once",
                    lambda: _edge_pairs(HK, F))
            img = F & low
            _ensure(img in set_b, "deleted matching is not optimal on the boundary",
                    lambda: _edge_pairs(HK, F))
            phi[F] = img

        psi: dict[int, int] = {}
        for G in masks_b:
            crit = critical_faces(HB, G)
            top_crit = crit[n - 1]
            _ensure(len(top_crit) == 1 and len(crit[0]) == 1
                    and sum(map(len, crit)) == 2,
                    "boundary matching lacks the expected two critical faces",
                    lambda: _edge_pairs(HB, G))
            # the simplex's edges after the boundary's are the pairs
            # (facet, sigma), one per facet in lex order
            lifted = G | 1 << (m + B.face_index[top_crit[0]])
            _ensure(lifted in set_k, "adjoined matching is not optimal on the simplex",
                    lambda: _edge_pairs(HB, G))
            psi[G] = lifted

        _ensure(all(psi[phi[F]] == F for F in masks_k), "psi(phi(F)) != F")
        _ensure(all(phi[psi[G]] == G for G in masks_b), "phi(psi(G)) != G")
        _ensure(len(set_k) == len(set_b), "facet counts differ")
        return {"count": len(set_k)}

    return _run("top-facet-bijection", {"n": n}, check)


def verify_layer_counts(n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Every maximum acyclic matching on the n-simplex pairs exactly
    C(n, k+1) faces of dimension k upward, and its single critical face is a
    vertex."""
    def check() -> dict:
        K = build_simplex(n)
        ls = LayerSystem(build_hasse(K))
        S = suffix_tables(ls, acyclic=True)
        best, count = max_cardinality_info(S[0][0])
        expected = tuple(comb(n, k + 1) for k in range(n))
        profiles = profile_counts(ls, S, best, acyclic=True)
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
        sk = skeleton(build_simplex(n), n - 2)
        H = build_hasse(sk)
        _, masks = _optimal_masks(H, budget)
        trees: set[frozenset] = set()
        for mask in masks:
            crit = critical_faces(H, mask)
            u_faces = crit[n - 2]
            _ensure(len(u_faces) == n and len(crit[0]) == 1,
                    "unexpected critical face counts on the skeleton",
                    lambda: _edge_pairs(H, mask))
            edges = [_facet_graph_edge(u, n) for u in u_faces]
            _ensure(_is_spanning_tree(edges, n + 1),
                    "critical faces do not form a spanning tree",
                    lambda: {"matching": _edge_pairs(H, mask), "edges": edges})
            trees.add(frozenset(edges))
        return {"count": len(masks), "distinct_trees": len(trees)}

    return _run("spanning-tree", {"n": n}, check)


def verify_restriction_fibers(n: int, budget: int = DEFAULT_BUDGET,
                              ) -> VerificationReport:
    """Restriction to the (n-2)-skeleton maps maximum matchings of the
    simplex onto maximum matchings of the skeleton with every fiber of size
    exactly n+1."""
    def check() -> dict:
        if n < 3:
            raise CheckFailure("requires n >= 3")
        K = build_simplex(n)
        sk = skeleton(K, n - 2)
        Hs = build_hasse(sk)
        _ensure(induced_inclusion(sk, K) == list(range(Hs.edge_count)),
                "the skeleton's Hasse edges are not a prefix of the simplex's")
        ls = LayerSystem(build_hasse(K))
        S = suffix_tables(ls, acyclic=True)
        best_k, count_k = max_cardinality_info(S[0][0])
        best_s, masks_s = _optimal_masks(Hs, budget)
        _ensure(count_k == (n + 1) * len(masks_s),
                f"{count_k} != {n + 1} x {len(masks_s)}")

        # count each fiber exactly with the suffix tables of the simplex:
        # layers >= n-2 carry the pairs the restriction drops, and a skeleton
        # matching hands them its matched (n-2)-faces, whose gids the
        # skeleton shares with the simplex
        first_high = n - 2
        lay = ls.layers[first_high]
        need = best_k - best_s
        fibers: dict[int, int] = {}
        for mask in masks_s:
            consumed = 0
            for e in face_vertices(mask):
                if Hs.layer_of[e] == first_high - 1:
                    consumed |= 1 << lay.lower_index[Hs.upper[e]]
            vec = S[first_high][consumed]
            fibers[mask] = vec[need] if need < len(vec) else 0

        sizes = set(fibers.values())
        _ensure(sizes == {n + 1}, f"fiber sizes {sizes} are not uniformly {n + 1}",
                lambda: {"histogram": {str(s): list(fibers.values()).count(s)
                                       for s in sizes}})
        _ensure(len(fibers) == len(masks_s), "restriction is not surjective")
        _ensure(sum(fibers.values()) == count_k, "fibers do not partition")
        return {"count": count_k, "skeleton_count": len(masks_s),
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
        MK = build_matching_complex(K, "M", max_faces=budget)
        CK, apex, e0 = cone_pair(K, w0)
        HC = build_hasse(CK)
        mapping = induced_inclusion(K, CK)
        e0_bit = 1 << e0
        _ensure(is_acyclic(HC, e0_bit), "the apex pair itself is not acyclic")
        checked = 0
        for face in MK.complex.faces():
            lifted = 0
            for e in face_vertices(face):
                lifted |= 1 << mapping[e]
            union = lifted | e0_bit
            _ensure(is_matching(HC, union) and is_acyclic(HC, union),
                    "face plus apex pair is not an acyclic matching on the cone",
                    lambda: [face_vertices(face), _edge_pairs(HC, union)])
            checked += 1
        return {"faces_checked": checked}

    return _run("cone-contiguity", {"spec": spec, "w0": w0}, check)


def _merge_torsion(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    from .homology import _normalize_chain
    return tuple(_normalize_chain(list(a) + list(b)))


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
            hL = homology(ML.complex, reduced=True)
            hK = homology(MK.complex, reduced=True)
            emb = relabel(MK.complex, induced_inclusion(K, L),
                          ML.hasse.edge_count)
            rel = relative_homology(ML.complex, emb, reduced=True)
            top = max(ML.complex.dim + 1, 0)
            for d in range(top + 1):
                want_b = hL.betti(d) + hK.betti(d - 1)
                want_t = _merge_torsion(hL.torsion(d), hK.torsion(d - 1))
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
        hA = homology(Md3.complex, reduced=True)
        hB = homology(Mbd3.complex, reduced=True)
        _ensure(induced_inclusion(bd3, d3) == list(range(Mbd3.edge_count)),
                "the boundary's Hasse edges are not a prefix of the simplex's")
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
        mapping = induced_inclusion(K, L)
        _ensure(len(set(mapping)) == len(mapping), "induced vertex map not injective")
        emb = relabel(MK.complex, mapping, ML.hasse.edge_count)
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
        _ensure(induced_inclusion(B, K) == list(range(GB.edge_count)),
                "the boundary's Hasse edges are not a prefix of the simplex's")
        boundary_faces = set(GB.complex.faces())

        sigma_gid = H.offsets[n]
        e_list = H.edges_down[sigma_gid]  # the n+1 apex pairs (F_i, sigma)
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
            banned = H.mask_from_edges(H.edges_up[f_i_gid] + H.edges_down[f_i_gid])
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

        sigma = H.face_of_gid[sigma_gid]
        for e in e_list:
            _ensure(bool(links[e]), "apex pair has an empty link")
            Li = SimplicialComplex.from_faces(links[e], H.edge_count)
            f_i = H.face_of_gid[H.lower[e]]
            bits = [1 << v for v in face_vertices(f_i)] + [sigma ^ f_i]
            edge_map = [H.edge(*(sum(bits[v] for v in face_vertices(f))
                                 for f in model.hasse.edge_faces(me)))
                        for me in range(model.edge_count)]
            _ensure(len(set(edge_map)) == len(edge_map)
                    and relabel(Lm, edge_map, H.edge_count) == Li,
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
            mc = build_matching_complex(build_from_spec(spec), variant,
                                        max_faces=budget)
            if (spec, variant) in TABLE_F:
                fv_want, chi_want = TABLE_F[spec, variant]
                fv = f_vector(mc.complex)
                chi = euler_characteristic(mc.complex)
                _ensure(fv == fv_want, f"f-vector of {variant}({spec}) is {fv}",
                        lambda: {"expected": fv_want})
                _ensure(chi == chi_want, f"chi of {variant}({spec}) is {chi}")
            h = homology(mc.complex, reduced=True)
            _ensure(h.nonzero() == want,
                    f"homology of {variant}({spec}) is {h.nonzero()}",
                    lambda: {"expected": {str(k): list(v) for k, v in want.items()}})
            _ensure(h.is_torsion_free(), f"{variant}({spec}) has torsion")
        counts = {}
        for n, want in [(1, 2), (2, 9), (3, 256)]:
            _, c = enumerate_optimal(build_hasse(build_simplex(n)))
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
        a = build_matching_complex(build_simplex(n), variant, max_faces=budget)
        b = build_matching_complex(build_boundary(n), variant, max_faces=budget)
        ha = homology(a.complex, reduced=True)
        hb = homology(b.complex, reduced=True)
        _ensure(ha.nonzero() == hb.nonzero(),
                f"homology differs: {ha.nonzero()} vs {hb.nonzero()}")
        return {"label": "conjecture evidence (homology equality only)",
                "homology": {str(d): g[0] for d, g in ha.nonzero().items()}}

    return _run(name, {"variant": variant, "n": n}, check)


# -- suite assembly ------------------------------------------------------------

def default_suite(max_n: int = 3, budget: int = DEFAULT_BUDGET,
                  cached_n4_fvector: Optional[list[int]] = None,
                  only: Optional[str] = None) -> list[VerificationReport]:
    """Run the named check (or all of them) for every instance with n up to
    max_n, in declaration order.

    Checks with fixed instances above max_n are excluded from a full run but
    still execute when requested by name, reporting their own budget status.
    """
    if only is not None and only not in CHECK_NAMES:
        raise ValueError(f"unknown check name {only!r}")
    explicit = only is not None
    reports: list[VerificationReport] = []

    def want(name: str) -> bool:
        return only is None or only == name

    if want("reference-tables") and (max_n >= 3 or explicit):
        reports.append(verify_reference_tables(budget))
    if want("top-facet-bijection"):
        for n in range(2, max_n + 1):
            reports.append(verify_top_facet_bijection(n, budget))
    if want("layer-counts"):
        for n in range(2, max_n + 1):
            reports.append(verify_layer_counts(n, budget))
    if want("spanning-tree"):
        for n in range(3, max_n + 1):
            reports.append(verify_spanning_tree(n, budget))
    if want("restriction-fibers"):
        for n in range(3, max_n + 1):
            reports.append(verify_restriction_fibers(n, budget))
    if want("cone-contiguity"):
        for spec in ("simplex:1", "boundary:2", "simplex:2"):
            reports.append(verify_cone_contiguity(spec, 0, budget))
    if want("pair-splitting"):
        pairs = [("simplex:1", "simplex:0"), ("simplex:2", "simplex:1")]
        if max_n >= 3 or explicit:
            pairs.append(("simplex:3", "simplex:2"))
        reports.append(verify_pair_splitting(pairs, budget))
    if want("les-example") and (max_n >= 3 or explicit):
        reports.append(verify_les_example(budget))
    if want("inclusion-full"):
        instances = [("boundary:2", "simplex:2"), ("simplex:2", "simplex:2")]
        if max_n >= 3 or explicit:
            instances += [("boundary:3", "simplex:3"), ("simplex:2", "simplex:3")]
        for k_spec, l_spec in instances:
            reports.append(verify_inclusion_full(k_spec, l_spec, budget))
    if want("gm-structure"):
        for n in range(2, min(max_n, 3) + 1):
            reports.append(verify_gm_structure(n, budget))
    if want("conjecture-pure"):
        for n in range(2, min(max_n, 3) + 1):
            reports.append(verify_conjecture_evidence("MP", n, budget))
    if want("conjecture-gm"):
        for n in range(2, min(max_n, 3) + 1):
            reports.append(verify_conjecture_evidence("GM", n, budget))
    if runs_euler_n4(max_n, only):
        reports.append(verify_euler_obstruction_n4(cached_n4_fvector))
    return reports


def runs_euler_n4(max_n: int, only: Optional[str]) -> bool:
    """Whether `default_suite(max_n, only=only)` runs euler-n4, the one
    check that reads the 4-simplex f-vector."""
    return only == "euler-n4" or (only is None and max_n >= 4)


CHECK_NAMES = ["reference-tables", "top-facet-bijection", "layer-counts",
               "spanning-tree", "restriction-fibers", "cone-contiguity",
               "pair-splitting", "les-example", "inclusion-full",
               "gm-structure", "conjecture-pure", "conjecture-gm", "euler-n4"]
