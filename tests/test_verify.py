import time

import pytest

from morsematch import verify
from morsematch.complexes import build_boundary, cone, relabel, skeleton
from morsematch.morse import MatchingComplex
from morsematch.verify import (default_suite, verify_cone_contiguity,
                               verify_conjecture_evidence,
                               verify_euler_obstruction_n4,
                               verify_gm_structure, verify_inclusion_full,
                               verify_layer_counts, verify_les_example,
                               verify_pair_splitting, verify_reference_tables,
                               verify_restriction_fibers, verify_spanning_tree,
                               verify_top_facet_bijection, N4_F_VECTOR)


def test_top_facet_bijection():
    r = verify_top_facet_bijection(2)
    assert r.passed and r.details["count"] == 9
    r = verify_top_facet_bijection(3)
    assert r.passed and r.details["count"] == 256


def test_top_facet_bijection_rejects_n1():
    assert verify_top_facet_bijection(1).status == "fail"


def test_layer_counts():
    assert verify_layer_counts(2).passed
    r = verify_layer_counts(3)
    assert r.passed and r.details == {"count": 256, "profile": [3, 3, 1]}


def test_spanning_tree():
    r = verify_spanning_tree(3)
    assert r.passed
    assert r.details == {"count": 64, "distinct_trees": 16}


def test_spanning_tree_specific_matching():
    # the star matching at vertex 0 of the K4 graph leaves critical edges
    # whose facet-graph edges all meet at the facet opposite vertex 0
    from morsematch.complexes import build_simplex, face_mask, skeleton
    from morsematch.hasse import build_hasse, critical_faces
    from morsematch.verify import _facet_graph_edge
    sk = skeleton(build_simplex(3), 1)
    H = build_hasse(sk)
    pairs = [((1,), (0, 1)), ((2,), (0, 2)), ((3,), (0, 3))]
    mask = 0
    for lo, up in pairs:
        for e in range(H.edge_count):
            if H.edge_faces(e) == (face_mask(lo), face_mask(up)):
                mask |= 1 << e
    crit = critical_faces(H, mask)
    assert crit[0] == [face_mask((0,))]
    edges = [_facet_graph_edge(u, 3) for u in crit[1]]
    assert edges == [(0, 3), (0, 2), (0, 1)]  # a star centered at F_0
    assert len({v for e in edges for v in e}) == 4


def test_facet_graph_is_complete():
    # the codimension-2 faces of the n-simplex biject with the vertex pairs
    # of the facet graph, labeling the edges of a complete graph
    from itertools import combinations
    from morsematch.complexes import build_simplex
    from morsematch.verify import _facet_graph_edge
    for n in (3, 4):
        K = build_simplex(n)
        edges = [_facet_graph_edge(u, n) for u in K.faces_by_dim[n - 2]]
        assert sorted(edges) == list(combinations(range(n + 1), 2))


def test_restriction_fibers_n3():
    r = verify_restriction_fibers(3)
    assert r.passed
    assert r.details == {"count": 256, "skeleton_count": 64, "fiber_size": 4}


def test_restriction_fiber_of_star_matching():
    # the fiber over the star matching has one extension per root facet
    from morsematch.complexes import (build_simplex, face_mask, face_vertices,
                                      skeleton)
    from morsematch.hasse import build_hasse
    from morsematch.layers import (LayerSystem, iter_matchings_of_cardinality,
                                   max_cardinality_info, suffix_tables)
    from morsematch.morse import induced_inclusion
    d3 = build_simplex(3)
    sk = skeleton(d3, 1)
    HK = build_hasse(d3)
    Hs = build_hasse(sk)
    star = 0
    for lo, up in [((1,), (0, 1)), ((2,), (0, 2)), ((3,), (0, 3))]:
        for e in range(Hs.edge_count):
            if Hs.edge_faces(e) == (face_mask(lo), face_mask(up)):
                star |= 1 << e
    sk_to_k = induced_inclusion(sk, d3)
    k_to_sk = {ke: se for se, ke in enumerate(sk_to_k)}
    fiber = []
    ls = LayerSystem(HK)
    S = suffix_tables(ls, acyclic=True)
    best, _ = max_cardinality_info(S[0][0])
    for mask in iter_matchings_of_cardinality(ls, S, best, acyclic=True):
        rho = 0
        for e in face_vertices(mask):
            se = k_to_sk.get(e)
            if se is not None and HK.layer_of[e] == 0:
                rho |= 1 << se
        if rho == star:
            fiber.append(mask)
    assert len(fiber) == 4


def test_cone_contiguity():
    for spec in ("simplex:1", "boundary:2", "simplex:2"):
        r = verify_cone_contiguity(spec)
        assert r.passed, r.details
    # face counts: two for the edge, the full matching complex otherwise
    assert verify_cone_contiguity("simplex:1").details["faces_checked"] == 2


def test_pair_splitting():
    r = verify_pair_splitting([("simplex:2", "simplex:1"),
                               ("simplex:3", "simplex:2")])
    assert r.passed, r.details


def test_pair_splitting_degenerate_base():
    # the base complex of the edge is a point, whose matching complex is
    # void; the splitting identity still holds with the void conventions
    r = verify_pair_splitting([("simplex:1", "simplex:0")])
    assert r.passed, r.details


def test_pair_splitting_rejects_non_cone():
    with pytest.raises(ValueError):
        verify_pair_splitting([("simplex:3", "simplex:1")])


def test_les_example():
    r = verify_les_example()
    assert r.passed
    assert r.details["sequence"] == [24, 99, 96, 21]
    assert 24 - 99 + 96 - 21 == 0


def test_inclusion_full():
    for k_spec, l_spec in [("boundary:3", "simplex:3"),
                           ("simplex:2", "simplex:3"),
                           ("simplex:2", "simplex:2")]:
        r = verify_inclusion_full(k_spec, l_spec)
        assert r.passed, (k_spec, l_spec, r.details)


def test_gm_structure():
    r2 = verify_gm_structure(2)
    assert r2.passed and r2.details["link_f_vector"] == [4, 3]
    r3 = verify_gm_structure(3)
    assert r3.passed
    assert r3.details["link_f_vector"] == [21, 162, 570, 924, 612, 116]


def test_gm_structure_fails_on_a_wrong_link_model(monkeypatch):
    # the cone over the vertices of the boundary of the 2-simplex is not the
    # cone over the whole boundary; the invariants checked on the model
    # already tell them apart
    monkeypatch.setattr(verify, "cone", lambda K: cone(skeleton(K, 0)))
    r = verify_gm_structure(3)
    assert r.status == "fail"
    assert r.details["message"] == "link f-vector [6, 9, 4] is wrong"


@pytest.mark.parametrize("n", [2, 3])
def test_gm_structure_fails_on_a_relabelled_link_model(monkeypatch, n):
    # reversing the model's vertex order keeps every invariant of the model
    # but breaks the edge map, so only the isomorphism check can fail
    build = verify.build_matching_complex
    model_base = cone(build_boundary(n - 1))[0]

    def build_reversed_model(K, variant, max_faces):
        mc = build(K, variant, max_faces=max_faces)
        if K != model_base:
            return mc
        m = mc.edge_count
        return MatchingComplex(variant, K, mc.hasse,
                               relabel(mc.complex, range(m - 1, -1, -1), m))

    monkeypatch.setattr(verify, "build_matching_complex", build_reversed_model)
    r = verify_gm_structure(n)
    assert r.status == "fail"
    assert r.details["message"] == "link is not isomorphic to the cone model"


def test_gm_structure_out_of_range():
    assert verify_gm_structure(4).status == "fail"


def test_reference_tables():
    r = verify_reference_tables()
    assert r.passed
    assert r.details["optimal_counts"] == {1: 2, 2: 9, 3: 256}


def test_conjecture_evidence():
    for variant in ("MP", "GM"):
        for n in (2, 3):
            r = verify_conjecture_evidence(variant, n)
            assert r.passed
            assert "evidence" in r.details["label"]


def test_euler_obstruction_computes_without_data():
    r = verify_euler_obstruction_n4(None)
    assert r.passed and r.instance == {}
    assert r.details["computed"] is True
    assert r.details["euler_characteristic"] == 212457
    r = verify_euler_obstruction_n4(list(N4_F_VECTOR))
    assert r.passed
    assert r.details["computed"] is False
    assert r.details["euler_characteristic"] == 212457
    assert r.details["reduced_euler_characteristic"] == 212456


def test_failed_check_carries_its_witness(monkeypatch):
    import morsematch.verify as verify_mod
    monkeypatch.setattr(verify_mod, "critical_faces",
                        lambda H, mask: [[], []])
    r = verify_spanning_tree(3)
    assert r.status == "fail"
    assert r.details == {
        "message": "unexpected critical face counts on the skeleton"}
    # the witness is the failing matching as [lower, upper] face pairs
    assert len(r.witness) == 3  # a maximum matching on the skeleton K4
    for lower, upper in r.witness:
        assert len(upper) == len(lower) + 1 and set(lower) < set(upper)


def test_bijection_and_fibers_fail_when_a_matching_is_missing(monkeypatch):
    # drop one maximum matching of the boundary (for the bijection) or of
    # the skeleton (for the fibers); both checks must notice
    import morsematch.verify as verify_mod
    optimal_masks = verify_mod._optimal_masks

    def lossy(H, budget):
        best, masks = optimal_masks(H, budget)
        return best, masks[1:] if H.base.dim < 3 else masks

    monkeypatch.setattr(verify_mod, "_optimal_masks", lossy)
    r = verify_top_facet_bijection(3)
    assert r.status == "fail"
    assert r.details == {
        "message": "deleted matching is not optimal on the boundary"}
    assert len(r.witness) == 7  # a maximum matching of the 3-simplex
    r = verify_restriction_fibers(3)
    assert r.status == "fail"
    assert r.details == {"message": "256 != 4 x 63"}


def test_budget_skip():
    r = verify_top_facet_bijection(3, budget=10)
    assert r.status == "skipped-budget"


def test_budget_skip_on_complexes_too_wide_for_the_layer_transfer():
    t0 = time.perf_counter()
    r = verify_top_facet_bijection(5, budget=10)
    assert r.status == "skipped-budget"
    assert "dimension 2 has 20 tracked faces" in r.details["reason"]
    assert time.perf_counter() - t0 < 1.0


def test_default_suite_all_pass():
    reports = default_suite(max_n=2)
    assert reports
    assert all(r.status == "pass" for r in reports), \
        [(r.name, r.status, r.details) for r in reports if not r.passed]


def test_default_suite_unknown_name():
    with pytest.raises(ValueError):
        default_suite(only="no-such-check")
