import random

import pytest

from morsematch.complexes import (SimplicialComplex, build_boundary,
                                  build_simplex, cone, face_mask,
                                  face_vertices, skeleton)
from morsematch.hasse import build_hasse, is_matching
from morsematch.homology import homology
from morsematch.layers import (LayerSystem, enumerate_optimal,
                               max_cardinality_info, matching_counts,
                               suffix_tables)
from morsematch.verify import _acyclic_matching

from oracles import (all_matchings, brute_force_counts, critical_faces,
                     modified_digraph_acyclic)
from test_layers import CORPUS, every_matching, walk_masks

TABLE1_M_D3 = [28, 300, 1544, 3932, 4632, 2128, 256]
TABLE1_M_BD3 = [24, 216, 896, 1692, 1248, 256]


def optimal_walk(ls) -> list[int]:
    """Every maximum acyclic matching, walked on one layer system."""
    S = suffix_tables(ls, acyclic=True)
    best, _ = max_cardinality_info(S[0][0])
    return walk_masks(ls, best, acyclic=True)


def walked(ls, acyclic: bool) -> list[int]:
    """Non-empty matchings from the layer product, in canonical edge
    order."""
    return sorted(every_matching(ls, acyclic), key=face_vertices)


def edge_of(H, lo, up):
    lo, up = face_mask(lo), face_mask(up)
    for e in range(H.edge_count):
        if H.edge_faces(e) == (lo, up):
            return e
    raise AssertionError(f"no Hasse edge {lo} -> {up}")


def test_edge_counts():
    assert build_hasse(build_simplex(3)).edge_count == 28
    assert build_hasse(build_boundary(3)).edge_count == 24
    assert build_hasse(build_simplex(4)).edge_count == 75
    # a void base has a diagram too: no faces, no edges
    H = build_hasse(SimplicialComplex.void(3))
    assert H.edge_count == 0 and H.face_of_gid == [] and H.offsets == [0, 0]


def test_edge_order_canonical():
    H = build_hasse(build_simplex(3))
    keyed = [(H.layer_of[e],) + tuple(tuple(face_vertices(f))
                                      for f in H.edge_faces(e))
             for e in range(H.edge_count)]
    assert keyed == sorted(keyed)
    for e in range(H.edge_count):
        lo, up = map(face_vertices, H.edge_faces(e))
        assert set(lo) < set(up) and len(up) == len(lo) + 1


def test_incidence_lists():
    H = build_hasse(build_simplex(2))
    for g, face in enumerate(map(face_vertices, H.face_of_gid)):
        ups = H.edges_up[g]
        assert all(H.lower[e] == g for e in ups)
        # number of edges above a face equals its coface count
        cofaces = sum(1 for f in map(face_vertices, H.base.faces())
                      if len(f) == len(face) + 1 and set(face) < set(f))
        assert len(ups) == cofaces


def test_is_matching():
    H = build_hasse(build_boundary(2))  # vertices a=0 b=1 c=2
    m1 = H.mask_from_edges([edge_of(H, (0,), (0, 1)), edge_of(H, (1,), (1, 2))])
    assert is_matching(H, m1)
    m2 = H.mask_from_edges([edge_of(H, (0,), (0, 1)), edge_of(H, (1,), (0, 1))])
    assert not is_matching(H, m2)
    assert is_matching(H, 0)


def layer_edge_masks(ls, d: int, acyclic: bool) -> set[int]:
    """Edge masks of the matchings of layer d, from the layer enumerator."""
    unpack = ls.layers[d].unpack
    return {unpack(x)[2] for x in ls.matchings(d, acyclic)}


def test_is_acyclic_triangle_cycle():
    # matching a->ab, b->bc, c->ca walks around the triangle and closes up:
    # it is a matching of layer 0 but not one of its acyclic matchings
    ls = LayerSystem(build_boundary(2))
    H = ls.H
    cyc = H.mask_from_edges([edge_of(H, (0,), (0, 1)),
                             edge_of(H, (1,), (1, 2)),
                             edge_of(H, (2,), (0, 2))])
    acyclic = layer_edge_masks(ls, 0, True)
    assert cyc in layer_edge_masks(ls, 0, False)
    assert cyc not in acyclic
    assert not modified_digraph_acyclic(H, cyc)
    # dropping any one pair breaks the cycle
    for e in face_vertices(cyc):
        assert cyc & ~(1 << e) in acyclic


def test_is_acyclic_star_matching_on_k4():
    ls = LayerSystem(skeleton(build_simplex(3), 1))
    H = ls.H
    star = H.mask_from_edges([edge_of(H, (1,), (0, 1)),
                              edge_of(H, (2,), (0, 2)),
                              edge_of(H, (3,), (0, 3))])
    assert star in layer_edge_masks(ls, 0, True)
    assert modified_digraph_acyclic(H, star)


def test_single_edges_always_acyclic():
    for K in (build_simplex(2), build_boundary(3)):
        ls = LayerSystem(K)
        acyclic = _acyclic_matching(ls)
        for e in range(ls.H.edge_count):
            assert acyclic(1 << e)


def test_layered_agrees_with_whole_digraph_oracle():
    # verify's per-layer test of an acyclic matching against a matching
    # test and the cycle test of the whole modified digraph: on every edge
    # subset of the three smaller diagrams, and on every matching of
    # cone(boundary(2)), whose 2^21 subsets take seconds (the helper
    # refuses a non-matching with `is_matching` before any layer)
    for K in (build_simplex(2), build_boundary(2),
              skeleton(build_simplex(3), 1), cone(build_boundary(2))[0]):
        ls = LayerSystem(K)
        H = ls.H
        acyclic = _acyclic_matching(ls)
        if H.edge_count <= 12:
            masks = range(1 << H.edge_count)
        else:
            masks = all_matchings(H, "all")
        refused = 0
        for mask in masks:
            matching = is_matching(H, mask)
            want = matching and modified_digraph_acyclic(H, mask)
            assert acyclic(mask) == want, (K, mask)
            refused += matching and not want
        assert refused > 0


def test_enumerate_matchings_counts():
    assert matching_counts(build_simplex(1)) == [2]
    assert matching_counts(build_boundary(2)) == [6, 9]
    assert matching_counts(build_simplex(3)) == TABLE1_M_D3
    assert matching_counts(build_boundary(3)) == TABLE1_M_BD3


def test_enumerate_against_brute_force():
    complexes = [build_simplex(1), build_simplex(2), build_boundary(2),
                 SimplicialComplex.from_facets(
                     map(face_mask, [(0, 1), (1, 2), (2, 3)]))]
    for K in complexes:
        H = build_hasse(K)
        for mode in ("acyclic", "all"):
            assert matching_counts(K, mode) == brute_force_counts(H, mode)


def test_gm_dominates_and_matches_low_dims():
    K = build_simplex(3)
    m = matching_counts(K, "acyclic")
    gm = matching_counts(K, "all")
    assert len(gm) >= len(m)
    assert all(g >= a for g, a in zip(gm, m))
    assert gm[0] == m[0] and gm[1] == m[1]  # 1-skeletons coincide


def test_matching_heredity():
    # every subset of an acyclic matching is acyclic
    rng = random.Random(5)
    ls = LayerSystem(build_simplex(3))
    H = ls.H
    acyclic_masks = walked(ls, acyclic=True)
    for mask in rng.sample(acyclic_masks, 400):
        sub = mask
        keep = rng.randrange(1 << bin(mask).count("1"))
        chosen = 0
        for i, e in enumerate(face_vertices(mask)):
            if (keep >> i) & 1:
                chosen |= 1 << e
        assert modified_digraph_acyclic(H, chosen)


def test_critical_faces():
    d3 = build_simplex(3)
    ls = LayerSystem(d3)
    H = ls.H
    best, count = enumerate_optimal(d3)
    assert (best, count) == (7, 256)
    masks = optimal_walk(ls)
    assert len(masks) == count
    for mask in masks:
        counts = [len(faces) for faces in critical_faces(H, mask)]
        assert counts == [1, 0, 0, 0]
        assert sum(counts) + 2 * bin(mask).count("1") == d3.total_faces()

    ls_b = LayerSystem(build_boundary(3))
    Hb = ls_b.H
    for mask in optimal_walk(ls_b):
        counts = [len(faces) for faces in critical_faces(Hb, mask)]
        assert counts == [1, 0, 1]  # one vertex and one top face

    H1 = build_hasse(build_simplex(1))
    assert [len(faces) for faces in critical_faces(H1, 0)] == [2, 1]


def test_critical_faces_and_edges_agree_with_gid_scan():
    for K in CORPUS:
        H = build_hasse(K)
        for mask in [0] + all_matchings(H, "all"):
            matched = set()
            for e in face_vertices(mask):
                matched |= {H.lower[e], H.upper[e]}
            want = [[] for _ in range(K.dim + 1)]
            for g, f in enumerate(H.face_of_gid):
                if g not in matched:
                    want[len(face_vertices(f)) - 1].append(f)
            assert critical_faces(H, mask) == want
        for e in range(H.edge_count):
            assert H.edge(*H.edge_faces(e)) == e
        # reversed, same dimension, and a coface outside the base
        lo, up = H.edge_faces(H.edge_count - 1)
        for pair in [(up, lo), (lo, lo), (lo, lo | 1 << K.vertex_count)]:
            with pytest.raises(KeyError):
                H.edge(*pair)


def test_weak_morse_inequalities():
    # every acyclic matching leaves at least betti_i critical i-faces
    rng = random.Random(11)
    for K in (build_simplex(2), build_boundary(2), build_boundary(3),
              skeleton(build_simplex(3), 1)):
        ls = LayerSystem(K)
        H = ls.H
        betti = [homology(K, reduced=False).betti(d) for d in range(K.dim + 1)]
        masks = walked(ls, acyclic=True)
        sample = masks if len(masks) <= 300 else rng.sample(masks, 300)
        for mask in sample:
            crit = critical_faces(H, mask)
            assert all(len(c_i) >= b_i for c_i, b_i in zip(crit, betti))


def test_optimal_counts_small():
    for n, best_want, count_want in [(1, 1, 2), (2, 3, 9), (3, 7, 256)]:
        assert enumerate_optimal(build_simplex(n)) == (best_want, count_want)
        assert best_want == 2 ** n - 1
