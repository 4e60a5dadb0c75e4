import random

import pytest

from morsematch.complexes import (SimplicialComplex, build_boundary,
                                  build_simplex, face_mask, face_vertices,
                                  skeleton)
from morsematch.hasse import build_hasse, critical_faces, is_acyclic, is_matching
from morsematch.homology import homology
from morsematch.layers import (LayerSystem, enumerate_optimal,
                               iter_matchings_of_cardinality,
                               max_cardinality_info, matching_counts,
                               suffix_tables)

from oracles import all_matchings, brute_force_counts, modified_digraph_acyclic
from test_layers import CORPUS

TABLE1_M_D3 = [28, 300, 1544, 3932, 4632, 2128, 256]
TABLE1_M_BD3 = [24, 216, 896, 1692, 1248, 256]


def optimal_walk(H) -> list[int]:
    """Every maximum acyclic matching, walked on one layer system."""
    ls = LayerSystem(H)
    S = suffix_tables(ls, acyclic=True)
    best, _ = max_cardinality_info(S[0][0])
    return list(iter_matchings_of_cardinality(ls, S, best, acyclic=True))


def walked(H, acyclic: bool) -> list[int]:
    """Non-empty matchings from the layer walk, in canonical edge order."""
    masks = [m for m in iter_matchings_of_cardinality(LayerSystem(H), None,
                                                      None, acyclic) if m]
    return sorted(masks, key=face_vertices)


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


def test_is_acyclic_triangle_cycle():
    # matching a->ab, b->bc, c->ca walks around the triangle and closes up
    H = build_hasse(build_boundary(2))
    cyc = H.mask_from_edges([edge_of(H, (0,), (0, 1)),
                             edge_of(H, (1,), (1, 2)),
                             edge_of(H, (2,), (0, 2))])
    assert not is_acyclic(H, cyc)
    assert not modified_digraph_acyclic(H, cyc)
    # dropping any one pair breaks the cycle
    for e in face_vertices(cyc):
        assert is_acyclic(H, cyc & ~(1 << e))


def test_is_acyclic_star_matching_on_k4():
    H = build_hasse(skeleton(build_simplex(3), 1))
    star = H.mask_from_edges([edge_of(H, (1,), (0, 1)),
                              edge_of(H, (2,), (0, 2)),
                              edge_of(H, (3,), (0, 3))])
    assert is_acyclic(H, star)


def test_single_edges_always_acyclic():
    for K in (build_simplex(2), build_boundary(3)):
        H = build_hasse(K)
        for e in range(H.edge_count):
            assert is_acyclic(H, 1 << e)


def test_is_acyclic_rejects_non_matching():
    H = build_hasse(build_simplex(1))
    with pytest.raises(ValueError):
        is_acyclic(H, 0b11)


def test_layered_agrees_with_whole_digraph_oracle():
    rng = random.Random(2024)
    corpus = [build_simplex(2), build_boundary(2), build_simplex(3),
              skeleton(build_simplex(3), 1)]
    for K in corpus:
        H = build_hasse(K)
        for _ in range(300):
            mask = 0
            used = 0
            for e in rng.sample(range(H.edge_count), H.edge_count):
                lo, up = H.lower[e], H.upper[e]
                fm = (1 << lo) | (1 << up)
                if rng.random() < 0.4 and not used & fm:
                    mask |= 1 << e
                    used |= fm
            assert is_acyclic(H, mask) == modified_digraph_acyclic(H, mask)


def test_enumerate_matchings_counts():
    assert matching_counts(build_hasse(build_simplex(1))) == [2]
    assert matching_counts(build_hasse(build_boundary(2))) == [6, 9]
    assert matching_counts(build_hasse(build_simplex(3))) == TABLE1_M_D3
    assert matching_counts(build_hasse(build_boundary(3))) == TABLE1_M_BD3


def test_enumerate_against_brute_force():
    complexes = [build_simplex(1), build_simplex(2), build_boundary(2),
                 SimplicialComplex.from_facets(
                     map(face_mask, [(0, 1), (1, 2), (2, 3)]))]
    for K in complexes:
        H = build_hasse(K)
        for mode in ("acyclic", "all"):
            assert matching_counts(H, mode) == brute_force_counts(H, mode)


def test_gm_dominates_and_matches_low_dims():
    H = build_hasse(build_simplex(3))
    m = matching_counts(H, "acyclic")
    gm = matching_counts(H, "all")
    assert len(gm) >= len(m)
    assert all(g >= a for g, a in zip(gm, m))
    assert gm[0] == m[0] and gm[1] == m[1]  # 1-skeletons coincide


def test_matching_heredity():
    # every subset of an acyclic matching is acyclic
    rng = random.Random(5)
    H = build_hasse(build_simplex(3))
    acyclic_masks = walked(H, acyclic=True)
    for mask in rng.sample(acyclic_masks, 400):
        sub = mask
        keep = rng.randrange(1 << bin(mask).count("1"))
        chosen = 0
        for i, e in enumerate(face_vertices(mask)):
            if (keep >> i) & 1:
                chosen |= 1 << e
        assert is_acyclic(H, chosen)


def test_critical_faces():
    d3 = build_simplex(3)
    H = build_hasse(d3)
    best, count = enumerate_optimal(H)
    assert (best, count) == (7, 256)
    masks = optimal_walk(H)
    assert len(masks) == count
    for mask in masks:
        counts = [len(faces) for faces in critical_faces(H, mask)]
        assert counts == [1, 0, 0, 0]
        assert sum(counts) + 2 * bin(mask).count("1") == d3.total_faces()

    Hb = build_hasse(build_boundary(3))
    for mask in optimal_walk(Hb):
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
        H = build_hasse(K)
        betti = [homology(K, reduced=False).betti(d) for d in range(K.dim + 1)]
        masks = walked(H, acyclic=True)
        sample = masks if len(masks) <= 300 else rng.sample(masks, 300)
        for mask in sample:
            crit = critical_faces(H, mask)
            assert all(len(c_i) >= b_i for c_i, b_i in zip(crit, betti))


def test_optimal_counts_small():
    for n, best_want, count_want in [(1, 1, 2), (2, 3, 9), (3, 7, 256)]:
        H = build_hasse(build_simplex(n))
        assert enumerate_optimal(H) == (best_want, count_want)
        assert best_want == 2 ** n - 1
