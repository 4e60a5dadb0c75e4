"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is an exact integer; there are no tolerances to
tune anywhere in this file.
"""

import random

import pytest

from morsematch.complexes import (build_boundary, build_simplex,
                                  euler_characteristic, f_vector, face_mask,
                                  face_vertices, skeleton)
from morsematch.hasse import build_hasse, critical_faces, is_acyclic
from morsematch.homology import (boundary_matrices, homology,
                                 smith_normal_form, SparseIntMatrix)
from morsematch.layers import (LayerSystem, enumerate_optimal,
                               iter_matchings_of_cardinality,
                               max_cardinality_info, profile_counts,
                               suffix_tables)
from morsematch.morse import build_matching_complex
from morsematch.verify import (N4_F_VECTOR, verify_cone_contiguity,
                               verify_euler_obstruction_n4,
                               verify_gm_structure, verify_layer_counts,
                               verify_les_example, verify_pair_splitting,
                               verify_restriction_fibers, verify_spanning_tree,
                               verify_top_facet_bijection)

from oracles import snf_divisors_sympy


def acyclic_matchings(H) -> list[int]:
    """Non-empty acyclic matchings from the layer walk, in canonical edge
    order."""
    masks = [m for m in iter_matchings_of_cardinality(LayerSystem(H), None,
                                                      None, acyclic=True) if m]
    return sorted(masks, key=face_vertices)


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {text}")


@pytest.fixture(scope="module")
def d4_layers():
    H = build_hasse(build_simplex(4))
    ls = LayerSystem(H)
    S = suffix_tables(ls, acyclic=True)
    return H, ls, S


def test_criterion_01_table1_f_vectors(m_d3, m_bd3, mp_d3, mp_bd3):
    expected = {
        "M(simplex:3)": (m_d3, [28, 300, 1544, 3932, 4632, 2128, 256], 100),
        "M(boundary:3)": (m_bd3, [24, 216, 896, 1692, 1248, 256], 4),
        "MP(simplex:3)": (mp_d3, [28, 300, 1544, 3680, 3672, 1600, 256], -80),
        "MP(boundary:3)": (mp_bd3, [24, 216, 896, 1680, 1152, 256], -80),
    }
    for name, (mc, fv, chi) in expected.items():
        assert f_vector(mc.complex) == fv, name
        assert euler_characteristic(mc.complex) == chi, name
    report(1, "Table 1 f-vectors and Euler characteristics (100, 4, -80, -80)")


def test_criterion_02_table2_homology(m_d3, m_bd3, mp_d3, mp_bd3):
    expected = {
        "M(simplex:3)": (m_d3, {4: (99, ())}),
        "M(boundary:3)": (m_bd3, {3: (21, ()), 4: (24, ())}),
        "MP(simplex:3)": (mp_d3, {3: (81, ())}),
        "MP(boundary:3)": (mp_bd3, {3: (81, ())}),
    }
    for name, (mc, want) in expected.items():
        h = homology(mc.complex, reduced=True)
        assert h.nonzero() == want, name
        assert h.is_torsion_free(), name
    report(2, "Table 2 integral homology, all groups torsion-free")


def test_criterion_03_optimal_counts():
    for n, want in [(1, 2), (2, 9), (3, 256)]:
        best, count = enumerate_optimal(build_hasse(build_simplex(n)))
        assert count == want and best == 2 ** n - 1
    sk = skeleton(build_simplex(3), 1)
    best, count = enumerate_optimal(build_hasse(sk))
    assert (best, count) == (3, 64)
    r = verify_spanning_tree(3)
    assert r.passed and r.details == {"count": 64, "distinct_trees": 16}
    report(3, "f(1)=2, f(2)=9, f(3)=256; 64 skeleton optima; 16 trees of K4")


def test_criterion_04_theorem_suite_n3():
    r = verify_top_facet_bijection(3)
    assert r.passed and r.details["count"] == 256
    r = verify_layer_counts(3)
    assert r.passed and r.details["profile"] == [3, 3, 1]
    r = verify_spanning_tree(3)
    assert r.passed and r.details["count"] == 64
    r = verify_restriction_fibers(3)
    assert r.passed and r.details == {"count": 256, "skeleton_count": 64,
                                      "fiber_size": 4}
    report(4, "n=3 suite: bijection on 256, layers (3,3,1), 64 trees, fibers of 4")


def test_criterion_05_cone_contiguity():
    checked = {}
    for spec in ("simplex:1", "boundary:2", "simplex:2"):
        r = verify_cone_contiguity(spec, w0=0)
        assert r.passed, (spec, r.details)
        checked[spec] = r.details["faces_checked"]
    assert checked["simplex:1"] == 2
    report(5, f"cone contiguity on {checked} faces")


def test_criterion_06_les_and_splitting():
    r = verify_les_example()
    assert r.passed and r.details["sequence"] == [24, 99, 96, 21]
    r = verify_pair_splitting([("simplex:3", "simplex:2")])
    assert r.passed
    report(6, "relative (Z^96, 0), sequence 24-99+96-21=0, cone splitting")


def test_criterion_07_gm_suite(gm_d3, gm_bd3):
    for name, mc in (("GM(simplex:3)", gm_d3), ("GM(boundary:3)", gm_bd3)):
        h = homology(mc.complex, reduced=True)
        assert h.nonzero() == {4: (39, ())}, name
    r3 = verify_gm_structure(3)
    assert r3.passed
    assert r3.details["link_f_vector"] == [21, 162, 570, 924, 612, 116]
    r2 = verify_gm_structure(2)
    assert r2.passed and r2.details["link_f_vector"] == [4, 3]
    report(7, "GM homology Z^39 twice; covering, links, and the n=2 tree")


def test_criterion_08_n4_desk_scale(d4_layers):
    H4, ls4, S4 = d4_layers
    best4, count4 = max_cardinality_info(S4[0][0])
    assert (best4, count4) == (15, 380125)

    sk = skeleton(build_simplex(4), 2)
    best_s, count_s = enumerate_optimal(build_hasse(sk))
    assert (best_s, count_s) == (10, 76025)
    assert count4 == 5 * count_s == 380125

    profiles = profile_counts(ls4, S4, best4, acyclic=True)
    assert profiles == {(4, 6, 4, 1): 380125}

    r = verify_restriction_fibers(4)
    assert r.passed, r.details
    assert r.details == {"count": 380125, "skeleton_count": 76025,
                         "fiber_size": 5}
    report(8, "n=4: 380,125 = 5 x 76,025, fibers of 5, layers (4,6,4,1)")


def test_criterion_09_stretch_n4_f_vector(d4_layers):
    # required substitute: consistency of the published 15-entry vector
    r = verify_euler_obstruction_n4(list(N4_F_VECTOR))
    assert r.passed
    assert r.details["euler_characteristic"] == 212457
    assert r.details["reduced_euler_characteristic"] == 212456

    # the stretch itself is cheap here: recompute the vector exactly
    H4, ls4, S4 = d4_layers
    vec = S4[0][0][1:]
    assert vec == list(N4_F_VECTOR)
    assert sum((-1) ** d * v for d, v in enumerate(vec)) == 212457
    report(9, "full 15-entry f-vector of the 4-simplex recomputed, chi=212,457")


def test_criterion_10_property_suites():
    rng = random.Random(99)

    # downward closure of every constructed complex
    corpus = [build_simplex(3), build_boundary(3),
              skeleton(build_simplex(4), 2),
              build_matching_complex(build_boundary(2), "M").complex,
              build_matching_complex(build_simplex(2), "GM").complex]
    for K in corpus:
        for d in range(1, K.dim + 1):
            for f in map(face_vertices, K.faces_by_dim[d]):
                for i in range(len(f)):
                    assert K.has_face(face_mask(f[:i] + f[i + 1:]))

    # boundary of boundary vanishes (validated during construction)
    for K in corpus:
        boundary_matrices(K, reduced=True)

    # Smith normal form against an independent implementation
    for _ in range(30):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        dense = [[rng.randint(-9, 9) if rng.random() < 0.5 else 0
                  for _ in range(nc)] for _ in range(nr)]
        m = SparseIntMatrix(nr, nc)
        for r_, row in enumerate(dense):
            for c_, v in enumerate(row):
                m.set(r_, c_, v)
        assert smith_normal_form(m)[0] == snf_divisors_sympy(dense)

    # matching heredity on sampled faces
    H = build_hasse(build_simplex(3))
    masks = acyclic_matchings(H)
    for mask in rng.sample(masks, 200):
        sub = 0
        for e in face_vertices(mask):
            if rng.random() < 0.5:
                sub |= 1 << e
        assert is_acyclic(H, sub)

    # weak Morse inequalities on sampled matchings
    for K in (build_boundary(2), build_boundary(3)):
        HK = build_hasse(K)
        betti = [homology(K, reduced=False).betti(d) for d in range(K.dim + 1)]
        all_masks = acyclic_matchings(HK)
        for mask in rng.sample(all_masks, min(200, len(all_masks))):
            crit = critical_faces(HK, mask)
            assert all(len(ci) >= bi for ci, bi in zip(crit, betti))

    # Euler-Betti consistency on every complex computed here
    for K in corpus:
        h = homology(K, reduced=False)
        assert sum((-1) ** d * h.betti(d) for d in range(K.dim + 1)) \
            == euler_characteristic(K)

    report(10, "closure, dd=0, SNF oracle, heredity, Morse bounds")
