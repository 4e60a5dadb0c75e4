import pytest

from morsematch.complexes import (build_boundary, build_simplex, cone,
                                  euler_characteristic, f_vector, face_mask,
                                  face_vertices, is_full_subcomplex, relabel,
                                  skeleton)
from morsematch.hasse import build_hasse, is_acyclic, is_matching
from morsematch.morse import (MaterializationLimitError, build_matching_complex,
                              cone_pair, induced_inclusion,
                              matching_complex_f_vector)

from oracles import modified_digraph_acyclic
from test_layers import CORPUS


def test_table1_f_vectors(m_d3, m_bd3, mp_d3, mp_bd3):
    assert f_vector(m_d3.complex) == [28, 300, 1544, 3932, 4632, 2128, 256]
    assert f_vector(m_bd3.complex) == [24, 216, 896, 1692, 1248, 256]
    assert f_vector(mp_d3.complex) == [28, 300, 1544, 3680, 3672, 1600, 256]
    assert f_vector(mp_bd3.complex) == [24, 216, 896, 1680, 1152, 256]
    assert euler_characteristic(m_d3.complex) == 100
    assert euler_characteristic(m_bd3.complex) == 4
    assert euler_characteristic(mp_d3.complex) == -80
    assert euler_characteristic(mp_bd3.complex) == -80


def test_prism_example(bd2):
    mc = build_matching_complex(bd2, "M")
    assert f_vector(mc.complex) == [6, 9]
    assert euler_characteristic(mc.complex) == -3


def test_pure_equals_full_for_triangle(d2):
    assert build_matching_complex(d2, "M").complex \
        == build_matching_complex(d2, "MP").complex


def test_variant_inclusions(d3):
    m = build_matching_complex(d3, "M").complex
    mp = build_matching_complex(d3, "MP").complex
    gm = build_matching_complex(d3, "GM").complex
    assert m.contains_complex(mp)
    assert gm.contains_complex(m)


def test_pure_complex_is_pure(mp_d3, mp_bd3):
    for mc in (mp_d3, mp_bd3):
        faces_by_dim = [list(map(face_vertices, lst))
                        for lst in mc.complex.faces_by_dim]
        top = mc.complex.dim
        for d in range(top):
            for f in faces_by_dim[d]:
                fs = set(f)
                has_coface = any(fs < set(g) and len(g) == len(f) + 1
                                 for g in faces_by_dim[d + 1])
                assert has_coface, f"facet {f} of dimension {d} breaks purity"


def test_one_skeletons_of_m_and_gm_coincide():
    corpus = [build_simplex(2), build_boundary(2), build_simplex(3),
              build_boundary(3), skeleton(build_simplex(3), 1)]
    for K in corpus:
        m = build_matching_complex(K, "M").complex
        gm = build_matching_complex(K, "GM").complex
        assert m.faces_by_dim[0] == gm.faces_by_dim[0]
        if m.dim >= 1:
            assert m.faces_by_dim[1] == gm.faces_by_dim[1]


def test_two_skeletons_of_m_and_mp_coincide_n3(m_d3, mp_d3, m_bd3, mp_bd3):
    # set equality in dimensions 0..2, stronger than matching counts
    for m, mp in ((m_d3, mp_d3), (m_bd3, mp_bd3)):
        for d in range(3):
            assert m.complex.faces_by_dim[d] == mp.complex.faces_by_dim[d]


def test_faces_satisfy_defining_predicates(bd2, d3):
    mc = build_matching_complex(bd2, "M")
    for face in mc.complex.faces():
        mask = mc.hasse.mask_from_edges(face_vertices(face))
        assert is_acyclic(mc.hasse, mask)
        assert modified_digraph_acyclic(mc.hasse, mask)
    gm = build_matching_complex(bd2, "GM")
    for face in gm.complex.faces():
        assert is_matching(gm.hasse, gm.hasse.mask_from_edges(face_vertices(face)))
    # sampled heredity on the larger complex
    m3 = build_matching_complex(d3, "M")
    for face in list(m3.complex.faces())[::97]:
        assert is_acyclic(m3.hasse, m3.hasse.mask_from_edges(face_vertices(face)))


def test_void_cases():
    bd1 = build_boundary(1)  # two isolated vertices, no Hasse edges
    mc = build_matching_complex(bd1, "M")
    assert mc.is_void
    assert f_vector(mc.complex) == []
    assert matching_complex_f_vector(bd1, "M") == []

    point = build_simplex(0)
    assert build_matching_complex(point, "GM").is_void


def test_m_of_edge_is_two_points():
    mc = build_matching_complex(build_simplex(1), "M")
    assert f_vector(mc.complex) == [2]


def test_streamed_f_vector_matches_materialization():
    for K in (build_simplex(2), build_boundary(3)):
        for variant in ("M", "MP", "GM"):
            assert matching_complex_f_vector(K, variant) \
                == f_vector(build_matching_complex(K, variant).complex)


def test_induced_inclusion_boundary_into_simplex(d3, bd3, m_d3, m_bd3):
    mapping = induced_inclusion(bd3, d3)
    assert len(mapping) == 24
    assert len(set(mapping)) == 24
    emb = relabel(m_bd3.complex, mapping, 28)
    assert m_d3.complex.contains_complex(emb)
    assert is_full_subcomplex(m_d3.complex, emb)


def test_induced_inclusion_identity(d2):
    assert induced_inclusion(d2, d2) == list(range(9))


def test_induced_inclusion_edge_into_triangle(d2):
    edge = build_simplex(1)
    mapping = induced_inclusion(edge, d2)
    assert len(mapping) == 2
    H2 = build_hasse(d2)
    assert [tuple(tuple(face_vertices(f)) for f in H2.edge_faces(e))
            for e in mapping] == [((0,), (0, 1)), ((1,), (0, 1))]


def test_induced_inclusion_rejects_non_subcomplex():
    with pytest.raises(ValueError):
        induced_inclusion(build_simplex(3), build_simplex(2))


def test_cone_pair():
    CK, apex, e0 = cone_pair(build_simplex(1))
    assert CK == build_simplex(2) and apex == 2
    H = build_hasse(CK)
    assert H.edge_faces(e0) == (face_mask((2,)), face_mask((0, 2)))

    CK, apex, e0 = cone_pair(build_simplex(0))
    assert CK == build_simplex(1)
    H = build_hasse(CK)
    assert H.edge_count == 2 \
        and H.edge_faces(e0) == (face_mask((1,)), face_mask((0, 1)))

    CK, apex, e0 = cone_pair(build_boundary(2))
    assert CK.total_faces() == 13
    H = build_hasse(CK)
    assert H.edge_faces(e0) == (face_mask((3,)), face_mask((0, 3)))

    with pytest.raises(ValueError):
        cone_pair(build_simplex(1), w0=7)


def test_materialization_guard():
    with pytest.raises(MaterializationLimitError):
        build_matching_complex(build_simplex(3), "M", max_faces=100)
    # the 4-simplex is refused by the projection before any enumeration
    with pytest.raises(MaterializationLimitError):
        build_matching_complex(build_simplex(4), "M")
    with pytest.raises(MaterializationLimitError):
        build_matching_complex(build_simplex(4), "MP")


def test_skeleton_edges_are_a_prefix():
    # canonical order puts a skeleton's faces and Hasse edges first, with
    # the same gids, so its induced inclusion is the identity on a prefix
    pairs = [(skeleton(K, k), K) for K in CORPUS for k in range(1, K.dim)]
    pairs += [(build_boundary(n), build_simplex(n)) for n in range(1, 6)]
    assert len(pairs) == 10
    for L, K in pairs:
        m = build_hasse(L).edge_count
        assert induced_inclusion(L, K) == list(range(m))
