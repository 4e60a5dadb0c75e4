import pytest
from hypothesis import given, settings, strategies as st

from morsematch.complexes import (BudgetExceededError, SimplicialComplex,
                                  build_boundary, build_simplex, cone,
                                  euler_characteristic, f_vector, face_mask,
                                  face_vertices, is_full_subcomplex,
                                  relabel, skeleton)
from morsematch.hasse import build_hasse, is_matching
from morsematch.layers import enumerate_optimal, matching_counts
from morsematch.morse import (VARIANTS, build_matching_complex,
                              induced_inclusion, matching_complex_f_vector)

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
        assert modified_digraph_acyclic(mc.hasse, mask)
    gm = build_matching_complex(bd2, "GM")
    for face in gm.complex.faces():
        assert is_matching(gm.hasse, gm.hasse.mask_from_edges(face_vertices(face)))
    # sampled heredity on the larger complex
    m3 = build_matching_complex(d3, "M")
    for face in list(m3.complex.faces())[::97]:
        assert modified_digraph_acyclic(
            m3.hasse, m3.hasse.mask_from_edges(face_vertices(face)))


def test_void_cases():
    # bases without Hasse edges take the general path: the void complex,
    # a point, and two isolated vertices
    for K in (SimplicialComplex.void(3), build_simplex(0), build_boundary(1)):
        assert enumerate_optimal(K) == (0, 1)
        assert matching_counts(K, "acyclic") == matching_counts(K, "all") == []
        for variant in ("M", "MP", "GM"):
            mc = build_matching_complex(K, variant, max_faces=0)
            assert mc.hasse is not None and mc.hasse.edge_count == 0
            assert mc.is_void and mc.edge_count == 0
            assert mc.complex == SimplicialComplex.void(0)
            assert matching_complex_f_vector(K, variant) == []
    # the void complex is a subcomplex of every complex, with no Hasse edges
    void = build_hasse(SimplicialComplex.void(3))
    assert induced_inclusion(void, build_hasse(build_simplex(2))) == []


def test_m_of_edge_is_two_points():
    mc = build_matching_complex(build_simplex(1), "M")
    assert f_vector(mc.complex) == [2]


def test_streamed_f_vector_matches_materialization():
    for K in (build_simplex(2), build_boundary(3)):
        for variant in ("M", "MP", "GM"):
            assert matching_complex_f_vector(K, variant) \
                == f_vector(build_matching_complex(K, variant).complex)


def test_induced_inclusion_boundary_into_simplex(m_d3, m_bd3):
    mapping = induced_inclusion(m_bd3.hasse, m_d3.hasse)
    assert len(mapping) == 24
    assert len(set(mapping)) == 24
    emb = relabel(m_bd3.complex, mapping, 28)
    assert m_d3.complex.contains_complex(emb)
    assert is_full_subcomplex(m_d3.complex, emb)


def test_induced_inclusion_identity(d2):
    H2 = build_hasse(d2)
    assert induced_inclusion(H2, H2) == list(range(9))


def test_induced_inclusion_edge_into_triangle(d2):
    H2 = build_hasse(d2)
    mapping = induced_inclusion(build_hasse(build_simplex(1)), H2)
    assert len(mapping) == 2
    assert [tuple(tuple(face_vertices(f)) for f in H2.edge_faces(e))
            for e in mapping] == [((0,), (0, 1)), ((1,), (0, 1))]


def test_induced_inclusion_rejects_non_subcomplex():
    with pytest.raises(ValueError):
        induced_inclusion(build_hasse(build_simplex(3)),
                          build_hasse(build_simplex(2)))


def test_materialization_guard():
    with pytest.raises(BudgetExceededError, match="projected face count"):
        build_matching_complex(build_simplex(3), "M", max_faces=100)
    # the 4-simplex is refused by the projection before any enumeration
    with pytest.raises(BudgetExceededError, match="projected face count"):
        build_matching_complex(build_simplex(4), "M")
    with pytest.raises(BudgetExceededError, match="projected face count"):
        build_matching_complex(build_simplex(4), "MP")
    # MP of the boundary of the 3-simplex closes its 256 maximum matchings
    # of 6 pairs each, so it is projected at 256 * 63 non-empty faces
    bd3 = build_boundary(3)
    projected = 256 * ((1 << 6) - 1)
    mp = build_matching_complex(bd3, "MP", max_faces=projected)
    assert f_vector(mp.complex) == [24, 216, 896, 1680, 1152, 256]
    with pytest.raises(BudgetExceededError,
                       match=f"projected face count {projected} "):
        build_matching_complex(bd3, "MP", max_faces=projected - 1)


def test_skeleton_edges_are_a_prefix():
    # canonical order puts a skeleton's faces and Hasse edges first, with
    # the same gids, so its induced inclusion is the identity on a prefix.
    # The verifiers rely on this for every pair below without checking it:
    # boundary in simplex (top-facet-bijection, les-example, gm-structure)
    # and codimension-2 skeleton in simplex (restriction-fibers)
    pairs = [(skeleton(K, k), K) for K in CORPUS for k in range(1, K.dim)]
    pairs += [(build_boundary(n), build_simplex(n)) for n in range(1, 6)]
    pairs += [(skeleton(build_simplex(n), n - 2), build_simplex(n))
              for n in (3, 4)]
    assert len(pairs) == 12
    for L, K in pairs:
        HL, HK = build_hasse(L), build_hasse(K)
        assert induced_inclusion(HL, HK) == list(range(HL.edge_count))
        assert HK.face_of_gid[:len(HL.face_of_gid)] == HL.face_of_gid


def test_m_and_gm_are_built_in_canonical_order():
    # M and GM take their face lists from the layer product unsorted: they
    # must equal the sorted build of the same faces, index included
    bases = [(K, v) for K in CORPUS for v in ("M", "GM")]
    bases.append((skeleton(build_simplex(6), 1), "M"))  # M(K7), 262,143 faces
    for K, variant in bases:
        cx = build_matching_complex(K, variant).complex
        faces = [f for f in cx.faces()]
        assert faces  # every base of the corpus has a Hasse edge
        sorted_build = SimplicialComplex._from_closed(faces, cx.vertex_count)
        assert cx.faces_by_dim == sorted_build.faces_by_dim
        assert cx.face_index == sorted_build.face_index


def assert_closed(cx):
    """The package builds its complexes without the closure check of
    `from_faces`: the checked entry must accept every one of them and
    rebuild it unchanged, index included."""
    rebuilt = SimplicialComplex.from_faces(list(cx.faces()), cx.vertex_count)
    assert rebuilt == cx and rebuilt.face_index == cx.face_index


def assert_builders_closed(K, vertex_set):
    assert_closed(K)
    for k in range(K.dim):
        assert_closed(skeleton(K, k))
    assert_closed(cone(K)[0])
    assert_closed(K.induced(vertex_set))
    for variant in VARIANTS:
        assert_closed(build_matching_complex(K, variant).complex)
    L = skeleton(K, K.dim - 1) if K.dim > 0 else K
    ML, MK = (build_matching_complex(X, "M") for X in (L, K))
    assert_closed(relabel(ML.complex, induced_inclusion(ML.hasse, MK.hasse),
                          MK.edge_count))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_standard_bases_and_their_complexes_are_closed(n):
    for K in (build_simplex(n), build_boundary(n)):
        assert_builders_closed(K, range(n))
    assert_closed(build_simplex(n + 5))
    assert_closed(build_boundary(n + 5))


@st.composite
def drawn_bases(draw):
    """Up to five facets of one to three vertices on at most six vertices,
    from `from_facets`, and a vertex subset for `induced`."""
    n = draw(st.integers(1, 6))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                     unique=True).map(lambda f: face_mask(sorted(f)))
    K = SimplicialComplex.from_facets(draw(st.lists(facet, min_size=1,
                                                    max_size=5)), n)
    return K, draw(st.sets(st.integers(0, n - 1)))


@settings(max_examples=60, deadline=None)
@given(drawn_bases())
def test_drawn_bases_and_their_complexes_are_closed(drawn):
    assert_builders_closed(*drawn)
