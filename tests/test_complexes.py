import pytest

from morsematch import complexes
from morsematch.complexes import (BudgetExceededError, SimplicialComplex,
                                  build_boundary, build_simplex, cone,
                                  euler_characteristic, f_vector, face_mask,
                                  face_vertices, is_full_subcomplex, relabel,
                                  skeleton)


def test_build_simplex_counts():
    assert f_vector(build_simplex(0)) == [1]
    assert f_vector(build_simplex(3)) == [4, 6, 4, 1]
    assert build_simplex(4).total_faces() == 31


def test_build_boundary_counts():
    assert f_vector(build_boundary(1)) == [2]
    assert f_vector(build_boundary(2)) == [3, 3]
    assert f_vector(build_boundary(3)) == [4, 6, 4]
    with pytest.raises(ValueError):
        build_boundary(0)


def test_base_builders_respect_the_cap(monkeypatch):
    assert build_simplex(12).total_faces() == 8191
    monkeypatch.setattr(complexes, "MAX_BASE_FACES", 7)
    assert build_simplex(2).total_faces() == 7  # exactly at the cap
    for build, n in ((build_simplex, 3), (build_boundary, 3)):
        with pytest.raises(BudgetExceededError, match="cap of 7"):
            build(n)
    assert cone(build_simplex(1))[0].total_faces() == 7
    with pytest.raises(BudgetExceededError, match="13 faces"):
        cone(build_boundary(2))  # 6 faces, twice that plus the apex
    # the facet closure: one batch too large, or batches that add up
    with pytest.raises(BudgetExceededError, match="15 faces"):
        SimplicialComplex.from_facets([face_mask((0, 1, 2, 3))])
    with pytest.raises(BudgetExceededError, match="the facet closure has 9"):
        SimplicialComplex.from_facets(map(face_mask, [(0, 1), (2, 3), (4, 5)]))
    assert SimplicialComplex.from_facets(
        map(face_mask, [(0, 1), (1, 2)])).total_faces() == 5


def test_skeleton():
    d3 = build_simplex(3)
    assert f_vector(skeleton(d3, 1)) == [4, 6]
    assert f_vector(skeleton(build_simplex(4), 2)) == [5, 10, 10]
    assert skeleton(d3, 3) is d3
    with pytest.raises(ValueError):
        skeleton(d3, -1)


def test_skeleton_f_vector_prefix():
    for K in (build_simplex(3), build_boundary(3), build_simplex(4)):
        fv = f_vector(K)
        for k in range(K.dim + 1):
            assert f_vector(skeleton(K, k)) == fv[:k + 1]


def test_cone():
    ck, apex = cone(build_simplex(1))
    assert apex == 2
    assert ck == build_simplex(2)

    # cone over the triangle boundary: every face doubles, plus the apex
    bd2 = build_boundary(2)
    ck, apex = cone(bd2)
    assert ck.total_faces() == 2 * bd2.total_faces() + 1 == 13

    ck, apex = cone(build_simplex(0))
    assert ck == build_simplex(1) and ck.total_faces() == 3


def test_cone_euler_characteristic_is_one():
    corpus = [build_simplex(0), build_simplex(2), build_boundary(2),
              build_boundary(3), skeleton(build_simplex(3), 1)]
    for K in corpus:
        assert euler_characteristic(cone(K)[0]) == 1


def test_f_vector_and_euler():
    assert f_vector(build_simplex(3)) == [4, 6, 4, 1]
    assert euler_characteristic(build_simplex(3)) == 1
    assert euler_characteristic(build_boundary(3)) == 2
    assert f_vector(SimplicialComplex.void()) == []


def test_downward_closure_enforced():
    with pytest.raises(ValueError):
        SimplicialComplex.from_faces([face_mask((0, 1))])  # vertices missing
    with pytest.raises(ValueError):
        SimplicialComplex.from_faces([face_mask((1, 0))])  # not increasing
    for bad in (0, -3, (0,)):  # empty face, no bitmask, a vertex tuple
        with pytest.raises(ValueError):
            SimplicialComplex.from_faces([bad])


def test_closure_of_constructed_complexes():
    for K in (build_simplex(4), build_boundary(3),
              skeleton(build_simplex(4), 2), cone(build_boundary(2))[0]):
        for d in range(1, K.dim + 1):
            for f in map(face_vertices, K.faces_by_dim[d]):
                for i in range(len(f)):
                    assert face_mask(f[:i] + f[i + 1:]) in K.face_index


def test_face_index_round_trip():
    for K in (build_simplex(3), build_boundary(3), cone(build_boundary(2))[0]):
        for d, lst in enumerate(K.faces_by_dim):
            for i, f in enumerate(lst):
                assert K.face_index[f] == i
                assert f.bit_count() - 1 == d


def test_full_subcomplex_with_subcomplex():
    d2 = build_simplex(2)
    full = d2.induced({0, 1, 2})
    assert is_full_subcomplex(d2, full)
    hollow = SimplicialComplex.from_faces(
        map(face_mask, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]), 3)
    assert not is_full_subcomplex(d2, hollow)  # misses the triangle


def test_from_facets_checks_its_facets():
    for bad in (0, -3, (0,)):  # -3 once sent the closure into an endless loop
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets([bad])
    with pytest.raises(ValueError, match="outside universe 0..2"):
        SimplicialComplex.from_facets([face_mask((0, 3))], 3)


def test_relabel_sorts_only_what_its_map_reorders():
    # an increasing map keeps each dimension's order and is only indexed;
    # any other map is sorted.  Both must equal the checked, sorted build
    K = SimplicialComplex.from_facets(map(face_mask, [(0, 1, 2), (1, 3)]))
    maps = {"increasing": [0, 2, 5, 6], "reversing": [6, 5, 2, 0],
            "a transposition": [2, 0, 5, 6]}
    for name, image in maps.items():
        got = relabel(K, image, 7)
        want = SimplicialComplex.from_faces(
            [face_mask(sorted(image[v] for v in face_vertices(f)))
             for f in K.faces()], 7)
        assert got == want and got.face_index == want.face_index, name
    assert relabel(K, maps["increasing"], 7).faces_by_dim[1] \
        == list(map(face_mask, [(0, 2), (0, 5), (2, 5), (2, 6)]))


def test_relabel_refuses_a_map_off_the_universe_or_not_injective():
    K = build_boundary(2)
    assert relabel(K, [2, 0, 1], 3) == K
    for image in ([0, 1, 3], [0, -1, 2], [0, 1, 2.0]):
        with pytest.raises(ValueError, match="outside universe 0..2"):
            relabel(K, image, 3)
    with pytest.raises(ValueError, match="not injective"):
        relabel(K, [0, 1, 1], 3)
