import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsematch.complexes import (SimplicialComplex, build_boundary,
                                  build_simplex, cone, euler_characteristic,
                                  face_mask, relabel, skeleton)
from morsematch.homology import (SparseIntMatrix, _chain, boundary_matrices,
                                 homology, relative_homology,
                                 smith_normal_form)
from morsematch.morse import build_matching_complex, induced_inclusion
from morsematch.specs import build_from_spec

from oracles import snf_divisors_sympy

# antipodal 6-vertex triangulation of the projective plane; the standard
# example with 2-torsion in degree 1
RP2_FACETS = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
              (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


def sparse_from_dense(dense):
    m = SparseIntMatrix(len(dense), len(dense[0]) if dense else 0)
    for r, row in enumerate(dense):
        for c, v in enumerate(row):
            m.set(r, c, v)
    return m


def test_boundary_sign_convention():
    d3 = build_simplex(3)
    cc = boundary_matrices(d3, reduced=False)
    # the face 123 sits at some column of the degree-2 matrix; its boundary
    # must read e23 - e13 + e12
    j = d3.face_index[face_mask((1, 2, 3))]
    col = {r: cc.boundaries[2].get(r, j) for r in range(cc.boundaries[2].rows)}
    col = {r: v for r, v in col.items() if v}
    e = {f: d3.face_index[face_mask(f)] for f in [(1, 2), (1, 3), (2, 3)]}
    assert col == {e[(2, 3)]: 1, e[(1, 3)]: -1, e[(1, 2)]: 1}


def test_quotient_chain_validates_dd_zero():
    # dropping an edge but not the triangle on it is no subcomplex: the
    # triangle's boundary keeps e12 - e02, whose boundary is v0 - v1
    with pytest.raises(AssertionError, match="boundary of boundary"):
        _chain(build_simplex(2), {face_mask((0, 1))}, False)


def test_boundary_of_vertices_is_zero_unreduced():
    cc = boundary_matrices(build_simplex(2), reduced=False)
    assert cc.boundaries[0].rows == 0
    cc = boundary_matrices(build_simplex(2), reduced=True)
    assert cc.boundaries[0].rows == 1
    assert all(cc.boundaries[0].get(0, j) == 1 for j in range(3))


def test_dd_zero_is_validated_on_build():
    for K in (build_simplex(3), build_boundary(3), build_simplex(4)):
        boundary_matrices(K, reduced=True)
        boundary_matrices(K, reduced=False)


def test_snf_basic():
    m = SparseIntMatrix(3, 3)
    for i in range(3):
        m.set(i, i, 1)
    assert smith_normal_form(m) == ((1, 1, 1), 3)

    assert smith_normal_form(SparseIntMatrix(4, 2)) == ((), 0)

    # hand-reduced: content 2, determinant -8, so divisors 2 and 4
    m = sparse_from_dense([[2, 4], [6, 8]])
    assert smith_normal_form(m) == ((2, 4), 2)


def test_snf_divisor_chain_and_oracle_fixed():
    cases = [
        [[2, 0], [0, 3]],
        [[6, 0, 0], [0, 10, 0], [0, 0, 15]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 0], [0, 0]],
        [[5]],
        # column 0 gets a unit only after column 1 is eliminated
        [[2, 1], [3, 1]],
    ]
    for dense in cases:
        divisors, rank = smith_normal_form(sparse_from_dense(dense))
        assert divisors == snf_divisors_sympy(dense)
        assert rank == len(divisors)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10 ** 9))
def test_snf_matches_sympy_on_random_matrices(nr, nc, seed):
    rng = random.Random(seed)
    dense = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0
              for _ in range(nc)] for _ in range(nr)]
    divisors, rank = smith_normal_form(sparse_from_dense(dense))
    assert divisors == snf_divisors_sympy(dense)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0


def test_snf_matches_sympy_on_matching_complex_boundaries():
    for spec, variant in [("simplex:2", "M"), ("simplex:2", "GM"),
                          ("boundary:2", "GM"), ("cone:boundary:2", "MP")]:
        mc = build_matching_complex(build_from_spec(spec), variant)
        for m in boundary_matrices(mc.complex, reduced=True).boundaries:
            dense = [[m.get(r, c) for c in range(m.cols)] for r in range(m.rows)]
            assert smith_normal_form(m)[0] == snf_divisors_sympy(dense), \
                (spec, variant, m)


def test_homology_spheres_and_skeleta():
    assert homology(build_boundary(3)).nonzero() == {2: (1, ())}
    assert homology(build_boundary(2)).nonzero() == {1: (1, ())}
    assert homology(build_simplex(3)).nonzero() == {}
    # wedge of n spheres of dimension n-2
    assert homology(skeleton(build_simplex(3), 1)).nonzero() == {1: (3, ())}
    assert homology(skeleton(build_simplex(4), 2)).nonzero() == {2: (4, ())}


@pytest.mark.parametrize("n,rank", [(3, 4), (4, 27), (5, 256), (6, 3125)])
def test_rooted_forest_complexes_are_wedges_of_spheres(n, rank):
    # M(K_n), the complex of acyclic matchings of the complete graph K_n, is
    # the complex of rooted forests of K_n: a wedge of (n-1)^(n-1) spheres of
    # dimension n-2 (Kozlov, Complexes of directed trees, JCTA 1999)
    assert rank == (n - 1) ** (n - 1)
    kn = build_from_spec(f"skeleton:simplex:{n - 1}:1")
    h = homology(build_matching_complex(kn, "M").complex)
    assert h.nonzero() == {n - 2: (rank, ())}


def test_homology_detects_torsion():
    rp2 = SimplicialComplex.from_facets(map(face_mask, RP2_FACETS))
    h = homology(rp2)
    assert h.nonzero() == {1: (0, (2,))}
    assert not h.is_torsion_free()


def test_reduced_vs_unreduced():
    two_points = SimplicialComplex.from_faces(map(face_mask, [(0,), (1,)]))
    assert homology(two_points, reduced=True).nonzero() == {0: (1, ())}
    assert homology(two_points, reduced=False).nonzero() == {0: (2, ())}


def test_void_homology_flagged():
    h = homology(SimplicialComplex.void())
    assert h.void and h.groups == []


def test_euler_betti_consistency():
    corpus = [build_simplex(2), build_boundary(2), build_boundary(3),
              skeleton(build_simplex(4), 2),
              SimplicialComplex.from_facets(map(face_mask, RP2_FACETS))]
    for K in corpus:
        h = homology(K, reduced=False)
        assert sum((-1) ** d * h.betti(d) for d in range(K.dim + 1)) \
            == euler_characteristic(K)


def test_rank_sanity():
    for K in (build_boundary(3), skeleton(build_simplex(4), 2)):
        cc = boundary_matrices(K, reduced=True)
        ranks = [smith_normal_form(m)[1] for m in cc.boundaries] + [0]
        for d, n_d in enumerate(cc.sizes):
            assert ranks[d] + ranks[d + 1] <= n_d


def test_relative_homology_self_is_zero(d2):
    h = relative_homology(d2, d2)
    assert all(b == 0 and not t for b, t in h.groups)


def test_relative_homology_disc_boundary():
    # (triangle, its boundary) is a relative 2-cell
    h = relative_homology(build_simplex(2), build_boundary(2))
    assert h.nonzero() == {2: (1, ())}


def test_relative_homology_rejects_non_subcomplex():
    with pytest.raises(ValueError):
        relative_homology(build_simplex(2), build_simplex(3))


def test_relative_homology_of_matching_pair(m_d3, m_bd3, d3, bd3):
    mapping = induced_inclusion(bd3, d3)
    emb = relabel(m_bd3.complex, mapping, 28)
    rel = relative_homology(m_d3.complex, emb)
    assert rel.nonzero() == {4: (96, ())}


def test_relative_homology_simplex_pair_with_triangle(m_d3, d3, d2):
    from morsematch.morse import build_matching_complex
    m_d2 = build_matching_complex(d2, "M")
    mapping = induced_inclusion(d2, d3)
    emb = relabel(m_d2.complex, mapping, 28)
    rel = relative_homology(m_d3.complex, emb)
    # forced by the cone splitting: degree 4 from the simplex side and the
    # wedge of four circles shifted up one degree
    assert rel.nonzero() == {2: (4, ()), 4: (99, ())}


def test_homology_of_triangle_matching_complex(d2):
    from morsematch.morse import build_matching_complex
    h = homology(build_matching_complex(d2, "M").complex)
    assert h.nonzero() == {1: (4, ())}


# -- clearing ----------------------------------------------------------------

def _groups(cc, snf):
    """Groups of a chain complex from `snf` applied to each boundary matrix
    on its own, with no rows cleared: the reference for the clearing."""
    snfs = [snf(m) for m in cc.boundaries]
    ranks = [r for _, r in snfs] + [0]
    return [(n - ranks[d] - ranks[d + 1],
             tuple(x for x in snfs[d + 1][0] if x > 1) if d + 1 < len(snfs)
             else ())
            for d, n in enumerate(cc.sizes)]


def _sympy_snf(m):
    dense = [[m.get(r, c) for c in range(m.cols)] for r in range(m.rows)]
    divisors = snf_divisors_sympy(dense)
    return divisors, len(divisors)


@pytest.mark.parametrize("reduced", [True, False])
def test_cleared_homology_matches_uncleared_and_sympy(reduced):
    rp2 = SimplicialComplex.from_facets(map(face_mask, RP2_FACETS))
    suspension = SimplicialComplex.from_facets(
        [face_mask(f + (apex,)) for f in RP2_FACETS for apex in (6, 7)])
    small = [rp2, suspension, cone(rp2)[0]] + [
        build_matching_complex(build_from_spec(spec), variant).complex
        for spec in ("simplex:2", "boundary:2") for variant in ("M", "MP", "GM")]
    # too large for sympy in a tier-1 run (~30 s); on MP of this base the
    # uncleared SNF meets sympy in the matching-complex SNF test above
    large = [build_matching_complex(build_from_spec("cone:boundary:2"),
                                    variant).complex
             for variant in ("M", "MP", "GM")]
    for K in small + large:
        assert homology(K, reduced).groups == _groups(
            boundary_matrices(K, reduced), smith_normal_form), K
    for K in small:
        assert homology(K, reduced).groups == _groups(
            boundary_matrices(K, reduced), _sympy_snf), K

    point = {} if reduced else {0: (1, ())}
    assert homology(rp2, reduced).nonzero() == {**point, 1: (0, (2,))}
    assert homology(suspension, reduced).nonzero() == {**point, 2: (0, (2,))}
    assert homology(cone(rp2)[0], reduced).nonzero() == point


@pytest.mark.parametrize("reduced", [True, False])
def test_cleared_relative_homology_matches_uncleared(m_d3, m_bd3, d3, bd3,
                                                     reduced):
    emb = relabel(m_bd3.complex, induced_inclusion(bd3, d3), 28)
    rel = relative_homology(m_d3.complex, emb, reduced)
    assert rel.nonzero() == {4: (96, ())}
    cc = _chain(m_d3.complex, emb.face_index, False)
    assert rel.groups == _groups(cc, smith_normal_form)


def test_clearing_leaves_rank_plus_betti_rows(m_d3, monkeypatch):
    # every pivot of M(Delta^3) is a unit, so rank d_d rows of d_{d+1} are
    # cleared and the kept rows number rank d_{d+1} + beta_d
    # the package's function `homology` shadows the submodule's name
    module = sys.modules["morsematch.homology"]
    seen = []

    def spy(A, skip_rows=frozenset(), unit_pivots=None):
        result = smith_normal_form(A, skip_rows, unit_pivots)
        seen.append((A.rows, len(skip_rows), result[1]))
        return result

    monkeypatch.setattr(module, "smith_normal_form", spy)
    h = homology(m_d3.complex)
    assert [skipped for _, skipped, _ in seen] == \
        [0, 1, 27, 273, 1271, 2661, 1872]
    assert seen[4] == (3932, 1271, 2661)
    for d, (rows, skipped, rank) in enumerate(seen[1:]):
        assert rows - skipped - rank == h.betti(d)
