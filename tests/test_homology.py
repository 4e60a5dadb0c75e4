import gc
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsematch.complexes import (SimplicialComplex, build_boundary,
                                  build_simplex, cone, euler_characteristic,
                                  face_mask, relabel, skeleton)
from morsematch.homology import (SparseIntMatrix, _boundaries, _chain_faces,
                                 _element_pairs, _excise,
                                 _homology_from_chain, divisor_chain,
                                 homology, relative_homology,
                                 smith_normal_form)
from morsematch.morse import build_matching_complex, induced_inclusion
from morsematch.specs import build_from_spec

from oracles import (boundary_matrices, dd_nonzero, morse_matching_defect,
                     snf_divisors_sympy)

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
    mats = boundary_matrices(d3, reduced=False)
    # the face 123 sits at some column of the degree-2 matrix; its boundary
    # must read e23 - e13 + e12
    j = d3.face_index[face_mask((1, 2, 3))]
    col = {r: mats[2].get(r, j) for r in range(mats[2].rows)}
    col = {r: v for r, v in col.items() if v}
    e = {f: d3.face_index[face_mask(f)] for f in [(1, 2), (1, 3), (2, 3)]}
    assert col == {e[(2, 3)]: 1, e[(1, 3)]: -1, e[(1, 2)]: 1}


def test_dd_oracle_finds_non_subcomplex_quotient():
    # dropping an edge but not the triangle on it is no subcomplex: the
    # triangle's boundary keeps e12 - e02, whose boundary is v0 - v1, so
    # the product is nonzero on vertex 0
    K = build_simplex(2)
    mats = list(_boundaries(K, _chain_faces(K, {face_mask((0, 1))}, False)))
    assert dd_nonzero(mats) == (2, 0, 0)
    # dropping the triangle too leaves a quotient with dd = 0
    assert dd_nonzero(list(_boundaries(K, _chain_faces(
        K, {face_mask((0, 1)), face_mask((0, 1, 2))}, False)))) is None


def test_boundary_of_vertices_is_zero_unreduced():
    mats = boundary_matrices(build_simplex(2), reduced=False)
    assert mats[0].rows == 0
    mats = boundary_matrices(build_simplex(2), reduced=True)
    assert mats[0].rows == 1
    assert all(mats[0].get(0, j) == 1 for j in range(3))


def test_dd_zero_on_small_complexes():
    rp2 = SimplicialComplex.from_facets(map(face_mask, RP2_FACETS))
    for K in (build_simplex(3), build_boundary(3), build_simplex(4), rp2):
        for reduced in (True, False):
            assert dd_nonzero(boundary_matrices(K, reduced)) is None


def test_dd_zero_on_the_n3_matching_complexes(m_d3, m_bd3, mp_d3, mp_bd3,
                                              gm_d3, gm_bd3):
    # the complexes whose homology the paper tabulates; the augmentation
    # row makes the reduced product cover the unreduced one
    for mc in (m_d3, m_bd3, mp_d3, mp_bd3, gm_d3, gm_bd3):
        assert dd_nonzero(boundary_matrices(mc.complex, True)) is None
    # and the quotient of the pair (M(simplex:3), M(boundary:3))
    emb = relabel(m_bd3.complex, induced_inclusion(m_bd3.hasse, m_d3.hasse),
                  28)
    assert dd_nonzero(list(_boundaries(m_d3.complex, _chain_faces(
        m_d3.complex, emb.face_index, False)))) is None


def test_snf_basic():
    m = SparseIntMatrix(3, 3)
    for i in range(3):
        m.set(i, i, 1)
    assert smith_normal_form(m) == ((1, 1, 1), 3)

    assert smith_normal_form(SparseIntMatrix(4, 2)) == ((), 0)

    # hand-reduced: content 2, determinant -8, so divisors 2 and 4
    m = sparse_from_dense([[2, 4], [6, 8]])
    assert smith_normal_form(m) == ((2, 4), 2)


def test_snf_consumes_its_argument():
    # the elimination works on A.row itself: pivot rows are emptied, and so
    # are the rows of the unit-free residual
    m = SparseIntMatrix(3, 3)
    for i in range(3):
        m.set(i, i, 1)
    assert smith_normal_form(m) == ((1, 1, 1), 3)
    assert m.row == [{}, {}, {}]
    m = sparse_from_dense([[1, 1, 0], [0, 2, 4], [0, 6, 8]])
    assert smith_normal_form(m) == ((1, 2, 4), 3)
    assert m.row == [{}, {}, {}]


def test_snf_of_a_matrix_without_entries():
    # 0 x n and all-zero m x n: rank 0, no divisors, and every row is left
    # empty
    for m in (SparseIntMatrix(0, 5), SparseIntMatrix(4, 3)):
        assert smith_normal_form(m) == ((), 0)
        assert m.row == [{}] * m.rows
    # the return comes before one set per column is allocated, about
    # 200 bytes each
    m = SparseIntMatrix(0, 100_000)
    tracemalloc.start()
    try:
        assert smith_normal_form(m) == ((), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


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
    # Z/2 + Z/3 = Z/6, and units stay in front
    assert divisor_chain((2, 3)) == (1, 6)
    assert divisor_chain((4, 1, 6)) == (1, 2, 12)


def _elementary_chain(diagonal):
    """The divisor chain of a diagonal matrix with entries 2^a 3^b, built
    from its prime powers: the i-th smallest divisor takes the i-th
    smallest power of each prime."""
    nonzero = [d for d in diagonal if d]
    chain = [1] * len(nonzero)
    for p in (2, 3):
        powers = []
        for d in nonzero:
            q = 1
            while d % (q * p) == 0:
                q *= p
            powers.append(q)
        for i, q in enumerate(sorted(powers)):
            chain[i] *= q
    return tuple(chain)


def test_snf_finishes_a_unit_poor_conjugate_of_a_diagonal():
    # a 60 x 60 unimodular conjugate of a known diagonal: the unit pivots
    # run out early, and the residual is finished by Euclid steps
    assert _elementary_chain((1, 2, 3, 4, 6, 12)) == (1, 1, 2, 6, 12, 12)
    rng = random.Random(20)
    diagonal = [(0, 1, 2, 3, 4, 6, 12)[i % 7] for i in range(60)]
    dense = [[diagonal[i] if i == j else 0 for j in range(60)]
             for i in range(60)]
    for _ in range(240):
        i, j = rng.sample(range(60), 2)
        k = rng.choice((1, -1, 2, -2))
        if rng.random() < 0.5:
            dense[i] = [a + k * b for a, b in zip(dense[i], dense[j])]
        else:
            for row in dense:
                row[i] += k * row[j]
    m = sparse_from_dense(dense)
    chain = _elementary_chain(diagonal)
    assert smith_normal_form(m) == (chain, len(chain))
    assert m.nnz() == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10 ** 9),
       st.booleans())
def test_snf_matches_sympy_on_random_matrices(nr, nc, seed, unit_poor):
    rng = random.Random(seed)
    dense = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0
              for _ in range(nc)] for _ in range(nr)]
    if unit_poor:
        # every other row doubled: half the rows hold no unit at all
        dense = [[2 * x for x in row] if r % 2 else row
                 for r, row in enumerate(dense)]
    divisors, rank = smith_normal_form(sparse_from_dense(dense))
    assert divisors == snf_divisors_sympy(dense)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0


def test_snf_matches_sympy_on_matching_complex_boundaries():
    for spec, variant in [("simplex:2", "M"), ("simplex:2", "GM"),
                          ("boundary:2", "GM"), ("cone:boundary:2", "MP")]:
        mc = build_matching_complex(build_from_spec(spec), variant)
        for m in boundary_matrices(mc.complex, reduced=True):
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
        mats = boundary_matrices(K, reduced=True)
        sizes = [m.cols for m in mats]
        ranks = [smith_normal_form(m)[1] for m in mats] + [0]
        for d, n_d in enumerate(sizes):
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


def test_homology_builds_no_face_index():
    # the chain set is read off faces_by_dim, and K's containment in L is
    # checked on that set, so neither complex of the pair (M(simplex:3),
    # M(boundary:3)) builds its index, not even when the pair is refused
    mc = build_matching_complex(build_simplex(3), "M")
    msub = build_matching_complex(build_boundary(3), "M")
    L = mc.complex
    K = relabel(msub.complex, induced_inclusion(msub.hasse, mc.hasse),
                mc.edge_count)
    assert homology(L).nonzero() == {4: (99, ())}
    assert relative_homology(L, K).nonzero() == {4: (96, ())}
    with pytest.raises(ValueError, match="K is not a subcomplex of L"):
        relative_homology(K, L)
    assert L._face_index is None and K._face_index is None
    # a first access then builds the index that was built eagerly before
    for cx in (L, K):
        want = {}
        for lst in cx.faces_by_dim:
            want.update((f, i) for i, f in enumerate(lst))
        assert cx.face_index == want


def test_relative_homology_of_matching_pair(m_d3, m_bd3):
    mapping = induced_inclusion(m_bd3.hasse, m_d3.hasse)
    emb = relabel(m_bd3.complex, mapping, 28)
    rel = relative_homology(m_d3.complex, emb)
    assert rel.nonzero() == {4: (96, ())}


def test_relative_homology_simplex_pair_with_triangle(m_d3, d2):
    from morsematch.morse import build_matching_complex
    m_d2 = build_matching_complex(d2, "M")
    mapping = induced_inclusion(m_d2.hasse, m_d3.hasse)
    emb = relabel(m_d2.complex, mapping, 28)
    rel = relative_homology(m_d3.complex, emb)
    # forced by the cone splitting: degree 4 from the simplex side and the
    # wedge of four circles shifted up one degree
    assert rel.nonzero() == {2: (4, ()), 4: (99, ())}


def test_homology_of_triangle_matching_complex(d2):
    from morsematch.morse import build_matching_complex
    h = homology(build_matching_complex(d2, "M").complex)
    assert h.nonzero() == {1: (4, ())}


# -- reference groups --------------------------------------------------------

def _groups(mats, snf):
    """Groups of a chain complex from `snf` applied to each boundary matrix
    on its own: the reference for `homology`, run on the full chain
    complex, before excision and pairing."""
    sizes = [m.cols for m in mats]
    snfs = [snf(m) for m in mats]
    ranks = [r for _, r in snfs] + [0]
    return [(n - ranks[d] - ranks[d + 1],
             tuple(x for x in snfs[d + 1][0] if x > 1) if d + 1 < len(snfs)
             else ())
            for d, n in enumerate(sizes)]


def _sympy_snf(m):
    dense = [[m.get(r, c) for c in range(m.cols)] for r in range(m.rows)]
    divisors = snf_divisors_sympy(dense)
    return divisors, len(divisors)


@pytest.mark.parametrize("reduced", [True, False])
def test_homology_matches_the_full_chain_and_sympy(reduced):
    rp2 = SimplicialComplex.from_facets(map(face_mask, RP2_FACETS))
    suspension = SimplicialComplex.from_facets(
        [face_mask(f + (apex,)) for f in RP2_FACETS for apex in (6, 7)])
    small = [rp2, suspension, cone(rp2)[0]] + [
        build_matching_complex(build_from_spec(spec), variant).complex
        for spec in ("simplex:2", "boundary:2") for variant in ("M", "MP", "GM")]
    # too large for sympy in a tier-1 run (~30 s); on MP of this base the
    # SNF meets sympy in the matching-complex SNF test above
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
def test_relative_homology_matches_the_full_chain(m_d3, m_bd3, reduced):
    emb = relabel(m_bd3.complex, induced_inclusion(m_bd3.hasse, m_d3.hasse),
                  28)
    rel = relative_homology(m_d3.complex, emb, reduced)
    assert rel.nonzero() == {4: (96, ())}
    mats = list(_boundaries(m_d3.complex,
                            _chain_faces(m_d3.complex, emb.face_index, False)))
    assert rel.groups == _groups(mats, smith_normal_form)


def _live_matrices() -> int:
    return sum(type(o) is SparseIntMatrix for o in gc.get_objects())


@pytest.mark.parametrize("relative", [False, True])
def test_each_degree_is_reduced_and_dropped_before_the_next_is_built(
        m_d3, m_bd3, monkeypatch, relative):
    # the events interleave (build d, reduce d, build d + 1, ...), and when
    # degree d + 1 has been built, no matrix of an earlier degree is alive
    module = sys.modules["morsematch.homology"]
    build, reduce = module._boundaries, module.smith_normal_form
    events = []
    live = []

    def spy_build(*args):
        d = 0
        for m in build(*args):
            events.append(("build", d))
            live.append(_live_matrices() - before)
            yield m
            del m
            d += 1

    def spy_reduce(A):
        events.append(("reduce", len(live) - 1))
        return reduce(A)

    monkeypatch.setattr(module, "_boundaries", spy_build)
    monkeypatch.setattr(module, "smith_normal_form", spy_reduce)
    before = _live_matrices()
    if relative:
        emb = relabel(m_bd3.complex,
                      induced_inclusion(m_bd3.hasse, m_d3.hasse), 28)
        h = relative_homology(m_d3.complex, emb)
        assert h.nonzero() == {4: (96, ())}
    else:
        h = homology(m_d3.complex)
        assert h.nonzero() == {4: (99, ())}
    degrees = len(m_d3.complex.faces_by_dim)
    assert events == [(step, d) for d in range(degrees)
                      for step in ("build", "reduce")]
    assert live == [1] * degrees


def test_chain_set_is_freed_before_the_first_boundary_matrix(monkeypatch):
    # on MP(simplex:3), built before tracing starts: when homology builds its
    # first boundary matrix, only the residual and the pairs of
    # _element_pairs are alive, so the chain set went as _excise returned
    # and the vertex buckets as _element_pairs did; and the peak of homology
    # is the larger of the peaks of its stages, never a sum of two
    L = build_matching_complex(build_simplex(3), "MP").complex
    R0 = _excise(L, _chain_faces(L, frozenset(), True))
    R = set(R0)
    up = _element_pairs(L, R)
    # the residual's table, the pairs, and the ints made for their lower
    # faces (ints up to 256 are cached); the slack covers frames and small
    # objects, far below the chain set (about 512 KiB) or the buckets
    # (about 100 KiB)
    live = (sys.getsizeof(R) + sys.getsizeof(up)
            + sum(sys.getsizeof(s) for s in up if s > 256))
    slack = 32 << 10

    def traced(fn):
        gc.collect()
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    _, (_, excise_peak) = traced(
        lambda: _excise(L, _chain_faces(L, frozenset(), True)))
    _, (_, pairs_peak) = traced(lambda: _element_pairs(L, set(R0)))
    want, (_, reduce_peak) = traced(
        lambda: _homology_from_chain(_boundaries(L, R, up), True))

    module = sys.modules["morsematch.homology"]
    build = module._boundaries
    at_build = []

    def spy_build(*args):
        at_build.append(tracemalloc.get_traced_memory()[0])
        return build(*args)

    monkeypatch.setattr(module, "_boundaries", spy_build)
    got, (_, peak) = traced(lambda: homology(L))
    assert got.groups == want.groups
    assert at_build[0] < live + slack
    assert peak < max(excise_peak, pairs_peak, live + reduce_peak) + slack


# -- excision ----------------------------------------------------------------

@st.composite
def complex_pairs(draw):
    """A random complex L on up to 7 vertices with shuffled vertex ids, and a
    random subcomplex K of it (possibly void)."""
    n = draw(st.integers(1, 7))
    ids = draw(st.permutations(range(9)))[:n]
    facets = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1,
                                    max_size=4, unique=True),
                           min_size=1, max_size=8))
    L = SimplicialComplex.from_facets(face_mask(sorted(f)) for f in facets)
    faces = list(L.faces())
    chosen = draw(st.lists(st.sampled_from(faces), max_size=4, unique=True))
    K = SimplicialComplex.from_facets(chosen) if chosen \
        else SimplicialComplex.void()
    return L, K


@settings(max_examples=150, deadline=None)
@given(complex_pairs())
def test_excised_homology_matches_the_full_chain(pair):
    L, K = pair
    for reduced in (True, False):
        assert homology(L, reduced).groups == _groups(
            boundary_matrices(L, reduced), smith_normal_form)
        _check_morse_complex(L, frozenset(), reduced)
        if not K.is_void:
            assert relative_homology(L, K, reduced).groups == _groups(
                list(_boundaries(L, _chain_faces(L, K.face_index, False))),
                smith_normal_form)
            _check_morse_complex(L, K.face_index, False)


def test_excision_keeps_the_class_of_two_points():
    # S^0: the first vertex takes the empty face with it, and the second
    # cannot follow (its face {1} would need the empty face), so one vertex
    # is left, carrying H~_0 = Z; excising it as well would erase the class
    two_points = SimplicialComplex.from_faces(map(face_mask, [(0,), (1,)]))
    assert _excise(two_points, _chain_faces(two_points, frozenset(), True)) \
        == {face_mask((1,))}
    assert homology(two_points).nonzero() == {0: (1, ())}
    # unreduced, no vertex passes the rule, and the point class is added
    assert _excise(two_points, _chain_faces(two_points, frozenset(), False)) \
        == {face_mask((0,)), face_mask((1,))}
    assert homology(two_points, reduced=False).nonzero() == {0: (2, ())}


def test_excision_residual_sizes(m_d3, m_bd3, mp_d3, mp_bd3, gm_d3, gm_bd3):
    assert m_d3.complex.total_faces() == 12820
    k6 = build_matching_complex(build_from_spec("skeleton:simplex:5:1"), "M")
    for mc, size in [(m_d3, 1719), (mp_d3, 7339), (gm_d3, 1257),
                     (m_bd3, 669), (mp_bd3, 1215), (gm_bd3, 585),
                     (k6, 3125)]:
        assert len(_excise(mc.complex,
                           _chain_faces(mc.complex, frozenset(), True))) == size
    # M(K_7): the residual is exactly the 6^6 spheres of its homology, all
    # of dimension 5, so every boundary matrix of the residual is zero
    k7 = build_matching_complex(build_from_spec("skeleton:simplex:6:1"), "M")
    residual = _excise(k7.complex, _chain_faces(k7.complex, frozenset(), True))
    assert len(residual) == 46656
    assert {f.bit_count() - 1 for f in residual} == {5}
    # and so the element matching pairs nothing and leaves the residual
    # as it was
    kept = set(residual)
    assert _element_pairs(k7.complex, residual) == {}
    assert residual == kept


# -- element matching and Morse complex --------------------------------------

def _check_morse_complex(L, drop, augment: bool) -> dict[int, int]:
    """Pair the residual of L outside `drop` as `homology` does, check the
    pairs with the independent oracle, dd = 0 on the Morse matrices and
    their groups against the residual's own boundary matrices, and return
    the critical faces counted by dimension."""
    R = _excise(L, _chain_faces(L, drop, augment))
    residual = set(R)
    up = _element_pairs(L, R)
    assert morse_matching_defect(residual, up.items()) is None
    assert R == residual - set(up) - set(up.values())
    mats = list(_boundaries(L, R, up))
    assert dd_nonzero(mats) is None
    assert _groups(mats, smith_normal_form) == _groups(
        list(_boundaries(L, residual)), smith_normal_form)
    counts: dict[int, int] = {}
    for f in R:
        counts[f.bit_count() - 1] = counts.get(f.bit_count() - 1, 0) + 1
    return counts


def test_morse_complexes_of_the_n3_matching_complexes(
        m_d3, m_bd3, mp_d3, mp_bd3, gm_d3, gm_bd3):
    # critical faces by dimension of the element matching of each residual;
    # M(simplex:3) and MP(simplex:3) are perfect, one critical face per
    # Betti number
    cases = [(m_d3, {4: 99}), (mp_d3, {3: 81}), (gm_d3, {4: 50, 5: 11}),
             (m_bd3, {3: 29, 4: 32}), (mp_bd3, {3: 84, 4: 3}),
             (gm_bd3, {3: 9, 4: 48})]
    for mc, counts in cases:
        assert _check_morse_complex(mc.complex, frozenset(), True) == counts
    # the pair (M(simplex:3), M(boundary:3)): 114 - 18 = 96 = beta_4
    emb = relabel(m_bd3.complex, induced_inclusion(m_bd3.hasse, m_d3.hasse),
                  28)
    assert _check_morse_complex(m_d3.complex, emb.face_index, False) == \
        {4: 114, 5: 18}


def test_morse_matching_oracle_refuses_bad_pairs():
    # on the faces of the triangle 012: the empty face is outside the
    # family, 01 < 012 meets 0 < 01, 0 < 12 is no facet, and the pairs
    # 1 < 01, 0 < 02, 2 < 12 close the cycle 01 -> 0 -> 02 -> 2 -> 12 -> 1
    tri = [face_mask(f) for f in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2),
                                  (0, 1, 2))]
    v0, v1, v2, e01, e02, e12, t = tri
    assert morse_matching_defect(tri, [(v0, e01), (e12, t)]) is None
    assert "leaves" in morse_matching_defect(tri, [(0, v0)])
    assert "meets" in morse_matching_defect(tri, [(v0, e01), (e01, t)])
    assert "incidence" in morse_matching_defect(tri, [(v0, e12)])
    assert "cycle" in morse_matching_defect(
        tri, [(v1, e01), (v0, e02), (v2, e12)])
