import gc
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from morsematch.complexes import (BudgetExceededError, SimplicialComplex,
                                  build_boundary, build_simplex, cone,
                                  face_mask, face_vertices, relabel,
                                  skeleton)
from morsematch.hasse import build_hasse, is_matching
from morsematch.homology import homology
from morsematch import layers
from morsematch.layers import (WIDTH_LIMIT, LayerSystem, _enumerate_layer,
                               _full_skeleton, _orbit_reps,
                               enumerate_optimal, iter_matchings_of_cardinality,
                               matching_counts, matching_faces,
                               max_cardinality_info, profile_counts,
                               suffix_tables)
from morsematch.morse import build_matching_complex
from morsematch.specs import build_from_spec

from oracles import (all_matchings, by_size_in_canonical_order,
                     counts_by_cardinality, eager_walk,
                     layer_matchings_reference, list_suffix_tables,
                     modified_digraph_acyclic, orbit_reps_by_permutations)

CORPUS = [build_simplex(1), build_simplex(2), build_simplex(3),
          build_boundary(2), build_boundary(3),
          skeleton(build_simplex(3), 1), cone(build_boundary(2))[0]]


def flat_walk(ls, target, acyclic) -> list[int]:
    """The matchings of the walk in walk order, each `acc | x` for every
    member x of a yielded (acc, group) pair: edge mask and covered faces."""
    return [acc | x
            for acc, group in iter_matchings_of_cardinality(ls, target, acyclic)
            for x in group]


def walk_masks(ls, target, acyclic) -> list[int]:
    """The edge masks of the matchings of the walk, in walk order: each
    flattened matching less its covered faces."""
    edges = (1 << ls.H.edge_count) - 1
    return [y & edges for y in flat_walk(ls, target, acyclic)]


def every_matching(ls, acyclic) -> list[int]:
    """The edge masks of every non-empty matching, in the order of the
    layer product `matching_faces`: by size, then canonical."""
    return [m for faces in matching_faces(ls, acyclic) for m in faces]


def test_counts_agree_with_flat_enumeration():
    # the product lists every matching, grouped by size, each group in
    # canonical order: the lex order of ascending edge lists
    for K in CORPUS:
        ls = LayerSystem(K)
        for mode in ("acyclic", "all"):
            flat = all_matchings(ls.H, mode)
            assert matching_counts(K, mode) == counts_by_cardinality(flat)
            assert matching_faces(ls, mode == "acyclic") \
                == by_size_in_canonical_order(flat)


def test_optimal_counts():
    for n, want in [(1, 2), (2, 9), (3, 256)]:
        assert enumerate_optimal(build_simplex(n)) == (2 ** n - 1, want)
    assert enumerate_optimal(skeleton(build_simplex(3), 1)) == (3, 64)
    assert enumerate_optimal(skeleton(build_simplex(4), 2)) == (10, 76025)


def test_profile_counts_small():
    ls = LayerSystem(build_simplex(3))
    S = suffix_tables(ls, True)
    best, count = max_cardinality_info(S[0][0])
    assert profile_counts(ls, best, True) == {(3, 3, 1): 256}

    ls2 = LayerSystem(build_simplex(2))
    assert profile_counts(ls2, 3, True) == {(2, 1): 9}

    # every corpus complex, both modes: the per-layer pair counts of the
    # maximum matchings of the flat enumeration
    for K in CORPUS:
        ls = LayerSystem(K)
        H = ls.H
        for mode in ("acyclic", "all"):
            flat = all_matchings(H, mode)
            top = max(m.bit_count() for m in flat)
            want = Counter()
            for m in flat:
                if m.bit_count() == top:
                    layer = [H.layer_of[e] for e in face_vertices(m)]
                    want[tuple(layer.count(d) for d in range(ls.D))] += 1
            acyclic = mode == "acyclic"
            assert profile_counts(ls, top, acyclic) == want


def test_guided_iteration_matches_flat_maxima():
    for K in CORPUS:
        ls = LayerSystem(K)
        flat = all_matchings(ls.H, "acyclic")
        top = max(bin(m).count("1") for m in flat)
        flat = [m for m in flat if bin(m).count("1") == top]
        S = suffix_tables(ls, True)
        best, count = max_cardinality_info(S[0][0])
        guided = walk_masks(ls, best, True)
        assert sorted(guided) == sorted(flat)
        assert len(guided) == count
        assert enumerate_optimal(K) == (top, len(flat))
        # deterministic order
        assert guided == walk_masks(ls, best, True)


def test_walk_lists_groups_as_the_eager_index_would():
    # the walk lists each layer group when it first reaches it and yields
    # (prefix, top-layer group) pairs; the oracle indexes every layer's
    # whole list first and lists one matching at a time.  Flattened, the
    # same sequence, covered faces included: every target on the corpus,
    # in both modes, and on the n = 4 bases each target of at most 20,000
    # acyclic matchings, and the 76,025 maximum ones of
    # skeleton:simplex:4:2.  No yielded group is empty
    for K in CORPUS:
        ls = LayerSystem(K)
        for acyclic in (True, False):
            S = list_suffix_tables(ls, acyclic)
            for target in range(-1, len(S[0][0]) + 1):
                assert flat_walk(ls, target, acyclic) \
                    == eager_walk(ls, target, acyclic, S)
                assert all(group for _, group in
                           iter_matchings_of_cardinality(ls, target, acyclic))
    for name, K in N4.items():
        ls = LayerSystem(K)
        S = list_suffix_tables(ls, True)
        counts = S[0][0]
        targets = [t for t, c in enumerate(counts) if c <= 20_000]
        if name == "skeleton:simplex:4:2":
            targets.append(len(counts) - 1)
        for target in targets:
            walked = flat_walk(ls, target, True)
            assert len(walked) == counts[target]
            assert walked == eager_walk(ls, target, True, S)


def test_walk_of_the_2_skeleton_shares_its_top_groups():
    # the 76,025 maximum matchings of skeleton:simplex:4:2 come as 625
    # layer-0 prefixes, the rooted spanning trees of K5, each with the one
    # list of layer-1 matchings that completes its tree: 125 distinct
    # lists, one per tree, of 15,205 matchings in all
    ls = LayerSystem(N4["skeleton:simplex:4:2"])
    pairs = list(iter_matchings_of_cardinality(ls, 10, True))
    assert len(pairs) == 625
    distinct = {id(group): group for _, group in pairs}
    assert len(distinct) == 125
    assert sum(len(group) for _, group in pairs) == 76025
    assert sum(map(len, distinct.values())) == 15205
    # a prefix holds layer 0 alone, its group layer 1 alone
    layer0 = (1 << len(ls.layers[0].edges_local)) - 1
    edges = (1 << ls.H.edge_count) - 1
    assert all(acc & edges == acc & layer0 and acc & layer0
               and not any(x & layer0 for x in group) for acc, group in pairs)


def test_profile_counts_tally_the_flattened_walk():
    # a group's members share their prefix's profile: the grouped tally
    # equals the per-matching tally of the flattened walk, on every target
    # of the corpus in both modes and at the maximum of the n = 4 bases
    def tally(ls, target, acyclic):
        spans = [sum(1 << e for e, _, _ in lay.edges_local)
                 for lay in ls.layers]
        return dict(Counter(tuple((y & s).bit_count() for s in spans)
                            for y in flat_walk(ls, target, acyclic)))

    for K in CORPUS:
        ls = LayerSystem(K)
        for acyclic in (True, False):
            for target in range(len(suffix_tables(ls, acyclic)[0][0]) + 1):
                assert profile_counts(ls, target, acyclic) \
                    == tally(ls, target, acyclic)
    for K in N4.values():
        ls = LayerSystem(K)
        best, count = max_cardinality_info(suffix_tables(ls, True)[0][0])
        got = profile_counts(ls, best, True)
        assert got == tally(ls, best, True)
        assert sum(got.values()) == count


def test_each_suffix_of_the_product_is_built_once(monkeypatch):
    # matching_faces fits each layer below each blocked set of tracked
    # faces once: the suffixes above a layer are shared by every matching
    # of the layer below that blocks the same faces
    calls = Counter()
    fitting = layers._fitting

    def counted(fits, blocked, shift):
        calls[id(fits), blocked] += 1
        return fitting(fits, blocked, shift)

    monkeypatch.setattr(layers, "_fitting", counted)
    for K in CORPUS:
        for acyclic in (True, False):
            calls.clear()
            ls = LayerSystem(K)
            flat = all_matchings(ls.H, "acyclic" if acyclic else "all")
            assert matching_faces(ls, acyclic) \
                == by_size_in_canonical_order(flat)
            assert set(calls.values()) == {1}


def test_iteration_of_non_maximal_cardinality():
    ls = LayerSystem(build_boundary(2))
    singles = walk_masks(ls, 1, True)
    assert sorted(singles) == [1 << e for e in range(ls.H.edge_count)]

    for K in CORPUS:
        ls = LayerSystem(K)
        for mode in ("acyclic", "all"):
            acyclic = mode == "acyclic"
            flat = [0] + all_matchings(ls.H, mode)
            union = []
            for k in range(max(m.bit_count() for m in flat) + 1):
                walked = walk_masks(ls, k, acyclic)
                assert sorted(walked) \
                    == sorted(m for m in flat if m.bit_count() == k)
                union += walked
            assert sorted(union) == sorted([0] + every_matching(ls, acyclic))


def test_targeted_walks_read_the_tables_of_their_own_mode():
    # one system holds the suffix tables of both modes; alternating the
    # modes on it shows that each walk prunes with its own mode's tables
    for K in (build_simplex(3), build_boundary(3)):
        ls = LayerSystem(K)
        flat = {acyclic: [0] + all_matchings(ls.H, "acyclic" if acyclic
                                             else "all")
                for acyclic in (True, False)}
        for k in range(max(m.bit_count() for m in flat[False]) + 1):
            for acyclic in (True, False):
                walked = walk_masks(ls, k, acyclic)
                assert sorted(walked) \
                    == sorted(m for m in flat[acyclic] if m.bit_count() == k)
        assert suffix_tables(ls, True) is suffix_tables(ls, True)


def test_width_limit():
    # only faces shared by two layers are tracked: none in a graph, so the
    # 15 edges of K6 need no subset table
    wide = SimplicialComplex.from_facets(
        [face_mask((a, b)) for a in range(6) for b in range(a + 1, 6)])
    ls = LayerSystem(wide)
    assert ls.tracked == [0, 0]
    assert matching_counts(wide, "acyclic") \
        == counts_by_cardinality(all_matchings(ls.H, "acyclic"))
    assert LayerSystem(build_simplex(4)).tracked == [0, 10, 10, 5, 0]
    # the 20 triangles of the 5-simplex are shared by layers 1 and 2
    for K in (build_simplex(5), build_boundary(5)):
        with pytest.raises(BudgetExceededError,
                           match="dimension 2 has 20 tracked faces"):
            LayerSystem(K)
    assert WIDTH_LIMIT == 18


def test_matching_counts_rejects_unknown_mode():
    # "M" is a variant name, not a mode; it must not count all matchings
    with pytest.raises(ValueError, match="mode must be 'acyclic' or 'all'"):
        matching_counts(build_simplex(2), "M")
    assert matching_counts(build_simplex(2), "acyclic") == [9, 21, 9]
    assert matching_counts(build_simplex(2), "all") == [9, 21, 11]


def test_empty_diagram():
    K = build_simplex(0)
    assert LayerSystem(K).H.edge_count == 0
    assert matching_counts(K, "acyclic") == []
    assert enumerate_optimal(K) == (0, 1)
    assert enumerate_optimal(SimplicialComplex.void(3)) == (0, 1)
    # with no layers the one matching is the empty one, of 0 pairs
    for base in (K, SimplicialComplex.void(3)):
        ls = LayerSystem(base)
        assert ls.D == 0
        assert matching_faces(ls, True) == []
        assert walk_masks(ls, 0, True) == [0]
        assert walk_masks(ls, 1, True) == []


# -- the packed transfer against the list transfer ----------------------------

N4 = {"simplex:4": build_simplex(4), "boundary:4": build_boundary(4),
      "skeleton:simplex:4:2": skeleton(build_simplex(4), 2)}


def test_suffix_tables_match_list_transfer():
    # every S[d][U] list, empty ones and the absence of trailing zeros too
    for K in CORPUS + list(N4.values()):
        ls = LayerSystem(K)
        for acyclic in (True, False):
            assert suffix_tables(ls, acyclic) == list_suffix_tables(ls, acyclic)


def test_n4_counts_are_frozen():
    # f-vectors of M and GM (all matchings) of the 4-simplex and its boundary,
    # as frozen in the benchmark references
    want = {
        ("simplex:4", "acyclic"): (
            [75, 2485, 47955, 598425, 5071367, 29844505, 122685075, 350017175,
             680808105, 876110235, 712961065, 343320335, 88467825, 10315975,
             380125], 212456),
        ("simplex:4", "all"): (
            [75, 2485, 48035, 602685, 5168119, 31072025, 132269895, 397931395,
             835688945, 1196294175, 1123298425, 651477055, 211720845,
             32385555, 1569309], -1728),
        ("boundary:4", "acyclic"): (
            [70, 2155, 38420, 439745, 3387062, 17907875, 65162120, 161358215,
             265139350, 277122385, 172371460, 57378175, 8501650, 380125],
            11456),
        ("boundary:4", "all"): (
            [70, 2155, 38500, 443665, 3468394, 18842035, 71695600, 190253755,
             346555930, 421001065, 325663060, 149074035, 35738550, 3563385,
             82584], 62592),
    }
    for (spec, mode), (fv, reduced_chi) in want.items():
        got = matching_counts(N4[spec], mode)
        assert got == fv
        assert sum((-1) ** d * v for d, v in enumerate(got)) - 1 == reduced_chi
    assert enumerate_optimal(N4["simplex:4"]) == (15, 380125)
    assert enumerate_optimal(N4["boundary:4"]) == (14, 380125)


# -- the layer enumerator against the path search -----------------------------

def assert_layers_match_reference(ls: LayerSystem, layers=None) -> None:
    """Every layer's matchings, in both modes, unpack to the path-search
    enumerator's list: same tuples in the same order."""
    for d in range(ls.D) if layers is None else layers:
        layer = ls.layers[d]
        for acyclic in (True, False):
            assert list(map(layer.unpack, ls.matchings(d, acyclic))) \
                == layer_matchings_reference(layer, acyclic)


def test_layer_matchings_match_the_path_search():
    for K in CORPUS + list(N4.values()):
        assert_layers_match_reference(LayerSystem(K))
    # layer 0 of K7: 262,144 acyclic and 505,876 matchings on 42 edges
    assert_layers_match_reference(LayerSystem(skeleton(build_simplex(6), 1)),
                                  [0])


def test_layer_matchings_by_lower_set():
    # with a lower mask the enumerator lists exactly the layer matchings
    # whose lower faces are that mask, in the order of the full list; a
    # mask holding a face without edges in the layer has none
    for K in CORPUS + [N4["simplex:4"], skeleton(build_simplex(4), 2)]:
        ls = LayerSystem(K)
        for d, layer in enumerate(ls.layers):
            for acyclic in (True, False):
                groups: dict[int, list[int]] = {}
                for x in ls.matchings(d, acyclic):
                    groups.setdefault(layer.unpack(x)[0], []).append(x)
                for L in range(1 << len(layer.lower_index)):
                    assert _enumerate_layer(layer, acyclic, L) \
                        == groups.get(L, [])


def test_layer_matchings_are_exactly_the_acyclic_ones():
    # the reach closure refuses a pair exactly when the independent cycle
    # test of the whole diagram fails
    refused = 0
    for K in CORPUS:
        ls = LayerSystem(K)
        for d in range(ls.D):
            unpack = ls.layers[d].unpack
            acyclic = {unpack(x)[2] for x in ls.matchings(d, True)}
            assert all(modified_digraph_acyclic(ls.H, em) for em in acyclic)
            cyclic = [em for _, _, em in map(unpack, ls.matchings(d, False))
                      if em not in acyclic]
            assert not any(modified_digraph_acyclic(ls.H, em) for em in cyclic)
            refused += len(cyclic)
    assert refused > 0


# -- acyclic layer matchings are unique per class ------------------------------

def assert_unique_per_class(ls: LayerSystem) -> None:
    """Two perfect matchings on the same faces differ by alternating cycles,
    which are directed cycles of the modified digraph, so an acyclic layer
    matching is determined by its (lower, upper, size) class."""
    for d in range(ls.D):
        classes = ls.classes(d, acyclic=True)
        assert len(classes) == len(ls.matchings(d, acyclic=True))
        assert set(classes.values()) == {1}


def test_layer_matchings_unique_per_class():
    for K in CORPUS:
        assert_unique_per_class(LayerSystem(K))


@st.composite
def small_complexes(draw):
    """Up to four facets of 1-3 vertices on at most five vertices: mixed
    dimensions, so some middle faces have no coface."""
    n = draw(st.integers(2, 5))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                     unique=True).map(lambda f: face_mask(sorted(f)))
    return SimplicialComplex.from_facets(draw(st.lists(facet, min_size=1,
                                                       max_size=4)))


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_layer_engine_on_drawn_complexes(K):
    ls = LayerSystem(K)
    assert_unique_per_class(ls)
    assert_layers_match_reference(ls)
    for mode in ("acyclic", "all"):
        assert suffix_tables(ls, mode == "acyclic") \
            == list_suffix_tables(ls, mode == "acyclic")
        flat = all_matchings(ls.H, mode)
        assert matching_counts(K, mode) == counts_by_cardinality(flat)
        assert matching_faces(ls, mode == "acyclic") \
            == by_size_in_canonical_order(flat)


# -- inputs the layer engine newly admits -----------------------------------------

def test_disjoint_edges_gm_counts():
    K = SimplicialComplex.from_facets(
        [face_mask((2 * i, 2 * i + 1)) for i in range(10)])
    gm = matching_counts(K, "all")
    assert gm[:3] == [20, 180, 960]
    assert gm == [comb(10, k) * 2 ** k for k in range(1, 11)]
    assert gm[-1] == 1024


def test_k7_graph_counts():
    K = skeleton(build_simplex(6), 1)
    assert matching_counts(K, "acyclic") == [42, 735, 6860, 36015, 100842, 117649]
    assert matching_counts(K, "all") \
        == [42, 735, 6930, 37905, 119826, 201747, 138690]
    assert enumerate_optimal(K) == (6, 117649)


def test_wide_complexes_refused_quickly():
    for K in (build_simplex(5), build_boundary(5)):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="tracked faces"):
            matching_counts(K)
        assert time.perf_counter() - t0 < 1.0


def test_layer_matchings_are_freed_without_the_cycle_collector():
    # nothing the counts, the walk or a materialization leaves behind may
    # wait in a reference cycle for a full collection
    gc.collect()
    gc.disable()
    try:
        K = build_simplex(3)
        matching_counts(K)
        assert gc.collect() == 0
        # the 4-simplex takes the orbit fill, whose enumerations share the
        # DFS set-up cached on each Layer
        for mode in ("acyclic", "all"):
            matching_counts(build_simplex(4), mode)
            assert gc.collect() == 0
        ls = LayerSystem(K)
        assert sum(len(group) for k in range(8) for _, group in
                   iter_matchings_of_cardinality(ls, k, True)) == 12821
        assert gc.collect() == 0
        # an abandoned walk, whose memos already hold listed groups and a
        # top-layer group
        walk = iter_matchings_of_cardinality(ls, 3, True)
        next(walk)
        next(walk)
        del walk
        assert gc.collect() == 0
        # the product of three layers, whose suffix memo is filled by a
        # recursive builder
        assert len(every_matching(ls, False)) == 14720
        assert gc.collect() == 0
        homology(build_matching_complex(build_simplex(3), "M").complex)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_layer_matchings_are_untracked_by_the_cycle_collector():
    # a layer matching is one int, which the cycle collector never tracks
    ls = LayerSystem(build_simplex(4))
    lists = [ls.matchings(d, acyclic) for d in range(ls.D)
             for acyclic in (True, False)]
    gc.collect()
    assert not any(gc.is_tracked(m) for mats in lists for m in mats)


def test_packed_layer_matchings():
    # the edge part of a packed matching is its global edge mask: each
    # layer's edges are one contiguous range of edge ids, below bit E.
    # Its lower and upper parts sit at their dimensions' global positions
    for K in CORPUS + list(N4.values()):
        ls = LayerSystem(K)
        E = ls.H.edge_count
        first = 0
        for d, layer in enumerate(ls.layers):
            ids = [e for e, _, _ in layer.edges_local]
            assert ids == list(range(first, first + len(ids)))
            first += len(ids)
            assert layer.lower_shift == E + ls.H.offsets[d]
            assert layer.upper_shift == E + ls.H.offsets[d + 1]
        assert first == E
        for d, layer in enumerate(ls.layers):
            for x in ls.matchings(d, False):
                lower, upper, em = layer.unpack(x)
                assert em >> E == 0
                assert lower.bit_count() == upper.bit_count() \
                    == em.bit_count() == x.bit_count() // 3
                assert x == em | lower << layer.lower_shift \
                    | upper << layer.upper_shift


def test_layer_one_of_the_4_simplex_fits_in_8_mb():
    # 113,192 matchings of layer 1 in all mode: about 5.3 MB as ints, where
    # (lower, upper, edge_mask) tuples took 17.2 MB
    ls = LayerSystem(N4["simplex:4"])
    tracemalloc.start()
    try:
        mats = ls.matchings(1, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mats) == 113192
    assert peak < 8 * 2 ** 20


# -- the symmetric fill of the suffix tables ------------------------------------

def full_skeletons():
    """Every full skeleton of a simplex up to n = 4 by spec: simplex:n,
    boundary:n and skeleton:simplex:n:k for k < n - 1; and the 4-simplex
    on the non-contiguous vertex ids 1, 3, 4, 7, 9."""
    specs = [f"simplex:{n}" for n in range(5)] \
        + [f"boundary:{n}" for n in range(1, 5)] \
        + [f"skeleton:simplex:{n}:{k}" for n in range(5) for k in range(n - 1)]
    out = {spec: build_from_spec(spec) for spec in specs}
    out["simplex:4 on 1, 3, 4, 7, 9"] = relabel(build_simplex(4),
                                                [1, 3, 4, 7, 9], 10)
    return out


def test_symmetric_tables_match_list_transfer():
    # every full skeleton up to n = 4 takes the orbit fill and gets the
    # list transfer's tables, which read every layer matching
    for name, K in full_skeletons().items():
        for acyclic in (True, False):
            ls = LayerSystem(K)
            assert _full_skeleton(K) is not None, name
            assert suffix_tables(ls, acyclic) \
                == list_suffix_tables(LayerSystem(K), acyclic), name


def test_symmetric_rows_are_shared_within_an_orbit():
    # on a full skeleton each orbit's row is unpacked once: every mask
    # holds its orbit representative's list, and the tables are unchanged
    for K in (N4["simplex:4"], N4["boundary:4"]):
        for acyclic in (True, False):
            ls = LayerSystem(K)
            S = suffix_tables(ls, acyclic)
            for d in range(1, ls.D):
                rep = _orbit_reps(_full_skeleton(K), d)
                assert all(S[d][u] is S[d][rep[u]] for u in range(len(rep)))
                assert len({id(row) for row in S[d]}) == len(set(rep))
            assert S == list_suffix_tables(ls, acyclic)


def test_other_bases_take_the_full_fill():
    # a cone and the 3-simplex less one triangle are no full skeleton:
    # every layer is enumerated in full, and the tables are the oracle's
    less = SimplicialComplex.from_facets(
        [f for f in range(1, 16) if f.bit_count() == 3 and f != 0b0111])
    for K in (cone(build_boundary(2))[0], less):
        ls = LayerSystem(K)
        assert _full_skeleton(K) is None
        for acyclic in (True, False):
            assert suffix_tables(ls, acyclic) \
                == list_suffix_tables(ls, acyclic)
            assert (ls.D - 1, acyclic) in ls._matchings


def test_orbit_fill_needs_automorphisms(monkeypatch):
    # the orbit fill is exact under the vertex permutations; a table that
    # forgets which faces a lower mask holds (orbits under every
    # permutation of the d-faces, so masks of one size are one orbit)
    # merges inequivalent masks, and the tables go wrong
    def by_size(V, d):
        return [(1 << m.bit_count()) - 1 for m in range(1 << comb(V, d + 1))]

    monkeypatch.setattr(layers, "_orbit_reps", by_size)
    for K in (build_simplex(4), build_boundary(4), build_simplex(3)):
        for acyclic in (True, False):
            ls = LayerSystem(K)
            assert suffix_tables(ls, acyclic) != list_suffix_tables(ls, acyclic)


def test_counting_keeps_no_layer_matchings_above_layer_0():
    # only layer 0, whose lower faces are untracked, is enumerated in full
    # and kept; layers 1.. are summed one orbit representative at a time.
    # The lower masks of layers 1 and 2 of the 4-simplex fall into the 34
    # orbits of graphs on 5 vertices (a set of triangles is the set of
    # complementary edges), those of layer 3 into 6 orbits by size
    for acyclic in (True, False):
        ls = LayerSystem(build_simplex(4))
        suffix_tables(ls, acyclic)
        assert list(ls._matchings) == [(0, acyclic)]
    assert [len(set(_orbit_reps(5, d))) for d in range(1, ls.D)] \
        == [34, 34, 6]


def test_orbit_reps():
    # S_3 on the three edges of a triangle: masks fall into orbits by size
    assert _orbit_reps(3, 1) == [0, 1, 1, 3, 1, 3, 3, 7]


def test_orbit_reps_match_every_permutation():
    # the table from two generators of S_V against the least image under
    # all V! vertex permutations, for every layer of a full skeleton that
    # takes the orbit fill (1 <= d <= V - 2) up to V = 5
    for V in range(3, 6):
        for d in range(1, V - 1):
            assert _orbit_reps(V, d) == orbit_reps_by_permutations(V, d), \
                (V, d)


def test_orbit_tables_are_built_once_per_process():
    # the table depends on (V, d) alone: two systems of the 4-simplex and
    # one of its boundary, all on V = 5, build the layers d = 1, 2, 3 once
    _orbit_reps.cache_clear()
    for K in (build_simplex(4), build_simplex(4), build_boundary(4)):
        for acyclic in (True, False):
            suffix_tables(LayerSystem(K), acyclic)
    assert _orbit_reps.cache_info().misses == 3
    assert _orbit_reps(5, 1) is _orbit_reps(5, 1)


def test_2_skeleton_of_the_5_simplex_is_counted():
    # dimension 1 of skeleton:simplex:5:2 has 15 tracked edges; its 2^15
    # lower masks fall into the 156 orbits of graphs on 6 vertices.  The
    # first entries are checked against sets of Hasse edges filtered by
    # the diagram's matching test and the whole-digraph cycle test
    K = skeleton(build_simplex(5), 2)
    fv = matching_counts(K, "acyclic")
    H = build_hasse(K)
    assert H.edge_count == 90
    assert _full_skeleton(K) == 6
    assert len(set(_orbit_reps(6, 1))) == 156
    brute = [0, 0, 0]
    for k in (1, 2, 3):
        for edges in combinations(range(H.edge_count), k):
            mask = sum(1 << e for e in edges)
            if is_matching(H, mask) and modified_digraph_acyclic(H, mask):
                brute[k - 1] += 1
    assert fv[:3] == brute == [90, 3660, 88920]
