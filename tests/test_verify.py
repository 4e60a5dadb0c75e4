import inspect
import time
from collections import Counter
from itertools import chain
from math import comb

import pytest

from morsematch import verify
from morsematch.complexes import (SimplicialComplex, build_boundary,
                                  build_simplex, cone, face_mask,
                                  face_vertices, relabel, skeleton)
from morsematch.hasse import HasseDiagram, build_hasse
from morsematch.homology import HomologyResult
from morsematch.layers import LayerSystem, suffix_tables
from morsematch.morse import MatchingComplex
from morsematch.verify import (default_suite, verify_cone_contiguity,
                               verify_conjecture_evidence,
                               verify_euler_obstruction_n4,
                               verify_gm_structure, verify_inclusion_full,
                               verify_layer_counts, verify_les_example,
                               verify_pair_splitting, verify_reference_tables,
                               verify_restriction_fibers, verify_spanning_tree,
                               verify_top_facet_bijection, N4_F_VECTOR)

from oracles import all_matchings, critical_faces
from test_layers import CORPUS, flat_walk


def test_top_facet_bijection():
    r = verify_top_facet_bijection(2)
    assert r.passed and r.details["count"] == 9
    r = verify_top_facet_bijection(3)
    assert r.passed and r.details["count"] == 256


def test_top_facet_bijection_rejects_n1():
    assert verify_top_facet_bijection(1).status == "fail"


@pytest.mark.parametrize("n", [5, 12])
def test_matching_walks_refused_before_any_diagram(n, monkeypatch):
    # the width rule reads the faces alone, so an instance it refuses
    # never gets a Hasse diagram
    built = []
    init = HasseDiagram.__init__

    def spy(self, K):
        built.append(K)
        init(self, K)

    monkeypatch.setattr(HasseDiagram, "__init__", spy)
    for verifier in (verify_top_facet_bijection, verify_layer_counts,
                     verify_spanning_tree, verify_restriction_fibers):
        r = verifier(n)
        assert r.status == "skipped-budget", r.name
        assert "tracked faces" in r.details["reason"]
    assert built == []


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
    from morsematch.hasse import build_hasse
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


def test_spanning_tree_witness_has_the_rejected_critical_set(monkeypatch):
    # the tree test runs once per distinct critical set; rejecting one set
    # must still fail the check on a matching that leaves exactly that set
    from morsematch.complexes import build_simplex, face_mask, skeleton
    from morsematch.hasse import build_hasse
    from morsematch.verify import _facet_graph_edge
    star = [(0, 1), (0, 2), (0, 3), (0, 4)]
    is_tree = verify._is_spanning_tree
    monkeypatch.setattr(verify, "_is_spanning_tree",
                        lambda edges, nv: sorted(edges) != star
                        and is_tree(edges, nv))
    r = verify_spanning_tree(4)
    assert r.status == "fail"
    assert r.details == {"message": "critical faces do not form a spanning tree"}
    assert sorted(r.witness["edges"]) == star
    H = build_hasse(skeleton(build_simplex(4), 2))
    mask = 0
    for lower, upper in r.witness["matching"]:
        mask |= 1 << H.edge(face_mask(lower), face_mask(upper))
    crit = critical_faces(H, mask)
    assert sorted(_facet_graph_edge(u, 4) for u in crit[2]) == star


def test_spanning_tree_streams_its_matchings(monkeypatch):
    # the first critical set is tested as soon as the walk has yielded its
    # first (prefix, group) pair, so the verifier never holds the list of
    # the 76,025 matchings: only the walk's 125 shared top-layer groups
    yielded = 0
    walk = verify.iter_matchings_of_cardinality

    def counted(*args, **kwargs):
        nonlocal yielded
        for acc, group in walk(*args, **kwargs):
            yielded += 1
            yield acc, group

    at_first_test = []
    is_tree = verify._is_spanning_tree

    def spy(edges, n_vertices):
        if not at_first_test:
            at_first_test.append(yielded)
        return is_tree(edges, n_vertices)

    monkeypatch.setattr(verify, "iter_matchings_of_cardinality", counted)
    monkeypatch.setattr(verify, "_is_spanning_tree", spy)
    r = verify_spanning_tree(4)
    assert r.passed
    assert r.details == {"count": 76025, "distinct_trees": 125}
    assert at_first_test == [1]
    assert yielded == 625


def _critical_decoder(H):
    """The map from a walked matching y to the faces it leaves critical,
    decoded from `full ^ (y >> E)` by the documented local order (in each
    dimension d >= 1, the faces with a coface first, then the rest, each
    in gid order) and laid out as `critical_faces` lays them out."""
    at = []  # the gid at each position above bit E
    for d in range(len(H.offsets) - 1):
        gids = range(H.offsets[d], H.offsets[d + 1])
        at += [g for g in gids if d and H.edges_up[g]] \
            + [g for g in gids if not (d and H.edges_up[g])]
    full = (1 << len(at)) - 1

    def decode(y):
        by_dim = [[] for _ in range(H.base.dim + 1)]
        for g in sorted(at[b] for b in face_vertices(full ^ (y >> H.edge_count))):
            f = H.face_of_gid[g]
            by_dim[f.bit_count() - 1].append(f)
        return by_dim

    return decode


def test_walked_matchings_carry_their_critical_faces():
    # every maximum matching of the bases the walking verifiers read
    for B, count in [(build_boundary(3), 256),
                     (skeleton(build_simplex(3), 1), 64),
                     (build_boundary(4), 380125),
                     (skeleton(build_simplex(4), 2), 76025)]:
        ls = LayerSystem(B)
        edges = (1 << ls.H.edge_count) - 1
        decode = _critical_decoder(ls.H)
        checked = 0
        for acc, group in verify._optimal_masks(ls, verify.DEFAULT_BUDGET)[1]:
            for x in group:
                y = acc | x
                assert decode(y) == critical_faces(ls.H, y & edges)
                checked += 1
        assert checked == count
    # every matching, acyclic or not, walked one size at a time, of the
    # small corpus and of a base whose dimension-1 faces are not in gid
    # order locally
    odd = SimplicialComplex.from_facets([face_mask((0, 1, 2)),
                                         face_mask((0, 3))])
    for K in CORPUS + [odd]:
        ls = LayerSystem(K)
        H = ls.H
        edges = (1 << H.edge_count) - 1
        decode = _critical_decoder(H)
        for acyclic in (True, False):
            top = len(suffix_tables(ls, acyclic)[0][0])
            walked = [y for k in range(top)
                      for y in flat_walk(ls, k, acyclic)]
            for y in walked:
                assert decode(y) == critical_faces(H, y & edges)
            flat = all_matchings(H, "acyclic" if acyclic else "all")
            assert sorted(y & edges for y in walked) == sorted([0] + flat)
        # edges 0 and 1 leave the first vertex, or on simplex:1 meet at
        # its one edge: two edges on one face
        assert {H.lower[0], H.upper[0]} & {H.lower[1], H.upper[1]}
        with pytest.raises(ValueError):
            critical_faces(H, 0b11)
    # on that base edge {0,3} has no coface: it comes after {1,2} locally,
    # though before it in gid order, so the one pair ({1,2}, {0,1,2})
    # covers local face 2 of dimension 1 where its gid is offsets[1] + 3
    ls = LayerSystem(odd)
    H, E = ls.H, ls.H.edge_count
    e = H.edge(face_mask((1, 2)), face_mask((0, 1, 2)))
    assert H.face_of_gid[H.offsets[1] + 3] == face_mask((1, 2))
    [y] = [y for y in flat_walk(ls, 1, True)
           if y & ((1 << E) - 1) == 1 << e]
    assert y >> E == (1 << (H.offsets[1] + 2)) | (1 << H.offsets[2])


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


@pytest.mark.parametrize("codim", [2, 1])
@pytest.mark.parametrize("n", [3, 4])
def test_every_restricted_face_of_the_simplex_is_tracked(n, codim):
    # restriction-fibers (k = n-2) and top-facet-bijection (k = n-1) index
    # the suffix tables at dimension k by gid offsets in the k-skeleton's
    # diagram: every k-face of the simplex is tracked, in gid order, and
    # the skeleton numbers its faces the same
    k = n - codim
    ls = LayerSystem(build_simplex(n))
    H = ls.H
    assert ls.tracked[k] == comb(n + 1, k + 1)
    first = H.offsets[k]
    assert ls.layers[k].lower_index == {
        g: g - first for g in range(first, H.offsets[k + 1])}
    Hs = build_hasse(skeleton(build_simplex(n), k))
    assert Hs.face_of_gid == H.face_of_gid[:H.offsets[k + 1]]


def test_restriction_fiber_of_star_matching():
    # the fiber over the star matching has one extension per root facet
    from morsematch.complexes import (build_simplex, face_mask, face_vertices,
                                      skeleton)
    from morsematch.hasse import build_hasse
    from morsematch.layers import (LayerSystem, max_cardinality_info,
                                   suffix_tables)
    from morsematch.morse import induced_inclusion
    d3 = build_simplex(3)
    sk = skeleton(d3, 1)
    Hs = build_hasse(sk)
    star = 0
    for lo, up in [((1,), (0, 1)), ((2,), (0, 2)), ((3,), (0, 3))]:
        for e in range(Hs.edge_count):
            if Hs.edge_faces(e) == (face_mask(lo), face_mask(up)):
                star |= 1 << e
    ls = LayerSystem(d3)
    HK = ls.H
    sk_to_k = induced_inclusion(Hs, HK)
    k_to_sk = {ke: se for se, ke in enumerate(sk_to_k)}
    fiber = []
    S = suffix_tables(ls, acyclic=True)
    best, _ = max_cardinality_info(S[0][0])
    edges = (1 << HK.edge_count) - 1
    for y in flat_walk(ls, best, acyclic=True):
        mask = y & edges
        rho = 0
        for e in face_vertices(mask):
            se = k_to_sk.get(e)
            if se is not None and HK.layer_of[e] == 0:
                rho |= 1 << se
        if rho == star:
            fiber.append(mask)
    assert len(fiber) == 4


def test_cone_contiguity():
    reports = [verify_cone_contiguity(spec)
               for spec in ("simplex:1", "boundary:2", "simplex:2")]
    assert all(r.passed for r in reports), [r.details for r in reports]
    # face counts: two for the edge, the full matching complex otherwise
    assert [r.details["faces_checked"] for r in reports] == [2, 15, 39]
    # the distinguished pair needs w0 to be a vertex of the base
    with pytest.raises(ValueError, match="w0=7 is not a vertex"):
        verify_cone_contiguity("simplex:1", w0=7)


def test_cone_contiguity_fails_when_a_union_is_refused(monkeypatch):
    # the check reports whatever its acyclicity test refuses: here the
    # union of the first face, a single pair, with the apex pair
    real = verify._acyclic_matching
    refused = []

    def refuse_one(ls):
        acyclic = real(ls)

        def test(mask):
            if mask.bit_count() == 2 and not refused:
                refused.append((ls.H, mask))
                return False
            return acyclic(mask)

        return test

    monkeypatch.setattr(verify, "_acyclic_matching", refuse_one)
    r = verify_cone_contiguity("boundary:2")
    assert r.status == "fail"
    assert r.details == {"message": "face plus apex pair is not an acyclic "
                                    "matching on the cone"}
    [(H, mask)] = refused
    face, pairs = r.witness
    assert len(face) == 1 and pairs == verify._edge_pairs(H, mask)


def test_pair_splitting():
    r = verify_pair_splitting([("simplex:2", "simplex:1"),
                               ("simplex:3", "simplex:2")])
    assert r.passed, r.details


def test_pair_splitting_degenerate_base():
    # the base complex of the edge is a point, whose matching complex is
    # void; the splitting identity still holds with the void conventions
    r = verify_pair_splitting([("simplex:1", "simplex:0")])
    assert r.passed, r.details


def test_pair_splitting_merges_coprime_torsion(monkeypatch):
    # Z/2 + Z/3 = Z/6: the expected torsion is the merged chain without
    # its unit, as HomologyResult.torsion never holds a 1
    groups = {"simplex:1": [(0, ()), (0, (2,))], "simplex:0": [(0, (3,))]}
    monkeypatch.setattr(
        verify, "_reduced_homology",
        lambda spec, variant, budget, mc=None: HomologyResult(groups[spec], True))
    monkeypatch.setattr(
        verify, "relative_homology",
        lambda L, K, reduced=True: HomologyResult([(0, ()), (0, (6,))], True))
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
        return MatchingComplex(mc.hasse,
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


def _edges_only(monkeypatch):
    """Make every walked maximum matching carry no covered face, so each
    face of the base reads critical: each prefix and each member of its
    group lose theirs, in walk order."""
    optimal_masks = verify._optimal_masks

    def edges_only(ls, budget):
        best, walk = optimal_masks(ls, budget)
        edges = (1 << ls.H.edge_count) - 1
        return best, ((acc & edges, [x & edges for x in group])
                      for acc, group in walk)

    monkeypatch.setattr(verify, "_optimal_masks", edges_only)


def test_failed_check_carries_its_witness(monkeypatch):
    # every face reads critical, so K4 has four critical vertices and six
    # critical edges
    _edges_only(monkeypatch)
    r = verify_spanning_tree(3)
    assert r.status == "fail"
    assert r.details == {
        "message": "unexpected critical face counts on the skeleton"}
    # the witness is the failing matching as [lower, upper] face pairs
    assert len(r.witness) == 3  # a maximum matching on the skeleton K4
    for lower, upper in r.witness:
        assert len(upper) == len(lower) + 1 and set(lower) < set(upper)


def test_bijection_check_carries_its_witness(monkeypatch):
    # every face of the boundary reads critical, not one vertex and one
    # facet; the witness is the first boundary matching walked
    _edges_only(monkeypatch)
    r = verify_top_facet_bijection(3)
    assert r.status == "fail"
    assert r.details == {
        "message": "boundary matching lacks the expected two critical faces"}
    ls = LayerSystem(build_boundary(3))
    acc, group = next(verify._optimal_masks(ls, verify.DEFAULT_BUDGET)[1])
    assert r.witness == verify._edge_pairs(ls.H, acc | group[0])
    assert len(r.witness) == 6  # a maximum matching of the boundary
    for lower, upper in r.witness:
        assert len(upper) == len(lower) + 1 and set(lower) < set(upper)


def test_bijection_and_fibers_fail_when_a_matching_is_missing(monkeypatch):
    # drop one maximum matching of the boundary (for the bijection) or of
    # the skeleton (for the fibers), the first member of the first group;
    # both checks must notice
    import morsematch.verify as verify_mod
    optimal_masks = verify_mod._optimal_masks

    def lossy(ls, budget):
        best, walk = optimal_masks(ls, budget)
        if ls.D < 3:
            acc, group = next(walk)
            walk = chain([(acc, group[1:])], walk)
        return best, walk

    monkeypatch.setattr(verify_mod, "_optimal_masks", lossy)
    r = verify_top_facet_bijection(3)
    assert r.status == "fail"
    assert r.details == {"message": "facet counts differ: 256 != 255"}
    assert r.witness is None
    r = verify_restriction_fibers(3)
    assert r.status == "fail"
    assert r.details == {"message": "256 != 4 x 63"}


@pytest.mark.parametrize("doctored,fiber", [([1, 2], 2), ([1], 0)],
                         ids=["fiber-2", "fiber-0"])
def test_bijection_fails_when_a_fiber_is_not_one(monkeypatch, doctored, fiber):
    # the simplex is not walked: each boundary matching's fiber is read
    # off the simplex's suffix table at dimension 2, where an entry [1, 1]
    # leaves one facet free to pair with the top simplex.  Doctor one such
    # entry to 2 extensions or to none
    import morsematch.verify as verify_mod
    tables = verify_mod.suffix_tables

    def doctor(ls, acyclic):
        S = tables(ls, acyclic)
        if ls.D < 3:
            return S
        S = S[:2] + [list(S[2])] + S[3:]
        S[2][S[2].index([1, 1])] = doctored
        return S

    monkeypatch.setattr(verify_mod, "suffix_tables", doctor)
    r = verify_top_facet_bijection(3)
    assert r.status == "fail"
    assert r.details == {
        "message": f"a boundary matching has {fiber} extensions"}
    assert len(r.witness) == 6  # a maximum matching of the boundary


def _doctor_walk(monkeypatch, doctor):
    """Pass every pair (acc, group) that a verifier's walk yields, with its
    index i, through doctor(i, acc, group), which returns the pair to
    yield instead."""
    optimal_masks = verify._optimal_masks

    def doctored(ls, budget):
        best, walk = optimal_masks(ls, budget)
        return best, (doctor(i, acc, group)
                      for i, (acc, group) in enumerate(walk))

    monkeypatch.setattr(verify, "_optimal_masks", doctored)


def _flat_doctored_walk(ls):
    """The doctored walk of `ls`, one matching `acc | x` at a time."""
    walk = verify._optimal_masks(ls, verify.DEFAULT_BUDGET)[1]
    return [acc | x for acc, group in walk for x in group]


def _spanning_tree_per_matching(H, n, ys):
    """The spanning-tree check one walked matching at a time, as it ran
    before the walk yielded groups: the message and witness of the first
    failing matching, or None."""
    E, full = H.edge_count, (1 << len(H.face_of_gid)) - 1
    vertices = (1 << H.offsets[1]) - 1
    first_top = H.offsets[n - 2]
    for y in ys:
        free = full ^ (y >> E)
        top = free >> first_top
        if top.bit_count() != n or (free & vertices).bit_count() != 1:
            return ("unexpected critical face counts on the skeleton",
                    verify._edge_pairs(H, y))
        edges = [verify._facet_graph_edge(H.face_of_gid[first_top + i], n)
                 for i in face_vertices(top)]
        if not verify._is_spanning_tree(edges, n + 1):
            return ("critical faces do not form a spanning tree",
                    {"matching": verify._edge_pairs(H, y), "edges": edges})
    return None


def _bijection_per_matching(n, ys):
    """The top-facet-bijection check one walked matching of the boundary
    at a time, each fiber read off the simplex's table through
    `verify.suffix_tables` as before the walk yielded groups."""
    S = verify.suffix_tables(LayerSystem(build_simplex(n)), True)
    H = build_hasse(build_boundary(n))
    E, full = H.edge_count, (1 << len(H.face_of_gid)) - 1
    vertices = (1 << H.offsets[1]) - 1
    first = H.offsets[n - 1]
    top = len(S[n - 1]) - 1
    for y in ys:
        free = full ^ (y >> E)
        if not (free.bit_count() == 2 and (free & vertices).bit_count() == 1
                and (free >> first).bit_count() == 1):
            return ("boundary matching lacks the expected two critical faces",
                    verify._edge_pairs(H, y))
        vec = S[n - 1][top ^ (free >> first)]
        fiber = vec[1] if len(vec) > 1 else 0
        if fiber != 1:
            return (f"a boundary matching has {fiber} extensions",
                    verify._edge_pairs(H, y))
    return None


@pytest.mark.parametrize("kind", ["member", "shared", "prefix"])
def test_spanning_tree_on_a_doctored_group_fails_as_per_matching(monkeypatch,
                                                                 kind):
    # the grouped check tests a group's members once per prefix counts
    # (see verify._fresh_groups); whatever is doctored, it must fail with
    # the witness of the first failing matching in walk order.  At n = 4,
    # pair 400 of the 625 brings a group that an earlier pair brought
    n, at = 4, 400
    ls = LayerSystem(skeleton(build_simplex(n), n - 2))
    H = ls.H
    E, first_top = H.edge_count, H.offsets[n - 2]
    pairs = list(verify._optimal_masks(ls, verify.DEFAULT_BUDGET)[1])
    group = pairs[at][1]
    assert any(g is group for _, g in pairs[:at])
    top_faces = ((1 << len(H.face_of_gid)) - 1) >> first_top << first_top

    def swapped(x):
        # move one covered top face to a critical one, so that the
        # critical top faces keep their number but close a cycle
        cover = x >> E & top_faces
        for c in face_vertices(cover):
            for f in face_vertices(top_faces ^ cover):
                crit = (top_faces ^ cover ^ 1 << c ^ 1 << f) >> first_top
                edges = [verify._facet_graph_edge(
                    H.face_of_gid[first_top + i], n) for i in face_vertices(crit)]
                if not verify._is_spanning_tree(edges, n + 1):
                    return x ^ (1 << c ^ 1 << f) << E
        raise AssertionError("no swap closes a cycle")

    if kind == "member":
        # one occurrence gets a copy whose 8th member uncovers a top face
        x = group[7]
        bad = group[:7] + [x ^ (x >> E + first_top & -(x >> E + first_top))
                           << E + first_top] + group[8:]

        def doctor(i, acc, g):
            return (acc, bad) if i == at else (acc, g)
    elif kind == "shared":
        # every occurrence of the group, the same doctored list each time
        content = tuple(group)
        bad = group[:3] + [swapped(group[3])] + group[4:]

        def doctor(i, acc, g):
            return (acc, bad) if tuple(g) == content else (acc, g)
    else:
        # the prefix uncovers one of its vertices
        def doctor(i, acc, g):
            return (acc ^ (acc >> E & -(acc >> E)) << E, g) if i == at \
                else (acc, g)

    _doctor_walk(monkeypatch, doctor)
    want = _spanning_tree_per_matching(H, n, _flat_doctored_walk(ls))
    assert want is not None
    r = verify_spanning_tree(n)
    assert r.status == "fail"
    assert (r.details["message"], r.witness) == want
    if kind == "shared":
        assert want[0] == "critical faces do not form a spanning tree"


@pytest.mark.parametrize("kind", ["fiber", "member"])
def test_bijection_on_a_doctored_group_fails_as_per_matching(monkeypatch,
                                                             kind):
    # the fibers of a group are read once, when the walk first yields it;
    # a doctored fiber table or group member must still fail at the first
    # failing boundary matching in walk order.  The boundary of the
    # 3-simplex walks 64 pairs over 16 groups
    n = 3
    ls = LayerSystem(build_boundary(n))
    E, first = ls.H.edge_count, ls.H.offsets[n - 1]
    if kind == "fiber":
        # an entry [1, 1] of the simplex's table at dimension 2 leaves one
        # facet to pair with the top simplex; one such entry gets 2
        tables = verify.suffix_tables

        def doctor_tables(ls, acyclic):
            S = tables(ls, acyclic)
            if ls.D < 3:
                return S
            S = S[:2] + [list(S[2])] + S[3:]
            S[2][S[2].index([1, 1], 5)] = [1, 2]
            return S

        monkeypatch.setattr(verify, "suffix_tables", doctor_tables)
    else:
        # pair 20's group gets a copy whose last member covers every facet
        def doctor(i, acc, g):
            if i != 20:
                return acc, g
            return acc, g[:-1] + [g[-1] | (1 << 4) - 1 << E + first]

        _doctor_walk(monkeypatch, doctor)
    want = _bijection_per_matching(n, _flat_doctored_walk(ls))
    assert want is not None
    r = verify_top_facet_bijection(n)
    assert r.status == "fail"
    assert (r.details["message"], r.witness) == want


def test_budget_skip():
    r = verify_top_facet_bijection(3, budget=10)
    assert r.status == "skipped-budget"


def test_layer_counts_charges_its_walk_to_the_budget():
    # the 3-simplex has 256 maximum matchings: a budget of 255 refuses the
    # walk before it starts
    assert verify_layer_counts(3, budget=256).passed
    r = verify_layer_counts(3, budget=255)
    assert r.status == "skipped-budget"
    assert r.details == {"reason": "256 optimal matchings exceed budget 255"}


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


# The calls of `default_suite`, frozen.  A call is written as the verifier
# without its `verify_` prefix, with its arguments but not its budget.
# Per check, in declaration order, the calls of a run of that check alone
# at max_n 5 and at max_n 0; then the calls of full runs.
_PAIRS_3 = ("[('simplex:1', 'simplex:0'), ('simplex:2', 'simplex:1'), "
            "('simplex:3', 'simplex:2')]")
_CONES = [f"cone_contiguity('{s}', 0)"
          for s in ("simplex:1", "boundary:2", "simplex:2")]
_INCLUSIONS = ["inclusion_full('boundary:2', 'simplex:2')",
               "inclusion_full('simplex:2', 'simplex:2')",
               "inclusion_full('boundary:3', 'simplex:3')",
               "inclusion_full('simplex:2', 'simplex:3')"]
_BY_NAME_5 = {
    "reference-tables": ["reference_tables()"],
    "top-facet-bijection": [f"top_facet_bijection({n})" for n in (2, 3, 4, 5)],
    "layer-counts": [f"layer_counts({n})" for n in (2, 3, 4, 5)],
    "spanning-tree": [f"spanning_tree({n})" for n in (3, 4, 5)],
    "restriction-fibers": [f"restriction_fibers({n})" for n in (3, 4, 5)],
    "cone-contiguity": _CONES,
    "pair-splitting": [f"pair_splitting({_PAIRS_3})"],
    "les-example": ["les_example()"],
    "inclusion-full": _INCLUSIONS,
    "gm-structure": ["gm_structure(2)", "gm_structure(3)"],
    "conjecture-pure": ["conjecture_evidence('MP', 2)",
                        "conjecture_evidence('MP', 3)"],
    "conjecture-gm": ["conjecture_evidence('GM', 2)",
                      "conjecture_evidence('GM', 3)"],
    "euler-n4": ["euler_obstruction_n4(None)"],
}
_BY_NAME_0 = {name: [] for name in _BY_NAME_5} | {
    "reference-tables": ["reference_tables()"],
    "cone-contiguity": _CONES,
    "pair-splitting": [f"pair_splitting({_PAIRS_3})"],
    "les-example": ["les_example()"],
    "inclusion-full": _INCLUSIONS,
    "euler-n4": ["euler_obstruction_n4(None)"],
}
# a full run at max_n <= 1: no instance indexed by n, no fixed one past n = 2
_SMALL = _CONES + [
    "pair_splitting([('simplex:1', 'simplex:0'), ('simplex:2', 'simplex:1')])",
    *_INCLUSIONS[:2]]
_SUITE_2 = ["top_facet_bijection(2)", "layer_counts(2)", *_SMALL,
            "gm_structure(2)", "conjecture_evidence('MP', 2)",
            "conjecture_evidence('GM', 2)"]
_SUITE_3 = ["reference_tables()", "top_facet_bijection(2)",
            "top_facet_bijection(3)", "layer_counts(2)", "layer_counts(3)",
            "spanning_tree(3)", "restriction_fibers(3)", *_CONES,
            f"pair_splitting({_PAIRS_3})", "les_example()", *_INCLUSIONS,
            "gm_structure(2)", "gm_structure(3)",
            "conjecture_evidence('MP', 2)", "conjecture_evidence('MP', 3)",
            "conjecture_evidence('GM', 2)", "conjecture_evidence('GM', 3)"]
_SUITE_4 = ["reference_tables()",
            *(f"top_facet_bijection({n})" for n in (2, 3, 4)),
            *(f"layer_counts({n})" for n in (2, 3, 4)),
            "spanning_tree(3)", "spanning_tree(4)",
            "restriction_fibers(3)", "restriction_fibers(4)",
            *_SUITE_3[7:], "euler_obstruction_n4(None)"]


def _record_calls(monkeypatch) -> list:
    """Replace every verifier by one that records its call and passes."""
    calls = []
    for attr in dir(verify):
        if not attr.startswith("verify_"):
            continue
        original = getattr(verify, attr)
        sig = inspect.signature(original)

        def fake(*args, _name=attr[len("verify_"):], _sig=sig, **kwargs):
            bound = _sig.bind(*args, **kwargs)
            bound.apply_defaults()
            budget = bound.arguments.pop("budget", None)
            shown = ", ".join(map(repr, bound.arguments.values()))
            calls.append((f"{_name}({shown})", budget))
            return verify.VerificationReport(_name, {}, "pass")

        monkeypatch.setattr(verify, attr, fake)
    return calls


@pytest.mark.parametrize("max_n, only, want", [
    (-1, None, _SMALL), (0, None, _SMALL), (2, None, _SUITE_2),
    (3, None, _SUITE_3), (4, None, _SUITE_4),
    (5, None, [c for calls in _BY_NAME_5.values() for c in calls]),
    *((0, name, calls) for name, calls in _BY_NAME_0.items()),
    *((5, name, calls) for name, calls in _BY_NAME_5.items())])
def test_default_suite_calls_the_frozen_plan(max_n, only, want, monkeypatch):
    calls = _record_calls(monkeypatch)
    reports = default_suite(max_n, budget=7, only=only)
    assert [c for c, _ in calls] == want
    assert len(reports) == len(want) and all(r.passed for r in reports)
    # every verifier with a budget gets the suite's; euler-n4 has none
    assert all(b == (None if c.startswith("euler") else 7) for c, b in calls)


def test_verify_choices_are_the_check_names():
    from morsematch import cli
    assert verify.CHECK_NAMES == list(_BY_NAME_5)
    [sub] = [a for a in cli._parser()._actions if a.dest == "command"]
    [check] = [a for a in sub.choices["verify"]._actions if a.dest == "check"]
    assert list(check.choices) == verify.CHECK_NAMES + ["all"]


def _faces(K) -> tuple:
    return tuple(map(tuple, K.faces_by_dim))


def _count_reductions(monkeypatch) -> Counter:
    """Count the reduced-homology computations of verify by complex."""
    calls: Counter = Counter()
    reduce = verify.homology

    def counting(K, reduced=True):
        calls[_faces(K)] += 1
        return reduce(K, reduced=reduced)

    monkeypatch.setattr(verify, "homology", counting)
    return calls


def test_default_suite_reduces_each_matching_complex_once(monkeypatch):
    from morsematch.morse import build_matching_complex
    from morsematch.specs import build_from_spec
    calls = _count_reductions(monkeypatch)
    reports = default_suite(max_n=3)
    # the tables at n = 3, pair-splitting's M of simplex:0..2, the
    # conjectures at n = 2 and the gm-structure link model, each once.
    # M and MP of simplex:2 are one complex, under two keys.
    reduced = [(s, v) for s in ("simplex:3", "boundary:3")
               for v in ("M", "MP", "GM")]
    reduced += [(f"simplex:{n}", "M") for n in range(3)]
    reduced += [(s, v) for v in ("MP", "GM") for s in ("simplex:2", "boundary:2")]
    reduced.append(("cone:boundary:2", "GM"))
    assert calls == Counter(
        _faces(build_matching_complex(build_from_spec(s), v).complex)
        for s, v in reduced)
    one_by_one = [verify_reference_tables(),
                  verify_top_facet_bijection(2), verify_top_facet_bijection(3),
                  verify_layer_counts(2), verify_layer_counts(3),
                  verify_spanning_tree(3), verify_restriction_fibers(3)]
    one_by_one += [verify_cone_contiguity(spec, 0)
                   for spec in ("simplex:1", "boundary:2", "simplex:2")]
    one_by_one.append(verify_pair_splitting([("simplex:1", "simplex:0"),
                                             ("simplex:2", "simplex:1"),
                                             ("simplex:3", "simplex:2")]))
    one_by_one.append(verify_les_example())
    one_by_one += [verify_inclusion_full(k, l) for k, l in [
        ("boundary:2", "simplex:2"), ("simplex:2", "simplex:2"),
        ("boundary:3", "simplex:3"), ("simplex:2", "simplex:3")]]
    one_by_one += [verify_gm_structure(n) for n in (2, 3)]
    one_by_one += [verify_conjecture_evidence(v, n)
                   for v in ("MP", "GM") for n in (2, 3)]
    assert [r.to_json() for r in reports] == [r.to_json() for r in one_by_one]


def test_default_suite_keeps_nothing_between_calls(monkeypatch):
    calls = _count_reductions(monkeypatch)
    for run in (1, 2):
        assert all(r.passed for r in default_suite(3, only="conjecture-gm"))
        # GM of the simplex and its boundary at n = 2 and n = 3
        assert len(calls) == 4 and set(calls.values()) == {run}
    # a verifier called after a suite run computes for itself too
    assert verify_conjecture_evidence("GM", 2).passed
    assert sorted(calls.values()) == [2, 2, 3, 3]


def test_les_example_alone_reduces_its_complexes(monkeypatch):
    calls = _count_reductions(monkeypatch)
    assert verify_les_example().passed
    assert len(calls) == 2 and set(calls.values()) == {1}
