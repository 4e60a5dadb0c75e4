import json

import pytest

from morsematch.complexes import build_simplex, f_vector, face_mask
from morsematch.specs import (MAX_NESTING, SpecError, build_from_spec,
                              canonical_spec, load_facet_file, parse_spec)


def test_parse_and_canonical():
    assert parse_spec("simplex:3") == ("simplex", 3)
    assert parse_spec("skeleton:simplex:4:2") == ("skeleton", ("simplex", 4), 2)
    assert parse_spec("cone:boundary:2") == ("cone", ("boundary", 2))
    assert canonical_spec("  Simplex:3 ") == "simplex:3"
    assert canonical_spec("skeleton:cone:simplex:1:1") == "skeleton:cone:simplex:1:1"


def test_build_from_spec():
    assert build_from_spec("simplex:3") == build_simplex(3)
    assert f_vector(build_from_spec("skeleton:simplex:4:2")) == [5, 10, 10]
    assert build_from_spec("cone:simplex:1") == build_simplex(2)


@pytest.mark.parametrize("bad", [
    "simplex:-1", "boundary:0", "simplex:x", "skeleton:simplex:3",
    "cone:", "torus:2", "file:", "skeleton:simplex:3:-2",
])
def test_malformed_specs(bad):
    with pytest.raises(SpecError):
        parse_spec(bad) and build_from_spec(bad)


def test_nesting_limit():
    # MAX_NESTING wrappers parse, render and build; one more is refused
    # before anything recurses, however deep the input
    deep = "cone:" * 3 + "skeleton:" * (MAX_NESTING - 3) + "simplex:0" \
        + ":0" * (MAX_NESTING - 3)
    assert canonical_spec(deep) == deep
    assert build_from_spec(deep) == build_simplex(3)
    ast = parse_spec(deep)
    for _ in range(MAX_NESTING):
        ast = ast[1]
    assert ast == ("simplex", 0)
    for bad in ("cone:" + deep, "cone:" * 1200 + "simplex:0",
                "skeleton:" * 1200 + "simplex:0" + ":0" * 1200):
        with pytest.raises(SpecError, match=f"more than {MAX_NESTING}"):
            parse_spec(bad)


def test_facet_file(tmp_path):
    doc = {"vertices": 4, "facets": [[0, 1, 2], [2, 3]]}
    p = tmp_path / "k.json"
    p.write_text(json.dumps(doc))
    K = load_facet_file(p)
    assert f_vector(K) == [4, 4, 1]
    assert face_mask((0, 2)) in K.face_index  # closure computed on load
    assert build_from_spec(f"file:{p}") == K


@pytest.mark.parametrize("doc", [
    {"vertices": 3, "facets": [[2, 1]]},          # not sorted
    {"vertices": 3, "facets": [[0, 3]]},          # out of range
    {"vertices": 3, "facets": [[0, 0]]},          # duplicate id
    {"vertices": 3, "facets": [[]]},              # empty facet
    {"vertices": -1, "facets": []},               # bad universe
    {"vertices": 3, "facets": [[0, True], [True, 2]]},  # booleans as ids
    {"vertices": True, "facets": [[0]]},          # boolean universe
    {"facets": []},                               # missing key
])
def test_facet_file_rejects(tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SpecError):
        load_facet_file(p)


def test_facet_file_void(tmp_path):
    p = tmp_path / "void.json"
    p.write_text(json.dumps({"vertices": 0, "facets": []}))
    assert load_facet_file(p).is_void
