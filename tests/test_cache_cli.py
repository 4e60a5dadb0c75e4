import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import morsematch
from morsematch.cache import (cache_get, cache_key, cache_put,
                              default_cache_dir, document_to_faces,
                              faces_to_document)
from morsematch.cli import main
from morsematch.complexes import SimplicialComplex, build_boundary
from morsematch.hasse import HasseDiagram


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_import_loads_no_dataclasses_or_inspect():
    # start-up cost: against a bare interpreter, importing the CLI adds
    # neither dataclasses nor the inspect chain it pulls in (ast, dis,
    # tokenize); the child imports the package this test imported
    src = os.path.dirname(os.path.dirname(morsematch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import sys\n"
            "bare = set(sys.modules)\n"
            "import morsematch.cli\n"
            "print(' '.join(sorted(set(sys.modules) - bare)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    added = set(proc.stdout.split())
    assert "morsematch.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


# -- cache ---------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    key = cache_key("fvector", "simplex:3", "M", "0.1.0")
    payload = b'{"f_vector": [28, 300]}'
    cache_put(tmp_path, key, payload)
    assert cache_get(tmp_path, key) == payload


def test_cache_cold_get(tmp_path):
    assert cache_get(tmp_path, "0" * 64) is None


def test_cache_corruption_ignored(tmp_path, capsys):
    key = cache_key("fvector", "simplex:3", "M", "0.1.0")
    path = cache_put(tmp_path, key, b"payload")
    blob = path.read_bytes()
    path.write_bytes(blob[:-2] + b"XX")
    assert cache_get(tmp_path, key) is None
    assert "checksum mismatch" in capsys.readouterr().err


def test_cache_key_includes_version():
    a = cache_key("fvector", "simplex:3", "M", "0.1.0")
    b = cache_key("fvector", "simplex:3", "M", "0.2.0")
    assert a != b


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("MORSEMATCH_CACHE", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"


def test_faces_document_round_trip():
    masks = [0b1, 0b110, 0b10100000001]
    blob = faces_to_document(masks, 11)
    lines = blob.decode().splitlines()
    assert lines[0] == "morsematch-faces v1 11"
    assert all(len(ln) == 4 for ln in lines[1:])  # 2 bytes little-endian hex
    parsed, edge_count = document_to_faces(blob)
    assert parsed == masks and edge_count == 11
    with pytest.raises(ValueError):
        document_to_faces(b"something else\n")


def test_faces_document_rejects_bits_beyond_edge_count():
    with pytest.raises(ValueError, match="vertex count 2"):
        document_to_faces(b"morsematch-faces v1 2\nff\n")
    assert document_to_faces(b"morsematch-faces v1 2\n03\n") == ([3], 2)


# -- CLI -----------------------------------------------------------------

def test_fvector_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "fvector", "--complex", "simplex:3",
                           "--variant", "M", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "fvector"
    assert doc["spec"] == "simplex:3"
    assert doc["result"]["f_vector"] == [28, 300, 1544, 3932, 4632, 2128, 256]
    assert doc["result"]["euler_characteristic"] == 100

    # byte-identical on a second run (served from cache) and stable keys
    code2, out2, _ = run_cli(capsys, "fvector", "--complex", "simplex:3",
                             "--variant", "M", "--cache-dir", str(tmp_path))
    assert code2 == 0 and out2 == out


def test_homology_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "homology", "--complex", "boundary:3",
                           "--variant", "GM", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    nonzero = [g for g in doc["result"]["degrees"] if g["betti"] or g["torsion"]]
    assert nonzero == [{"betti": 39, "degree": 4, "torsion": []}]


def test_homology_relative_and_plain(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "homology", "--complex", "simplex:3",
                           "--variant", "M", "--relative", "boundary:3",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    nonzero = [g for g in doc["result"]["degrees"] if g["betti"] or g["torsion"]]
    assert nonzero == [{"betti": 96, "degree": 4, "torsion": []}]

    code, out, _ = run_cli(capsys, "homology", "--complex", "boundary:3",
                           "--variant", "none", "--cache-dir", str(tmp_path))
    doc = json.loads(out)
    nonzero = [g for g in doc["result"]["degrees"] if g["betti"] or g["torsion"]]
    assert nonzero == [{"betti": 1, "degree": 2, "torsion": []}]


# -- one parser per process ----------------------------------------------

def test_parser_is_built_once():
    from morsematch import cli

    assert cli._parser() is cli._parser()


def test_reused_parser_keeps_no_flag_from_an_earlier_call(capsys, tmp_path):
    # --unreduced is a store_true flag: a later call without it is reduced
    argv = ["homology", "--complex", "boundary:2", "--variant", "none",
            "--cache-dir", str(tmp_path)]
    degrees = {}
    for extra in (["--unreduced"], []):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        result = json.loads(out)["result"]
        degrees[result["reduced"]] = [g["betti"] for g in result["degrees"]]
    assert degrees == {False: [1, 1], True: [0, 1]}


def test_commands_are_looked_up_at_call_time(capsys, tmp_path, monkeypatch):
    # the cached parser pins no command: one replaced on the module after a
    # first call is the one that runs
    from morsematch import cli

    argv = ["fvector", "--complex", "simplex:1", "--cache-dir", str(tmp_path)]
    assert run_cli(capsys, *argv)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_fvector",
                        lambda args: seen.append(args.complex) or 7)
    assert run_cli(capsys, *argv) == (7, "", "")
    assert seen == ["simplex:1"]


def test_count_optimal_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "count-optimal", "--complex",
                           "skeleton:simplex:4:2", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"count": 76025, "max_cardinality": 10}


def test_width_rule_and_budget_are_the_gates(capsys, tmp_path):
    # the 4-simplex is answered without any opt-in flag
    code, out, _ = run_cli(capsys, "count-optimal", "--complex", "simplex:4",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["result"] == {"count": 380125, "max_cardinality": 15}
    # MP of the 4-simplex would materialize ~1.2e10 faces: --budget refuses it
    code, out, err = run_cli(capsys, "fvector", "--complex", "simplex:4",
                             "--variant", "MP", "--cache-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert "projected face count" in err
    # --allow-long still parses on every subcommand and changes nothing
    for argv in (["build", "--complex", "simplex:1"],
                 ["fvector", "--complex", "simplex:1"],
                 ["homology", "--complex", "simplex:1"],
                 ["count-optimal", "--complex", "simplex:1"],
                 ["euler", "--complex", "simplex:1"],
                 ["verify", "layer-counts", "--max-n", "2"]):
        argv += ["--cache-dir", str(tmp_path)]
        code, out, _ = run_cli(capsys, *argv)
        code_flag, out_flag, _ = run_cli(capsys, *argv, "--allow-long")
        assert code == code_flag == 0 and out_flag == out


def test_cached_commands_warm_run_is_byte_identical(capsys, tmp_path):
    cache = tmp_path / "cache"
    for argv in (["fvector", "--complex", "boundary:2", "--variant", "GM"],
                 ["euler", "--complex", "simplex:2", "--variant", "MP"],
                 ["homology", "--complex", "simplex:2", "--variant", "M",
                  "--relative", "boundary:2"],
                 ["count-optimal", "--complex", "boundary:3"]):
        argv += ["--cache-dir", str(cache)]
        code, cold, _ = run_cli(capsys, *argv)
        code_warm, warm, _ = run_cli(capsys, *argv)
        assert code == code_warm == 0 and warm == cold

    # euler answers from the fvector entry of the same spec and variant
    cache = tmp_path / "shared"
    args = ["--complex", "simplex:3", "--variant", "M", "--cache-dir", str(cache)]
    _, fv_out, _ = run_cli(capsys, "fvector", *args)
    code, eu_out, _ = run_cli(capsys, "euler", *args)
    assert code == 0
    assert len([p for p in cache.rglob("*") if p.is_file()]) == 1
    fv, eu = json.loads(fv_out)["result"], json.loads(eu_out)["result"]
    assert eu == dict(fv, reduced_euler_characteristic=99)

    # count-optimal reads the same M entry, whichever command runs first
    for order in (("count-optimal", "fvector"), ("fvector", "count-optimal")):
        cache = tmp_path / "-".join(order)
        args = ["--complex", "simplex:3", "--variant", "M",
                "--cache-dir", str(cache)]
        docs = {cmd: json.loads(run_cli(capsys, cmd, *args)[1])["result"]
                for cmd in order}
        assert len([p for p in cache.rglob("*") if p.is_file()]) == 1
        fv = docs["fvector"]["f_vector"]
        assert (len(fv), fv[-1]) == (7, 256)
        assert docs["count-optimal"] == {"max_cardinality": 7, "count": 256}


def test_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fvector", "--complex", "simplex:-3",
                           "--cache-dir", str(tmp_path))
    assert code == 2 and "must be" in err
    code, _, _ = run_cli(capsys, "fvector", "--complex", "nonsense:3",
                         "--cache-dir", str(tmp_path))
    assert code == 2
    code, out, err = run_cli(capsys, "verify", "no-such-check",
                             "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert "invalid choice: 'no-such-check'" in err
    # count-optimal counts acyclic matchings only: no other variant parses
    for variant in ("MP", "GM"):
        code, out, err = run_cli(capsys, "count-optimal", "--complex",
                                 "simplex:3", "--variant", variant,
                                 "--cache-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert f"invalid choice: '{variant}'" in err
    # the process's one parser, after all those usage errors, still parses
    code, out, _ = run_cli(capsys, "count-optimal", "--complex", "simplex:3",
                           "--variant", "M", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["result"] == {"count": 256, "max_cardinality": 7}


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    out = str(tmp_path / "missing" / "x.txt")
    for argv in (["build", "--complex", "simplex:1", "--variant", "M"],
                 ["build", "--complex", "simplex:1"],
                 ["fvector", "--complex", "simplex:2"]):
        code, _, err = run_cli(capsys, *argv, "--out", out,
                               "--cache-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("morsematch: cannot write --out")
        assert "Traceback" not in err


def test_materialization_guard_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "homology", "--complex", "simplex:4",
                           "--variant", "M", "--cache-dir", str(tmp_path))
    assert code == 3
    assert "streamed counting" in err


def test_build_command_with_face_document(capsys, tmp_path):
    out_path = tmp_path / "faces.txt"
    code, out, _ = run_cli(capsys, "build", "--complex", "boundary:2",
                           "--variant", "M", "--out", str(out_path),
                           "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["f_vector"] == [6, 9]
    masks, edge_count = document_to_faces(out_path.read_bytes())
    assert edge_count == 6
    assert len(masks) == 15
    assert len(set(masks)) == 15

    # without --variant the base itself is written: bit i is vertex i
    code, out, _ = run_cli(capsys, "build", "--complex", "boundary:2",
                           "--out", str(out_path), "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["f_vector"] == [3, 3]
    assert doc["result"]["out"] == str(out_path)
    masks, vertex_count = document_to_faces(out_path.read_bytes())
    assert vertex_count == 3
    assert SimplicialComplex.from_faces(masks, vertex_count) == build_boundary(2)


# SHA-256 of the `build --out` document, measured at commit 0262a07 (faces
# stored as vertex tuples); a drift in canonical face order changes them
BUILD_OUT_SHA256 = {
    ("simplex:3", "M"): "ccc16628097c73d3c55e1d3528d5b5bddd997207da1a8b83d33bb90d3d9f4520",
    ("simplex:3", "MP"): "c7dd95dbc127804563d4ebd4c146b6fa3d0555b528eb4cd7734c74429002b6ee",
    ("simplex:3", "GM"): "b3f1fb3a8e2d96d4be088911f21812e277b10a8bfcb94f77c51e556cb17aa945",
    ("boundary:3", "M"): "282e1527d6e576277443d60da58b268a1efb5546212754d7b0957fa32f69e505",
    ("boundary:3", "MP"): "d1ff5fc6dc780640f596b422b5b8ec323a19d9f43ab6f04a907950cce4eb66d4",
    ("boundary:3", "GM"): "8a8467ca97154c5dd174ee3da8bf811fab7c16fc717d3f1cf9323c0c2f9bc36f",
}


@pytest.mark.parametrize("spec,variant", list(BUILD_OUT_SHA256))
def test_build_out_bytes_are_frozen(capsys, tmp_path, spec, variant):
    out_path = tmp_path / "faces.txt"
    code, _, _ = run_cli(capsys, "build", "--complex", spec, "--variant",
                         variant, "--out", str(out_path),
                         "--cache-dir", str(tmp_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() \
        == BUILD_OUT_SHA256[spec, variant]


# facet files over the cap: a 40-vertex facet, a universe far above the
# cap (its one edge a 2^40-bit mask), a 9-face complex on a universe of
# 10^8, and one facet whose closure count has 4,516 digits
BIG_FACET_FILES = {
    "file": {"vertices": 40, "facets": [list(range(40))]},
    "universe-2^40": {"vertices": 2 ** 40, "facets": [[0, 2 ** 40 - 1]]},
    "universe-10^8": {"vertices": 10 ** 8,
                      "facets": [[0, 10 ** 8 - 1], [1, 2], [3, 4]]},
    "facet-15000": {"vertices": 15000, "facets": [list(range(15000))]},
}


@pytest.mark.parametrize("spec", ["simplex:30", "boundary:30",
                                  "simplex:99999999999", "simplex:1000000000",
                                  "boundary:1000000000", *BIG_FACET_FILES])
def test_base_complex_over_the_cap_is_refused(capsys, tmp_path, spec):
    # the cap is decided from n, the universe or a facet's vertex count,
    # so no 2^n-bit count is built or printed
    if spec in BIG_FACET_FILES:
        p = tmp_path / "big.json"
        p.write_text(json.dumps(BIG_FACET_FILES[spec]))
        spec = f"file:{p}"
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "build", "--complex", spec,
                             "--cache-dir", str(tmp_path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err.startswith("morsematch: ") and err.count("\n") == 1
    assert err.endswith("above the base-complex cap of 1048576\n")
    assert len(err) < 200
    assert "Traceback" not in err


def test_file_spec(capsys, tmp_path):
    p = tmp_path / "k.json"
    p.write_text(json.dumps({"vertices": 3, "facets": [[0, 1], [1, 2], [0, 2]]}))
    code, out, _ = run_cli(capsys, "fvector", "--complex", f"file:{p}",
                           "--variant", "M", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["result"]["f_vector"] == [6, 9]


def test_file_spec_with_booleans_is_a_usage_error(capsys, tmp_path):
    # JSON true is no vertex id and no vertex count, though Python's bool
    # is an int: neither document builds [[0, 1], [1, 2]] on 1 or 3 vertices
    p = tmp_path / "k.json"
    for doc in ({"vertices": 3, "facets": [[0, True], [True, 2]]},
                {"vertices": True, "facets": [[0]]}):
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "fvector", "--complex", f"file:{p}",
                                 "--variant", "M", "--cache-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert "Traceback" not in err


def test_file_spec_cache_follows_file_content(capsys, tmp_path):
    p = tmp_path / "k.json"
    argv = ("fvector", "--complex", f"file:{p}", "--variant", "M",
            "--cache-dir", str(tmp_path / "cache"))
    p.write_text(json.dumps({"vertices": 3, "facets": [[0, 1], [1, 2], [0, 2]]}))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["result"]["f_vector"] == [6, 9]
    p.write_text(json.dumps({"vertices": 4, "facets": [[0, 1, 2], [1, 2, 3]]}))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["result"]["f_vector"] == [16, 88, 196, 158, 32]


def test_relative_homology_of_void_matching_complexes(capsys, tmp_path):
    code, out, err = run_cli(capsys, "homology", "--complex", "simplex:0",
                             "--variant", "M", "--relative", "simplex:0",
                             "--cache-dir", str(tmp_path))
    assert code == 0 and "Traceback" not in err
    result = json.loads(out)["result"]
    assert result["relative"] == "simplex:0"
    assert all(not g["betti"] and not g["torsion"] for g in result["degrees"])


def test_void_base_is_ordinary_input(capsys, tmp_path):
    p = tmp_path / "void.json"
    p.write_text(json.dumps({"vertices": 3, "facets": []}))
    void = f"file:{p}"
    for argv in (["fvector", "--complex", void], ["euler", "--complex", void],
                 ["homology", "--complex", "simplex:2", "--variant", "none",
                  "--relative", void]):
        code, _, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0, (argv, err)
    code, out, _ = run_cli(capsys, "count-optimal", "--complex", void,
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["result"] == {"count": 1, "max_cardinality": 0}
    # relative to the void complex, homology is the absolute homology
    for variant in ("M", "MP", "GM"):
        degrees = []
        for rel in (["--relative", void], []):
            code, out, err = run_cli(capsys, "homology", "--complex",
                                     "simplex:2", "--variant", variant, *rel,
                                     "--cache-dir", str(tmp_path))
            assert code == 0, (variant, err)
            degrees.append(json.loads(out)["result"]["degrees"])
        assert degrees[0] == degrees[1]


def test_wide_complexes_refused(capsys, tmp_path, monkeypatch):
    # the width rule reads the faces alone, so no Hasse diagram is built
    # for a complex it refuses
    def no_diagram(self, K):
        raise AssertionError("Hasse diagram built for a refused complex")

    monkeypatch.setattr(HasseDiagram, "__init__", no_diagram)
    for command in (["fvector"], ["fvector", "--variant", "MP"],
                    ["count-optimal"]):
        for spec in ("simplex:5", "boundary:5"):
            t0 = time.perf_counter()
            code, out, err = run_cli(capsys, *command, "--complex", spec,
                                     "--cache-dir", str(tmp_path))
            assert time.perf_counter() - t0 < 1.0
            assert code == 3 and out == ""
            assert "dimension 2 has 20 tracked faces" in err
            assert "2^20" in err


@pytest.mark.parametrize("argv, reason", [
    (["count-optimal", "--complex", "simplex:99999999999"],
     "has 2^100000000000 - 1 faces, above the base-complex cap of 1048576"),
    (["count-optimal", "--complex", "simplex:5"],
     "dimension 2 has 20 tracked faces"),
    (["fvector", "--complex", "simplex:4", "--variant", "MP"],
     "projected face count"),
    (["verify", "spanning-tree", "--max-n", "4", "--budget", "1000"],
     "76025 optimal matchings exceed budget 1000"),
    (["verify", "layer-counts", "--max-n", "4", "--budget", "1000"],
     "380125 optimal matchings exceed budget 1000"),
], ids=["base-cap", "width", "projection", "visits", "visits-layer-counts"])
def test_every_limit_exits_3(capsys, tmp_path, argv, reason):
    # one refusal type: every limit exits 3 with its own message, on stderr
    # from a command and as the skipped-budget reason from a verifier
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 3
    if argv[0] == "verify":
        checks = json.loads(out)["result"]["checks"]
        [n4] = [c for c in checks if c["instance"] == {"n": 4}]
        assert n4["status"] == "skipped-budget"
        assert n4["details"] == {"reason": reason}
        assert all(c["status"] == "pass" for c in checks if c is not n4)
    else:
        assert out == "" and err.startswith("morsematch: ")
        assert reason in err and err.count("\n") == 1


def test_euler_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "euler", "--complex", "simplex:3",
                           "--variant", "M", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["euler_characteristic"] == 100
    assert doc["result"]["reduced_euler_characteristic"] == 99


def test_verify_command(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "spanning-tree",
                             "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["summary"] == {"pass": 1, "fail": 0,
                                        "skipped-budget": 0}
    assert "spanning-tree" in err


def test_verify_budget_exit(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "top-facet-bijection",
                           "--budget", "5", "--cache-dir", str(tmp_path))
    assert code == 3
    doc = json.loads(out)
    assert doc["result"]["summary"]["skipped-budget"] >= 1


def test_small_budget_skips_materializing_checks(capsys, tmp_path):
    # a face cap below the matching complexes skips the checks that build
    # them; the run still prints one document and the later checks run
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "3",
                           "--budget", "5000", "--cache-dir", str(tmp_path))
    assert code == 3
    doc = json.loads(out)
    checks = doc["result"]["checks"]
    ref = [c for c in checks if c["name"] == "reference-tables"]
    assert [c["status"] for c in ref] == ["skipped-budget"]
    assert "exceeds cap 5000" in ref[0]["details"]["reason"]
    tops = [(c["instance"]["n"], c["status"]) for c in checks
            if c["name"] == "top-facet-bijection"]
    assert tops == [(2, "pass"), (3, "pass")]
    assert doc["result"]["summary"]["fail"] == 0


def test_verify_all_small(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "2",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["summary"]["fail"] == 0
    assert doc["result"]["summary"]["skipped-budget"] == 0
    assert doc["result"]["summary"]["pass"] == len(doc["result"]["checks"])
    assert doc["tool-version"]


def test_verify_all_max_n3(capsys, tmp_path):
    # the full desk-scale aggregate must pass cleanly
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "3",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["summary"]["fail"] == 0
    assert doc["result"]["summary"]["skipped-budget"] == 0
    names = {c["name"] for c in doc["result"]["checks"]}
    assert {"reference-tables", "les-example", "gm-structure",
            "restriction-fibers"} <= names


def test_verify_failure_exit_code(capsys, tmp_path, monkeypatch):
    from morsematch.verify import VerificationReport
    import morsematch.cli as cli_mod
    monkeypatch.setattr(
        cli_mod, "default_suite",
        lambda **kw: [VerificationReport("fake", {}, "fail",
                                         witness=[1, 2], details={})])
    code, out, _ = run_cli(capsys, "verify", "all",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    assert json.loads(out)["result"]["summary"]["fail"] == 1


def test_n4_fvector_feeds_euler_verifier(capsys, tmp_path):
    from morsematch.verify import verify_euler_obstruction_n4

    code, out, _ = run_cli(capsys, "fvector", "--complex", "simplex:4",
                           "--variant", "M", "--allow-long",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    fv = json.loads(out)["result"]["f_vector"]
    assert fv[-1] == 380125 and len(fv) == 15
    assert json.loads(out)["result"]["euler_characteristic"] == 212457

    # the command's vector, handed to the verifier, passes as it stands
    report = verify_euler_obstruction_n4(fv)
    assert report.status == "pass"
    assert report.details["euler_characteristic"] == 212457
    assert report.details["computed"] is False

    # and a vector that is off by one top face is caught
    assert verify_euler_obstruction_n4(fv[:-1] + [fv[-1] + 1]).status == "fail"


def test_verify_reads_no_cache(capsys, tmp_path, monkeypatch):
    # a cached 4-simplex f-vector is never read: euler-n4 counts the vector
    # itself, so its report is the same on a warm cache as on a cold one
    from morsematch import cli

    code, out, _ = run_cli(capsys, "fvector", "--complex", "simplex:4",
                           "--variant", "M", "--cache-dir", str(tmp_path))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["f_vector"][-1] == 380125 and len(result["f_vector"]) == 15
    assert result["euler_characteristic"] == 212457

    calls = []
    monkeypatch.setattr(cli, "cache_get", lambda *a: calls.append("get"))
    monkeypatch.setattr(cli, "cache_put", lambda *a: calls.append("put"))
    reports = {}
    for check in ("euler-n4", "cone-contiguity"):
        code, out, _ = run_cli(capsys, "verify", check, "--max-n", "4",
                               "--cache-dir", str(tmp_path))
        assert code == 0
        reports[check] = json.loads(out)["result"]["checks"]
    assert calls == []
    [euler] = reports["euler-n4"]
    assert euler["status"] == "pass" and euler["instance"] == {}
    assert euler["details"]["computed"] is True
    assert euler["details"]["euler_characteristic"] == 212457


def test_cache_entries_of_other_code_are_not_read(capsys, tmp_path):
    # the version string outlives code changes, so an entry keyed by it, as
    # older code wrote them, must not answer; count-optimal is read off the
    # planted M f-vector
    from morsematch import __version__, cli

    planted = json.dumps({"euler_characteristic": -4, "f_vector": [5, 9],
                          "variant": "M"}).encode()

    def count_optimal():
        code, out, _ = run_cli(capsys, "count-optimal", "--complex",
                               "simplex:3", "--cache-dir", str(tmp_path))
        assert code == 0
        return json.loads(out)["result"]

    cache_put(tmp_path, cache_key("fvector", "simplex:3", "M", __version__),
              planted)
    assert count_optimal() == {"count": 256, "max_cardinality": 7}
    # an entry keyed by the digest of the package's sources does answer
    cache_put(tmp_path, cache_key("fvector", "simplex:3", "M",
                                  cli._code_digest()), planted)
    assert count_optimal() == {"count": 9, "max_cardinality": 2}


def test_code_digest_follows_every_source_byte_and_name(tmp_path, monkeypatch):
    import shutil
    from pathlib import Path

    from morsematch import cli

    for src in Path(cli.__file__).parent.glob("*.py"):
        shutil.copy(src, tmp_path / src.name)
    morse = tmp_path / "morse.py"
    digests = [cli._code_digest()]
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
    # unchanged; the same size with other bytes; the same bytes renamed
    for change in (lambda: None,
                   lambda: morse.write_bytes(morse.read_bytes().swapcase()),
                   lambda: morse.rename(tmp_path / "morsf.py")):
        change()
        cli._code_digest.cache_clear()
        digests.append(cli._code_digest())
    cli._code_digest.cache_clear()
    assert digests[0] == digests[1]
    assert len(set(digests[1:])) == 3
