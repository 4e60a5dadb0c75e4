"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in run.CONFIG["workloads"]} <= set(workloads.WORKLOADS)


def test_references_agree_with_the_repository_numbers(monkeypatch):
    workloads.check_references()
    bad = list(workloads.BD4_GM)
    bad[3] += 1
    monkeypatch.setitem(workloads.F_VECTORS, ("boundary:4", "GM"), bad)
    with pytest.raises(ValueError, match="reduced chi"):
        workloads.check_references()


def test_corrupted_reference_counts_as_failed_job():
    def corrupted(workload, rng):
        jobs = workloads.jobs(workload, rng)
        i = next(i for i, (argv, _, _) in enumerate(jobs) if argv[0] == "count-optimal")
        argv, code, want = jobs[i]
        jobs[i] = (argv, code, dict(want, count=want["count"] + 1))
        return jobs

    def git_status():
        if not (run.ROOT / ".git").exists():
            return None
        return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                              cwd=run.ROOT, capture_output=True, text=True).stdout

    before = git_status()
    result, meta = run.measure("count-n4", 0, 0, False, jobs_fn=corrupted)
    assert git_status() == before
    assert result["attempted"] == 14 and result["failed"] == 1
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 13 / 14
    assert meta["failures"][0][1] == "result differs from the frozen reference"
    iso = meta["isolation"]
    assert iso["changed_files"] == [] and iso["stray_entries"] == []
    assert iso["processes_started_by_children"] == 0


def test_traced_run_reports_every_layer_metric():
    result, meta = run.measure("count-n4", 0, 0, True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    layer = meta["layer_metrics"]
    assert layer["layers.systems"] == 6 and layer["cache.hits"] == 8
    assert layer["homology.snf_calls"] == 0
    assert "hasse.enumerate_matchings[threads>1]" not in meta["reached"]


def test_self_time_subtracts_children_once():
    names = ["cli.main", "homology.smith_normal_form", "layers.suffix_tables",
             "layers._enumerate_layer"]
    doc = {"names": names, "wrapped": names, "notes": {"3": {"n": 5, "key": 1}},
           "name": [0, 1, 2, 3], "start": [0.0, 1.0, 5.0, 6.0],
           "end": [10.0, 4.0, 9.0, 8.0], "parent": [-1, 0, 0, 2]}
    m, facts = tracer.analyze(doc, 10.0)
    assert m["cli.self_s"] == 3.0
    assert m["homology.snf_s"] == 3.0 and m["homology.self_s"] == 3.0
    assert m["layers.enum_s"] == 2.0 and m["layers.suffix_s"] == 2.0
    assert m["layers.self_s"] == 4.0 and m["layers.self_pct"] == 40.0
    assert m["layers.layer_matchings"] == 5
    assert m["morse.build_distinct_ratio"] == 1.0
    assert facts["program_self_s"] == 10.0


def test_times_scale_with_the_probed_host_speed():
    ref = run.REF_PROBE_S
    res = {"job_s": [1.0, 2.0], "job_cpu_s": [1.0, 1.5],
           "job_probe_s": [ref, 2 * ref], "setup_s": 0.1,
           "setup_probe_s": ref / 2}
    assert run.at_reference_speed(res) == {"wall_s": 2.0, "cpu_s": 1.75,
                                           "setup_s": 0.2}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count-n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_seed_reorders_but_keeps_the_jobs():
    for wl in workloads.WORKLOADS:
        a = workloads.jobs(wl, random.Random(1))
        b = workloads.jobs(wl, random.Random(2))
        key = sorted(json.dumps(j, sort_keys=True) for j in a)
        assert key == sorted(json.dumps(j, sort_keys=True) for j in b)
