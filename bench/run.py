"""Benchmark of the morsematch CLI on three workloads.

    python3 bench/run.py --workload count-n4 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each pass of a workload runs every
job of the workload once, one after another, in a fresh child interpreter
(a closed loop with one client, ``--threads`` left at 1) with a fresh empty
``--cache-dir``.  Passes repeat until the next one would end after
``--seconds``; there is always at least one (two with tracing, one traced and
one not).  A few set-up-only children run first, so that ``setup_s`` has
several samples even when a single pass fills the time.

Every job's exit code and JSON ``result`` are compared with a frozen exact
reference (see workloads.py); a mismatch counts as a failed job and never
stops the run.  With ``--trace 1`` every other pass runs under the span
tracer (tracer.py) and the per-layer metrics are reported instead of the
end-to-end ones.

The last stdout line is the result: correct, attempted, failed and metrics.
The line before it is a ``meta`` record: machine, commit, seed, each
metric's samples with median and quartiles, the isolation checks and, when
traced, every per-layer number including those not in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 25
CHILD_TIMEOUT_S = 170
# child.probe's time on the host the benchmark's times are scaled to
REF_PROBE_S = 0.005

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
# BENCHMARK.json lists only the layer times that are non-zero on every
# workload; the times of layers some workload never calls are in the meta
# record.
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, by statistics.quantiles' default method."""
    xs = sorted(values)
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"samples": len(xs), "median": statistics.median(xs),
            "q1": q1, "q3": q3}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "commit": git_commit(ROOT)}


def tree_state(dirs) -> dict:
    """Path -> (size, mtime) of every file under `dirs`, bytecode excluded."""
    state = {}
    for d in dirs:
        for base, subdirs, files in os.walk(d):
            subdirs[:] = [s for s in subdirs if s != "__pycache__"]
            for f in files:
                st = os.stat(os.path.join(base, f))
                state[os.path.join(base, f)] = (st.st_size, st.st_mtime_ns)
    return state


def at_reference_speed(res: dict) -> dict:
    """A pass's wall, CPU and set-up times scaled to a host on which
    child.probe takes REF_PROBE_S.

    The host this was built on swings between speeds some 1.5 times apart,
    over seconds to minutes, which no number of passes averages out;
    scaling each job by the speed probed while it ran removes most of it.
    """
    f = [REF_PROBE_S / p for p in res["job_probe_s"]]
    return {"wall_s": sum(t * x for t, x in zip(res["job_s"], f)),
            "cpu_s": sum(t * x for t, x in zip(res["job_cpu_s"], f)),
            "setup_s": res["setup_s"] * REF_PROBE_S / res["setup_probe_s"]}


def run_child(pass_dir: Path, jobs, trace: bool, run_id: int) -> dict:
    """Run one pass in a fresh interpreter inside `pass_dir`.

    HOME and MORSEMATCH_CACHE point at paths that must never appear, so any
    cache access that bypasses --cache-dir shows up in `isolation`.
    """
    pass_dir.mkdir(parents=True)
    cache_dir = pass_dir / "cache"
    spans = pass_dir / "spans.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(HOME=str(pass_dir / "home-unused"),
               MORSEMATCH_CACHE=str(pass_dir / "cache-unused"),
               PYTHONHASHSEED="0")
    spec = {"jobs": [(argv + ["--cache-dir", str(cache_dir)], want_exit, want)
                     for argv, want_exit, want in jobs],
            "trace": trace, "spans": str(spans), "run_id": run_id}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CHILD), str(SRC)],
                          input=json.dumps(spec), capture_output=True, text=True,
                          cwd=pass_dir, env=env, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"bench child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res.update(elapsed_s=elapsed, wall_s=sum(res["job_s"]),
               cpu_s=sum(res["job_cpu_s"]), ref=at_reference_speed(res))
    expected = {"cache", "spans.json"} if trace else {"cache"}
    res["isolation"] = {
        "stray_entries": sorted(set(os.listdir(pass_dir)) - expected),
        "processes_started": res.pop("spawns"),
    }
    if trace:
        with open(spans) as fh:
            res["spans"] = json.load(fh)
    return res


def trace_report(passes: list[dict], run_dir: Path) -> tuple[dict, dict, bool]:
    """Median per-layer metrics over the traced passes, the facts behind
    them, and whether the trace is consistent: no negative self time, self
    times summing to no more than the traced wall time, and no cache access
    outside the pass's own --cache-dir.

    `trace.overhead_s` is the median, over the traced passes, of the traced
    wall time minus that of the untraced pass just before it, so that a
    drift of the host's speed over the run cancels out.
    """
    traced = [r for r in passes if r["traced"]]
    analyzed = [tracer.analyze(r["spans"], r["wall_s"]) for r in traced]
    facts = [f for _, f in analyzed]
    layer = tracer.median_metrics([m for m, _ in analyzed])
    walls = [r["wall_s"] for r in traced]
    layer["trace.overhead_s"] = statistics.median(
        passes[i]["wall_s"] - passes[i - 1]["wall_s"]
        for i, r in enumerate(passes) if r["traced"])
    checks = {
        "trace_checks": {
            "spans": [f["spans"] for f in facts],
            "program_self_s": [f["program_self_s"] for f in facts],
            "tracer_self_s": [f["tracer_self_s"] for f in facts],
            "traced_wall_s": walls,
            "cache_dirs_outside_pass": sorted({
                d for f in facts for d in f["cache_dirs"]
                if not d.startswith(str(run_dir))}),
        },
        "reached": sorted({p for f in facts for p in f["reached"]}),
        "wrapped": facts[0]["wrapped"],
    }
    ok = (all(f["negative_self"] == 0 for f in facts)
          and all(f["program_self_s"] + f["tracer_self_s"] <= w + 1e-6
                  for f, w in zip(facts, walls))
          and not checks["trace_checks"]["cache_dirs_outside_pass"])
    return layer, checks, ok


def measure(workload: str, seed: int, seconds: float, trace: bool,
            jobs_fn=workloads.jobs) -> tuple[dict, dict]:
    """Run the workload; return the result record and the meta record."""
    rng = random.Random(seed)
    run_dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    watched = [SRC, CHILD.parent]
    before = tree_state(watched)
    setups = [run_child(run_dir / f"probe{i}", [], False, -1)
              for i in range(SETUP_PROBES)]

    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        jobs = jobs_fn(workload, rng)
        res = run_child(run_dir / f"pass{len(passes)}", jobs, traced, len(passes))
        res.update(traced=traced, argv=[j[0] for j in jobs])
        passes.append(res)
        spent = time.perf_counter() - start
        enough = len(passes) >= (2 if trace else 1)
        if enough and spent + res["elapsed_s"] > seconds:
            break

    after = tree_state(watched)
    isolation = {
        "changed_files": sorted(p for p in set(before) | set(after)
                                if before.get(p) != after.get(p)),
        "children": len(setups) + len(passes),
        "processes_started_by_children": sum(
            len(r["isolation"]["processes_started"]) for r in setups + passes),
        "stray_entries": sorted({e for r in setups + passes
                                 for e in r["isolation"]["stray_entries"]}),
    }
    shutil.rmtree(run_dir, ignore_errors=True)

    failures = [(argv, why) for r in passes
                for argv, why in zip(r["argv"], r["failures"]) if why]
    attempted = sum(len(r["failures"]) for r in passes)
    plain = [r for r in passes if not r["traced"]]
    job_times: dict[str, list[float]] = {}
    for r in plain:
        seen: set[str] = set()
        for argv, t in zip(r["argv"], r["job_s"]):
            cmd = " ".join(argv)
            key = cmd + " (again)" if cmd in seen else cmd
            seen.add(cmd)
            job_times.setdefault(key, []).append(t)
    samples = {
        "wall_s": [r["ref"]["wall_s"] for r in plain],
        "cpu_s": [r["ref"]["cpu_s"] for r in plain],
        "setup_s": [r["ref"]["setup_s"] for r in setups + passes],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "ok_frac": [(attempted - len(failures)) / attempted],
        # the same times unscaled, and the host speed they were scaled by
        "wall_raw_s": [r["wall_s"] for r in plain],
        "cpu_raw_s": [r["cpu_s"] for r in plain],
        "setup_raw_s": [r["setup_s"] for r in setups + passes],
        "probe_s": [p for r in plain for p in r["job_probe_s"]],
    }
    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, **machine(), "passes": len(passes),
            "stats": {k: {"unit": END_TO_END_UNITS.get(k, "s"), **quartiles(v),
                          "values": v}
                      for k, v in samples.items()},
            "jobs": {cmd: quartiles(ts) for cmd, ts in sorted(job_times.items())},
            "failures": failures[:20], "isolation": isolation}
    ok = (not failures and not isolation["changed_files"]
          and not isolation["processes_started_by_children"]
          and not isolation["stray_entries"])

    if trace:
        layer, checks, trace_ok = trace_report(passes, run_dir)
        meta.update(checks, layer_metrics=layer)
        (WORK / f"spans-{workload}.json").write_text(
            json.dumps([r for r in passes if r["traced"]][-1]["spans"]))
        ok = ok and trace_ok
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": meta["stats"][k]["median"], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    result = {"correct": ok, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, meta


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "morsematch" / "cli.py").is_file():
        print(f"bench: no morsematch sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    workloads.check_references()
    result, meta = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
