"""Run the benchmark over many seeds and record one point of the trajectory.

    python3 bench/record.py --seeds 10 --out bench/results/<commit>.json

For every workload this runs ``run.py`` once per seed untraced and once
traced, one run at a time, and reports each end-to-end metric's median,
quartiles and spread (interquartile range over median) across the seeds,
the traced per-layer numbers, and the inventory of wrapped functions and
call paths that no workload reached.  Spreads are what the bounds in
BENCHMARK.json are judged against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result_line), json.loads(meta_line)["meta"]


def main(argv=None) -> int:
    config = run.CONFIG
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=config["run_seconds"])
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                   help="default: the workloads of BENCHMARK.json")
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    doc = {"machine": run.machine(), "seconds": args.seconds, "workloads": {}}
    reached, wrapped = set(), set()
    for wl in args.workload or [w["name"] for w in config["workloads"]]:
        runs = []
        for seed in range(1, args.seeds + 1):
            result, meta = bench(wl, seed, args.seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "passes": meta["passes"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
        stats = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q = run.quartiles(values)
            q.update(spread=(q["q3"] - q["q1"]) / q["median"], bound=bound)
            stats[name] = q
            print(f"{wl:13s} {name:12s} median {q['median']:.6g}  spread "
                  f"{q['spread']:.4f}  bound {bound}  "
                  f"{'ok' if q['spread'] < bound / 3 else 'WIDE'}", file=sys.stderr)
        result, meta = bench(wl, 1, args.seconds, 1)
        doc["workloads"][wl] = {
            "runs": runs, "stats": stats,
            "traced": {"correct": result["correct"],
                       "layer_metrics": meta["layer_metrics"],
                       "trace_checks": meta["trace_checks"],
                       "reached": meta["reached"]}}
        reached.update(meta["reached"])
        wrapped.update(meta["wrapped"])
    doc["unreached"] = sorted(wrapped - reached)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
