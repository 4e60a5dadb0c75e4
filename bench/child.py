"""One pass of a workload in a fresh interpreter: ``child.py SRC < spec.json``.

Set-up is timed first, before anything else is imported: importing
``morsematch`` from SRC and building the CLI parser.  Then the jobs of the
spec run one after another through ``morsematch.cli.main`` with stdout
captured, and each output is compared with its frozen result inside the
timed region.  The last stdout line is a JSON summary for ``run.py``.

The host's speed is sampled with `probe`, a fixed loop of a few
milliseconds: a burst right after set-up, and in untraced passes every
PROBE_EVERY_S seconds from a timer signal while the jobs run.  Each job's
time and CPU time are reported net of the probes that ran inside it, with
the mean probe time during the job (or the nearest probe, for a job too
short to hold one), so that ``run.py`` can scale each time by the speed
the host had while it was taken.

Process starts are counted with an audit hook, so the caller can check that
the pass started no process of its own.
"""

import sys
import time

_SPAWN_EVENTS = {"os.fork", "os.forkpty", "os.posix_spawn", "os.spawn",
                 "os.exec", "os.system", "subprocess.Popen", "pty.spawn"}
_spawns = []
PROBE_ITERS = 20_000
PROBE_EVERY_S = 0.25
PROBE_BURST = 10


def _audit(event, args):
    if event in _SPAWN_EVENTS:
        _spawns.append(event)


def probe() -> tuple[float, float]:
    """Start and duration of a fixed loop of integer and dict work."""
    t = time.perf_counter()
    d = {}
    for i in range(PROBE_ITERS):
        k = i * 7919 % 4099
        d[k] = d.get(k, 0) ^ i
    return t, time.perf_counter() - t


def run_job(cli, argv, want_exit, want_result):
    """None if the job printed the expected result, else why not."""
    import contextlib
    import io
    import json

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception as e:  # a crash is a failed job, never an aborted pass
        return f"raised {type(e).__name__}: {e}"
    if rc != want_exit:
        return f"exit code {rc}, expected {want_exit}"
    try:
        doc = json.loads(out.getvalue())
    except ValueError:
        return "stdout is not one JSON document"
    if doc.get("result") != want_result:
        return "result differs from the frozen reference"
    return None


def main() -> int:
    sys.addaudithook(_audit)
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import morsematch.cli as cli
    cli._parser()
    setup_s = time.perf_counter() - t0

    import json
    import os
    import resource
    import signal
    import statistics

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(sys.argv[1]) + os.sep):
        print(f"morsematch imported from {cli.__file__}, not {sys.argv[1]}",
              file=sys.stderr)
        return 2
    spec = json.load(sys.stdin)
    rec = None
    if spec["trace"]:
        import tracer
        rec = tracer.install(spec["run_id"])

    def cpu():
        r = resource.getrusage(resource.RUSAGE_SELF)
        return r.ru_utime + r.ru_stime

    probes = [probe() for _ in range(PROBE_BURST)]
    setup_probe_s = statistics.mean(d for _, d in probes)
    if rec is None:
        signal.signal(signal.SIGALRM, lambda *_: probes.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    t1 = time.perf_counter()
    failures, spans = [], []
    for argv, want_exit, want_result in spec["jobs"]:
        c, t = cpu(), time.perf_counter()
        failures.append(run_job(cli, argv, want_exit, want_result))
        spans.append((t, time.perf_counter(), cpu() - c))
    signal.setitimer(signal.ITIMER_REAL, 0)
    if rec is not None:
        rec.dump(spec["spans"], t1)

    job_s, job_cpu_s, job_probe_s = [], [], []
    for t, end, c in spans:
        inside = [d for s, d in probes if t <= s < end]
        if not inside:
            inside = [min(probes, key=lambda p: abs(p[0] - (t + end) / 2))[1]]
            job_s.append(end - t)
            job_cpu_s.append(c)
        else:
            job_s.append(end - t - sum(inside))
            job_cpu_s.append(c - sum(inside))
        job_probe_s.append(statistics.mean(inside))
    print(json.dumps({
        "setup_s": setup_s, "setup_probe_s": setup_probe_s, "job_s": job_s,
        "job_cpu_s": job_cpu_s, "job_probe_s": job_probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": failures, "spawns": _spawns}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
