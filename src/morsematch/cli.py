"""Command-line front end.

Exactly one JSON document goes to stdout per invocation; diagnostics go to
stderr.  Output is byte-stable for identical inputs: keys are sorted, values
are integers or strings, and nothing time-dependent enters the payload.
`fvector` and `homology` load or compute their results through `_cached`,
keyed by a digest of the package's sources; `euler` and `count-optimal` (M)
read the `fvector` entry of their spec.  `verify` reads and writes no cache.

Exit codes: 0 success or all checks pass, 1 verification failure, 2 usage
error (also an unwritable --out path), 3 budget exceeded: the one refusal
type, `complexes.BudgetExceededError` (base cap, width rule, projected face
count above --budget), or a check that reported skipped-budget.
`--allow-long` is accepted for compatibility and has no effect.

The argument parser is built once per process (`_parser` is cached), so
repeated `main` calls in one interpreter parse with the same object; `main`
dispatches to `cmd_<command>` by name at call time.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .cache import (cache_get, cache_key, cache_put, default_cache_dir,
                    faces_to_document)
from .complexes import BudgetExceededError, f_vector, relabel
from .homology import homology, relative_homology
from .layers import max_cardinality_info
from .morse import (build_matching_complex, induced_inclusion,
                    matching_complex_f_vector)
from .specs import build_from_spec, canonical_spec, spec_file
from .verify import CHECK_NAMES, default_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(command: str, spec, result, out_path=None) -> None:
    doc = {"command": command, "result": result, "spec": spec,
           "tool-version": __version__}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        _write_out(out_path, text.encode())
    sys.stdout.write(text)


def _write_out(path: str, data: bytes) -> None:
    """Write the --out file; an unwritable path is a usage error (exit 2)."""
    try:
        Path(path).write_bytes(data)
    except OSError as e:
        raise ValueError(f"cannot write --out {path}: {e.strerror or e}") from e


def _file_digest(spec: str):
    """SHA-256 of the facet file a spec reads; None when unreadable (the
    build reports that)."""
    try:
        return hashlib.sha256(Path(spec_file(spec)).read_bytes()).hexdigest()
    except OSError:
        return None


@functools.cache
def _code_digest() -> str:
    """SHA-256 of the package's *.py sources, names and bytes in sorted
    name order; hashed once per process, on the first cache lookup."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _cached(args, operation: str, spec: str, variant: str, compute,
            extra=None):
    """The cached result of the operation, else `compute()` stored under the
    same key.  The key names the code by `_code_digest`, since the version
    outlives code changes.  A failed cache write is a warning, not an error."""
    cdir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    extra = dict(extra or {})
    # a file spec names mutable content: key it by the bytes too
    digests = {s: _file_digest(s) for s in (spec, extra.get("relative"))
               if s and "file:" in s}
    if digests:
        extra["file-sha256"] = digests
    key = cache_key(operation, spec, variant, _code_digest(), extra)
    blob = cache_get(cdir, key)
    if blob is not None:
        return json.loads(blob.decode())
    result = compute()
    try:
        cache_put(cdir, key, json.dumps(result, sort_keys=True).encode())
    except OSError as e:
        print(f"morsematch: cache write failed: {e}", file=sys.stderr)
    return result


def cmd_build(args) -> int:
    spec = canonical_spec(args.complex)
    cx = build_from_spec(spec)
    if args.variant:
        cx = build_matching_complex(cx, args.variant,
                                    max_faces=args.budget).complex
    if args.out:
        _write_out(args.out, faces_to_document(cx.faces(), cx.vertex_count))
    result = {"variant": args.variant, "f_vector": f_vector(cx),
              "faces": cx.total_faces(), "void": cx.is_void, "out": args.out}
    _emit("build", spec, result)
    return EXIT_OK


def _fvector_result(args, spec: str) -> dict:
    def compute() -> dict:
        fv = matching_complex_f_vector(build_from_spec(spec), args.variant,
                                       max_faces=args.budget)
        return {"variant": args.variant, "f_vector": fv,
                "euler_characteristic": sum((-1) ** d * v
                                            for d, v in enumerate(fv))}
    return _cached(args, "fvector", spec, args.variant, compute)


def cmd_fvector(args) -> int:
    spec = canonical_spec(args.complex)
    _emit("fvector", spec, _fvector_result(args, spec), args.out)
    return EXIT_OK


def cmd_euler(args) -> int:
    spec = canonical_spec(args.complex)
    result = _fvector_result(args, spec)
    result["reduced_euler_characteristic"] = result["euler_characteristic"] - 1
    _emit("euler", spec, result, args.out)
    return EXIT_OK


def cmd_homology(args) -> int:
    spec = canonical_spec(args.complex)
    rel_spec = canonical_spec(args.relative) if args.relative else None
    reduced = not args.unreduced

    def compute() -> dict:
        K = build_from_spec(spec)
        if args.variant == "none":
            if rel_spec:
                h = relative_homology(K, build_from_spec(rel_spec),
                                      reduced=reduced)
            else:
                h = homology(K, reduced=reduced)
        else:
            mc = build_matching_complex(K, args.variant, max_faces=args.budget)
            if rel_spec:
                msub = build_matching_complex(build_from_spec(rel_spec),
                                              args.variant,
                                              max_faces=args.budget)
                emb = relabel(msub.complex,
                              induced_inclusion(msub.hasse, mc.hasse),
                              mc.edge_count)
                h = relative_homology(mc.complex, emb, reduced=reduced)
            else:
                h = homology(mc.complex, reduced=reduced)
        return {"variant": args.variant, "relative": rel_spec,
                "reduced": reduced, "degrees": h.to_json(), "void": h.void}

    extra = {"relative": rel_spec, "reduced": reduced}
    result = _cached(args, "homology", spec, args.variant, compute, extra)
    _emit("homology", spec, result, args.out)
    return EXIT_OK


def cmd_count_optimal(args) -> int:
    spec = canonical_spec(args.complex)
    # f_d counts the matchings of d + 1 edges; 1 counts the empty one
    best, count = max_cardinality_info(
        [1] + _fvector_result(args, spec)["f_vector"])
    result = {"max_cardinality": best, "count": count}
    _emit("count-optimal", spec, result, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    only = None if args.check == "all" else args.check
    reports = default_suite(max_n=args.max_n, budget=args.budget, only=only)
    for r in reports:
        print(f"morsematch: {r.status:15s} {r.name} {r.instance} "
              f"({r.elapsed:.2f}s)", file=sys.stderr)
    result = {"checks": [r.to_json() for r in reports],
              "summary": {"pass": sum(r.status == "pass" for r in reports),
                          "fail": sum(r.status == "fail" for r in reports),
                          "skipped-budget": sum(r.status == "skipped-budget"
                                                for r in reports)}}
    _emit("verify", args.check, result, args.out)
    if result["summary"]["fail"]:
        return EXIT_VERIFY_FAIL
    if result["summary"]["skipped-budget"]:
        return EXIT_BUDGET
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing leaves
    no state on it, so every `main` call reuses it."""
    p = argparse.ArgumentParser(
        prog="morsematch",
        description="complexes of discrete Morse matchings: enumeration, "
                    "homology, and verification")
    sub = p.add_subparsers(dest="command", required=True)

    def shared(sp, budget):
        sp.add_argument("--budget", type=int, default=budget)
        sp.add_argument("--cache-dir", default=None)
        sp.add_argument("--allow-long", action="store_true",
                        help="accepted for compatibility; has no effect")
        sp.add_argument("--out", default=None)

    def common(sp, variant_default="M", variant_choices=("M", "MP", "GM")):
        sp.add_argument("--complex", required=True,
                        help="constructor spec, e.g. simplex:3, boundary:2, "
                             "skeleton:simplex:4:2, cone:boundary:2, file:PATH")
        sp.add_argument("--variant", default=variant_default,
                        choices=list(variant_choices))
        shared(sp, 10 ** 8)

    sp = sub.add_parser("build", help="construct a complex or matching complex")
    common(sp, variant_default=None)

    sp = sub.add_parser("fvector", help="f-vector of a matching complex")
    common(sp)

    sp = sub.add_parser("homology", help="integral homology (reduced)")
    common(sp, variant_default="M", variant_choices=("none", "M", "MP", "GM"))
    sp.add_argument("--relative", default=None,
                    help="subcomplex spec for relative homology")
    sp.add_argument("--unreduced", action="store_true")

    sp = sub.add_parser("count-optimal",
                        help="count maximum acyclic matchings")
    # only acyclic matchings, the faces of M, are counted
    common(sp, variant_choices=("M",))

    sp = sub.add_parser("euler", help="Euler characteristic of a matching complex")
    common(sp)

    sp = sub.add_parser("verify", help="run named checks or all of them")
    sp.add_argument("check", choices=CHECK_NAMES + ["all"],
                    help="check name or 'all'")
    sp.add_argument("--max-n", type=int, default=3)
    shared(sp, 10 ** 7)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    # looked up per call, not pinned in the cached parser, so a command
    # replaced on the module (a test's monkeypatch, a tracer) is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except BudgetExceededError as e:
        print(f"morsematch: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"morsematch: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
