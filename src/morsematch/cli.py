"""Command-line front end.

Exactly one JSON document goes to stdout per invocation; diagnostics go to
stderr.  Output is byte-stable for identical inputs: keys are sorted, values
are integers or strings, and nothing time-dependent enters the payload.
Every cached command loads or computes its result through `_cached`.

Exit codes: 0 success or all checks pass, 1 verification failure, 2 usage
error (also an unwritable --out path), 3 budget exceeded: a complex too wide
for the layer transfer, a projected face count above --budget, or a base
complex of more than `complexes.MAX_BASE_FACES` (2^20) faces.
`--allow-long` is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .cache import (cache_get, cache_key, cache_put, default_cache_dir,
                    faces_to_document)
from .complexes import BudgetExceededError, f_vector, relabel
from .hasse import build_hasse
from .homology import homology, relative_homology
from .layers import LayeredInfeasibleError, enumerate_optimal
from .morse import (MaterializationLimitError, build_matching_complex,
                    induced_inclusion, matching_complex_f_vector)
from .specs import SpecError, build_from_spec, canonical_spec, spec_file
from .verify import CHECK_NAMES, default_suite, runs_euler_n4

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


def _cached(args, operation: str, spec: str, variant: str, compute=None,
            extra=None):
    """The cached result of the operation, else `compute()` stored under the
    same key; None on a miss without `compute`.  A failed cache write is a
    warning, not an error."""
    cdir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    extra = dict(extra or {})
    # a file spec names mutable content: key it by the bytes too
    digests = {s: _file_digest(s) for s in (spec, extra.get("relative"))
               if s and "file:" in s}
    if digests:
        extra["file-sha256"] = digests
    key = cache_key(operation, spec, variant, __version__, extra)
    blob = cache_get(cdir, key)
    if blob is not None:
        return json.loads(blob.decode())
    if compute is None:
        return None
    result = compute()
    try:
        cache_put(cdir, key, json.dumps(result, sort_keys=True).encode())
    except OSError as e:
        print(f"morsematch: cache write failed: {e}", file=sys.stderr)
    return result


def cmd_build(args) -> int:
    spec = canonical_spec(args.complex)
    K = build_from_spec(spec)
    if args.variant:
        mc = build_matching_complex(K, args.variant, max_faces=args.budget)
        cx = mc.complex
        if args.out:
            _write_out(args.out, faces_to_document(cx.faces(), mc.edge_count))
        result = {"variant": args.variant, "f_vector": f_vector(cx),
                  "faces": cx.total_faces(), "void": cx.is_void,
                  "out": args.out}
    else:
        result = {"variant": None, "f_vector": f_vector(K),
                  "faces": K.total_faces(), "void": K.is_void,
                  "out": None}
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
                sub = build_from_spec(rel_spec)
                msub = build_matching_complex(sub, args.variant,
                                              max_faces=args.budget)
                emb = relabel(msub.complex, induced_inclusion(sub, K),
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

    def compute() -> dict:
        best, count = enumerate_optimal(build_hasse(build_from_spec(spec)))
        return {"max_cardinality": best, "count": count}

    result = _cached(args, "count-optimal", spec, "M", compute)
    _emit("count-optimal", spec, result, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    only = None if args.check == "all" else args.check
    if only is not None and only not in CHECK_NAMES:
        print(f"morsematch: unknown check {only!r}; choose from "
              f"{', '.join(CHECK_NAMES)} or 'all'", file=sys.stderr)
        return EXIT_USAGE
    # read-only: a cached 4-simplex vector spares euler-n4 its enumeration,
    # and no other check may start one
    n4 = None
    if runs_euler_n4(args.max_n, only):
        n4 = _cached(args, "fvector", "simplex:4", "M")
    reports = default_suite(max_n=args.max_n, budget=args.budget,
                            cached_n4_fvector=n4 and n4["f_vector"], only=only)
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


def _parser() -> argparse.ArgumentParser:
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
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("fvector", help="f-vector of a matching complex")
    common(sp)
    sp.set_defaults(fn=cmd_fvector)

    sp = sub.add_parser("homology", help="integral homology (reduced)")
    common(sp, variant_default="M", variant_choices=("none", "M", "MP", "GM"))
    sp.add_argument("--relative", default=None,
                    help="subcomplex spec for relative homology")
    sp.add_argument("--unreduced", action="store_true")
    sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("count-optimal",
                        help="count maximum acyclic matchings")
    # only acyclic matchings, the faces of M, are counted
    common(sp, variant_choices=("M",))
    sp.set_defaults(fn=cmd_count_optimal)

    sp = sub.add_parser("euler", help="Euler characteristic of a matching complex")
    common(sp)
    sp.set_defaults(fn=cmd_euler)

    sp = sub.add_parser("verify", help="run named checks or all of them")
    sp.add_argument("check", help="check name or 'all'")
    sp.add_argument("--max-n", type=int, default=3)
    shared(sp, 10 ** 7)
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        return args.fn(args)
    except SpecError as e:
        print(f"morsematch: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (MaterializationLimitError, BudgetExceededError,
            LayeredInfeasibleError) as e:
        print(f"morsematch: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"morsematch: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
