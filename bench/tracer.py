"""Spans around the calls into each morsematch layer, recorded from outside.

`install` wraps the public functions of every package module (plus the few
method and private boundaries named in `_EXTRA`) with timing wrappers.  The
modules import each other with ``from .x import y``, so a function is bound
in several namespaces; every binding is replaced.  Each call records one
span (name, start, end, parent span) in flat in-memory arrays; `dump` writes
them out once the pass has ended, and `analyze` turns them into per-layer
self times, counts and ratios.

Work the wrappers do after a call (counting faces, hashing a complex to
detect repeated work) runs in a ``trace.note`` span, so it is charged to the
tracer and not to the layer that happened to be on the stack.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from array import array
from time import perf_counter

LAYERS = ("specs", "complexes", "hasse", "layers", "morse", "homology",
          "verify", "cache", "cli")

# boundaries that are not public module-level functions
_EXTRA = {
    "complexes": ("SimplicialComplex.from_faces", "SimplicialComplex.from_facets"),
    "layers": ("LayerSystem.__init__", "LayerSystem.matchings",
               "LayerSystem.classes", "_enumerate_layer"),
}

# call paths that are branches inside a function rather than functions
PATH_MARKERS = ("hasse.enumerate_matchings[threads>1]",
                "layers.matching_counts->hasse.enumerate_matchings",
                "layers.enumerate_optimal->hasse.enumerate_optimal_dfs")

_NOTE = "trace.note"


def _complex_key(K) -> int:
    return hash(tuple(tuple(lst) for lst in K.faces_by_dim))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# name -> fn(args, kwargs, result) -> JSON-able note
_NOTES = {
    "layers._enumerate_layer": lambda a, k, r: {
        "n": len(r),
        "key": hash((tuple(a[0].edges_local),
                     tuple(map(tuple, a[0].upper_facets)), a[1]))},
    "hasse.enumerate_matchings": lambda a, k, r: {
        "visits": sum(r), "threads": _arg(a, k, 3, "threads", 1)},
    "homology.smith_normal_form": lambda a, k, r: {"nnz": a[0].nnz()},
    "homology.boundary_matrices": lambda a, k, r: {
        "nnz": sum(m.nnz() for m in r.boundaries)},
    "homology.homology": lambda a, k, r: {
        "key": hash((_complex_key(a[0]), _arg(a, k, 1, "reduced", True)))},
    "homology.relative_homology": lambda a, k, r: {
        "key": hash((_complex_key(a[0]), _complex_key(a[1])))},
    "morse.build_matching_complex": lambda a, k, r: {
        "faces": r.complex.total_faces(),
        "key": hash((_complex_key(a[0]), a[1]))},
    "cache.cache_get": lambda a, k, r: {"hit": r is not None,
                                        "dir": str(a[0])},
    "cache.cache_put": lambda a, k, r: {"bytes": len(a[2]), "dir": str(a[0])},
}

_GENERATORS = {"layers.iter_matchings_of_cardinality"}


class Recorder:
    """Flat span arrays; span i has a name id, start, end and parent index."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.notes: dict[int, dict] = {}
        self.stack = [-1]
        self.wrapped: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def note(self, i: int, fn, args, kwargs, result) -> None:
        j = self.open(self.name_id(_NOTE))
        try:
            self.notes[i] = fn(args, kwargs, result)
        finally:
            self.close(j)

    def dump(self, path: str, origin: float) -> None:
        doc = {"run_id": self.run_id, "names": self.names,
               "wrapped": self.wrapped,
               "name": self.name_of.tolist(),
               "start": [t - origin for t in self.start],
               "end": [t - origin for t in self.end],
               "parent": self.parent.tolist(),
               "notes": {str(i): n for i, n in self.notes.items()}}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    note = _NOTES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if note is not None:
            rec.note(i, note, args, kwargs, result)
        return result

    return wrapper


def _wrap_generator(rec: Recorder, name: str, fn):
    """One span for the call, then one span per next(): walk time only."""
    nid = rec.name_id(name)
    next_id = rec.name_id(name + ".next")

    def timed(gen):
        while True:
            i = rec.open(next_id)
            try:
                item = next(gen)
            except StopIteration:
                rec.notes[i] = {"yield": False}
                return
            finally:
                rec.close(i)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        try:
            gen = fn(*args, **kwargs)
        finally:
            rec.close(i)
        return timed(gen)

    return wrapper


def install(run_id: int) -> Recorder:
    """Wrap every layer boundary of the imported morsematch package."""
    rec = Recorder(run_id)
    pkg = [m for n, m in sys.modules.items()
           if m is not None and (n == "morsematch" or n.startswith("morsematch."))]
    replace: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"morsematch.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrap = _wrap_generator if name in _GENERATORS else _wrap
                replace[id(obj)] = (obj, wrap(rec, name, obj))
                rec.wrapped.append(name)
        for dotted in _EXTRA.get(layer, ()):
            name = f"{layer}.{dotted}"
            if "." not in dotted:
                obj = getattr(mod, dotted)
                replace[id(obj)] = (obj, _wrap(rec, name, obj))
            else:
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(_wrap(rec, name, raw.__func__)))
                else:
                    setattr(cls, meth, _wrap(rec, name, raw))
            rec.wrapped.append(name)
    for mod in pkg:
        for attr, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return rec


# -- analysis -----------------------------------------------------------------

def analyze(doc: dict, wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and facts for checks.

    Self time of a span is its duration minus its direct children's.  A
    layer's self time sums the self times of its spans, so nested calls
    within one layer are not counted twice.
    """
    names = doc["names"]
    name_of, start, end, parent = (doc["name"], doc["start"], doc["end"],
                                   doc["parent"])
    notes = {int(i): n for i, n in doc["notes"].items()}
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    layer_of_name = [nm.split(".", 1)[0] for nm in names]
    lay = [layer_of_name[x] for x in name_of]

    def name(i):
        return names[name_of[i]]

    by_name: dict[str, list[int]] = {}
    for i in range(n):
        by_name.setdefault(name(i), []).append(i)

    def spans(nm):
        return by_name.get(nm, [])

    def self_sum(nm):
        return sum(self_t[i] for i in spans(nm))

    def incl_sum(nm):
        return sum(dur[i] for i in spans(nm))

    def note_sum(nm, key):
        return sum(notes.get(i, {}).get(key, 0) for i in spans(nm))

    def distinct_ratio(ids):
        """Share of calls that did new work; 1 when there were no calls,
        since then no work was repeated."""
        keys = [notes[i]["key"] for i in ids if i in notes]
        return len(set(keys)) / len(keys) if keys else 1.0

    layer_self = {L: 0.0 for L in LAYERS}
    tracer_self = 0.0
    for i in range(n):
        L = lay[i]
        if L in layer_self:
            layer_self[L] += self_t[i]
        else:
            tracer_self += self_t[i]

    def entries(L):
        return [i for i in range(n) if lay[i] == L
                and (parent[i] < 0 or lay[parent[i]] != L)]

    hom_entries = [i for i in entries("homology")
                   if name(i) in ("homology.homology", "homology.relative_homology")]
    enum = spans("layers._enumerate_layer")
    walk = spans("layers.iter_matchings_of_cardinality.next")
    gets = spans("cache.cache_get")
    snf = spans("homology.smith_normal_form")

    m = {
        "layers.systems": len(spans("layers.LayerSystem.__init__")),
        "layers.enum_s": self_sum("layers._enumerate_layer"),
        "layers.layer_matchings": note_sum("layers._enumerate_layer", "n"),
        "layers.enum_distinct_ratio": distinct_ratio(enum),
        "layers.classes_s": self_sum("layers.LayerSystem.classes"),
        "layers.suffix_s": self_sum("layers.suffix_tables"),
        "layers.walk_s": sum(self_t[i] for i in walk),
        "layers.walk_yields": sum(1 for i in walk
                                  if notes.get(i, {}).get("yield", True)),
        "hasse.critical_s": incl_sum("hasse.critical_faces"),
        "hasse.critical_calls": len(spans("hasse.critical_faces")),
        "hasse.enum_s": self_sum("hasse.enumerate_matchings"),
        "hasse.enum_visits": note_sum("hasse.enumerate_matchings", "visits"),
        "hasse.build_s": incl_sum("hasse.build_hasse"),
        "verify.self_s": layer_self["verify"],
        "homology.snf_s": self_sum("homology.smith_normal_form"),
        "homology.snf_calls": len(snf),
        "homology.snf_nnz": note_sum("homology.smith_normal_form", "nnz"),
        "homology.snf_max_s": max((dur[i] for i in snf), default=0.0),
        "homology.boundary_s": self_sum("homology.boundary_matrices"),
        "homology.boundary_nnz": note_sum("homology.boundary_matrices", "nnz"),
        "homology.relative_s": self_sum("homology.relative_homology"),
        "homology.distinct_ratio": distinct_ratio(hom_entries),
        "morse.build_s": self_sum("morse.build_matching_complex"),
        "morse.faces": note_sum("morse.build_matching_complex", "faces"),
        "morse.build_distinct_ratio": distinct_ratio(
            spans("morse.build_matching_complex")),
        "complexes.from_faces_s": self_sum("complexes.SimplicialComplex.from_faces"),
        "cache.get_calls": len(gets),
        "cache.hits": sum(1 for i in gets if notes.get(i, {}).get("hit")),
        "cache.get_s": incl_sum("cache.cache_get"),
        "cache.put_calls": len(spans("cache.cache_put")),
        "cache.put_s": incl_sum("cache.cache_put"),
        "cache.put_bytes": note_sum("cache.cache_put", "bytes"),
        "specs.calls": len(entries("specs")),
        "specs.build_s": incl_sum("specs.build_from_spec"),
        "cli.self_s": layer_self["cli"],
    }
    for nm in names:
        if nm.startswith("verify.verify_"):
            m[f"verify.{nm[len('verify.verify_'):]}_s"] = incl_sum(nm)
    for L in LAYERS:
        m[f"{L}.self_s"] = layer_self[L]
        m[f"{L}.self_pct"] = 100.0 * layer_self[L] / wall_s

    reached = {nm for nm in by_name if not nm.startswith(_NOTE)}
    for i in spans("hasse.enumerate_matchings"):
        if notes.get(i, {}).get("threads", 1) > 1:
            reached.add(PATH_MARKERS[0])
        if parent[i] >= 0 and name(parent[i]) == "layers.matching_counts":
            reached.add(PATH_MARKERS[1])
    for i in spans("hasse.enumerate_optimal_dfs"):
        if parent[i] >= 0 and name(parent[i]) == "layers.enumerate_optimal":
            reached.add(PATH_MARKERS[2])
    facts = {
        "spans": n,
        "program_self_s": sum(layer_self.values()),
        "tracer_self_s": tracer_self,
        "negative_self": sum(1 for t in self_t if t < -1e-9),
        "cache_dirs": sorted({notes[i]["dir"] for i in
                              gets + spans("cache.cache_put") if i in notes}),
        "reached": sorted(reached),
        "wrapped": sorted(doc["wrapped"]) + list(PATH_MARKERS),
    }
    return m, facts


def median_metrics(per_pass: list[dict]) -> dict:
    """Metric-wise median over passes (counts repeat, so they pass through)."""
    keys = sorted({k for m in per_pass for k in m})
    return {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in keys}
