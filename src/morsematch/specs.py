"""Constructor expressions for complexes and the facet-list file format.

Grammar:

    simplex:<n> | boundary:<n> | skeleton:<base>:<k> | cone:<base> | file:<path>

`skeleton` and `cone` nest, e.g. ``skeleton:simplex:4:2`` is the 2-skeleton
of the 4-simplex, at most MAX_NESTING deep: each cone doubles the face
count, so more than 20 cones exceed MAX_BASE_FACES, and a skeleton of a
skeleton is one skeleton.  The canonical form of a spec string is used in
cache keys, so parsing and re-rendering must round-trip.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .complexes import (MAX_BASE_FACES, BudgetExceededError, SimplicialComplex,
                        build_boundary, build_simplex, cone, face_mask, skeleton)


MAX_NESTING = 32  # skeleton/cone wrappers around one base spec


class SpecError(ValueError):
    """Malformed constructor expression or facet-list document."""


def load_facet_file(path: str | Path) -> SimplicialComplex:
    """Read a ``{"vertices": v, "facets": [[...], ...]}`` document.

    Facets must be strictly increasing lists of integer ids in range (JSON
    `true` is no integer); the downward closure is computed on load.  Above
    MAX_BASE_FACES faces, or vertices (checked before any mask is built),
    it raises BudgetExceededError.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise SpecError(f"cannot read facet file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SpecError(f"facet file {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "vertices" not in doc or "facets" not in doc:
        raise SpecError("facet document needs 'vertices' and 'facets' keys")
    v = doc["vertices"]
    if type(v) is not int or v < 0:
        raise SpecError("'vertices' must be a nonnegative integer")
    if v > MAX_BASE_FACES:
        raise BudgetExceededError(
            f"'vertices' is above the base-complex cap of {MAX_BASE_FACES}")
    facets = doc["facets"]
    if not isinstance(facets, list):
        raise SpecError("'facets' must be a list of vertex lists")
    cleaned = []
    for f in facets:
        if (not isinstance(f, list) or not f
                or any(type(x) is not int for x in f)):
            raise SpecError(f"facet {f!r} must be a non-empty list of integers")
        if f != sorted(set(f)):
            raise SpecError(f"facet {f!r} is not strictly increasing")
        if f[0] < 0 or f[-1] >= v:
            raise SpecError(f"facet {f!r} has ids outside 0..{v - 1}")
        cleaned.append(face_mask(f))
    if not cleaned:
        return SimplicialComplex.void(v)
    return SimplicialComplex.from_facets(cleaned, v)


def _parse_int(token: str, what: str) -> int:
    try:
        n = int(token)
    except ValueError:
        raise SpecError(f"{what} must be an integer, got {token!r}") from None
    return n


def parse_spec(spec: str):
    """Parse to a nested tuple AST; raises SpecError on malformed input and
    on more than MAX_NESTING skeleton/cone wrappers.  The wrappers are
    peeled off in a loop, outermost first, so no input recurses."""
    wrappers = []
    while True:
        spec = spec.strip()
        head, _, rest = spec.partition(":")
        head = head.lower()
        if head == "skeleton":
            base, _, k = rest.rpartition(":")
            if not base:
                raise SpecError("skeleton needs a base spec and a dimension")
            kk = _parse_int(k, "skeleton dimension")
            if kk < 0:
                raise SpecError("skeleton dimension must be >= 0")
            wrappers.append(("skeleton", kk))
            spec = base
        elif head == "cone":
            if not rest:
                raise SpecError("cone needs a base spec")
            wrappers.append(("cone",))
            spec = rest
        else:
            break
        if len(wrappers) > MAX_NESTING:
            raise SpecError(f"spec nests more than {MAX_NESTING} "
                            f"skeleton/cone constructors")
    ast = _parse_base(head, rest, spec)
    for w in reversed(wrappers):
        ast = ("skeleton", ast, w[1]) if w[0] == "skeleton" else ("cone", ast)
    return ast


def _parse_base(head: str, rest: str, spec: str):
    if head == "simplex":
        n = _parse_int(rest, "simplex dimension")
        if n < 0:
            raise SpecError("simplex dimension must be >= 0")
        return ("simplex", n)
    if head == "boundary":
        n = _parse_int(rest, "boundary dimension")
        if n < 1:
            raise SpecError("boundary requires n >= 1")
        return ("boundary", n)
    if head == "file":
        if not rest:
            raise SpecError("file needs a path")
        return ("file", rest)
    raise SpecError(f"unknown constructor {head!r} in spec {spec!r}")


def canonical_spec(spec: str) -> str:
    """Normalised rendering of a spec string (used in cache keys)."""
    return _render(parse_spec(spec))


def _render(ast) -> str:
    tag = ast[0]
    if tag in ("simplex", "boundary"):
        return f"{tag}:{ast[1]}"
    if tag == "skeleton":
        return f"skeleton:{_render(ast[1])}:{ast[2]}"
    if tag == "cone":
        return f"cone:{_render(ast[1])}"
    return f"file:{ast[1]}"


def spec_file(spec: str) -> Optional[str]:
    """Path of the facet file a spec reads, if any (nesting is linear)."""
    ast = parse_spec(spec)
    while ast[0] in ("skeleton", "cone"):
        ast = ast[1]
    return ast[1] if ast[0] == "file" else None


def build_from_spec(spec: str) -> SimplicialComplex:
    """Construct the complex a spec string denotes."""
    return _eval(parse_spec(spec))


def _eval(ast) -> SimplicialComplex:
    tag = ast[0]
    if tag == "simplex":
        return build_simplex(ast[1])
    if tag == "boundary":
        return build_boundary(ast[1])
    if tag == "skeleton":
        return skeleton(_eval(ast[1]), ast[2])
    if tag == "cone":
        return cone(_eval(ast[1]))[0]
    return load_facet_file(ast[1])
