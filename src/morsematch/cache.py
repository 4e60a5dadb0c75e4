"""Content-addressed on-disk cache and the face-set document format.

Cache entries live one per file under a two-level fan-out.  The file starts
with a header line carrying a checksum of the payload; a mismatch means the
entry is ignored (and reported on stderr), never trusted.  Writes go through
a temp file and an atomic rename.

Face-set documents serialize a complex's faces, one per line and in
canonical order, as the lowercase hex of the little-endian face bitmask,
after a header ``morsematch-faces v1 <vertex-count>``.  Bit i is vertex i
of the complex written; for a matching complex, that is Hasse edge i of its
base.  A face mask is written verbatim, so the format is bit-exact and
diffable.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

_HEADER = b"morsematch-cache v1 "


def default_cache_dir() -> Path:
    env = os.environ.get("MORSEMATCH_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "morsematch"


def cache_key(operation: str, spec: str, variant: str, version: str,
              extra: Optional[dict] = None) -> str:
    doc = {"operation": operation, "spec": spec, "variant": variant,
           "version": version, "extra": extra or {}}
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _entry_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / key[:2] / key


def cache_put(cache_dir: Path, key: str, payload: bytes) -> Path:
    path = _entry_path(cache_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(payload).hexdigest()
    blob = _HEADER + digest.encode() + b"\n" + payload
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def cache_get(cache_dir: Path, key: str) -> Optional[bytes]:
    path = _entry_path(cache_dir, key)
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    if not blob.startswith(_HEADER):
        print(f"morsematch: ignoring malformed cache entry {path}", file=sys.stderr)
        return None
    nl = blob.find(b"\n")
    if nl < 0:
        print(f"morsematch: ignoring malformed cache entry {path}", file=sys.stderr)
        return None
    digest = blob[len(_HEADER):nl].decode(errors="replace")
    payload = blob[nl + 1:]
    if hashlib.sha256(payload).hexdigest() != digest:
        print(f"morsematch: checksum mismatch in cache entry {path}; ignored",
              file=sys.stderr)
        return None
    return payload


# -- face-set documents -------------------------------------------------------

def faces_to_document(faces, vertex_count: int) -> bytes:
    """Serialize face bitmasks (ints) to the line format."""
    width = max((vertex_count + 7) // 8, 1)
    lines = [f"morsematch-faces v1 {vertex_count}".encode()]
    for mask in faces:
        lines.append(mask.to_bytes(width, "little").hex().encode())
    return b"\n".join(lines) + b"\n"


def document_to_faces(blob: bytes) -> tuple[list[int], int]:
    """Parse the line format back to (face masks, vertex count)."""
    lines = blob.decode().splitlines()
    if not lines or not lines[0].startswith("morsematch-faces v1 "):
        raise ValueError("not a morsematch-faces v1 document")
    vertex_count = int(lines[0].rsplit(" ", 1)[1])
    masks = []
    for ln in lines[1:]:
        if ln:
            mask = int.from_bytes(bytes.fromhex(ln), "little")
            if mask >> vertex_count:
                raise ValueError(f"face {ln} has a bit at or above vertex "
                                 f"count {vertex_count}")
            masks.append(mask)
    return masks, vertex_count
