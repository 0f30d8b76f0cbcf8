"""Per-graph result cache for the traversal service.

Keyed like :mod:`repro.graphs.diskcache`: a query's cache key is the
SHA-256 of its canonical JSON description — ``(op, root, engine-config
overrides, graph fingerprint, CACHE_VERSION)`` — so two requests hit the
same entry iff they are semantically the same query against the same
graph *content* (the fingerprint hashes the CSR arrays, not the name).

Each resident graph gets its own bounded LRU.  An entry is the result's
canonical JSON text, exactly as the executor built it: the hit path
splices it into the response without serializing anything, and the
cache holds no per-vertex Python ints.

Disk spill is strictly best-effort, mirroring the corpus cache's
contract: a corrupt, truncated, or version-skewed cache file is
discarded and the service degrades to recomputation — never to an
error.  Writes are atomic (temp file + ``os.replace``) and batched
(every :data:`FLUSH_EVERY` inserts, plus a final flush at shutdown).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "CACHE_VERSION",
    "ENV_VAR",
    "FLUSH_EVERY",
    "default_cache_dir",
    "result_key",
    "GraphResultCache",
]

#: Bump when result payload semantics change for identical queries.
CACHE_VERSION = 1

ENV_VAR = "REPRO_SERVE_CACHE"

_DISABLED = ("", "0", "off", "none", "disabled")

#: Dirty-entry count at which the cache is spilled to disk.
FLUSH_EVERY = 64


def default_cache_dir() -> Optional[Path]:
    """Resolve the serve-cache directory, or None when disk is disabled.

    Same contract as :func:`repro.graphs.diskcache.cache_dir`:
    ``$REPRO_SERVE_CACHE`` overrides, disabled values turn disk spill
    off, default is a sibling of the corpus cache.
    """
    raw = os.environ.get(ENV_VAR)
    if raw is not None:
        if raw.strip().lower() in _DISABLED:
            return None
        return Path(raw).expanduser()
    return Path.home() / ".cache" / "repro-diggerbees" / "serve"


def result_key(op: str, root: int, config: Optional[Mapping],
               graph_fingerprint: str, backend: str = "dfs") -> str:
    """Deterministic cache key for one query (hex digest prefix).

    ``backend`` is the *resolved* engine family for DFS queries; only a
    non-default backend is keyed, so every existing DFS entry (memory or
    disk spill) stays addressable, while frontier answers can never be
    served to a DFS-backed daemon or vice versa.
    """
    payload: dict = {"op": op, "root": int(root),
                     "config": dict(config) if config else None,
                     "graph": graph_fingerprint, "version": CACHE_VERSION}
    if backend != "dfs":
        payload["backend"] = backend
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:24]


class GraphResultCache:
    """Bounded LRU of served results for one resident graph."""

    def __init__(self, graph_name: str, graph_fingerprint: str,
                 directory: Optional[Path], max_entries: int = 4096):
        self.graph_name = graph_name
        self.graph_fingerprint = graph_fingerprint
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self._dirty = 0
        #: key -> canonical JSON text of the result
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self._path: Optional[Path] = None
        if directory is not None and self.max_entries > 0:
            stem = "".join(c if c.isalnum() or c in "-_" else "_"
                           for c in graph_name)
            self._path = (Path(directory)
                          / f"{stem}-{graph_fingerprint}.json")
            self._load()

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[str]:
        """Look up ``key``; returns the result's JSON text or None."""
        hit = self._entries.get(key)
        if hit is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return hit

    def put(self, key: str, raw: str) -> None:
        """Store a result's canonical JSON text under ``key``."""
        if self.max_entries <= 0 or key in self._entries:
            return
        self._entries[key] = raw
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        self._dirty += 1
        if self._dirty >= FLUSH_EVERY:
            self.flush()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses,
                "file": str(self._path) if self._path else None}

    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Best-effort disk load; corrupt files are discarded."""
        path = self._path
        if path is None or not path.exists():
            return
        try:
            body = path.read_text(encoding="utf-8")
            data = json.loads(body)
            if (data.get("version") != CACHE_VERSION
                    or data.get("graph_fp") != self.graph_fingerprint
                    or not isinstance(data.get("entries"), dict)):
                raise ValueError("cache header mismatch")
            for key, raw in _entry_texts(body):
                if len(self._entries) >= self.max_entries:
                    break
                self._entries[key] = raw
        except Exception:
            # Corrupt/partial/version-skewed: recompute rather than fail.
            self._entries.clear()
            try:
                path.unlink()
            except OSError:
                pass

    def flush(self) -> None:
        """Best-effort atomic spill of the current entries to disk."""
        path = self._path
        if path is None or not self._dirty:
            return
        self._dirty = 0
        body = ('{"version":%d,"graph_fp":%s,"entries":{%s}}' % (
            CACHE_VERSION,
            json.dumps(self.graph_fingerprint),
            ",".join(f"{json.dumps(k)}:{raw}"
                     for k, raw in self._entries.items()),
        ))
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                       suffix=".tmp.json")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    f.write(body)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            pass


_ENTRIES_OPEN = '"entries":{'


def _entry_texts(body: str) -> Iterator[Tuple[str, str]]:
    """``(key, raw JSON text)`` of each entry of a spilled cache file.

    :meth:`GraphResultCache.flush` writes each entry's text verbatim
    after its key; this walks the ``entries`` object and slices the
    texts back out, so loading never re-serializes a payload.  Any
    deviation from that layout raises, which the caller treats as a
    corrupt file.
    """
    decoder = json.JSONDecoder()
    i = body.index(_ENTRIES_OPEN) + len(_ENTRIES_OPEN)
    while body[i] != "}":
        key, i = decoder.raw_decode(body, i)
        if not isinstance(key, str) or body[i] != ":":
            raise ValueError("malformed cache entry")
        _, end = decoder.raw_decode(body, i + 1)
        yield key, body[i + 1:end]
        i = end + 1 if body[end] == "," else end
