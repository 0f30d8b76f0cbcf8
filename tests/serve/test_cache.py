"""Result-cache unit tests: keys, LRU, disk spill, corruption recovery."""

import json

from repro.serve.cache import (
    CACHE_VERSION,
    FLUSH_EVERY,
    GraphResultCache,
    default_cache_dir,
    result_key,
)


def _mk(tmp_path=None, *, fp="f" * 16, max_entries=8):
    return GraphResultCache("g", fp, tmp_path, max_entries=max_entries)


# ---------------------------------------------------------------------------
# Keys.
# ---------------------------------------------------------------------------

def test_result_key_deterministic_and_discriminating():
    base = result_key("dfs", 0, {"seed": 1}, "aa")
    assert base == result_key("dfs", 0, {"seed": 1}, "aa")
    assert base != result_key("scc", 0, {"seed": 1}, "aa")
    assert base != result_key("dfs", 1, {"seed": 1}, "aa")
    assert base != result_key("dfs", 0, {"seed": 2}, "aa")
    assert base != result_key("dfs", 0, {"seed": 1}, "bb")
    assert base != result_key("dfs", 0, None, "aa")


def test_result_key_order_independent_config():
    assert (result_key("dfs", 0, {"a": 1, "b": 2}, "aa")
            == result_key("dfs", 0, {"b": 2, "a": 1}, "aa"))


# ---------------------------------------------------------------------------
# In-memory LRU.  Entries are the results' canonical JSON text.
# ---------------------------------------------------------------------------

def _raw(result):
    return json.dumps(result, separators=(",", ":"))


def test_lru_eviction_prefers_least_recently_used():
    cache = _mk(max_entries=2)
    cache.put("a", _raw({"v": 1}))
    cache.put("b", _raw({"v": 2}))
    assert cache.get("a") is not None   # refresh a
    cache.put("c", _raw({"v": 3}))      # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == '{"v":1}'
    assert cache.get("c") == '{"v":3}'


def test_get_returns_raw_json_text():
    cache = _mk()
    raw = _raw({"x": [1, 2]})
    cache.put("k", raw)
    assert cache.get("k") is raw        # the stored text, not a copy
    assert all(isinstance(v, str) for v in cache._entries.values())


def test_stats_track_hits_and_misses():
    cache = _mk()
    cache.put("k", "{}")
    cache.get("k")
    cache.get("nope")
    s = cache.stats()
    assert s["hits"] == 1 and s["misses"] == 1 and s["entries"] == 1


def test_zero_capacity_disables_cache(tmp_path):
    cache = GraphResultCache("g", "f" * 16, tmp_path, max_entries=0)
    cache.put("k", _raw({"v": 1}))
    assert cache.get("k") is None
    assert len(list(tmp_path.iterdir())) == 0


# ---------------------------------------------------------------------------
# Disk spill.
# ---------------------------------------------------------------------------

def test_flush_and_reload_roundtrip(tmp_path):
    cache = _mk(tmp_path)
    texts = {"k1": _raw({"v": 1}), "k2": _raw({"v": [1, 2, 3]}),
             "k3": _raw({"s": "a,b}:[", "e": {}, "l": []})}
    for key, raw in texts.items():
        cache.put(key, raw)
    cache.flush()
    again = _mk(tmp_path)
    # Reloaded texts are byte-identical to what was stored.
    assert {k: again.get(k) for k in texts} == texts


def test_reload_keeps_lru_order(tmp_path):
    cache = _mk(tmp_path, max_entries=3)
    for i in range(3):
        cache.put(f"k{i}", _raw({"v": i}))
    cache.flush()
    again = _mk(tmp_path, max_entries=3)
    assert list(again._entries) == ["k0", "k1", "k2"]


def test_autoflush_after_flush_every_inserts(tmp_path):
    cache = _mk(tmp_path, max_entries=FLUSH_EVERY + 8)
    for i in range(FLUSH_EVERY):
        cache.put(f"k{i}", _raw({"v": i}))
    assert _mk(tmp_path, max_entries=FLUSH_EVERY + 8).get("k0") is not None


def test_corrupt_cache_file_discarded_and_unlinked(tmp_path):
    cache = _mk(tmp_path)
    cache.put("k", _raw({"v": 1}))
    cache.flush()
    path = cache._path
    path.write_text("{ not json at all")
    again = _mk(tmp_path)
    assert again.get("k") is None       # corrupt content was dropped
    assert not path.exists()            # and the bad file removed
    again.put("k", _raw({"v": 2}))      # cache still fully functional
    assert again.get("k") == '{"v":2}'


def test_foreign_layout_discarded(tmp_path):
    """Valid JSON in another layout than ``flush`` writes is dropped:
    loading slices entry texts out of the file, never re-serializes."""
    cache = _mk(tmp_path)
    cache.put("k", _raw({"v": 1}))
    cache.flush()
    data = json.loads(cache._path.read_text())
    cache._path.write_text(json.dumps(data, indent=1))
    assert _mk(tmp_path).get("k") is None


def test_version_skew_discards_file(tmp_path):
    cache = _mk(tmp_path)
    cache.put("k", _raw({"v": 1}))
    cache.flush()
    data = json.loads(cache._path.read_text())
    data["version"] = CACHE_VERSION + 1
    cache._path.write_text(json.dumps(data))
    assert _mk(tmp_path).get("k") is None


def test_fingerprint_mismatch_discards_file(tmp_path):
    cache = _mk(tmp_path, fp="a" * 16)
    cache.put("k", _raw({"v": 1}))
    cache.flush()
    # Same graph name, different content: stale entries must not load.
    other = GraphResultCache("g", "b" * 16, tmp_path, max_entries=8)
    assert other.get("k") is None


def test_truncated_file_discarded(tmp_path):
    cache = _mk(tmp_path)
    cache.put("k", _raw({"v": 1}))
    cache.flush()
    body = cache._path.read_text()
    cache._path.write_text(body[: len(body) // 2])
    assert _mk(tmp_path).get("k") is None


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SERVE_CACHE", str(tmp_path))
    assert default_cache_dir() == tmp_path
    monkeypatch.setenv("REPRO_SERVE_CACHE", "off")
    assert default_cache_dir() is None
    monkeypatch.delenv("REPRO_SERVE_CACHE")
    assert default_cache_dir() is not None
