"""TrialCache.store: one serialisation per miss, exact entry bytes, no litter.

A miss is serialised once (``_encode``) and the cache entry is spliced
around that text.  The spliced bytes must be exactly what serialising the
whole entry produces, so the on-disk format is unchanged; and a failed
write must leave no temp file for ``stats``/``prune``/``clear`` to trip on.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.experiments import sweep
from repro.experiments.sweep import (
    SweepPoint,
    TrialCache,
    _dumps,
    _encode,
    cached_call,
    canonicalise,
    execute_point_inline,
)

RAW = {
    "records": [
        {
            "estimator": "BFCE",
            "label": "zoné ✓ 測試",
            "n_hat": np.float64(-0.0),
            "tiny": 1e-300,
            "tenth": 0.1,
            "neg_zero": -0.0,
            "extra": {
                "rounds": np.int64(7),
                "ratio": np.float32(0.1),
                "mixed": np.bool_(True),
                "vec": np.arange(3, dtype=np.int32),
            },
        }
    ]
}

SPEC = {"kind": "test", "label": "ümlaut ✓", "eps": 0.1, "n": 3_000}


def entry_bytes(cache: TrialCache, canonical: str, payload) -> bytes:
    """The entry as serialising the whole of it writes it."""
    entry = {
        "format": sweep._FORMAT,
        "token": cache.token,
        "spec": canonical,
        "payload": payload,
    }
    return _dumps(entry).encode()


def temp_files(directory) -> list:
    return sorted(p.name for p in directory.glob("*.tmp*")) if directory.is_dir() else []


def test_spliced_entry_equals_dumps_of_the_whole_entry(tmp_path):
    cache = TrialCache(tmp_path / "c", token="t0")
    canonical = canonicalise(SPEC)
    payload, text = _encode(RAW)
    cache.store(canonical, payload, text=text)
    written = cache._path(canonical).read_bytes()
    assert written == entry_bytes(cache, canonical, payload)
    assert cache.load(canonical) == payload


def test_store_without_text_writes_the_same_bytes(tmp_path):
    spliced = TrialCache(tmp_path / "a", token="t0")
    plain = TrialCache(tmp_path / "b", token="t0")
    # A raw (not canonicalised) non-ASCII spec string is escaped either way.
    canonical = "spec ✓ ü"
    payload, text = _encode(RAW)
    spliced.store(canonical, payload, text=text)
    plain.store(canonical, payload)
    assert (
        spliced._path(canonical).read_bytes()
        == plain._path(canonical).read_bytes()
        == entry_bytes(plain, canonical, payload)
    )


def test_miss_returns_exactly_what_a_hit_reads(tmp_path):
    cache = TrialCache(tmp_path / "c", token="t0")
    miss = cached_call(SPEC, lambda: RAW, cache=cache)
    hit = cached_call(SPEC, lambda: pytest.fail("recomputed a cached spec"), cache=cache)
    assert (cache.misses, cache.hits, cache.stores) == (1, 1, 1)
    assert hit == miss
    record, cached = miss["records"][0], hit["records"][0]
    for name in ("n_hat", "neg_zero"):
        assert math.copysign(1.0, record[name]) == math.copysign(1.0, cached[name]) == -1.0
    assert cached["tiny"] == 1e-300 and cached["tenth"] == 0.1
    assert cached["extra"] == {"rounds": 7, "ratio": float(np.float32(0.1)),
                               "mixed": True, "vec": [0, 1, 2]}


def test_short_writes_are_completed(tmp_path, monkeypatch):
    cache = TrialCache(tmp_path / "c", token="t0")
    canonical = canonicalise(SPEC)
    payload, text = _encode(RAW)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:7])))
    cache.store(canonical, payload, text=text)
    monkeypatch.undo()
    assert cache._path(canonical).read_bytes() == entry_bytes(cache, canonical, payload)


def failing_replace(monkeypatch):
    """Make every rename of a cache temp file fail; other renames still work."""
    real_replace = os.replace

    def replace(src, dst, *args, **kwargs):
        if ".json.tmp" in os.fspath(src):
            raise OSError("injected rename failure")
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)


def test_failed_rename_raises_offline_and_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = TrialCache(tmp_path / "c")
    point = SweepPoint.bfce_trials(
        distribution="T1", n=3_000, trials=1, base_seed=4, engine="analytic"
    )
    failing_replace(monkeypatch)
    with pytest.raises(OSError, match="injected rename failure"):
        execute_point_inline(point, cache=cache)
    assert temp_files(cache.directory) == []
    assert cache.stores == 0
    assert cache.stats()["entries"] == 0
    assert cache.clear() == 0  # nothing left behind to count as an entry


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = TrialCache(tmp_path / "c", token="t0")

    def broken_write(fd, data):
        raise OSError("injected write failure")

    monkeypatch.setattr(os, "write", broken_write)
    with pytest.raises(OSError, match="injected write failure"):
        cache.store(canonicalise(SPEC), {"v": 1})
    monkeypatch.undo()
    assert temp_files(cache.directory) == []
    assert cache.stores == 0
