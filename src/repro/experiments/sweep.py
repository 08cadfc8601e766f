"""Sweep execution layer: deduped scheduling + content-addressed result cache.

The figure generators, ablation sweeps and validation checks all reduce to
the same shape of work: a grid of *points*, each a pure function of a small
parameter record (estimator, distribution, n, ε, δ, trials, seeds, config).
Before this layer each caller looped its grid serially and recomputed
everything from scratch on every invocation, even though the grids overlap
heavily across figures and every record is deterministic given its spec.

This module turns that into a three-stage service:

1. **Declare** — callers describe each point as a :class:`SweepPoint`, a
   canonicalised JSON spec.  Specs are *values*: two callers asking for the
   same work produce byte-identical canonical strings.
2. **Dedupe + cache** — one core behind every entry point
   (:func:`_through_cache`) collapses duplicate specs, then looks each
   unique spec up in a content-addressed on-disk cache
   (``.repro_cache/``).  The cache key is the SHA-256 of the canonical spec
   plus an *engine-version token* — a hash of the kernel/protocol source
   files — so any change to code that could alter results invalidates every
   entry automatically.  ``REPRO_CACHE=0`` disables the cache,
   ``REPRO_CACHE_DIR`` relocates it, and the ``repro-rfid cache`` CLI
   subcommand reports/clears it.
3. **Execute** — one executor (:func:`_execute_canonical`) runs the
   cache misses: the ``bfce_trials`` misses it is handed share one
   lockstep drive per drive key, any other kind runs alone, and a failing
   point's outcome is its exception.  It runs in the calling thread, or
   one miss per task across a ``ProcessPoolExecutor``; both run the
   lockstep batch engines on the read-only cached tagID arrays
   (:func:`~repro.experiments.workloads.population` with ``copy=False``)
   and keep input order, so the output is deterministic regardless of
   worker count or scheduling.

Bit-identity contract: every payload — cache hit, cache miss, or cache
disabled — is round-tripped through the same JSON serialisation before it is
returned.  JSON float round-tripping is exact (``float(repr(x)) == x``), so
a cached record is bit-identical to a freshly computed one, and both are
bit-identical to the direct serial runners.  ``benchmarks/bench_perf_sweep.py``
gates this with zero-drift checks against ``engine="serial"`` references.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..rfid import _native

__all__ = [
    "SweepPoint",
    "TrialCache",
    "cache_enabled",
    "cached_call",
    "default_cache_dir",
    "engine_version_token",
    "execute_point_inline",
    "execute_points_inline",
    "records_from_payload",
    "run_record_sweep",
    "run_sweep",
]

_log = logging.getLogger(__name__)

#: On-disk entry format; bump when the entry layout itself changes.
_FORMAT = 1
#: Bytes per ``os.read`` of a cache entry (one read covers a served run).
_READ_CHUNK = 1 << 16

#: Source roots (relative to the ``repro`` package) whose contents define the
#: engine-version token.  Anything that can change a result belongs here:
#: protocol math, frame kernels, native C source, estimators, timing model
#: and the trial runners.  The sweep scheduler itself is deliberately
#: excluded — rescheduling identical work must not invalidate the cache.
_TOKEN_PACKAGES = ("core", "rfid", "baselines", "timing", "sketch")
_TOKEN_FILES = (
    "experiments/batch.py",
    "experiments/runner.py",
    "experiments/workloads.py",
    "experiments/dynamics.py",
)


def engine_token_paths() -> list[Path]:
    """Every source file hashed into :func:`engine_version_token`.

    Exposed so tests can assert result-shaping modules — in particular the
    native kernel source embedded in ``rfid/_native.py``, whose threading
    behaviour must invalidate cached sweeps when it changes — are covered
    by the token.
    """
    pkg = Path(__file__).resolve().parents[1]
    paths: list[Path] = []
    for name in _TOKEN_PACKAGES:
        paths.extend(sorted((pkg / name).glob("*.py")))
    paths.extend(pkg / rel for rel in _TOKEN_FILES)
    return paths


@lru_cache(maxsize=1)
def engine_version_token() -> str:
    """Hash of every source file that can influence trial results.

    Editing a kernel, estimator or runner changes the token, which changes
    every cache key, which turns the whole cache into misses — stale entries
    are never trusted, only orphaned (and reclaimable via ``cache clear``).
    """
    pkg = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in engine_token_paths():
        digest.update(str(path.relative_to(pkg)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def cache_enabled() -> bool:
    """Result caching wanted (default) — ``REPRO_CACHE=0`` opts out."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``.repro_cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def _json_default(value):
    """Serialise NumPy scalars/arrays that leak into record extras."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")


def _dumps(value) -> str:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=_json_default
    )


def _encode(payload) -> tuple[dict, str]:
    """A payload's canonical JSON text and the payload parsed back from it.

    One ``dumps`` serves both a miss's return value and its cache entry
    (:meth:`TrialCache.store` splices the text in), so a miss returns
    exactly what a later hit parses from disk.
    """
    text = _dumps(payload)
    return json.loads(text), text


def canonicalise(spec: dict) -> str:
    """Deterministic JSON form of a spec dict (sorted keys, no whitespace)."""
    return _dumps(spec)


# ----------------------------------------------------------------------
# Point specs
# ----------------------------------------------------------------------
def _channel_spec(channel) -> dict | None:
    """JSON form of a channel, or raise for channels we cannot re-create."""
    from ..rfid.channel import NoisyChannel, PerfectChannel

    if channel is None or type(channel) is PerfectChannel:
        return None
    if type(channel) is NoisyChannel:
        return {
            "type": "noisy",
            "miss_prob": float(channel.miss_prob),
            "false_alarm_prob": float(channel.false_alarm_prob),
        }
    raise ValueError(
        f"channel {type(channel).__name__} cannot be expressed as a sweep spec"
    )


def _build_channel(spec: dict | None):
    from ..rfid.channel import NoisyChannel

    if spec is None:
        return None
    if spec["type"] == "noisy":
        return NoisyChannel(
            miss_prob=spec["miss_prob"], false_alarm_prob=spec["false_alarm_prob"]
        )
    raise ValueError(f"unknown channel spec {spec!r}")


@dataclass(frozen=True)
class SweepPoint:
    """One declarative unit of sweep work, identified by its canonical spec.

    Construct through the classmethods (which canonicalise and validate) and
    pass lists of points to :func:`run_sweep`.  Equality and dedupe are by
    ``canonical`` — the exact string the cache key hashes.
    """

    canonical: str

    @property
    def spec(self) -> dict:
        """The decoded parameter record."""
        return json.loads(self.canonical)

    @classmethod
    def from_spec(cls, spec: dict) -> "SweepPoint":
        if spec.get("kind") not in ("bfce_trials", *_EXECUTORS):
            raise ValueError(f"unknown sweep point kind {spec.get('kind')!r}")
        return cls(canonicalise(spec))

    # -- trial points ---------------------------------------------------
    @classmethod
    def bfce_trials(
        cls,
        *,
        distribution: str,
        n: int,
        eps: float = 0.05,
        delta: float = 0.05,
        trials: int,
        base_seed: int = 0,
        pop_seed: int = 0,
        rn_source: str = "tagid",
        rn_seed: int = 0,
        persistence_mode: str = "event",
        config=None,
        channel=None,
        engine: str = "batched",
    ) -> "SweepPoint":
        """``run_bfce_trials`` at one sweep coordinate."""
        from ..core.config import DEFAULT_CONFIG

        if config is not None and config == DEFAULT_CONFIG:
            config = None
        return cls.from_spec(
            {
                "kind": "bfce_trials",
                "estimator": "BFCE",
                "distribution": str(distribution),
                "n": int(n),
                "eps": float(eps),
                "delta": float(delta),
                "trials": int(trials),
                "base_seed": int(base_seed),
                "pop_seed": int(pop_seed),
                "rn_source": str(rn_source),
                "rn_seed": int(rn_seed),
                "persistence_mode": str(persistence_mode),
                "config": None if config is None else asdict(config),
                "channel": _channel_spec(channel),
                "engine": str(engine),
            }
        )

    @classmethod
    def baseline_trials(
        cls,
        estimator: str,
        *,
        distribution: str,
        n: int,
        eps: float = 0.05,
        delta: float = 0.05,
        trials: int,
        base_seed: int = 0,
        pop_seed: int = 0,
        rn_source: str = "tagid",
        rn_seed: int = 0,
        persistence_mode: str = "event",
        engine: str = "batched",
        args: dict | None = None,
    ) -> "SweepPoint":
        """``run_trials`` for one baseline estimator (LOF/ZOE/SRC/HLL)."""
        if estimator not in ("LOF", "ZOE", "SRC", "HLL"):
            raise ValueError(f"unknown baseline estimator {estimator!r}")
        return cls.from_spec(
            {
                "kind": "baseline_trials",
                "estimator": str(estimator),
                "distribution": str(distribution),
                "n": int(n),
                "eps": float(eps),
                "delta": float(delta),
                "trials": int(trials),
                "base_seed": int(base_seed),
                "pop_seed": int(pop_seed),
                "rn_source": str(rn_source),
                "rn_seed": int(rn_seed),
                "persistence_mode": str(persistence_mode),
                "engine": str(engine),
                "args": dict(args) if args else {},
            }
        )

    @classmethod
    def sketch_trials(
        cls,
        *,
        distribution: str,
        n: int,
        p: int,
        n_readers: int,
        overlap: float = 0.2,
        trials: int,
        base_seed: int = 0,
        pop_seed: int = 0,
    ) -> "SweepPoint":
        """Multi-reader sketch-union trials at one sweep coordinate.

        Each trial partitions one cached population over ``n_readers``
        overlapping readers (:meth:`CoverageMap.random_overlap`), builds the
        per-reader HLL sketches through the fused register kernel, unions
        them at a :class:`~repro.rfid.multireader.SketchCoordinator` and
        records the union estimate against the true union size.  Seconds are
        the *metered* report-round air time (deterministic), so cached and
        fresh executions are bit-identical.
        """
        return cls.from_spec(
            {
                "kind": "sketch_trials",
                "estimator": "HLL-union",
                "distribution": str(distribution),
                "n": int(n),
                "p": int(p),
                "n_readers": int(n_readers),
                "overlap": float(overlap),
                "trials": int(trials),
                "base_seed": int(base_seed),
                "pop_seed": int(pop_seed),
            }
        )

    # -- non-trial figure points ---------------------------------------
    @classmethod
    def frame_stats(
        cls,
        *,
        distribution: str,
        n: int,
        pop_seed: int,
        pn: int,
        trials: int,
        w: int,
        k: int,
        base_seed: int,
    ) -> "SweepPoint":
        """Raw 0s/1s counts of repeated BFCE frames (Fig. 3)."""
        return cls.from_spec(
            {
                "kind": "frame_stats",
                "distribution": str(distribution),
                "n": int(n),
                "pop_seed": int(pop_seed),
                "pn": int(pn),
                "trials": int(trials),
                "w": int(w),
                "k": int(k),
                "base_seed": int(base_seed),
            }
        )

    @classmethod
    def f1f2_curve(
        cls, *, n_values: Sequence[int], p: float, eps: float, w: int, k: int
    ) -> "SweepPoint":
        """Analytic f₁/f₂ curves over a cardinality grid (Fig. 5)."""
        return cls.from_spec(
            {
                "kind": "f1f2_curve",
                "n_values": [int(n) for n in n_values],
                "p": float(p),
                "eps": float(eps),
                "w": int(w),
                "k": int(k),
            }
        )

    @classmethod
    def id_histogram(
        cls, *, distribution: str, n: int, seed: int, bins: int
    ) -> "SweepPoint":
        """TagID histogram over [1, 10¹⁵] (Fig. 6)."""
        return cls.from_spec(
            {
                "kind": "id_histogram",
                "distribution": str(distribution),
                "n": int(n),
                "seed": int(seed),
                "bins": int(bins),
            }
        )

    # -- time-series points --------------------------------------------
    @classmethod
    def dynamics_series(
        cls,
        *,
        initial_size: int,
        epochs: int,
        mode: str = "ekf",
        churn_rate: float = 0.0,
        drift: float = 1.0,
        events: Sequence = (),
        trace_seed: int = 0,
        eps: float = 0.05,
        delta: float = 0.05,
        base_seed: int = 0,
        measure_every: int = 1,
        window: int = 16,
        w: int | None = None,
    ) -> "SweepPoint":
        """One tracked time-series over a dynamic population trace.

        Runs :func:`~repro.experiments.dynamics.run_tracking_series` over a
        size-only :class:`~repro.experiments.dynamics.PopulationTrace`:
        per-epoch BFCE measurements come from the analytic engine, so a
        10⁴-epoch series at n = 10⁶ is seconds of work and the whole
        series caches as one content-addressed point.  ``events`` is a
        sequence of ``BatchEvent``s or ``(epoch, delta[, label])`` tuples;
        ``w`` overrides the frame size (``BFCEConfig.scaled(w)``) for
        populations beyond the default design range.
        """
        from .dynamics import TRACKING_MODES, BatchEvent

        if mode not in TRACKING_MODES:
            raise ValueError(f"mode must be one of {TRACKING_MODES}, got {mode!r}")
        canonical_events = []
        for event in events:
            if isinstance(event, BatchEvent):
                canonical_events.append([event.epoch, event.delta, event.label])
            else:
                # NB: local names must not shadow the (eps, delta) kwargs.
                ev_epoch, ev_delta, *ev_label = event
                canonical_events.append(
                    [int(ev_epoch), int(ev_delta), str(ev_label[0]) if ev_label else ""]
                )
        return cls.from_spec(
            {
                "kind": "dynamics_series",
                "initial_size": int(initial_size),
                "epochs": int(epochs),
                "mode": str(mode),
                "churn_rate": float(churn_rate),
                "drift": float(drift),
                "events": canonical_events,
                "trace_seed": int(trace_seed),
                "eps": float(eps),
                "delta": float(delta),
                "base_seed": int(base_seed),
                "measure_every": int(measure_every),
                "window": int(window),
                "w": None if w is None else int(w),
            }
        )

    @classmethod
    def rough_bound(
        cls,
        *,
        c: float,
        distribution: str,
        n: int,
        pop_seed: int,
        trials: int,
        base_seed: int,
    ) -> "SweepPoint":
        """Probe+rough executions counting n̂_low ≤ n holds (Sec. V-B)."""
        return cls.from_spec(
            {
                "kind": "rough_bound",
                "c": float(c),
                "distribution": str(distribution),
                "n": int(n),
                "pop_seed": int(pop_seed),
                "trials": int(trials),
                "base_seed": int(base_seed),
            }
        )


# ----------------------------------------------------------------------
# Content-addressed cache
# ----------------------------------------------------------------------
class TrialCache:
    """Content-addressed on-disk store of sweep-point payloads.

    One JSON file per entry, named by ``SHA-256(token + canonical spec)``.
    Every load re-verifies the entry (format marker, engine token, embedded
    spec); anything that fails to parse or verify — truncation, corruption,
    a hash collision, a stale token — is discarded and recomputed, never
    trusted.  Writes are atomic (tmp + rename) so concurrent workers and
    interrupted runs cannot publish partial entries, and a failed write
    removes its temp file, so ``stats``/``prune``/``clear`` only ever see
    whole entries.

    A miss is serialised once (:func:`_encode`; :meth:`store` splices the
    text in).  The one writer is the core behind every entry point
    (:func:`_through_cache`); the service's coalescer hands it a view that
    holds a tick's stores back until the tick is answered.
    """

    def __init__(self, directory: str | Path | None = None, *, token: str | None = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.token = token if token is not None else engine_version_token()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.rejected = 0
        self.evicted = 0
        self._persisted: dict[str, int] = {}

    def key(self, canonical: str) -> str:
        """Cache key of one canonical spec under the current engine token."""
        return hashlib.sha256(
            (self.token + "\n" + canonical).encode()
        ).hexdigest()

    def _path(self, canonical: str) -> Path:
        return self.directory / f"{self.key(canonical)}.json"

    def load(self, canonical: str):
        """The stored payload for ``canonical``, or ``None`` on miss.

        The probe is one ``os.open`` of a string path, so a miss — every
        lookup of a cold service — costs the key hash and one failing
        system call, with no ``Path`` object or text-mode file built.
        """
        path = f"{self.directory}{os.sep}{self.key(canonical)}.json"
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                chunks = []
                while chunk := os.read(fd, _READ_CHUNK):
                    chunks.append(chunk)
            finally:
                os.close(fd)
        except OSError:
            self.misses += 1
            _metrics.inc("sweep.cache.miss")
            return None
        entry = None
        try:
            entry = json.loads(b"".join(chunks))
        except ValueError:
            pass
        valid = (
            isinstance(entry, dict)
            and entry.get("format") == _FORMAT
            and entry.get("token") == self.token
            and entry.get("spec") == canonical
            and "payload" in entry
        )
        if not valid:
            self.rejected += 1
            self.misses += 1
            _metrics.inc("sweep.cache.miss")
            _metrics.inc("sweep.cache.rejected")
            _log.debug("discarding invalid cache entry %s", path)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        _metrics.inc("sweep.cache.hit")
        try:
            os.utime(path)  # mtime = last use, so prune() evicts true LRU
        except OSError:
            pass
        return entry["payload"]

    def store(self, canonical: str, payload, *, text: str | None = None) -> None:
        """Persist one payload (atomically) under its content key.

        ``text`` is the payload's ``_dumps`` text when the caller already
        has it (:func:`_encode`); the entry is spliced around it, byte for
        byte the ``_dumps`` of the whole entry, without serialising the
        payload again.  The temp name carries the process and the thread
        id, so two engine threads storing one key never share a temp file;
        a write or rename that fails removes its temp file and raises.  The
        directory is created only when a write finds it missing (the first
        store, or after it was removed), not on every store.
        """
        if text is None:
            text = _dumps(payload)
        # _dumps(entry) with sorted keys: format < payload < spec < token.
        data = (
            f'{{"format":{_FORMAT},"payload":{text},'
            f'"spec":{json.dumps(canonical)},"token":{json.dumps(self.token)}}}'
        ).encode()
        path = self._path(canonical)
        tmp = f"{path}.tmp{os.getpid()}.{threading.get_ident()}"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileNotFoundError:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, flags, 0o666)
        try:
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        _metrics.inc("sweep.cache.store")

    @property
    def metrics_path(self) -> Path:
        """Cumulative obs-metrics snapshot for this cache directory.

        Lives under ``meta/`` so the ``*.json`` entry globs of
        :meth:`stats`/:meth:`prune` (and the ``*.json*`` glob of
        :meth:`clear`) never mistake it for a cache entry.
        """
        return self.directory / "meta" / "obs_metrics.json"

    def persist_metrics(self) -> dict:
        """Fold this session's cache counters into the cumulative snapshot.

        Idempotent across repeated calls: only the delta since the last
        persist is folded, so schedulers may call it after every sweep.
        Returns the merged cumulative counters.
        """
        from ..obs import metrics as obs_metrics

        current = {
            "sweep.cache.hit": self.hits,
            "sweep.cache.miss": self.misses,
            "sweep.cache.store": self.stores,
            "sweep.cache.rejected": self.rejected,
            "sweep.cache.evicted": self.evicted,
        }
        delta = {
            name: value - self._persisted.get(name, 0)
            for name, value in current.items()
            if value - self._persisted.get(name, 0)
        }
        if not delta:
            return obs_metrics.load_file(self.metrics_path)["counters"]
        merged = obs_metrics.fold_into_file(self.metrics_path, {"counters": delta})
        self._persisted = current
        return merged["counters"]

    def stats(self) -> dict:
        """Disk + session counters for reporting (``repro-rfid cache stats``)."""
        from ..obs import metrics as obs_metrics

        entries = (
            sorted(self.directory.glob("*.json")) if self.directory.is_dir() else []
        )
        return {
            "directory": str(self.directory),
            "token": self.token,
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "rejected": self.rejected,
                "evicted": self.evicted,
            },
            "cumulative": obs_metrics.load_file(self.metrics_path)["counters"],
        }

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json*"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        self.evicted += removed
        _metrics.inc("sweep.cache.evicted", removed)
        return removed

    def prune(
        self, *, max_bytes: int | None = None, max_age_days: float | None = None
    ) -> dict:
        """Evict entries by age then LRU until the cache fits the bounds.

        ``max_age_days`` drops every entry whose mtime is older than the
        cutoff; ``max_bytes`` then evicts least-recently-used entries
        (:meth:`load` touches mtime on every hit) until the total size fits.
        Either bound may be ``None`` (no constraint).  Returns a summary dict
        with ``removed``/``kept`` entry counts and the surviving ``bytes``.
        """
        import time

        entries: list[tuple[float, int, Path]] = []
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest (least recently used) first
        removed = 0
        survivors: list[tuple[float, int, Path]] = []
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            for entry in entries:
                if entry[0] < cutoff:
                    try:
                        entry[2].unlink()
                        removed += 1
                    except OSError:
                        survivors.append(entry)
                else:
                    survivors.append(entry)
            entries = survivors
        if max_bytes is not None:
            total = sum(size for _, size, _ in entries)
            idx = 0
            while total > max_bytes and idx < len(entries):
                mtime, size, path = entries[idx]
                idx += 1
                try:
                    path.unlink()
                    removed += 1
                    total -= size
                except OSError:
                    pass
            entries = entries[idx:]
        self.evicted += removed
        _metrics.inc("sweep.cache.evicted", removed)
        return {
            "removed": removed,
            "kept": len(entries),
            "bytes": sum(size for _, size, _ in entries),
        }


# ----------------------------------------------------------------------
# Executors (module-level: fork-picklable worker entry points)
# ----------------------------------------------------------------------
def _spec_population(spec: dict):
    """Worker-side population rebuild sharing the read-only cached IDs."""
    from .workloads import population

    return population(
        spec["distribution"],
        spec["n"],
        seed=spec["pop_seed"],
        rn_source=spec["rn_source"],
        rn_seed=spec["rn_seed"],
        persistence_mode=spec["persistence_mode"],
        copy=False,
    )


def _record_payload(records) -> dict:
    """JSON-ready payload of a TrialRecord list."""
    return {
        "records": [
            {
                "estimator": r.estimator,
                "n_true": r.n_true,
                "n_hat": r.n_hat,
                "error": r.error,
                "seconds": r.seconds,
                "seed": r.seed,
                "eps": r.eps,
                "delta": r.delta,
                "distribution": r.distribution,
                "extra": r.extra,
            }
            for r in records
        ]
    }


def records_from_payload(payload: dict):
    """Rebuild the ``TrialRecord`` list of a trial-point payload."""
    from .runner import TrialRecord

    return [TrialRecord(**fields) for fields in payload["records"]]


def _exec_bfce_runs(specs: Sequence[dict]) -> tuple[list, list[int]]:
    """Execute ``bfce_trials`` specs together: one drive per drive key.

    Analytic specs and batched perfect-channel specs go through
    :func:`~repro.experiments.runner.run_bfce_runs`, which drives every
    reader of the specs sharing a config, a channel and a persistence mode
    (analytic) or a population key and a config (batched) at once, each
    reader planned with its own spec's (ε, δ).  Serial-engine specs and
    specs on a channel unsound for batching run alone.  Returns one outcome
    per spec — its payload, or the exception it raised — and the readers of
    each drive.
    """
    from ..core.bfce import batching_is_sound
    from ..core.config import DEFAULT_CONFIG, BFCEConfig
    from .runner import BFCERun, run_bfce_runs, run_bfce_trials

    outcomes: list = [None] * len(specs)
    drives: list[int] = []
    runs, merged = [], []
    for i, spec in enumerate(specs):
        try:
            config = DEFAULT_CONFIG if spec["config"] is None else BFCEConfig(**spec["config"])
            channel = _build_channel(spec["channel"])
            run = dict(
                trials=spec["trials"],
                base_seed=spec["base_seed"],
                eps=spec["eps"],
                delta=spec["delta"],
                distribution=spec["distribution"],
                config=config,
            )
            if spec["engine"] == "analytic":
                # The analytic engine never materialises an ID array — n = 10⁸
                # sweep points would otherwise cost ~800 MB of tagIDs per worker.
                runs.append(
                    BFCERun(
                        n=spec["n"], channel=channel,
                        persistence_mode=spec["persistence_mode"], **run,
                    )
                )
            elif spec["engine"] == "batched" and batching_is_sound(channel):
                pop = _spec_population(spec)
                runs.append(BFCERun(n=pop.size, population=pop, **run))
            else:
                drives.append(spec["trials"])
                records = run_bfce_trials(
                    _spec_population(spec), engine=spec["engine"], channel=channel, **run
                )
                outcomes[i] = _record_payload(records)
                continue
            merged.append(i)
        except Exception as exc:  # noqa: BLE001 — this spec's outcome
            outcomes[i] = exc
    records, merged_drives = run_bfce_runs(runs)
    drives.extend(merged_drives)
    for i, outcome in zip(merged, records):
        outcomes[i] = outcome if isinstance(outcome, Exception) else _record_payload(outcome)
    return outcomes, drives


def _exec_baseline_trials(spec: dict) -> dict:
    from ..baselines import HLL, LOF, SRC, ZOE
    from ..core.accuracy import AccuracyRequirement
    from .runner import run_trials

    requirement = AccuracyRequirement(spec["eps"], spec["delta"])
    factory = {"LOF": LOF, "ZOE": ZOE, "SRC": SRC, "HLL": HLL}[spec["estimator"]]
    estimator = factory(requirement=requirement, **spec["args"])
    records = run_trials(
        estimator,
        spec["n"] if spec["engine"] == "analytic" else _spec_population(spec),
        trials=spec["trials"],
        base_seed=spec["base_seed"],
        distribution=spec["distribution"],
        engine=spec["engine"],
    )
    return _record_payload(records)


def _exec_sketch_trials(spec: dict) -> dict:
    from ..rfid.multireader import CoverageMap, sketch_union_estimate
    from ..sketch.hll import relative_error_bound
    from .runner import TrialRecord
    from .workloads import population

    pop = population(spec["distribution"], spec["n"], seed=spec["pop_seed"], copy=False)
    bound = relative_error_bound(spec["p"])
    records = []
    for t in range(spec["trials"]):
        trial_seed = spec["base_seed"] + t
        coverage = CoverageMap.random_overlap(
            pop.tag_ids,
            spec["n_readers"],
            overlap=spec["overlap"],
            seed=trial_seed + 0x5E7C,
        )
        result = sketch_union_estimate(coverage, p=spec["p"], seed=trial_seed)
        n_true = coverage.union_size
        records.append(
            TrialRecord(
                estimator="HLL-union",
                n_true=n_true,
                n_hat=result.n_hat,
                error=result.relative_error(n_true),
                # Metered air time, not wall-clock: cache hits must replay
                # the identical payload byte-for-byte.
                seconds=result.wallclock_seconds,
                seed=trial_seed,
                eps=bound,
                delta=0.32,  # the bound is a 1-sigma std error, ~68% coverage
                distribution=spec["distribution"],
                extra={
                    "engine": "sketch",
                    "p": spec["p"],
                    "n_readers": spec["n_readers"],
                    "overlap": spec["overlap"],
                },
            )
        )
    return _record_payload(records)


def _exec_frame_stats(spec: dict) -> dict:
    import numpy as np

    from ..rfid.frames import run_bfce_frame
    from .workloads import population

    pop = population(spec["distribution"], spec["n"], seed=spec["pop_seed"], copy=False)
    zeros: list[int] = []
    ones: list[int] = []
    for t in range(spec["trials"]):
        rng = np.random.default_rng(spec["base_seed"] + 1000 * t + spec["n"] % 997)
        seeds = rng.integers(0, 1 << 32, size=spec["k"], dtype=np.uint64)
        frame = run_bfce_frame(pop, w=spec["w"], seeds=seeds, p_n=spec["pn"])
        zeros.append(frame.zeros)
        ones.append(frame.ones)
    return {"zeros": zeros, "ones": ones}


def _exec_f1f2_curve(spec: dict) -> dict:
    import numpy as np

    from ..core.accuracy import f1, f2

    n_arr = np.asarray(spec["n_values"], dtype=np.float64)
    lo = f1(n_arr, spec["w"], spec["k"], spec["p"], spec["eps"])
    hi = f2(n_arr, spec["w"], spec["k"], spec["p"], spec["eps"])
    return {"f1": [float(v) for v in lo], "f2": [float(v) for v in hi]}


def _exec_id_histogram(spec: dict) -> dict:
    import numpy as np

    from ..rfid.ids import make_ids

    edges = np.linspace(1, 1e15, spec["bins"] + 1)
    ids = make_ids(spec["distribution"], spec["n"], spec["seed"])
    counts, _ = np.histogram(ids.astype(np.float64), bins=edges)
    return {"counts": [int(c) for c in counts]}


def _exec_dynamics_series(spec: dict) -> dict:
    from ..core.config import DEFAULT_CONFIG, BFCEConfig
    from .dynamics import BatchEvent, PopulationTrace, run_tracking_series

    trace = PopulationTrace(
        initial_size=spec["initial_size"],
        churn_rate=spec["churn_rate"],
        drift=spec["drift"],
        events=tuple(
            BatchEvent(epoch, delta, label) for epoch, delta, label in spec["events"]
        ),
        seed=spec["trace_seed"],
        track_ids=False,  # the analytic measurement never needs tagIDs
    )
    config = DEFAULT_CONFIG if spec["w"] is None else BFCEConfig.scaled(spec["w"])
    series = run_tracking_series(
        trace,
        epochs=spec["epochs"],
        mode=spec["mode"],
        eps=spec["eps"],
        delta=spec["delta"],
        base_seed=spec["base_seed"],
        measure_every=spec["measure_every"],
        window=spec["window"],
        config=config,
    )
    return {
        "summary": series.summary(),
        "epoch": [s.epoch for s in series.steps],
        "n_true": [s.n_true for s in series.steps],
        "measurement": [s.measurement for s in series.steps],
        "estimate": [s.estimate for s in series.steps],
        "variance": [s.variance for s in series.steps],
        "innovation": [s.innovation for s in series.steps],
        "air_seconds": [s.air_seconds for s in series.steps],
    }


def _exec_rough_bound(spec: dict) -> dict:
    from ..core.config import BFCEConfig
    from ..core.probe import probe_persistence
    from ..core.rough import rough_estimate
    from ..rfid.reader import Reader
    from .workloads import population

    config = BFCEConfig(c=spec["c"])
    pop = population(spec["distribution"], spec["n"], seed=spec["pop_seed"], copy=False)
    holds = 0
    for t in range(spec["trials"]):
        reader = Reader(pop, seed=spec["base_seed"] + 577 * t + 1)
        probe = probe_persistence(reader, config)
        rough = rough_estimate(reader, probe.pn, config)
        holds += int(rough.n_low <= spec["n"])
    return {"holds": holds}


_EXECUTORS: dict[str, Callable[[dict], dict]] = {
    "baseline_trials": _exec_baseline_trials,
    "sketch_trials": _exec_sketch_trials,
    "frame_stats": _exec_frame_stats,
    "f1f2_curve": _exec_f1f2_curve,
    "id_histogram": _exec_id_histogram,
    "rough_bound": _exec_rough_bound,
    "dynamics_series": _exec_dynamics_series,
}


def _execute_canonical(canonicals: Sequence[str]) -> tuple[list, list[int]]:
    """The one executor: run canonical specs in the calling process.

    All ``bfce_trials`` specs execute together (:func:`_exec_bfce_runs`:
    one lockstep drive per analytic config, channel and persistence mode,
    and per batched config and population key, each reader with its own
    (ε, δ)) and any other kind alone.  Returns one outcome per spec — its
    payload, or the exception it raised, so a failing spec fails only
    itself — and the readers of each engine drive.

    It is also the pool workers' entry point (one list per task), so under
    tracing the metrics snapshot is flushed to the sidecar afterwards —
    forked pool children exit via ``os._exit``, so an ``atexit`` flush
    would never run.
    """
    specs = [json.loads(canonical) for canonical in canonicals]
    trials = [i for i, spec in enumerate(specs) if spec["kind"] == "bfce_trials"]
    outcomes: list = [None] * len(specs)
    drives: list[int] = []
    if trials:
        with _trace.span("sweep.point", kind="bfce_trials", points=len(trials)):
            computed, drives = _exec_bfce_runs([specs[i] for i in trials])
        for i, outcome in zip(trials, computed):
            outcomes[i] = outcome
    for i, spec in enumerate(specs):
        if spec["kind"] != "bfce_trials":
            try:
                with _trace.span("sweep.point", kind=spec["kind"]):
                    outcomes[i] = _EXECUTORS[spec["kind"]](spec)
            except Exception as exc:  # noqa: BLE001 — this spec's outcome
                outcomes[i] = exc
    _trace.flush()
    return outcomes, drives


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
def _through_cache(
    canonicals: Iterable[str],
    cache,
    execute: Callable[[list[str]], tuple[list, list[int]]],
    *,
    persist: bool = False,
) -> tuple[dict[str, tuple], list[int]]:
    """Lookup → execute → encode → store: the one path of every entry point.

    ``cache=None`` means the default on-disk cache unless ``REPRO_CACHE=0``
    is set.  Each unique canonical is looked up once, ``execute(missing)``
    returns one outcome per miss (its payload or the exception it raised)
    and the readers of its engine drives, and every payload is encoded once
    (:func:`_encode`) and stored.  ``persist`` then folds the cache's
    counters into its cumulative snapshot.  Returns ``{canonical:
    (payload or exception, cache_hit)}`` and the drives.
    """
    if cache is None and cache_enabled():
        cache = TrialCache()
    found: dict[str, tuple | None] = {}
    for canonical in canonicals:
        if canonical not in found:
            payload = cache.load(canonical) if cache is not None else None
            found[canonical] = None if payload is None else (payload, True)
    missing = [canonical for canonical, hit in found.items() if hit is None]
    drives: list[int] = []
    if missing:
        outcomes, drives = execute(missing)
        for canonical, outcome in zip(missing, outcomes):
            if not isinstance(outcome, Exception):
                outcome, text = _encode(outcome)
                if cache is not None:
                    cache.store(canonical, outcome, text=text)
            found[canonical] = (outcome, False)
    if persist and cache is not None:
        cache.persist_metrics()
    return found, drives


def run_sweep(
    points: Iterable[SweepPoint],
    *,
    max_workers: int | None = None,
    cache: TrialCache | None = None,
) -> list[dict]:
    """Execute sweep points with dedupe, caching and process fan-out.

    Returns one payload dict per input point, **aligned to input order**
    (duplicate points share one execution and one payload).  Misses run
    through the one executor, :func:`_execute_canonical`: in the calling
    thread for ``0``/``1`` workers (or a single miss), else one miss per
    task across a ``ProcessPoolExecutor`` — ``max_workers=None`` uses the
    CPU count — whose ``pool.map`` preserves submission order, so results
    are deterministic for any worker count.  Either way every point that
    succeeded is stored, then the first point that raised, in input
    order, raises here.

    ``cache=None`` uses the default on-disk cache unless ``REPRO_CACHE=0``
    is set; pass an explicit :class:`TrialCache` to control the directory or
    engine token (the benchmarks and tests do).
    """
    point_list = list(points)

    def execute(missing: list[str]) -> tuple[list, list[int]]:
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        workers = min(workers, len(missing))
        if workers <= 1:
            return _execute_canonical(missing)
        # Split the native kernel-thread budget across workers so process
        # fan-out and kernel threads don't multiply into workers × cores
        # oversubscription (bit-identity unaffected).
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_native.divide_thread_budget,
            initargs=(workers,),
        ) as pool:
            results = list(pool.map(_execute_canonical, [[c] for c in missing]))
        # Fold the pool workers' sidecar traces (spans + their final metrics
        # snapshots) back into the parent's trace file.
        _trace.merge_worker_traces()
        return (
            [outcome for outcomes, _ in results for outcome in outcomes],
            [readers for _, drives in results for readers in drives],
        )

    with _trace.span("sweep.run", points=len(point_list)) as sp:
        found, _ = _through_cache(
            (point.canonical for point in point_list), cache, execute, persist=True
        )
        if sp:
            sp.set(unique=len(found), misses=sum(not hit for _, hit in found.values()))
    payloads = [found[point.canonical][0] for point in point_list]
    for payload in payloads:
        if isinstance(payload, Exception):
            raise payload
    return payloads


def run_record_sweep(
    points: Iterable[SweepPoint],
    *,
    max_workers: int | None = None,
    cache: TrialCache | None = None,
) -> list[list]:
    """:func:`run_sweep` for trial points: one ``TrialRecord`` list per point."""
    return [
        records_from_payload(payload)
        for payload in run_sweep(points, max_workers=max_workers, cache=cache)
    ]


def execute_points_inline(
    points: Sequence[SweepPoint],
    *,
    cache: TrialCache | None = None,
) -> tuple[list[tuple[dict | Exception, bool]], list[int]]:
    """Execute sweep points in the calling thread, through the cache.

    The service's tick path: the misses run through
    :func:`_execute_canonical` — all ``bfce_trials`` misses together, one
    lockstep drive per drive key, and any other kind alone.  No scheduler
    span, no metrics fold.  Returns per point ``(payload, cache_hit)`` —
    the payload is the exception when its point raised, and a failing
    point fails only itself — and the readers of each engine drive.  Payloads are JSON-normalised like
    :func:`run_sweep`'s, so a served response is bit-identical whether it
    came from the cache, this call, or a full sweep.
    """
    found, drives = _through_cache(
        (point.canonical for point in points), cache, _execute_canonical
    )
    return [found[point.canonical] for point in points], drives


def execute_point_inline(
    point: SweepPoint,
    *,
    cache: TrialCache | None = None,
) -> tuple[dict, bool]:
    """Execute one sweep point in the calling thread, through the cache.

    The one-point case of :func:`execute_points_inline`; a point that
    raises raises here.  Returns ``(payload, cache_hit)``.
    """
    [(payload, hit)], _ = execute_points_inline([point], cache=cache)
    if isinstance(payload, Exception):
        raise payload
    return payload, hit


def cached_call(spec: dict, compute: Callable[[], dict], *, cache: TrialCache | None = None):
    """Cache an arbitrary deterministic computation under a spec dict.

    For point kinds that cannot be shipped to a worker process (e.g. the
    validation checks, whose population is an in-memory object fingerprinted
    into ``spec``): looks ``spec`` up in the cache, computes on miss, and
    round-trips the payload through JSON either way so hit and miss results
    are identical.
    """
    canonical = canonicalise(spec)
    found, _ = _through_cache(
        [canonical], cache, lambda missing: ([compute()], []), persist=True
    )
    return found[canonical][0]
