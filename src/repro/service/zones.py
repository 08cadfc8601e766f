"""Reader zones: per-zone estimation config and live tracker state.

A *zone* models one reader's coverage area: a (simulated) tag population
of cardinality ``n`` plus the estimation parameters a deployment would
pin per site — accuracy requirement (ε, δ), engine tier, frame scaling
for very large populations (``BFCEConfig.scaled``), persistence mode and
seeding.  The :class:`ZoneConfig` is a frozen *value*: two zones with
equal configs produce byte-identical engine specs, which is what lets the
coalescer batch their concurrent requests into one engine call and the
content-addressed sweep cache serve their repeats.

A :class:`Zone` adds the mutable serving state: an auto-incrementing seed
cursor (concurrent auto-seeded requests get contiguous seeds — exactly
the shape the lockstep batch engines amortise best) and an optional
EKF / sliding-window tracker (:mod:`repro.core.tracking`) fed by ``track``
requests, so a zone can follow a churning population across rounds.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

from ..core.config import DEFAULT_CONFIG, BFCEConfig
from ..core.estmath import max_estimable_cardinality
from ..core.tracking import (
    EKFTracker,
    SlidingWindowTracker,
    TrackerUpdate,
    relative_measurement_std,
)
from ..experiments.sweep import SweepPoint, canonicalise
from ..obs import metrics as _metrics
from ..obs.live import zone_metric
from .protocol import ServiceError

__all__ = ["Zone", "ZoneConfig", "ZoneRegistry"]

_ENGINES = ("analytic", "batched", "serial")
_TRACKERS = (None, "ekf", "window")


@dataclass(frozen=True)
class ZoneConfig:
    """Frozen estimation configuration of one reader zone.

    Attributes
    ----------
    n:
        True cardinality of the zone's (simulated) population, at most the
        estimable cap γ_max·w of the zone's frame (~1.94e7 on the default
        grid; :func:`~repro.core.estmath.max_estimable_cardinality`).
    distribution:
        TagID distribution (T1/T2/T3/T4); labels records and — for the
        event engines — selects the generated ID workload.
    eps, delta:
        The zone's accuracy requirement.
    engine:
        Engine tier serving this zone: ``analytic`` (O(w)/frame,
        n-independent — the production tier), ``batched`` or ``serial``
        (event engines; materialise the tagID array through the budgeted
        population cache).
    w:
        Optional frame-size override → ``BFCEConfig.scaled(w)`` for
        populations beyond the default design range.  Analytic tier only
        (the event tag hash implements the 1/1024 grid exclusively).
    persistence_mode, pop_seed, rn_source, rn_seed:
        Population/protocol knobs, as in the sweep specs.
    tracker:
        ``None`` (stateless zone), ``"ekf"`` or ``"window"`` — the state
        fed by ``track`` requests.
    drift, churn_rate, window:
        The tracker's process model (ignored without a tracker).
    """

    n: int
    distribution: str = "T1"
    eps: float = 0.05
    delta: float = 0.05
    engine: str = "analytic"
    w: int | None = None
    persistence_mode: str = "event"
    pop_seed: int = 0
    rn_source: str = "tagid"
    rn_seed: int = 0
    tracker: str | None = None
    drift: float = 1.0
    churn_rate: float = 0.0
    window: int = 16

    def __post_init__(self) -> None:
        if int(self.n) < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        if not 0 < self.eps < 1 or not 0 < self.delta < 1:
            raise ValueError("eps and delta must be in (0, 1)")
        if self.w is not None:
            if self.engine != "analytic":
                raise ValueError(
                    "a scaled frame (w override) requires engine='analytic' — "
                    "the event tag hash only implements the default grid"
                )
            BFCEConfig.scaled(int(self.w))  # validates the frame size
        cfg = self.bfce_config()
        cap = max_estimable_cardinality(cfg.w, cfg.pn_denom, cfg.k)
        if int(self.n) > cap:
            # Beyond γ_max·w the accurate frame can stay all-busy at pn_min.
            raise ValueError(
                f"n={self.n} exceeds the estimable cap {cap:.4g} of a "
                f"w={cfg.w} frame; set a larger w (analytic engine)"
            )
        if self.tracker not in _TRACKERS:
            raise ValueError(f"tracker must be one of {_TRACKERS}, got {self.tracker!r}")
        if self.drift <= 0:
            raise ValueError("drift must be positive")
        if self.churn_rate < 0:
            raise ValueError("churn_rate must be non-negative")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: dict) -> "ZoneConfig":
        """Build from a request's ``config`` object; 400 on junk."""
        if not isinstance(raw, dict):
            raise ServiceError(400, "zone config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ServiceError(400, f"unknown zone config field(s): {unknown}")
        if "n" not in raw:
            raise ServiceError(400, "zone config requires 'n'")
        try:
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, f"invalid zone config: {exc}") from exc

    def to_dict(self) -> dict:
        """JSON-ready form (the inverse of :meth:`from_dict`)."""
        return asdict(self)

    def bfce_config(self) -> BFCEConfig:
        """The protocol constants this zone runs with."""
        return DEFAULT_CONFIG if self.w is None else BFCEConfig.scaled(int(self.w))

    def _seedless_spec(self) -> str:
        """Canonical ``bfce_trials`` spec of this zone without its seeds.

        Built once per config (the loop asks for the group key on every
        request, the engine thread for a point on every run) and kept
        outside the dataclass fields, so it never enters equality, hashing
        or :meth:`to_dict`.
        """
        text = self.__dict__.get("_group_key")
        if text is None:
            spec = SweepPoint.bfce_trials(
                distribution=self.distribution,
                n=self.n,
                eps=self.eps,
                delta=self.delta,
                trials=0,
                pop_seed=self.pop_seed,
                rn_source=self.rn_source,
                rn_seed=self.rn_seed,
                persistence_mode=self.persistence_mode,
                config=None if self.w is None else self.bfce_config(),
                engine=self.engine,
            ).spec
            del spec["base_seed"], spec["trials"]
            text = canonicalise(spec)
            object.__setattr__(self, "_group_key", text)
        return text

    def point(self, *, base_seed: int, trials: int) -> SweepPoint:
        """The sweep point executing ``trials`` contiguous seeds for this zone.

        This is the bridge into the existing substrate: the point's
        canonical spec is exactly a ``bfce_trials`` sweep spec, so the
        service inherits the engine tiers, the content-addressed cache and
        the bit-identity contract without a parallel execution path.  Only
        the two seed fields are filled in: with sorted keys ``base_seed``
        comes first and ``trials`` last.
        """
        return SweepPoint(
            f'{{"base_seed":{int(base_seed)},{self._seedless_spec()[1:-1]},'
            f'"trials":{int(trials)}}}'
        )

    def group_key(self) -> str:
        """Coalescing key: the zone's engine spec without its seeds.

        Requests from zones with equal group keys may legally share one
        batched engine call (their specs differ only in seed); tracker
        fields are not part of the spec — tracking is post-processing on
        the estimate.
        """
        return self._seedless_spec()

    def make_tracker(self):
        """A fresh tracker instance per the config (None when stateless)."""
        if self.tracker == "ekf":
            return EKFTracker(drift=self.drift, churn_rate=self.churn_rate)
        if self.tracker == "window":
            return SlidingWindowTracker(
                window=self.window, drift=self.drift, churn_rate=self.churn_rate
            )
        return None


@dataclass
class Zone:
    """One served zone: config + mutable serving state (loop-thread only)."""

    name: str
    config: ZoneConfig
    created_wall: float = field(default_factory=time.time)
    next_seed: int = 0
    requests: int = 0
    estimates: int = 0
    tracker_epoch: int = 0
    last_innovation_z: float | None = None
    _tracker: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._tracker = self.config.make_tracker()

    def allocate_seed(self) -> int:
        """Next auto seed (contiguous, so same-tick requests batch)."""
        seed = self.next_seed
        self.next_seed += 1
        return seed

    def track(self, n_hat: float) -> TrackerUpdate:
        """Fuse one round's estimate into the zone tracker.

        The measurement variance comes from the round's (ε, δ) guarantee
        read as a Gaussian (``relative_measurement_std``), exactly as the
        offline :func:`~repro.experiments.dynamics.run_tracking_series`
        driver does.  Must be called from the event-loop thread; same-tick
        track requests fold in ascending seed order (the coalescer
        resolves futures in that order), so replays are deterministic.
        """
        if self._tracker is None:
            raise ServiceError(
                400, f"zone {self.name!r} has no tracker (config tracker=null)"
            )
        rel = relative_measurement_std(self.config.eps, self.config.delta)
        variance = (rel * n_hat) ** 2
        update = self._tracker.advance(n_hat, variance=max(variance, 1e-12))
        self.tracker_epoch += 1
        # Innovation z-score: |prediction residual| in units of the round's
        # measurement sigma — the SLO layer's drift signal (a healthy zone
        # sits at z ≈ O(1); sustained large z means the population moved
        # faster than the tracker's process model allows).
        sigma = max(rel * max(abs(n_hat), 1.0), 1e-9)
        self.last_innovation_z = abs(update.innovation) / sigma
        _metrics.observe(
            zone_metric(self.name, "innovation_z"), self.last_innovation_z
        )
        return update

    def stats(self) -> dict:
        """JSON-ready zone stats for ``zone.list``/``zone.get``."""
        return {
            "name": self.name,
            "config": self.config.to_dict(),
            "requests": self.requests,
            "estimates": self.estimates,
            "next_seed": self.next_seed,
            "tracker_epoch": self.tracker_epoch,
            "tracker_estimate": (
                None if self._tracker is None else self._tracker.estimate
            ),
            "last_innovation_z": self.last_innovation_z,
        }


class ZoneRegistry:
    """Name → :class:`Zone` map with request-path accessors.

    Mutated only from the event-loop thread (the server handles every
    ``zone.*`` op inline), so no locking is needed.
    """

    def __init__(self, zones: dict[str, ZoneConfig] | None = None) -> None:
        self._zones: dict[str, Zone] = {}
        for name, config in (zones or {}).items():
            self.put(name, config)

    def __len__(self) -> int:
        return len(self._zones)

    def __contains__(self, name: str) -> bool:
        return name in self._zones

    def get(self, name) -> Zone:
        """The named zone; 404 :class:`ServiceError` when absent."""
        if not isinstance(name, str) or name not in self._zones:
            raise ServiceError(404, f"unknown zone {name!r}")
        return self._zones[name]

    def put(self, name: str, config: ZoneConfig) -> Zone:
        """Create or replace a zone (replacement resets serving state)."""
        if not isinstance(name, str) or not name:
            raise ServiceError(400, "zone name must be a non-empty string")
        zone = Zone(name=name, config=config)
        self._zones[name] = zone
        return zone

    def names(self) -> list[str]:
        return sorted(self._zones)

    def stats(self) -> list[dict]:
        return [self._zones[name].stats() for name in self.names()]
