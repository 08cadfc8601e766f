"""Analytic occupancy engine: O(w)-per-frame slot sampling without tags.

Every event engine in this repo — serial, batched, native — is O(n·k) per
frame: it hashes each of the ``n`` tags into each frame.  That is the right
model when bit-identity to the serial protocol matters, but it caps
practical sweeps near n ≈ 10⁶ even with the fused C kernels.  This module
samples each frame's *slot-response-count vector* directly from its exact
distribution instead:

1. the number of responding transmissions is a Binomial draw —
   ``B ~ Binomial(n·k, p)`` in ``"event"`` persistence mode (each of the
   ``n·k`` (tag, hash-index) events responds independently), or
   ``B = k · Binomial(n, p)`` in ``"static"`` mode (each tag decides once
   and responds in all ``k`` slots);
2. a truncated frame observes each ball independently with probability
   ``observe_slots / w``, so the observed total is a second Binomial;
3. the observed balls are i.i.d. uniform over the observed slots, so the
   count vector is their Multinomial scatter — realised as a SplitMix64
   counter stream (``mix64(scatter_seed + i) mod slots``) followed by a
   bincount, which the optional C kernel
   (:func:`repro.rfid._native.analytic_scatter_native`) reproduces
   bit-identically; when balls pile far above the slot count (heavily
   overloaded probe frames at n = 10⁸) the same distribution is drawn as
   one uniform Multinomial instead, keeping every frame O(slots).

The result is **exact in distribution** under the ideal-hash assumption the
estimators already make, but *not* bit-identical to the event engines: the
same seed produces a different (equally valid) protocol execution.  The
statistical-equivalence suite (``tests/experiments/test_analytic_engine.py``)
pins the two engines against each other with χ²/KS tests.

``"rn_window"`` persistence is sampled with its per-event *marginal*
(Bernoulli(p), i.e. the event model): the mode's cross-hash-index
correlations — all k events of a tag share one sliding RN window — are not
reproduced analytically.  A debug log marks the approximation.

:class:`AnalyticReader` wraps the sampler behind the exact
:class:`~repro.rfid.reader.Reader` air interface (``fresh_seeds`` /
``broadcast`` / ``sense_frame`` / ledger metering), so the BFCE probe,
rough and accurate phases run unchanged on top of it.  The module also
provides the two analytic primitives the baseline family needs:
:func:`sample_lottery_first_idle` (LOF / rough phases: a Multinomial over
the geometric bucket distribution) and :func:`sample_aloha_empty` (SRC's
join test: Binomial joiners scattered into a balanced frame).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..obs import metrics as _metrics
from ..timing.accounting import TimeLedger
from ..timing.c1g2 import C1G2Timing, DEFAULT_TIMING
from . import _native
from .channel import Channel, PerfectChannel
from .frames import FrameResult
from .hashing import mix64
from .protocol import MessageSpec
from .tags import PERSISTENCE_DENOM, PERSISTENCE_MODES

__all__ = [
    "AnalyticReader",
    "geometric_pvals",
    "sample_aloha_empty",
    "sample_lottery_first_idle",
    "sample_slot_counts",
    "scatter_counts",
]

_log = logging.getLogger(__name__)

#: NumPy-path chunk of scatter indices (two uint64 buffers stay cache-sized).
_SCATTER_CHUNK = 1 << 19

#: Balls-per-slot ratio above which one Multinomial draw (O(slots)) beats
#: the per-ball scatter (O(balls)).  Saturated frames — a 32-slot probe
#: round against n = 10⁸ tags sees ~10⁶ responses — would otherwise make
#: the "analytic" engine linear in n again.
_MULTINOMIAL_CUTOVER = 32


def scatter_counts(scatter_seed: int, balls: int, n_slots: int) -> np.ndarray:
    """Occupancy counts of ``balls`` i.i.d. uniform balls over ``n_slots`` slots.

    Ball ``i`` (1-based) lands in slot ``mix64(scatter_seed + i) mod n_slots``
    — a counter-mode SplitMix64 stream, so the scatter is a pure function of
    ``scatter_seed`` and the NumPy and C paths are bit-identical (int32
    counts: the per-ball increment loop is latency-bound, so the narrower
    rows halve its cache footprint).  For the power-of-two slot counts BFCE
    uses the modulo is exact; for arbitrary ``n_slots`` (SRC frames) the
    64-bit-modulo bias is ≤ n_slots/2⁶⁴, identical to the repo's
    :func:`~repro.rfid.hashing.uniform_hash`.
    """
    if n_slots <= 0:
        raise ValueError("n_slots must be positive")
    if balls < 0:
        raise ValueError("balls must be non-negative")
    if _native.get_lib() is not None:
        # Meters itself as ``kernel.native.analytic_scatter``, per call or
        # per round (:func:`~repro.rfid._native.scatter_round`).
        return _native.analytic_scatter_native(scatter_seed, balls, n_slots)
    _metrics.inc("kernel.numpy.analytic_scatter")
    counts = np.zeros(n_slots, dtype=np.int32)
    mod = np.uint64(n_slots)
    with np.errstate(over="ignore"):
        for start in range(1, balls + 1, _SCATTER_CHUNK):
            stop = min(start + _SCATTER_CHUNK, balls + 1)
            ctr = np.uint64(scatter_seed) + np.arange(start, stop, dtype=np.uint64)
            idx = (mix64(ctr) % mod).astype(np.int64)
            counts += np.bincount(idx, minlength=n_slots)
    return counts


def _occupancy_counts(
    rng: np.random.Generator, balls: int, n_slots: int
) -> np.ndarray:
    """Occupancy vector of ``balls`` uniform balls, by the cheaper route.

    Below the cutover the counter-stream scatter wins (and exercises the
    native kernel); above it — saturated frames whose ball count scales
    with n — one uniform Multinomial draw realises the identical
    distribution in O(n_slots).
    """
    if balls > _MULTINOMIAL_CUTOVER * n_slots:
        pvals = np.full(n_slots, 1.0 / n_slots)
        return rng.multinomial(balls, pvals).astype(np.int32)
    scatter_seed = int(rng.integers(0, 1 << 64, dtype=np.uint64))
    return scatter_counts(scatter_seed, balls, n_slots)


def sample_slot_counts(
    rng: np.random.Generator,
    *,
    n: int,
    k: int,
    p_n: int,
    w: int,
    observe_slots: int | None = None,
    mode: str = "event",
    pn_denom: int = PERSISTENCE_DENOM,
) -> np.ndarray:
    """Sample one BFCE frame's observed slot-response counts in O(w).

    Draws from the exact distribution of
    :func:`repro.rfid.frames.slot_response_counts` truncated to the observed
    prefix, under ideal hashing: a Binomial response total, a Binomial
    truncation thinning, and a uniform Multinomial scatter.  The scatter is
    per-ball below ``_MULTINOMIAL_CUTOVER`` balls per slot and one
    Multinomial draw above it, so the cost is O(observe_slots) independent
    of n even for frames saturated far beyond their slot count.

    Parameters mirror the event kernel; ``mode`` is the population's
    persistence mode (``"rn_window"`` falls back to its event marginal, see
    the module docstring).  ``pn_denom`` sets the persistence-grid
    resolution (p = p_n/pn_denom); unlike the event tag hash — fixed at
    the paper's 1/1024 grid — the analytic sampler accepts any grid, which
    scale configs exploit (:meth:`repro.core.config.BFCEConfig.scaled`).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k <= 0:
        raise ValueError("k must be positive")
    if mode not in PERSISTENCE_MODES:
        raise ValueError(f"mode must be one of {PERSISTENCE_MODES}, got {mode!r}")
    obs = w if observe_slots is None else int(observe_slots)
    if not 1 <= obs <= w:
        raise ValueError(f"observe_slots must be in [1, w={w}], got {obs}")
    if mode == "rn_window":
        _log.debug(
            "sample_slot_counts: rn_window sampled via its event marginal "
            "(cross-hash-index correlations are not reproduced analytically)"
        )
    if pn_denom <= 0:
        raise ValueError(f"pn_denom must be positive, got {pn_denom}")
    p = min(max(int(p_n), 0), pn_denom) / pn_denom
    if mode == "static":
        b_total = int(k) * int(rng.binomial(n, p))
    else:
        b_total = int(rng.binomial(n * k, p))
    if obs < w:
        b_obs = int(rng.binomial(b_total, obs / w))
    else:
        b_obs = b_total
    return _occupancy_counts(rng, b_obs, obs)


@lru_cache(maxsize=8)
def geometric_pvals(frame_slots: int) -> tuple[float, ...]:
    """Bucket probabilities of :func:`~repro.rfid.hashing.geometric_hash`.

    ``P(b) = 2^{-(b+1)}`` for ``b < frame_slots − 1``; the final bucket
    absorbs both its own geometric mass and the all-zero-hash event, giving
    ``P(frame_slots − 1) = 2^{-(frame_slots-1)}``.  The probabilities are
    exact binary floats summing to exactly 1.0.
    """
    if frame_slots <= 1:
        raise ValueError("frame_slots must be > 1")
    pvals = [2.0 ** -(b + 1) for b in range(frame_slots - 1)]
    pvals.append(2.0 ** -(frame_slots - 1))
    return tuple(pvals)


def sample_lottery_first_idle(
    rng: np.random.Generator, n: int, frame_slots: int
) -> float:
    """First-idle index of one analytic lottery frame (LOF's statistic).

    Scatters ``n`` tags over the geometric bucket distribution with one
    Multinomial draw and extracts the first empty bucket — the same
    ``argmax(idle) if idle.any() else frame_slots`` expression as the serial
    LOF — in O(frame_slots) regardless of n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    counts = rng.multinomial(n, geometric_pvals(frame_slots))
    idle = counts == 0
    return float(np.argmax(idle)) if idle.any() else float(frame_slots)


def sample_aloha_empty(
    rng: np.random.Generator, n: int, frame_size: int, sampling_prob: float
) -> int:
    """Empty-slot count of one analytic framed-ALOHA join test (SRC).

    Joiners are a Binomial(n, ρ) draw; their slots are i.i.d. uniform, so
    the empty count follows from one :func:`scatter_counts` pass —
    O(frame_size + joiners) against the event kernel's O(n).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if frame_size <= 0:
        raise ValueError("frame_size must be positive")
    if not 0.0 <= sampling_prob <= 1.0:
        raise ValueError("sampling_prob must be in [0, 1]")
    joiners = int(rng.binomial(n, sampling_prob))
    counts = _occupancy_counts(rng, joiners, frame_size)
    return int((counts == 0).sum())


@dataclass
class AnalyticReader:
    """A :class:`~repro.rfid.reader.Reader` over a *virtual* population.

    Implements the exact air-interface surface the protocol phases consume —
    ``fresh_seeds`` (the same ``default_rng`` draw discipline, so executions
    are reproducible per seed), ``broadcast``/``broadcast_bits``,
    ``sense_frame``/``sense_slots`` and the metering bookkeeping — but backs
    ``sense_frame`` with :func:`sample_slot_counts` instead of hashing tags.
    Only the cardinality ``n`` is needed; no tagID array is ever built, so
    n = 10⁸ costs the same memory as n = 10².

    Channel models compose unchanged: the sampled count vector feeds
    ``channel.observe`` exactly as the event frame kernel's does.
    """

    n: int
    seed: int = 0
    channel: Channel = field(default_factory=PerfectChannel)
    timing: C1G2Timing = field(default_factory=lambda: DEFAULT_TIMING)
    persistence_mode: str = "event"
    pn_denom: int = PERSISTENCE_DENOM
    ledger: TimeLedger = field(init=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.persistence_mode not in PERSISTENCE_MODES:
            raise ValueError(
                f"persistence_mode must be one of {PERSISTENCE_MODES}, "
                f"got {self.persistence_mode!r}"
            )
        if self.pn_denom <= 0:
            raise ValueError(f"pn_denom must be positive, got {self.pn_denom}")
        self.ledger = TimeLedger(timing=self.timing)
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    # air interface (mirrors Reader)
    # ------------------------------------------------------------------
    def fresh_seeds(self, k: int) -> np.ndarray:
        """Draw ``k`` fresh 32-bit random seeds from the reader's stream."""
        if k <= 0:
            raise ValueError("k must be positive")
        return self._rng.integers(0, 1 << 32, size=k, dtype=np.uint64)

    def broadcast(self, message: MessageSpec, *, phase: str = "") -> None:
        """Transmit one parameter message to all tags (metered downlink)."""
        self.ledger.record_downlink(message.bits, phase=phase, label=message.name)

    def broadcast_bits(self, bits: int, *, phase: str = "", label: str = "") -> None:
        """Transmit ``bits`` raw downlink bits (for baseline protocols)."""
        self.ledger.record_downlink(bits, phase=phase, label=label)

    def sample_frame(
        self, *, w: int, k: int, p_n: int, observe_slots: int | None, phase: str = ""
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Sample one frame, sense it and meter its uplink.

        The one per-frame step, drawn from the reader's own stream:
        :meth:`sense_frame` and BFCE's analytic sense
        (:func:`repro.core.bfce.analytic_sense`) both call it, so the two
        consume the stream and meter the ledger identically under any
        channel.  Returns the slot counts, the busy flags the channel sensed
        from them and the number of idle slots.
        """
        counts = sample_slot_counts(
            self._rng,
            n=self.n,
            k=k,
            p_n=p_n,
            w=w,
            observe_slots=observe_slots,
            mode=self.persistence_mode,
            pn_denom=self.pn_denom,
        )
        busy = self.channel.observe(counts, rng=self._rng)
        self.ledger.record_uplink(busy.size, phase=phase, label="frame")
        return counts, busy, busy.size - int(np.count_nonzero(busy))

    def sense_frame(
        self,
        *,
        w: int,
        seeds: np.ndarray | list[int],
        p_n: int,
        observe_slots: int | None = None,
        phase: str = "",
    ) -> FrameResult:
        """Sample one BFCE frame analytically and meter its uplink time.

        The broadcast ``seeds`` fix ``k`` (their values are consumed by the
        event hash path; the analytic sampler draws the frame outcome from
        the reader's stream instead).
        """
        counts, busy, ones = self.sample_frame(
            w=w, k=len(seeds), p_n=p_n, observe_slots=observe_slots, phase=phase
        )
        slots = busy.size
        # ones / slots is bloom.mean() bit for bit: both divide an exact
        # integer by the slot count with one correctly rounded division.
        result = FrameResult(
            bloom=np.logical_not(busy).view(np.uint8),
            rho=ones / slots,
            responses=int(counts.sum()),
            w=w,
        )
        _metrics.inc("frame.count")
        _metrics.inc("frame.slots.idle", ones)
        _metrics.inc("frame.slots.busy", slots - ones)
        return result

    def sense_slots(self, busy: np.ndarray, *, phase: str = "", label: str = "slots") -> None:
        """Meter a raw uplink frame of ``len(busy)`` slots (baselines)."""
        self.ledger.record_uplink(int(np.asarray(busy).size), phase=phase, label=label)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def elapsed_seconds(self) -> float:
        """Total execution time metered so far."""
        return self.ledger.total_seconds()

    def reset_ledger(self) -> None:
        """Clear the ledger (virtual population and RNG state are kept)."""
        self.ledger = TimeLedger(timing=self.timing)
