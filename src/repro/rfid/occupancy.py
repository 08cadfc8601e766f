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
   (:func:`repro.rfid._native.analytic_scatter_into`) reproduces
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
import threading
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
    "sense_round",
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
    rng: np.random.Generator, balls: int, n_slots: int, row: _Row | None = None
) -> np.ndarray:
    """Occupancy vector of ``balls`` uniform balls, by the cheaper route.

    Below the cutover the counter-stream scatter wins (and exercises the
    native kernel); above it — saturated frames whose ball count scales
    with n — one uniform Multinomial draw realises the identical
    distribution in O(n_slots).  The scatter seed is one raw 64-bit draw
    (``integers(0, 2**64, dtype=uint64)`` draws exactly that word).  With a
    native ``row`` the kernel fills that reused buffer in place, metered
    per round by the caller, and the counts are a view of it; otherwise
    they are a new array.
    """
    if balls > _MULTINOMIAL_CUTOVER * n_slots:
        pvals = np.full(n_slots, 1.0 / n_slots)
        return rng.multinomial(balls, pvals).astype(np.int32)
    scatter_seed = rng.bit_generator.random_raw()
    if row is None or not row.native:
        return scatter_counts(scatter_seed, balls, n_slots)
    _native.analytic_scatter_into(row.address, scatter_seed, balls, n_slots)
    return row.array[:n_slots]


def _ball_count(
    rng: np.random.Generator,
    n: int,
    k: int,
    p_n: int,
    w: int,
    obs: int,
    mode: str,
    pn_denom: int,
) -> int:
    """The observed responses of one frame: a Binomial response total
    (``k·Binomial(n, p)`` in ``"static"`` mode), thinned by a second
    Binomial to the ``obs`` observed slots of a truncated frame."""
    p = min(max(int(p_n), 0), pn_denom) / pn_denom
    if mode == "static":
        balls = int(k) * int(rng.binomial(n, p))
    else:
        balls = int(rng.binomial(n * k, p))
    if obs < w:
        balls = int(rng.binomial(balls, obs / w))
    return balls


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
    return _occupancy_counts(rng, _ball_count(rng, n, k, p_n, w, obs, mode, pn_denom), obs)


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
    ``sense_frame`` with the sampler's draw rule instead of hashing tags.
    Only the cardinality ``n`` is needed; no tagID array is ever built, so
    n = 10⁸ costs the same memory as n = 10².  :func:`sense_round` runs
    the same frame step for many readers at once.

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
        if self.persistence_mode == "rn_window":
            _log.debug(
                "AnalyticReader: rn_window sampled via its event marginal "
                "(cross-hash-index correlations are not reproduced analytically)"
            )
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

    def _frame_counts(
        self, k: int, p_n: int, w: int, obs: int, row: _Row | None = None
    ) -> np.ndarray:
        """The draw rule of one frame, from the reader's own stream: the
        Binomial ball count(s), then the scatter seed or the Multinomial.
        :meth:`sense_frame` and :func:`sense_round` both run it."""
        rng = self._rng
        balls = _ball_count(
            rng, self.n, k, p_n, w, obs, self.persistence_mode, self.pn_denom
        )
        return _occupancy_counts(rng, balls, obs, row)

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
        the reader's stream instead).  After the caller's broadcast and
        :meth:`fresh_seeds`, this draws from the stream exactly as one
        reader's frame of :func:`sense_round` does.
        """
        obs = w if observe_slots is None else int(observe_slots)
        counts = self._frame_counts(len(seeds), p_n, w, obs)
        busy = self.channel.observe(counts, rng=self._rng)
        self.ledger.record_uplink(obs, phase=phase, label="frame")
        ones = obs - int(np.count_nonzero(busy))
        # ones / slots is bloom.mean() bit for bit: both divide an exact
        # integer by the slot count with one correctly rounded division.
        result = FrameResult(
            bloom=np.logical_not(busy).view(np.uint8),
            rho=ones / obs,
            responses=int(counts.sum()),
            w=w,
        )
        _metrics.inc("frame.count")
        _metrics.inc("frame.slots.idle", ones)
        _metrics.inc("frame.slots.busy", obs - ones)
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


class _Row:
    """One thread's reusable frame row for :func:`sense_round`.

    A round's native scatter fills every reader's counts into this one
    int32 buffer, sensed before the next reader's fill, so a round holds
    one row of the largest frame per thread instead of a readers × slots
    matrix.  ``native`` is whether the kernel library is in use this round.
    """

    __slots__ = ("array", "address", "native")

    def __init__(self, slots: int) -> None:
        self.array = np.empty(slots, dtype=np.int32)
        self.address = self.array.ctypes.data
        self.native = False


_rows = threading.local()


def _round_row(slots: int) -> _Row:
    row = getattr(_rows, "row", None)
    if row is None or row.array.size < slots:
        row = _rows.row = _Row(slots)
    row.native = _native.get_lib() is not None
    return row


def sense_round(
    readers,
    pns,
    *,
    w: int,
    k: int,
    observe_slots: int,
    phase: str,
    message: MessageSpec,
) -> list[int]:
    """One protocol round on analytic readers: every reader's frame at once.

    Per reader, in the stream order of ``broadcast`` → ``fresh_seeds`` →
    :meth:`AnalyticReader.sense_frame`: the downlink record; the ``k``
    frame seeds, unused, drawn as the ``k`` 32-bit words ``fresh_seeds``
    consumes; the frame's draw rule (:meth:`AnalyticReader._frame_counts`);
    the channel's idle count from the reader's own rng
    (:meth:`~repro.rfid.channel.Channel.idle_count`); and the uplink
    record.  Each reader draws only from its own stream, so any channel is
    exact.  The native scatter fills one reused per-thread row (no
    per-frame array or wrapper; the NumPy reference path goes through
    :func:`scatter_counts`), and the ``frame.*`` counters and the kernel
    metrics (:func:`~repro.rfid._native.scatter_round`) are written once
    per round.  Returns each reader's idle slot count.
    """
    row = _round_row(observe_slots)
    idle = []
    with _native.scatter_round():
        for reader, pn in zip(readers, pns):
            reader.ledger.record_downlink(message.bits, phase=phase, label=message.name)
            reader._rng.random(k, dtype=np.float32)
            counts = reader._frame_counts(k, pn, w, observe_slots, row)
            idle.append(reader.channel.idle_count(counts, rng=reader._rng))
            reader.ledger.record_uplink(observe_slots, phase=phase, label="frame")
    total_idle = sum(idle)
    _metrics.inc("frame.count", len(idle))
    _metrics.inc("frame.slots.idle", total_idle)
    _metrics.inc("frame.slots.busy", len(idle) * observe_slots - total_idle)
    return idle
