"""Bit-slot frame execution.

A *frame* is the tag→reader half of one estimation phase: the reader has
broadcast parameters (``w``, ``k`` seeds, ``p_n``) and now senses ``w``
consecutive bit-slots.  :func:`run_bfce_frame` computes the resulting Bloom
vector ``B`` for an entire tag population in a handful of vectorized NumPy
operations (slot hashing → persistence mask → ``np.bincount`` → channel).

Polarity (paper Algorithm 1): ``B[i] = 1`` for an **idle** slot and
``B[i] = 0`` for a **busy** slot, so the ratio of 1s ``ρ̄`` estimates
``e^{−λ}``.

A frame may be *truncated*: the reader announces the full hash range ``w``
but stops sensing after ``observe_slots`` slots (the rough phase observes
1024 of 8192).  Because each slot's occupancy is identically distributed,
the observed prefix is an unbiased sample of the full frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import metrics as _metrics
from . import _native
from .channel import Channel, PerfectChannel
from .hashing import mix64, mix64_into
from .tags import (
    PERSISTENCE_BITS,
    PERSISTENCE_DENOM,
    TagPopulation,
    _require_power_of_two,
)

__all__ = [
    "FrameResult",
    "BatchFrameResult",
    "run_bfce_frame",
    "run_bfce_frame_batch",
    "slot_response_counts",
]

_PERFECT = PerfectChannel()


@dataclass(frozen=True)
class FrameResult:
    """Outcome of one bit-slot frame.

    Attributes
    ----------
    bloom:
        The observed Bloom vector ``B`` (uint8; 1 = idle, 0 = busy), of
        length ``observe_slots``.
    rho:
        Ratio of 1s in ``bloom`` (fraction of idle slots), the paper's ρ̄.
    responses:
        Total number of tag transmissions that occurred in observed slots
        (a simulator-side count; not observable by a real reader).
    w:
        The announced hash range (Bloom length), which may exceed
        ``len(bloom)`` for truncated frames.
    """

    bloom: np.ndarray
    rho: float
    responses: int
    w: int

    @property
    def observed_slots(self) -> int:
        return int(self.bloom.size)

    @property
    def ones(self) -> int:
        """Number of idle slots observed."""
        return int(self.bloom.sum())

    @property
    def zeros(self) -> int:
        """Number of busy slots observed."""
        return int(self.bloom.size - self.bloom.sum())


def slot_response_counts(
    population: TagPopulation,
    *,
    w: int,
    seeds: np.ndarray | list[int],
    p_n: int,
) -> np.ndarray:
    """Number of tag transmissions landing in each of the ``w`` slots.

    Implements Algorithm 2 for the whole population: every tag hashes to
    ``k = len(seeds)`` slots and transmits in each selected slot with
    persistence probability ``p_n / 1024``.  A tag whose hashes collide on
    one slot may transmit more than once there; the channel ORs them anyway.
    """
    k = len(seeds)
    selections = population.slot_selections(seeds, w)  # (k, n)
    frame_seed = int(np.asarray(seeds, dtype=np.uint64)[0])
    decisions = population.persistence_decisions(p_n, frame_seed, k)  # (k, n)
    hit_slots = selections[decisions]
    return np.bincount(hit_slots, minlength=w)


def run_bfce_frame(
    population: TagPopulation,
    *,
    w: int,
    seeds: np.ndarray | list[int],
    p_n: int,
    observe_slots: int | None = None,
    channel: Channel | None = None,
    channel_rng: np.random.Generator | None = None,
) -> FrameResult:
    """Execute one BFCE frame and return the observed Bloom vector.

    Parameters
    ----------
    population:
        The tags in range.
    w:
        Announced Bloom length (hash range); power of two.
    seeds:
        ``k`` 32-bit random seeds for this frame.
    p_n:
        Persistence numerator; ``p = p_n / 1024``.
    observe_slots:
        Sense only the first this-many slots (defaults to all ``w``).
    channel:
        Channel model; defaults to the paper's perfect channel.
    channel_rng:
        RNG for noisy channels (ignored by the perfect channel; stochastic
        channels raise without one — reproducibility is load-bearing for
        the sweep cache).
    """
    if observe_slots is None:
        observe_slots = w
    if not 1 <= observe_slots <= w:
        raise ValueError(f"observe_slots must be in [1, w={w}], got {observe_slots}")
    counts = slot_response_counts(population, w=w, seeds=seeds, p_n=p_n)
    counts = counts[:observe_slots]
    ch = channel if channel is not None else _PERFECT
    busy = ch.observe(counts, rng=channel_rng)
    bloom = (~busy).astype(np.uint8)
    return FrameResult(
        bloom=bloom,
        rho=float(bloom.mean()),
        responses=int(counts.sum()),
        w=w,
    )


# ----------------------------------------------------------------------
# Batched execution: T independent frames in one set of NumPy operations
# ----------------------------------------------------------------------

#: Per-chunk budget of (frame, hash, tag) events.  The in-place mixing
#: pipeline keeps two uint64 buffers of 8 × budget bytes each live; 300k
#: events (~2.4 MB per buffer) keeps that working set cache-resident, which
#: measures several times faster than letting the buffers spill to DRAM the
#: way a whole-batch intermediate would.
_BATCH_EVENT_BUDGET = 300_000

#: Shift turning a 53-bit hash into the integer persistence threshold:
#: u < p_n/1024  ⇔  h53 < p_n · 2**(53 − 10)  (both sides exact, see below).
_THRESHOLD_SHIFT = np.uint64(53 - PERSISTENCE_BITS)

#: Elements per L2-resident block of the row-wise hashing pipeline
#: (two uint64 buffers of this many elements ≈ 1 MB working set).
_DEC_BLOCK = 1 << 16

#: Most buckets (w / observe_slots) the native prefix pass indexes; BFCE's
#: frames stay far below it (8192 / 32 = 256), wider ratios keep NumPy.
_MAX_PREFIX_BUCKETS = 1 << 16


@dataclass(frozen=True)
class BatchFrameResult:
    """Outcome of ``T`` independent frames executed as one batch.

    Row ``t`` is bit-identical to the :class:`FrameResult` that
    :func:`run_bfce_frame` would produce for the same ``(seeds[t], p_n[t])``
    pair: same Bloom vector, same idle ratio, same response count.

    Attributes
    ----------
    blooms:
        uint8 array of shape ``(T, observe_slots)``; row ``t`` is frame
        ``t``'s observed Bloom vector (1 = idle, 0 = busy).
    responses:
        int64 array of per-frame tag-transmission counts in observed slots.
    w:
        The announced hash range shared by all frames in the batch.
    """

    blooms: np.ndarray
    responses: np.ndarray
    w: int

    @property
    def n_frames(self) -> int:
        return int(self.blooms.shape[0])

    @property
    def observed_slots(self) -> int:
        return int(self.blooms.shape[1])

    def rho(self, t: int) -> float:
        """Idle ratio of frame ``t`` (identical float to the serial path)."""
        return float(self.blooms[t].mean())

    def ones(self, t: int) -> int:
        """Number of idle slots observed by frame ``t``."""
        return int(self.blooms[t].sum())

    def frame(self, t: int) -> FrameResult:
        """Materialise frame ``t`` as a serial-equivalent :class:`FrameResult`."""
        bloom = self.blooms[t]
        return FrameResult(
            bloom=bloom,
            rho=float(bloom.mean()),
            responses=int(self.responses[t]),
            w=self.w,
        )

    def __iter__(self):
        return (self.frame(t) for t in range(self.n_frames))


class _BatchWorkspace:
    """Reusable scratch buffers for the batched frame calls on one population.

    Every chunk of a batch has the same (or a smaller, final-chunk) shape, so
    the dense path's uint64 mixing buffers and the uint32 slot-index buffer
    are allocated once and re-sliced per chunk instead of being re-allocated
    (and page-faulted in) ~once per frame.  A lockstep drive holds one
    workspace for all its rounds, so each prefix index is built once per
    drive; it belongs to the population object held here (another rebuilds).
    """

    def __init__(self) -> None:
        self._u32: np.ndarray | None = None
        self._u64a: np.ndarray | None = None
        self._u64b: np.ndarray | None = None
        self._bool: np.ndarray | None = None
        self._prefix: tuple | None = None

    def _take(self, attr: str, dtype: type, shape: tuple[int, ...]) -> np.ndarray:
        size = 1
        for dim in shape:
            size *= dim
        backing = getattr(self, attr)
        if backing is None or backing.size < size:
            backing = np.empty(size, dtype=dtype)
            setattr(self, attr, backing)
        return backing[:size].reshape(shape)

    def sel(self, shape: tuple[int, ...]) -> np.ndarray:
        """uint32 slot-selection buffer of the given shape."""
        return self._take("_u32", np.uint32, shape)

    def mask(self, shape: tuple[int, ...]) -> np.ndarray:
        """bool scratch buffer of the given shape."""
        return self._take("_bool", np.bool_, shape)

    def _memo(self, key: tuple, population: TagPopulation, build):
        # One index at a time, tied to the population object: a drive's
        # probe rounds all precede its rough rounds, so keeping the probe
        # index would only hold memory.
        if self._prefix is None or self._prefix[0] is not population or self._prefix[1] != key:
            self._prefix = population, key, build()
        return self._prefix[2]

    def prefix_index(
        self, population: TagPopulation, w: int, observe_slots: int
    ) -> tuple[np.uint32, np.ndarray, np.ndarray]:
        """Memoised bucket index for power-of-two truncated frames.

        A tag's event lands in the observed prefix iff
        ``(rn ^ rs) & (w-1) < observe_slots``; for a power-of-two prefix
        that is exactly ``rn & h == rs & h`` with ``h = (w-1) ^ (obs-1)``
        (the high slot bits must cancel).  Sorting tags once by ``rn & h``
        turns every row's prefix membership scan into a binary-search
        slice.  Returns ``(h_mask, order, sorted_keys)``.

        Masked keys have no bits below ``h``'s lowest set bit, so
        ``keys >> shift`` orders the tags exactly as ``keys`` does.  When
        that fits in 16 bits (8 for the 32-of-8192 probe) the stable sort
        runs on it as uint16, which numpy radix-sorts: ~1 ms against ~8 ms
        for the uint32 keys at n = 10^5.  Wider keys keep the uint32 sort.
        """

        def build():
            h = (w - 1) ^ (observe_slots - 1)
            h_mask = np.uint32(h)
            keys = population.rn & h_mask
            shift = (h & -h).bit_length() - 1 if h else 0
            if h >> shift < 1 << 16:
                order = np.argsort(
                    (keys >> np.uint32(shift)).astype(np.uint16), kind="stable"
                )
            else:
                order = np.argsort(keys, kind="stable")
            return h_mask, order, keys[order]

        return self._memo(("order", w, observe_slots), population, build)

    def prefix_buckets(
        self, population: TagPopulation, w: int, observe_slots: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The native pass's form of :meth:`prefix_index`: bucket starts and
        the ids and RNs in index order
        (:func:`~repro.rfid._native.bfce_prefix_buckets`)."""
        return self._memo(
            ("buckets", w, observe_slots),
            population,
            lambda: _native.bfce_prefix_buckets(
                population.tag_ids, population.rn, w, observe_slots
            ),
        )

    def pair64(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(buf, tmp) uint64 buffer pair for the in-place mixing pipeline."""
        return self._take("_u64a", np.uint64, shape), self._take(
            "_u64b", np.uint64, shape
        )


def _event_seeds(seeds: np.ndarray, k: int) -> np.ndarray:
    """Vectorized ``tags._event_seed``: per-(frame, hash-index) 64-bit seeds.

    ``seeds`` is the ``(T, k)`` seed matrix; the frame seed is column 0,
    exactly as :func:`slot_response_counts` uses ``seeds[0]`` per frame.
    """
    frame_seed = seeds[:, 0] & np.uint64(0xFFFFFFFF)
    js = np.arange(k, dtype=np.uint64)
    return mix64(frame_seed[:, None] * np.uint64(1024) + js[None, :] + np.uint64(1))


def _hashed_rows_lt(
    ids: np.ndarray,
    row_seeds: np.ndarray,
    row_pn: np.ndarray,
    out: np.ndarray,
    ws: _BatchWorkspace,
) -> np.ndarray:
    """Rows of ``mix64(ids ^ row_seed) >> 11 < row_pn << 43`` into bool ``out``.

    ``row_seeds``/``row_pn`` give one (seed, persistence numerator) pair per
    output row; ``out`` has shape ``(rows, n)``.  The hashing runs in
    L2-sized blocks — one ~0.5 MB buffer pair walked down each row — because
    the mixing pipeline re-reads its operand ~9 times, and cache-resident
    blocks make those re-reads near-free where whole-chunk buffers would
    stream from DRAM every pass.  Two exact rewrites on top of that:
    ``h >> 11 < p_n << 43`` becomes ``h < p_n << 54`` (integer floor
    division: ``a >> s < t  ⇔  a < t << s``; ``p_n ≤ 1023`` keeps the shift
    inside uint64), saving the shift pass, and the degenerate numerators 0
    and 1024 (never/always respond) skip the hashing entirely.  All three
    are elementwise-identical to the whole-array expression.
    """
    n = ids.size
    if n == 0:
        return out
    block = min(n, _DEC_BLOCK)
    buf, tmp = ws.pair64((block,))
    for row in range(out.shape[0]):
        pn = int(row_pn[row])
        dec_row = out[row]
        if pn <= 0 or pn >= PERSISTENCE_DENOM:
            dec_row[:] = pn > 0
            continue
        seed = row_seeds[row]
        thr = np.uint64(pn) << np.uint64(64 - PERSISTENCE_BITS)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            b, t = buf[: hi - lo], tmp[: hi - lo]
            np.bitwise_xor(ids[lo:hi], seed, out=b)
            mix64_into(b, b, t)
            np.less(b, thr, out=dec_row[lo:hi])
    return out


def _batched_decisions(
    population: TagPopulation,
    es: np.ndarray,
    mes: np.ndarray | None,
    pn: np.ndarray,
    k: int,
    ws: _BatchWorkspace,
) -> np.ndarray:
    """Dense persistence decisions for a frame chunk: bool ``(C, k, n)``.

    Replays :meth:`TagPopulation.persistence_decisions` for every frame of
    the chunk at once, given the chunk's ``(C, k)`` event seeds ``es`` (and
    their premixed images ``mes = mix64(es)``).  The ``"event"``/``"static"``
    modes replace the serial float comparison ``u < p_n/1024`` (with
    ``u = h53/2**53``) by the integer comparison ``h53 < p_n << 43``: both
    sides of either comparison are exactly representable, so the two are
    equivalent bit-for-bit.
    """
    ids = population.tag_ids
    c_frames, n = es.shape[0], ids.size
    if population.persistence_mode == "event":
        dec = np.empty((c_frames, k, n), dtype=bool)
        _hashed_rows_lt(
            ids,
            mes.reshape(-1),
            np.repeat(pn, k),
            dec.reshape(c_frames * k, n),
            ws,
        )
        return dec
    if population.persistence_mode == "rn_window":
        n_windows = np.uint64(32 - PERSISTENCE_BITS + 1)
        buf, tmp = ws.pair64((c_frames, k, n))
        np.bitwise_xor(ids[None, None, :], es[:, :, None], out=buf)
        mix64_into(buf, buf, tmp)
        np.remainder(buf, n_windows, out=buf)
        offsets = buf.astype(np.uint32)
        window = (population.rn[None, None, :] >> offsets) & np.uint32(
            PERSISTENCE_DENOM - 1
        )
        return window < pn[:, None, None]
    # static: one decision per (frame, tag), reused for every hash index.
    dec = np.empty((c_frames, n), dtype=bool)
    _hashed_rows_lt(ids, mes[:, 0], pn, dec, ws)
    return np.broadcast_to(dec[:, None, :], (c_frames, k, n))


def _sparse_chunk_counts(
    population: TagPopulation,
    rs: np.ndarray,
    es: np.ndarray,
    mes: np.ndarray | None,
    pn: np.ndarray,
    w: int,
    observe_slots: int,
    ws: _BatchWorkspace,
) -> np.ndarray:
    """Per-slot response counts for a truncated-frame chunk.

    Only events hashed into the observed prefix can contribute, so the
    expensive persistence mixing runs on the ``observe_slots / w`` fraction
    of (frame, hash, tag) events that land there — a ~256× reduction for
    the 32-of-8192 probe rounds.  Decisions are per-event, hence restricting
    evaluation to contributing events cannot change any observed slot.

    Prefix membership is found one of two ways: power-of-two prefixes take
    a binary-search slice of the workspace's rn-bucket order (see
    :meth:`_BatchWorkspace.prefix_index` — no per-event work at all), and
    any other prefix length falls back to scanning the RN array one
    L2-sized block per (frame, hash-index) row.  Both forms select exactly
    the events with ``sel < observe_slots``, so the counts are identical to
    the whole-chunk expression.  With the native library, power-of-two
    prefixes in the event and static modes run as one C pass over the index
    instead; the NumPy forms stay the reference.
    """
    c_frames, k = rs.shape
    n = population.size
    counts_shape = (c_frames, observe_slots)
    if n == 0:
        return np.zeros(counts_shape, dtype=np.int64)
    if _native_prefix(population, w, observe_slots):
        _metrics.inc("kernel.native.bfce_counts")
        starts, ids, rn = ws.prefix_buckets(population, w, observe_slots)
        return _native.bfce_counts_native(
            ids, rn, rs, mes, pn, w, population.persistence_mode == "static",
            prefix=(observe_slots, starts),
        )
    _metrics.inc("kernel.numpy.bfce_counts")
    rn = population.rn
    rs_flat = rs.reshape(-1)
    slot_mask = np.uint32(w - 1)
    obs = np.uint32(observe_slots)
    tag_parts: list[np.ndarray] = []
    sel_parts: list[np.ndarray] = []
    row_counts = np.zeros(c_frames * k, dtype=np.int64)
    if observe_slots & (observe_slots - 1) == 0:
        # Power-of-two prefix: membership is "high slot bits cancel", so the
        # survivors of every row are one contiguous slice of the memoised
        # rn-bucket order — no per-event scan at all.
        h_mask, order, sorted_keys = ws.prefix_index(population, w, observe_slots)
        for row in range(c_frames * k):
            seed = rs_flat[row]
            target = seed & h_mask
            start = np.searchsorted(sorted_keys, target, side="left")
            end = np.searchsorted(sorted_keys, target, side="right")
            if end > start:
                tags = order[start:end]
                tag_parts.append(tags)
                sel_parts.append((rn[tags] ^ seed) & slot_mask)
                row_counts[row] = end - start
    else:
        block = min(n, _DEC_BLOCK)
        b32 = ws.sel((block,))
        hit = ws.mask((block,))
        for row in range(c_frames * k):
            seed = rs_flat[row]
            total = 0
            for lo in range(0, n, block):
                hi = min(lo + block, n)
                b, m = b32[: hi - lo], hit[: hi - lo]
                np.bitwise_xor(rn[lo:hi], seed, out=b)
                np.bitwise_and(b, slot_mask, out=b)
                np.less(b, obs, out=m)
                idx = np.flatnonzero(m)
                if idx.size:
                    tag_parts.append(lo + idx)
                    sel_parts.append(b[idx])
                    total += idx.size
            row_counts[row] = total
    if not tag_parts:
        return np.zeros(counts_shape, dtype=np.int64)
    tag_idx = np.concatenate(tag_parts)
    sel_v = np.concatenate(sel_parts)
    cj_idx = np.repeat(np.arange(c_frames * k), row_counts)
    t_idx = cj_idx // k
    ids = population.tag_ids
    thr = pn.astype(np.uint64) << _THRESHOLD_SHIFT
    if population.persistence_mode == "event":
        h = mix64(ids[tag_idx] ^ mes.reshape(-1)[cj_idx])
        dec = (h >> np.uint64(11)) < thr[t_idx]
    elif population.persistence_mode == "rn_window":
        n_windows = np.uint64(32 - PERSISTENCE_BITS + 1)
        h = mix64(ids[tag_idx] ^ es.reshape(-1)[cj_idx])
        offsets = (h % n_windows).astype(np.uint32)
        window = (rn[tag_idx] >> offsets) & np.uint32(PERSISTENCE_DENOM - 1)
        dec = window < pn[t_idx]
    else:  # static: frame-seed (j = 0) decision shared by all hash indices
        h = mix64(ids[tag_idx] ^ mes[:, 0][t_idx])
        dec = (h >> np.uint64(11)) < thr[t_idx]
    slots = sel_v[dec].astype(np.int64) + t_idx[dec] * observe_slots
    return np.bincount(slots, minlength=c_frames * observe_slots).reshape(counts_shape)


def _native_mode(population: TagPopulation) -> bool:
    """Whether the C kernels count this population's frames."""
    return population.persistence_mode in ("event", "static") and _native.get_lib() is not None


def _native_prefix(population: TagPopulation, w: int, observe_slots: int) -> bool:
    """Whether a truncated frame takes the native prefix pass: power-of-two
    prefixes of at most ``_MAX_PREFIX_BUCKETS`` buckets (w / obs)."""
    return (
        observe_slots & (observe_slots - 1) == 0
        and w // observe_slots <= _MAX_PREFIX_BUCKETS
        and _native_mode(population)
    )


def _batched_chunk_counts(
    population: TagPopulation,
    seeds: np.ndarray,
    es: np.ndarray,
    mes: np.ndarray | None,
    pn: np.ndarray,
    w: int,
    observe_slots: int,
    ws: _BatchWorkspace,
) -> np.ndarray:
    """Observed-slot response counts for one chunk of frames: ``(C, obs)``."""
    c_frames, k = seeds.shape
    n = population.size
    rs = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    if observe_slots * 4 <= w:
        return _sparse_chunk_counts(
            population, rs, es, mes, pn, w, observe_slots, ws
        )
    # Full (or near-full) frames.  The event/static persistence modes have a
    # blocked C kernel (vectorised persistence hashes, branchless responder
    # compaction, scalar slot increments; no intermediate arrays);
    # rn_window and compiler-less hosts use the NumPy path below — both
    # produce bit-identical counts.
    if _native_mode(population):
        _metrics.inc("kernel.native.bfce_counts")
        counts = _native.bfce_counts_native(
            population.tag_ids,
            population.rn,
            rs,
            mes,
            pn,
            w,
            population.persistence_mode == "static",
        )
        return counts[:, :observe_slots]
    _metrics.inc("kernel.numpy.bfce_counts")
    # NumPy path: decide persistence first, then hash slots
    # only for the responding events — the ~E[p]·C·k·n survivors are the
    # only ones that pay for the slot XOR, int64 conversion and frame
    # offset, and no full-size ``sel`` array is materialised at all.
    dec = _batched_decisions(population, es, mes, pn, k, ws)
    flat = np.flatnonzero(dec)
    cj_idx = flat // n
    tag_idx = flat - cj_idx * n
    slots = (population.rn[tag_idx] ^ rs.reshape(-1)[cj_idx]) & np.uint32(w - 1)
    idx = slots.astype(np.int64) + (cj_idx // k) * w
    counts = np.bincount(idx, minlength=c_frames * w).reshape(c_frames, w)
    return counts[:, :observe_slots]


def run_bfce_frame_batch(
    population: TagPopulation,
    *,
    w: int,
    seeds: np.ndarray,
    p_n: int | np.ndarray,
    observe_slots: int | None = None,
    channel: Channel | None = None,
    channel_rngs: list[np.random.Generator] | None = None,
    workspace: _BatchWorkspace | None = None,
) -> BatchFrameResult:
    """Execute ``T`` independent BFCE frames as one batched computation.

    Semantically equivalent to ``T`` calls of :func:`run_bfce_frame` — frame
    ``t`` uses seed row ``seeds[t]`` and persistence numerator ``p_n[t]`` —
    but the slot hashing, persistence decisions and slot-count reduction run
    as whole-batch NumPy operations (shape ``(T, k, n)`` intermediates and a
    single offset-``bincount`` per chunk).  Bit-identical outputs to the
    serial kernel are a hard contract, relied on by the batched Monte-Carlo
    engine (:mod:`repro.experiments.batch`) and enforced by the equivalence
    test-suite.

    Parameters
    ----------
    population:
        The tags in range (shared by all frames of the batch).
    w:
        Announced Bloom length; power of two, shared by the batch.
    seeds:
        uint64 array of shape ``(T, k)``: one row of ``k`` 32-bit seeds per
        frame.
    p_n:
        Persistence numerator(s); a scalar applies to every frame, an array
        of shape ``(T,)`` gives each frame its own numerator.
    observe_slots:
        Sense only the first this-many slots of every frame (defaults to
        ``w``).  Truncated batches take a sparse path that only evaluates
        persistence for events hashed into the observed prefix.
    channel:
        Channel model shared by the batch.  The (default) perfect channel is
        applied as one vectorized comparison; any other channel is applied
        per frame so stateful noise models keep their exact serial RNG
        consumption order.
    channel_rngs:
        Per-frame RNG list for noisy channels (ignored by the perfect
        channel; stochastic channels raise without one);
        ``channel_rngs[t]`` plays the role of the serial kernel's
        ``channel_rng`` for frame ``t``.
    workspace:
        Scratch buffers and prefix indexes reused across calls on this
        population (a drive's rounds); a fresh one per call by default.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.ndim != 2 or seeds.shape[0] == 0 or seeds.shape[1] == 0:
        raise ValueError(f"seeds must have shape (T, k) with T, k ≥ 1, got {seeds.shape}")
    n_frames, k = seeds.shape
    _require_power_of_two(w)
    if observe_slots is None:
        observe_slots = w
    if not 1 <= observe_slots <= w:
        raise ValueError(f"observe_slots must be in [1, w={w}], got {observe_slots}")
    pn_arr = np.broadcast_to(np.asarray(p_n, dtype=np.int64), (n_frames,))
    if np.any((pn_arr < 0) | (pn_arr > PERSISTENCE_DENOM)):
        raise ValueError(f"p_n values must be in [0, {PERSISTENCE_DENOM}]")
    if channel_rngs is not None and len(channel_rngs) != n_frames:
        raise ValueError("channel_rngs must supply one generator per frame")
    counts = np.empty((n_frames, observe_slots), dtype=np.int64)
    # Cache-resident streaming: frames are processed in chunks whose event
    # volume (k·n per frame) keeps each pass inside the cache budget.  The
    # threaded dense kernel parallelises over the frames *within* one chunk,
    # so when it will run the budget scales by the thread count — each
    # thread's block of frames stays at the single-core budget while the
    # chunk carries enough frames to feed every core.  The native prefix
    # pass touches only the prefix's events and keeps no per-event buffer,
    # so it takes every frame in one call.
    dense = observe_slots * 4 > w
    if not dense and _native_prefix(population, w, observe_slots):
        chunk = n_frames
    else:
        native = dense and _native_mode(population)
        budget = _BATCH_EVENT_BUDGET * (_native.effective_threads() if native else 1)
        chunk = max(1, budget // max(1, k * population.size))
    ws = workspace if workspace is not None else _BatchWorkspace()
    es = _event_seeds(seeds, k)  # (T, k), shared by every chunk
    mes = None if population.persistence_mode == "rn_window" else mix64(es)
    for lo in range(0, n_frames, chunk):
        hi = min(lo + chunk, n_frames)
        counts[lo:hi] = _batched_chunk_counts(
            population,
            seeds[lo:hi],
            es[lo:hi],
            None if mes is None else mes[lo:hi],
            pn_arr[lo:hi],
            w,
            observe_slots,
            ws,
        )
    ch = channel if channel is not None else _PERFECT
    if type(ch) is PerfectChannel:
        busy = counts > 0
    else:
        busy = np.empty(counts.shape, dtype=bool)
        for t in range(n_frames):
            rng = channel_rngs[t] if channel_rngs is not None else None
            busy[t] = ch.observe(counts[t], rng=rng)
    return BatchFrameResult(
        blooms=(~busy).astype(np.uint8),
        responses=counts.sum(axis=1),
        w=w,
    )
