"""Hash primitives used by RFID estimation protocols.

Three families live here:

* **XOR/bitget hash** (Sec. IV-E.2 of the paper): each tag prestores a 32-bit
  random number ``RN``; on receiving a 32-bit seed ``RS`` it computes
  ``H = bitget(RN ⊕ RS, 13:1)`` — the lowest 13 bits of the XOR — yielding a
  slot index in ``[0, 8192)``.  This is the only computation a BFCE tag needs.
* **Splittable integer mixer** (`mix64`): a SplitMix64-style finalizer used to
  (a) derive prestored RNs from tagIDs and (b) give baselines a high-quality
  uniform hash ``uniform_hash`` without carrying Python-level RNG state.
* **Geometric hash** (`geometric_hash`): maps a tag to the position of the
  lowest set bit of a uniform hash — ``P(G = i) = 2^{-(i+1)}`` — the primitive
  behind LOF-style lottery-frame estimators.

All functions are vectorized over NumPy ``uint64``/``uint32`` arrays and never
loop in Python over tags.
"""

from __future__ import annotations

import numpy as np

from ..obs import metrics as _metrics
from . import _native

__all__ = [
    "mix64",
    "mix64_into",
    "derive_rn_from_ids",
    "xor_bitget_hash",
    "uniform_hash",
    "uniform_unit",
    "geometric_hash",
    "geometric_occupancy_batch",
    "first_idle_from_occupancy",
    "chi2_uniformity",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def mix64(x: np.ndarray | int) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche mixer on uint64.

    Accepts any integer array (copied to uint64); returns uint64 with all 64
    output bits depending on all input bits.  Deterministic and stateless.
    """
    with np.errstate(over="ignore"):
        # uint64 arithmetic wraps by design; silence NumPy's scalar-overflow
        # warning (array ops never warn, 0-d scalars do).
        z = np.asarray(x, dtype=np.uint64) + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def mix64_into(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Allocation-free :func:`mix64` into preallocated uint64 buffers.

    Bit-identical to ``mix64(x)`` but runs the whole avalanche pipeline with
    ``out=`` kernels: the only arrays touched are ``out`` and the scratch
    buffer ``tmp`` (same shape/dtype as ``x``; ``out`` may alias ``x``).
    ``mix64`` proper materialises ~9 full-size temporaries per call, which
    for the batched frame kernel's multi-megabyte operands means page faults
    and DRAM traffic; keeping two resident buffers makes the mixing pipeline
    cache-bound instead.  Returns ``out``.
    """
    np.add(x, _GOLDEN, out=out)
    np.right_shift(out, np.uint64(30), out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    np.multiply(out, _MIX1, out=out)
    np.right_shift(out, np.uint64(27), out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    np.multiply(out, _MIX2, out=out)
    np.right_shift(out, np.uint64(31), out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    return out


def derive_rn_from_ids(tag_ids: np.ndarray) -> np.ndarray:
    """Derive the 32-bit prestored random number of each tag from its tagID.

    The paper prestores an RN "prior to the RFID system deployment"; deriving
    it deterministically from the tagID lets the tagID *distribution*
    (T1/T2/T3, Fig. 6) flow through the hash path, which is what the paper's
    robustness evaluation varies.  Uses one `mix64` round, so even clustered
    IDs (T3 normal) produce well-spread RNs — matching commissioning with a
    decent PRNG.

    Parameters
    ----------
    tag_ids:
        Integer array of tagIDs (any integer dtype; values may exceed 2**32).

    Returns
    -------
    uint32 array of per-tag RNs, same shape as ``tag_ids``.
    """
    ids = np.asarray(tag_ids)
    if ids.dtype == object or not np.issubdtype(ids.dtype, np.integer):
        # tagIDs up to 1e15 fit in int64/uint64; object arrays come from
        # Python ints and are converted explicitly.
        ids = ids.astype(np.uint64)
    return (mix64(ids.astype(np.uint64)) & np.uint64(0xFFFFFFFF)).astype(np.uint32)


def xor_bitget_hash(rn: np.ndarray, seed: int, out_bits: int = 13) -> np.ndarray:
    """The tag-side hash of Sec. IV-E.2: ``bitget(RN ⊕ RS, out_bits:1)``.

    Parameters
    ----------
    rn:
        uint32 array of prestored per-tag random numbers.
    seed:
        The 32-bit random seed ``RS`` broadcast by the reader.
    out_bits:
        Number of low bits to keep.  13 gives slot indices in ``[0, 8192)``
        for the paper's ``w = 8192``.

    Returns
    -------
    uint32 array of slot indices in ``[0, 2**out_bits)``.

    Notes
    -----
    XOR with a seed is a *permutation* of the RN space, not a mixing hash:
    uniformity of the output relies entirely on uniformity of the low bits of
    ``RN``.  This is faithful to the paper (tags can only afford XOR+bitget);
    `derive_rn_from_ids` supplies the required RN uniformity.
    """
    if not 1 <= out_bits <= 32:
        raise ValueError("out_bits must be in [1, 32]")
    rn = np.asarray(rn, dtype=np.uint32)
    mask = np.uint32((1 << out_bits) - 1)
    return (rn ^ np.uint32(seed & 0xFFFFFFFF)) & mask


def uniform_hash(keys: np.ndarray, seed: int, modulus: int) -> np.ndarray:
    """High-quality uniform hash of integer keys into ``[0, modulus)``.

    Used by baseline protocols whose published designs assume ideal uniform
    hash functions (UPE, EZB, MLE, ART, SRC).  Implemented as
    ``mix64(key ⊕ mix64(seed)) mod modulus``.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    keys = np.asarray(keys, dtype=np.uint64)
    seeded = keys ^ mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return (mix64(seeded) % np.uint64(modulus)).astype(np.int64)


def uniform_unit(keys: np.ndarray, seed: int) -> np.ndarray:
    """Uniform hash of integer keys into the float interval ``[0, 1)``.

    Used to realise per-tag persistence decisions deterministically from
    (tagID, seed) pairs, so a simulation replays identically for a seed.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    seeded = keys ^ mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    # 53-bit mantissa for an unbiased float64 in [0, 1).
    return (mix64(seeded) >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def geometric_hash(keys: np.ndarray, seed: int, max_bits: int = 32) -> np.ndarray:
    """Geometric-distributed hash: position of the lowest set bit.

    ``P(G = i) = 2^{-(i+1)}`` for ``i < max_bits - 1``; keys whose low
    ``max_bits`` hash bits are all zero land in the final bucket
    ``max_bits - 1``.  This is the LOF (lottery frame) primitive [19].

    Returns
    -------
    int64 array of bucket indices in ``[0, max_bits)``.
    """
    if not 1 <= max_bits <= 64:
        raise ValueError("max_bits must be in [1, 64]")
    keys = np.asarray(keys, dtype=np.uint64)
    h = mix64(keys ^ mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))
    if max_bits < 64:
        h = h & np.uint64((1 << max_bits) - 1)
    # Lowest set bit via isolate-and-log2; all-zero maps to max_bits - 1.
    low = h & (~h + np.uint64(1))
    pos = np.full(h.shape, max_bits - 1, dtype=np.int64)
    nz = low != 0
    pos[nz] = np.log2(low[nz].astype(np.float64)).astype(np.int64)
    return np.minimum(pos, max_bits - 1)


def geometric_occupancy_batch(
    keys: np.ndarray,
    seeds: np.ndarray,
    max_bits: int = 32,
    *,
    chunk_events: int = 300_000,
) -> np.ndarray:
    """Bucket-occupancy bitmasks of :func:`geometric_hash` for many seeds.

    For each seed ``s`` the returned uint64 has bit ``j`` set iff some key
    hashes to bucket ``j`` under ``geometric_hash(keys, s, max_bits)`` —
    i.e. exactly the slots a lottery frame would observe busy.  Lottery-frame
    estimators (LOF, SRC's rough phase) only consume the busy/idle pattern,
    so batching the occupancy avoids materialising per-key bucket indices
    (and the float ``log2`` they require) entirely: the isolated lowest set
    bit of each masked hash *is* the bucket's one-hot mask, and an
    ``bitwise_or.reduce`` over keys collapses a frame to one word.

    Work proceeds in seed-chunks bounded by ``chunk_events`` (seeds × keys)
    elements so the two scratch buffers stay cache-resident; the hash values
    are bit-identical to per-seed :func:`geometric_hash` calls.  When the
    optional C kernel (:mod:`repro.rfid._native`) is available it replaces
    the pass-structured NumPy reduction with one fused pass per event —
    same integer arithmetic, same results.
    """
    if not 1 <= max_bits <= 64:
        raise ValueError("max_bits must be in [1, 64]")
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    occupancy = np.zeros(seeds.size, dtype=np.uint64)
    if keys.size == 0 or seeds.size == 0:
        return occupancy
    seed_mix = mix64(seeds)
    top_bit = np.uint64(1) << np.uint64(max_bits - 1)
    mask = _U64_MASK if max_bits == 64 else np.uint64((1 << max_bits) - 1)
    if _native.get_lib() is not None:
        _metrics.inc("kernel.native.occupancy")
        return _native.occupancy_native(
            keys, np.ascontiguousarray(seed_mix), int(mask), int(top_bit)
        )
    _metrics.inc("kernel.numpy.occupancy")
    rows = max(1, min(seeds.size, chunk_events // keys.size))
    buf = np.empty((rows, keys.size), dtype=np.uint64)
    tmp = np.empty_like(buf)
    with np.errstate(over="ignore"):
        for start in range(0, seeds.size, rows):
            stop = min(start + rows, seeds.size)
            b, t = buf[: stop - start], tmp[: stop - start]
            np.bitwise_xor(keys[None, :], seed_mix[start:stop, None], out=b)
            mix64_into(b, out=b, tmp=t)
            if max_bits < 64:
                np.bitwise_and(b, mask, out=b)
            # Keys whose masked hash is zero belong in the final bucket
            # (geometric_hash maps them to max_bits − 1).
            zero_any = (b == 0).any(axis=1)
            # Isolate the lowest set bit: b & (~b + 1); zeros stay zero.
            np.bitwise_not(b, out=t)
            np.add(t, np.uint64(1), out=t)
            np.bitwise_and(b, t, out=b)
            chunk = np.bitwise_or.reduce(b, axis=1)
            chunk[zero_any] |= top_bit
            occupancy[start:stop] = chunk
    return occupancy


def first_idle_from_occupancy(occupancy: np.ndarray, max_bits: int) -> np.ndarray:
    """Index of the first idle bucket per occupancy mask (LOF's statistic).

    Equals ``argmax(~busy)`` of the corresponding lottery frame, or
    ``max_bits`` when every bucket is busy — matching the serial LOF/SRC
    rough-phase extraction exactly.
    """
    if not 1 <= max_bits <= 64:
        raise ValueError("max_bits must be in [1, 64]")
    occ = np.asarray(occupancy, dtype=np.uint64)
    mask = _U64_MASK if max_bits == 64 else np.uint64((1 << max_bits) - 1)
    with np.errstate(over="ignore"):
        idle = ~occ & mask
        low = idle & (~idle + np.uint64(1))
    out = np.full(occ.shape, max_bits, dtype=np.int64)
    nz = low != 0
    out[nz] = np.log2(low[nz].astype(np.float64)).astype(np.int64)
    return out


def chi2_uniformity(samples: np.ndarray, bins: int) -> float:
    """Pearson χ² statistic of integer samples against uniform ``[0, bins)``.

    A diagnostic for hash quality: for a uniform hash the statistic is
    approximately χ²(bins−1), i.e. close to ``bins`` for large samples.
    """
    if bins <= 1:
        raise ValueError("bins must be > 1")
    counts = np.bincount(np.asarray(samples, dtype=np.int64), minlength=bins)
    if counts.size > bins:
        raise ValueError("samples out of range [0, bins)")
    expected = samples.size / bins
    return float(((counts - expected) ** 2 / expected).sum())
