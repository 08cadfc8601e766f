"""Optional native (C) fast paths for the batched hash kernels.

The lockstep batch engines funnel all population-sized work through two
primitives — :func:`~repro.rfid.hashing.geometric_occupancy_batch` and
:func:`~repro.baselines.framedaloha.aloha_empty_counts_batch`.  Their NumPy
implementations are pass-structured: each SplitMix64 stage streams the whole
event buffer through memory, so on one core they are bound by L2 bandwidth
(~10 passes per event).  The C versions here fuse the hashing into
register-resident passes compiled with ``-O3 -march=native``, so the
SplitMix64 loops vectorise with the host's 64-bit SIMD multiplies; kernels
with a data-dependent step (the ALOHA and BFCE slot increments, the HLL
register max) hash a 1024-id block in one vectorised pass and run only that
step scalar.
Measured on the 2-vCPU Xeon reference host (AVX-512, GCC 12): the
occupancy kernel takes 0.57–0.81 ns per (id, seed) event at n = 10⁵ and 12
seeds on one thread (1.9 ns at ``-O3`` alone), and replaying the native
calls of one Fig. 9/10 regeneration (perfbench figure-cold grid) takes
occupancy 22.4 → 8.5 ms, ALOHA 22.7 → 14.2 ms and HLL 5.7 → 4.3 ms against
the unblocked ``-O3`` build.  Extra kernel threads buy nothing there: at
10⁵ ids × 64 seeds the occupancy kernel took a median 4.71 ms on one
thread and 4.84 ms on two (40 alternations; 18.58 vs 18.55 ms in an
earlier measurement on the same host) — for SIMD-bound work its two vCPUs
deliver about one core.

The kernels are *bit-exact* replicas: SplitMix64 is pure uint64 arithmetic,
the occupancy reduction is the same isolate-lowest-bit/OR trick, and the
ALOHA join test uses the same integer threshold comparison
(``h >> 11 < T  ⇔  h < T << 11`` for ``T < 2⁵³``; ``T = 2⁵³`` means ρ = 1,
i.e. every tag joins).  The equivalence suites therefore pin the native
path against the serial estimators whenever it is active.

Threading model (DESIGN.md §6): every kernel's outer axis iterates over
*independent* work items — lottery frames, ALOHA frames, BFCE frames, or
(for the analytic scatter) disjoint ball ranges merged by
exact integer addition.  Each item's SplitMix64 stream is a pure function
of its own seed and each item writes a disjoint output row, so splitting
the axis into contiguous per-thread blocks cannot change any output bit:
threaded results are **bit-identical** to the single-threaded path at any
thread count.  The thread count comes from :func:`native_thread_count`
(``REPRO_NATIVE_THREADS`` env, affinity-aware default) and is re-read on
every call, so benchmarks can flip it without rebuilding; tiny calls stay
single-threaded (see ``_MT_MIN_EVENTS``).  When pthreads are unavailable
(or ``REPRO_NATIVE_PTHREADS=0``) the build falls back to a serial variant
of the same source — same results, one core.

Build model: the C source below is compiled on first use with the system C
compiler into ``build/`` at the repo root, cached under a tag over the
source, the compile command and the host CPU's feature flags
(:func:`_build_tag`), so the cost is one ``cc`` invocation per source
revision and CPU, not per process, and hosts sharing a build directory never
load each other's ``-march=native`` library; set ``REPRO_NATIVE_BUILD_DIR``
to relocate.  Concurrent first users — e.g.
process-pool workers racing on a cold build directory — serialise on an
exclusive file lock and publish the shared object by atomic rename, so
exactly one compile runs and no process ever loads a half-written library.
When no compiler is available, the build fails, or ``REPRO_NATIVE=0`` is
set, callers transparently keep the pure-NumPy path — same results, just
slower.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "get_lib",
    "native_enabled",
    "native_thread_count",
    "effective_threads",
    "threads_supported",
    "occupancy_native",
    "aloha_empty_native",
    "bfce_counts_native",
    "bfce_prefix_buckets",
    "analytic_scatter_native",
    "analytic_scatter_into",
    "scatter_round",
    "hll_update_native",
    "hll_merge_native",
]

_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>

#ifdef REPRO_MT
#include <pthread.h>
#endif

/* ------------------------------------------------------------------ */
/* Trial-block threading runtime.                                     */
/*                                                                    */
/* Every kernel below is embarrassingly parallel over its outer axis: */
/* item j depends only on its own seed(s) and writes only its own     */
/* output row, so running contiguous [lo, hi) blocks on separate      */
/* threads is bit-identical to the serial loop.  run_blocks() splits  */
/* `items` into at most `n_threads` balanced blocks; thread creation  */
/* failures degrade gracefully by running the unspawned blocks inline */
/* on the calling thread (still correct — blocks are independent).    */
/* ------------------------------------------------------------------ */

#define REPRO_MAX_THREADS 64

typedef void (*block_fn)(void *ctx, size_t lo, size_t hi, int tid);

int threads_compiled(void) {
#ifdef REPRO_MT
    return 1;
#else
    return 0;
#endif
}

#ifdef REPRO_MT
typedef struct { block_fn fn; void *ctx; size_t lo, hi; int tid; } block_job;

static void *run_block_job(void *arg) {
    block_job *job = (block_job *)arg;
    job->fn(job->ctx, job->lo, job->hi, job->tid);
    return NULL;
}
#endif

static void run_blocks(block_fn fn, void *ctx, size_t items, int n_threads) {
    if (items == 0)
        return;
#ifdef REPRO_MT
    size_t nt = n_threads < 1 ? 1 : (size_t)n_threads;
    if (nt > items)
        nt = items;
    if (nt > REPRO_MAX_THREADS)
        nt = REPRO_MAX_THREADS;
    if (nt > 1) {
        block_job jobs[REPRO_MAX_THREADS];
        pthread_t handles[REPRO_MAX_THREADS];
        size_t base = items / nt, rem = items % nt, lo = 0;
        for (size_t t = 0; t < nt; t++) {
            size_t len = base + (t < rem ? 1 : 0);
            jobs[t].fn = fn; jobs[t].ctx = ctx;
            jobs[t].lo = lo; jobs[t].hi = lo + len; jobs[t].tid = (int)t;
            lo += len;
        }
        size_t started = nt;
        for (size_t t = 1; t < nt; t++) {
            if (pthread_create(&handles[t], NULL, run_block_job, &jobs[t]) != 0) {
                /* Spawn failed: run this and all later blocks inline. */
                for (size_t u = t; u < nt; u++)
                    jobs[u].fn(jobs[u].ctx, jobs[u].lo, jobs[u].hi, jobs[u].tid);
                started = t;
                break;
            }
        }
        jobs[0].fn(jobs[0].ctx, jobs[0].lo, jobs[0].hi, 0);
        for (size_t t = 1; t < started; t++)
            pthread_join(handles[t], NULL);
        return;
    }
#else
    (void)n_threads;
#endif
    fn(ctx, 0, items, 0);
}

/* Ids per pass of the blocked kernels: a block's hashes (8 KiB) stay in
 * L1 between the vectorised hash pass and the scalar pass that reads them. */
#define REPRO_BLOCK 1024

/* SplitMix64 mixer — must match repro.rfid.hashing.mix64 exactly
 * (golden-ratio increment, then the finalizer). */
static inline uint64_t mix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/* Bucket-occupancy bitmasks of the geometric hash for many seeds.
 * seed_mix[j] = mix64(seed_j) is precomputed by the caller; out[j] gets
 * bit b set iff some id hashes to bucket b, with top_bit marking the
 * all-zero-hash event (bucket max_bits-1), exactly like the NumPy kernel.
 * Threaded over seeds: out[j] is a pure function of seed_mix[j].
 */
typedef struct {
    const uint64_t *ids; size_t n;
    const uint64_t *seed_mix;
    uint64_t mask, top_bit;
    uint64_t *out;
} occupancy_ctx;

static void occupancy_block(void *p, size_t lo, size_t hi, int tid) {
    occupancy_ctx *c = (occupancy_ctx *)p;
    (void)tid;
    for (size_t j = lo; j < hi; j++) {
        const uint64_t sm = c->seed_mix[j];
        uint64_t occ = 0, zero = 0;
        for (size_t i = 0; i < c->n; i++) {
            uint64_t h = mix64(c->ids[i] ^ sm) & c->mask;
            occ |= h & (~h + 1);   /* 0 contributes nothing */
            zero |= (uint64_t)(h == 0);
        }
        c->out[j] = occ | (zero ? c->top_bit : 0);
    }
}

void occupancy_batch(const uint64_t *ids, size_t n,
                     const uint64_t *seed_mix, size_t m,
                     uint64_t mask, uint64_t top_bit, uint64_t *out,
                     int n_threads) {
    occupancy_ctx c = {ids, n, seed_mix, mask, top_bit, out};
    run_blocks(occupancy_block, &c, m, n_threads);
}

/* Empty-slot counts of many framed-ALOHA frames.
 * thresholds[j] = ceil(rho_j * 2^53); join iff (h >> 11) < T, tested as
 * h < T << 11 (T = 2^53 means rho = 1: everyone joins).  counts is caller
 * scratch of n_threads x frame_size int64 entries — each thread owns the
 * row indexed by its tid, so frames can thread without sharing slots.
 * Three passes per REPRO_BLOCK ids: the join hashes (vectorised), a
 * branchless compaction of the joiners, then the slot hash, modulo and
 * increment for the joiners only — no data-dependent branch per id.
 */
typedef struct {
    const uint64_t *ids; size_t n;
    const uint64_t *join_mix, *slot_mix, *thresholds;
    uint64_t frame_size;
    int64_t *counts;
    int64_t *empty_out;
} aloha_ctx;

static void aloha_block(void *p, size_t lo, size_t hi, int tid) {
    aloha_ctx *c = (aloha_ctx *)p;
    const uint64_t full = (uint64_t)1 << 53;
    int64_t *counts = c->counts + (size_t)tid * c->frame_size;
    uint64_t hash[REPRO_BLOCK], joiners[REPRO_BLOCK];
    for (size_t j = lo; j < hi; j++) {
        const uint64_t jm = c->join_mix[j], sm = c->slot_mix[j];
        const uint64_t t = c->thresholds[j];
        const int all_join = t >= full;
        const uint64_t thr = all_join ? 0 : (t << 11);
        memset(counts, 0, c->frame_size * sizeof(int64_t));
        for (size_t b = 0; b < c->n; b += REPRO_BLOCK) {
            const uint64_t *ids = c->ids + b;
            const size_t len = c->n - b < REPRO_BLOCK ? c->n - b : REPRO_BLOCK;
            const uint64_t *join = ids;
            size_t m = len;
            if (!all_join) {
                /* Join hashes (vectorised), then a branchless compaction. */
                for (size_t i = 0; i < len; i++)
                    hash[i] = mix64(ids[i] ^ jm);
                m = 0;
                for (size_t i = 0; i < len; i++) {
                    joiners[m] = ids[i];
                    m += hash[i] < thr;
                }
                join = joiners;
            }
            for (size_t i = 0; i < m; i++)
                counts[mix64(join[i] ^ sm) % c->frame_size]++;
        }
        int64_t empty = 0;
        for (uint64_t s = 0; s < c->frame_size; s++)
            empty += (counts[s] == 0);
        c->empty_out[j] = empty;
    }
}

void aloha_empty_batch(const uint64_t *ids, size_t n,
                       const uint64_t *join_mix, const uint64_t *slot_mix,
                       const uint64_t *thresholds, size_t m,
                       uint64_t frame_size, int64_t *counts,
                       int64_t *empty_out, int n_threads) {
    aloha_ctx c = {ids, n, join_mix, slot_mix, thresholds, frame_size,
                   counts, empty_out};
    run_blocks(aloha_block, &c, m, n_threads);
}

/* Per-slot response counts of BFCE frames.
 * One call covers a chunk of c frames sharing the population: frame c's
 * row of counts accumulates one increment per responding (hash-index,
 * tag) event, with the persistence test mix64(id ^ mes) < pn << 54 — the
 * same integer rewrite of u < p_n/1024 the NumPy paths use — and slot
 * (rn ^ rs) & slot_mask.  pn <= 0 leaves the row all-zero (nobody responds);
 * pn >= 1024 skips the hash entirely (everybody responds).  mode_static = 1
 * reuses the j = 0 decision for every hash index (the "static" persistence
 * mode); 0 decides per event ("event" mode).  The rn_window mode stays on
 * the NumPy path.  Threaded over frames: each frame's row is written by
 * exactly one thread.  Counts are sums of per-event increments, so the
 * order in which a row's events are visited cannot change a count.
 *
 * Dense frames (keys == NULL): rows of w = slot_mask + 1 slots, every tag
 * visited.  Three passes per REPRO_BLOCK ids and hash index, as in
 * aloha_block: the persistence hashes (vectorised), a branchless
 * compaction of the responders' block offsets, then the slot increments —
 * no data-dependent branch per event (at the accurate frame's pn ~ 100 the
 * persistence test is a coin flip to a branch predictor).  Compacting
 * offsets rather than slots keeps the compaction loop to one store per id;
 * the ~pn/1024 responders compute their slots in the increment pass.
 *
 * Power-of-two truncated frames (starts != NULL): rows of obs = slot_mask + 1
 * observed slots out of the announced w.  An event lands in the prefix iff
 * rn & h_mask == rs & h_mask (the high slot bits cancel), so with the tags
 * bucketed by (rn & h_mask) >> shift (bfce_prefix_buckets) each (frame,
 * hash) row's contributors are one bucket, [starts[b], starts[b + 1]); ids
 * and rn arrive in bucket order, so the bucket is read contiguously.  The
 * decision is added to the slot (0 or 1) instead of branching on it.
 */
typedef struct {
    const uint64_t *ids; const uint32_t *rn; size_t n;
    const uint32_t *rs32; const uint64_t *mes; const int64_t *pn;
    size_t k; uint32_t slot_mask; int mode_static;
    const int64_t *starts; uint32_t h_mask; int shift;
    int64_t *counts;
} bfce_ctx;

/* Bucket index of a power-of-two truncated frame: a stable counting sort
 * of the tags by (rn & h_mask) >> shift into n_buckets buckets.  starts
 * (n_buckets + 1 entries) gets each bucket's first position and n at the
 * end; ids_out/rn_out get the tags in bucket order. */
void bfce_prefix_buckets(const uint64_t *ids, const uint32_t *rn, size_t n,
                         uint32_t h_mask, int shift, size_t n_buckets,
                         int64_t *starts, uint64_t *ids_out, uint32_t *rn_out) {
    memset(starts, 0, (n_buckets + 1) * sizeof(int64_t));
    for (size_t i = 0; i < n; i++)
        starts[((rn[i] & h_mask) >> shift) + 1]++;
    for (size_t b = 0; b < n_buckets; b++)
        starts[b + 1] += starts[b];
    for (size_t i = 0; i < n; i++) {
        const int64_t at = starts[(rn[i] & h_mask) >> shift]++;
        ids_out[at] = ids[i];
        rn_out[at] = rn[i];
    }
    /* Each starts[b] advanced to its bucket's end: shift the ends back. */
    for (size_t b = n_buckets; b > 0; b--)
        starts[b] = starts[b - 1];
    starts[0] = 0;
}

static void bfce_dense_frame(const bfce_ctx *c, size_t f, int64_t *row,
                             int all_join, uint64_t thr) {
    const size_t k = c->k;
    const uint32_t mask = c->slot_mask;
    const uint32_t *rs = c->rs32 + f * k;
    const uint64_t *mes = c->mes + f * k;
    uint64_t hash[REPRO_BLOCK];
    uint32_t resp[REPRO_BLOCK];   /* block offsets of the responders */
    for (size_t b = 0; b < c->n; b += REPRO_BLOCK) {
        const uint64_t *ids = c->ids + b;
        const uint32_t *rn = c->rn + b;
        const size_t len = c->n - b < REPRO_BLOCK ? c->n - b : REPRO_BLOCK;
        size_t m = 0;
        for (size_t j = 0; j < k; j++) {
            const uint32_t s = rs[j];
            if (all_join) {
                for (size_t i = 0; i < len; i++)
                    row[(rn[i] ^ s) & mask]++;
                continue;
            }
            /* Static mode decides once per tag (j = 0) for every index. */
            if (j == 0 || !c->mode_static) {
                const uint64_t sm = mes[j];
                for (size_t i = 0; i < len; i++)
                    hash[i] = mix64(ids[i] ^ sm);
                m = 0;
                for (size_t i = 0; i < len; i++) {
                    resp[m] = (uint32_t)i;
                    m += hash[i] < thr;
                }
            }
            for (size_t i = 0; i < m; i++)
                row[(rn[resp[i]] ^ s) & mask]++;
        }
    }
}

static void bfce_prefix_frame(const bfce_ctx *c, size_t f, int64_t *row,
                              int all_join, uint64_t thr) {
    const size_t k = c->k;
    const uint32_t mask = c->slot_mask;
    const uint32_t *rs = c->rs32 + f * k;
    const uint64_t *mes = c->mes + f * k;
    uint64_t hash[REPRO_BLOCK];
    for (size_t j = 0; j < k; j++) {
        const uint32_t s = rs[j], bucket = (s & c->h_mask) >> c->shift;
        const size_t start = (size_t)c->starts[bucket], end = (size_t)c->starts[bucket + 1];
        const uint64_t sm = mes[c->mode_static ? 0 : j];
        for (size_t b = start; b < end; b += REPRO_BLOCK) {
            const uint64_t *ids = c->ids + b;
            const uint32_t *rn = c->rn + b;
            const size_t len = end - b < REPRO_BLOCK ? end - b : REPRO_BLOCK;
            if (all_join) {
                for (size_t i = 0; i < len; i++)
                    row[(rn[i] ^ s) & mask]++;
                continue;
            }
            for (size_t i = 0; i < len; i++)
                hash[i] = mix64(ids[i] ^ sm);
            for (size_t i = 0; i < len; i++)
                row[(rn[i] ^ s) & mask] += hash[i] < thr;
        }
    }
}

static void bfce_block(void *p, size_t lo, size_t hi, int tid) {
    const bfce_ctx *c = (const bfce_ctx *)p;
    const size_t slots = (size_t)c->slot_mask + 1;
    (void)tid;
    for (size_t f = lo; f < hi; f++) {
        int64_t *row = c->counts + f * slots;
        memset(row, 0, slots * sizeof(int64_t));
        const int64_t pn = c->pn[f];
        if (pn <= 0)
            continue;
        const int all_join = pn >= 1024;
        const uint64_t thr = all_join ? 0 : ((uint64_t)pn << 54);
        if (c->starts)
            bfce_prefix_frame(c, f, row, all_join, thr);
        else
            bfce_dense_frame(c, f, row, all_join, thr);
    }
}

void bfce_counts_batch(const uint64_t *ids, const uint32_t *rn, size_t n,
                       const uint32_t *rs32, const uint64_t *mes,
                       const int64_t *pn, size_t c_frames, size_t k,
                       uint32_t slot_mask, int mode_static,
                       const int64_t *starts, uint32_t h_mask, int shift,
                       int64_t *counts, int n_threads) {
    bfce_ctx c = {ids, rn, n, rs32, mes, pn, k, slot_mask, mode_static,
                  starts, h_mask, shift, counts};
    run_blocks(bfce_block, &c, c_frames, n_threads);
}

/* Uniform ball scatter of the analytic occupancy engine: one frame throws
 * `balls` i.i.d. uniform balls into n_slots slots; ball i (1-based) lands
 * in slot mix64(seed + i) % n_slots — the same counter-mode SplitMix64
 * stream as repro.rfid.occupancy.scatter_counts, so the two paths are
 * bit-identical.
 */
static void scatter_row(uint64_t seed, int64_t lo, int64_t hi,
                        uint64_t n_slots, int32_t *row) {
    /* Balls (lo, hi]: 1-based counter-mode stream.  int32 rows: the loop
     * is latency-bound on random increments, so halving the row footprint
     * (512 KiB at w = 2^17) roughly halves the cache-miss cost.  BFCE slot
     * counts are powers of two, so the per-ball 64-bit modulo (~30 cycles)
     * collapses to a mask; the generic path stays for SRC's arbitrary
     * frame sizes. */
    const int pow2 = (n_slots & (n_slots - 1)) == 0;
    const uint64_t mask = n_slots - 1;
    if (pow2)
        for (int64_t i = lo + 1; i <= hi; i++)
            row[mix64(seed + (uint64_t)i) & mask]++;
    else
        for (int64_t i = lo + 1; i <= hi; i++)
            row[mix64(seed + (uint64_t)i) % n_slots]++;
}

/* Single-frame scatter threaded over disjoint ball ranges.  Thread 0
 * scatters its range directly into the output row; thread t > 0 into its
 * own caller-provided scratch row, merged by integer addition afterwards.
 * Slot totals are sums of per-ball increments, so any partition of the
 * ball range produces identical counts — bit-identical to the serial
 * scatter at every thread count.
 */
typedef struct {
    uint64_t seed; int64_t balls;
    uint64_t n_slots;
    int32_t *row;       /* output row (thread 0) */
    int32_t *scratch;   /* (n_threads - 1) x n_slots partial rows */
} balls_ctx;

static void balls_block(void *p, size_t lo, size_t hi, int tid) {
    balls_ctx *c = (balls_ctx *)p;
    int32_t *row = tid == 0 ? c->row : c->scratch + (size_t)(tid - 1) * c->n_slots;
    memset(row, 0, c->n_slots * sizeof(int32_t));
    scatter_row(c->seed, (int64_t)lo, (int64_t)hi, c->n_slots, row);
}

void analytic_scatter_balls(uint64_t seed, int64_t balls, uint64_t n_slots,
                            int32_t *row, int32_t *scratch, int n_threads) {
    balls_ctx c = {seed, balls, n_slots, row, scratch};
    int nt = n_threads < 1 ? 1 : n_threads;
    run_blocks(balls_block, &c, (size_t)balls, nt);
    if (balls == 0)
        memset(row, 0, n_slots * sizeof(int32_t));
#ifndef REPRO_MT
    nt = 1;   /* serial build: everything landed in row, nothing to merge */
#endif
    if (nt > (int)balls)
        nt = balls > 0 ? (int)balls : 1;
    if (nt > REPRO_MAX_THREADS)
        nt = REPRO_MAX_THREADS;
    for (int t = 1; t < nt; t++) {
        const int32_t *part = scratch + (size_t)(t - 1) * n_slots;
        for (uint64_t s = 0; s < n_slots; s++)
            row[s] += part[s];
    }
}

/* Fused HyperLogLog register scatter.  Per id: one SplitMix64 hash
 * (seed_mix = mix64(seed), same seeding idiom as uniform_hash), index from
 * the top p bits, rank = clz of the remaining window + 1 (capped at
 * 64 - p + 1 for the all-zero window), register max.  Bit-identical to the
 * NumPy path in repro.sketch.hll.hll_registers_numpy.  Blocked over
 * REPRO_BLOCK ids: a vectorised pass computes every index and rank, then a
 * scalar pass takes the register max (the only step with a dependency).
 * Threaded over disjoint id ranges like analytic_scatter_balls: thread 0
 * fills the output registers, thread t > 0 a caller-provided scratch row,
 * merged afterwards by element-wise max — max is associative and
 * commutative, so any partition of the ids yields identical registers.
 */
static inline int clz64_nonzero(uint64_t x) {
    /* Callers guarantee x != 0 (clz of 0 is undefined for the builtin). */
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_clzll(x);
#else
    int n = 0;
    if (!(x & 0xFFFFFFFF00000000ULL)) { n += 32; x <<= 32; }
    if (!(x & 0xFFFF000000000000ULL)) { n += 16; x <<= 16; }
    if (!(x & 0xFF00000000000000ULL)) { n += 8;  x <<= 8; }
    if (!(x & 0xF000000000000000ULL)) { n += 4;  x <<= 4; }
    if (!(x & 0xC000000000000000ULL)) { n += 2;  x <<= 2; }
    if (!(x & 0x8000000000000000ULL)) { n += 1; }
    return n;
#endif
}

typedef struct {
    const uint64_t *ids;
    uint64_t seed_mix;
    int p;
    uint8_t *registers;  /* output row, 2^p entries (thread 0) */
    uint8_t *scratch;    /* (n_threads - 1) x 2^p partial rows */
} hll_ctx;

static void hll_block(void *ptr, size_t lo, size_t hi, int tid) {
    hll_ctx *c = (hll_ctx *)ptr;
    const size_t m = (size_t)1 << c->p;
    const int idx_shift = 64 - c->p;
    const uint8_t max_rank = (uint8_t)(64 - c->p + 1);
    uint8_t *regs = tid == 0 ? c->registers : c->scratch + (size_t)(tid - 1) * m;
    uint8_t rank[REPRO_BLOCK];
    uint32_t index[REPRO_BLOCK];
    memset(regs, 0, m);
    for (size_t b = lo; b < hi; b += REPRO_BLOCK) {
        const size_t len = hi - b < REPRO_BLOCK ? hi - b : REPRO_BLOCK;
        /* Vectorised pass: hash, register index and rank of every id
         * (tail | 1 keeps clz defined without changing a nonzero tail's
         * leading-zero count). */
        for (size_t i = 0; i < len; i++) {
            const uint64_t h = mix64(c->ids[b + i] ^ c->seed_mix);
            const uint64_t tail = h << c->p;
            rank[i] = tail ? (uint8_t)(clz64_nonzero(tail | 1) + 1) : max_rank;
            index[i] = (uint32_t)(h >> idx_shift);
        }
        for (size_t i = 0; i < len; i++)   /* scalar register max */
            if (rank[i] > regs[index[i]])
                regs[index[i]] = rank[i];
    }
}

void hll_update_batch(const uint64_t *ids, size_t n, uint64_t seed_mix,
                      int p, uint8_t *registers, uint8_t *scratch,
                      int n_threads) {
    hll_ctx c = {ids, seed_mix, p, registers, scratch};
    int nt = n_threads < 1 ? 1 : n_threads;
    run_blocks(hll_block, &c, n, nt);
    const size_t m = (size_t)1 << p;
    if (n == 0)
        memset(registers, 0, m);
#ifndef REPRO_MT
    nt = 1;   /* serial build: everything landed in registers */
#endif
    if (nt > (int)n)
        nt = n > 0 ? (int)n : 1;
    if (nt > REPRO_MAX_THREADS)
        nt = REPRO_MAX_THREADS;
    for (int t = 1; t < nt; t++) {
        const uint8_t *part = scratch + (size_t)(t - 1) * m;
        for (size_t s = 0; s < m; s++)
            if (part[s] > registers[s])
                registers[s] = part[s];
    }
}

/* Coordinator union: element-wise max over n_rows stacked register rows.
 * The column loop auto-vectorizes under -O3 (uint8 max has a direct SIMD
 * instruction), so at coordinator scale (256 readers x 4 KiB) the merge is
 * a few microseconds of streaming reads — small against the fixed
 * estimate cost, which is what keeps the coordinator step flat in the
 * reader count.  Serial on purpose: the working set is L2-resident and a
 * thread spawn costs more than the whole merge.
 */
void hll_merge_batch(const uint8_t *rows, size_t n_rows, size_t m,
                     uint8_t *out) {
    /* Branchless max so the column loop vectorizes (pmaxub/umax); a
     * conditional store would cost a branch per byte and run ~50x slower. */
    memset(out, 0, m);
    for (size_t r = 0; r < n_rows; r++) {
        const uint8_t *row = rows + r * m;
        for (size_t s = 0; s < m; s++)
            out[s] = row[s] > out[s] ? row[s] : out[s];
    }
}
"""

_U64P = ctypes.POINTER(ctypes.c_uint64)
_U32P = ctypes.POINTER(ctypes.c_uint32)
_I64P = ctypes.POINTER(ctypes.c_int64)
_I32P = ctypes.POINTER(ctypes.c_int32)
_U8P = ctypes.POINTER(ctypes.c_uint8)

_lib: ctypes.CDLL | None = None
#: The same library through a ``PyDLL`` handle, whose calls keep the GIL
#: (see :func:`analytic_scatter_into`).
_gil_lib: ctypes.PyDLL | None = None
_build_failed = False

#: Hard cap on kernel threads (matches REPRO_MAX_THREADS in the C source;
#: requests above it are clamped — an over-subscription guard, not a tuning
#: knob).
_THREAD_CAP = 64

#: Compile flags of every build variant.  ``-march=native`` lets the compiler
#: vectorise the SplitMix64 hash passes with the host's widest integer SIMD
#: (64-bit multiplies need AVX-512DQ on x86), which is why the build tag
#: covers the CPU signature.
_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")

#: Minimum (item × per-item) event volume before a call spreads over
#: threads: spawning a pthread costs tens of microseconds, so calls smaller
#: than this finish faster on one core.  Purely a scheduling choice — the
#: outputs are bit-identical either way.
_MT_MIN_EVENTS = 1 << 17


def native_enabled() -> bool:
    """Native kernels wanted (default) — ``REPRO_NATIVE=0`` opts out."""
    return os.environ.get("REPRO_NATIVE", "1") != "0"


def _pthreads_wanted() -> bool:
    """Build the pthread variant (default) — ``REPRO_NATIVE_PTHREADS=0``
    forces the serial-fallback build (used by tests and as a manual escape
    hatch on toolchains whose ``-pthread`` is broken)."""
    return os.environ.get("REPRO_NATIVE_PTHREADS", "1") != "0"


def native_thread_count() -> int:
    """Kernel threads per native call, from ``REPRO_NATIVE_THREADS``.

    Parsing rules (re-read on every call, so benchmarks can flip the env
    var without reloading):

    * a positive integer requests exactly that many threads, clamped to the
      over-subscription cap (``64``);
    * unset, empty, ``0``, negative, or unparsable values mean *auto*: the
      affinity-visible core count (``len(os.sched_getaffinity(0))`` where
      available, else ``os.cpu_count()``), clamped the same way — on a
      pinned CI runner or cgroup-limited container this sees the cores the
      process may actually use, not the machine total.
    """
    raw = os.environ.get("REPRO_NATIVE_THREADS", "").strip()
    if raw:
        try:
            requested = int(raw)
        except ValueError:
            requested = 0  # garbage falls back to auto
        if requested >= 1:
            return min(requested, _THREAD_CAP)
    try:
        auto = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        auto = os.cpu_count() or 1
    return max(1, min(auto, _THREAD_CAP))


def divide_thread_budget(workers: int) -> None:
    """Process-pool worker initializer: split the auto kernel-thread budget.

    Without this, every worker of a ``workers``-process pool would
    auto-detect all visible cores and the host would run workers × cores
    kernel threads.  Called inside each worker (pass as the executor's
    ``initializer`` with ``initargs=(workers,)``), it caps the worker's
    kernel threads at ``max(1, visible // workers)`` — an explicitly set
    ``REPRO_NATIVE_THREADS`` is inherited from the parent and respected
    untouched.  Purely a scheduling knob: outputs are bit-identical at any
    thread count.
    """
    if os.environ.get("REPRO_NATIVE_THREADS", "").strip():
        return
    try:
        auto = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        auto = os.cpu_count() or 1
    os.environ["REPRO_NATIVE_THREADS"] = str(max(1, auto // max(1, workers)))


def threads_supported() -> bool:
    """Whether the loaded kernel library was built with pthread support."""
    lib = get_lib()
    return bool(lib is not None and lib.threads_compiled())


def effective_threads() -> int:
    """Threads a large native call would actually use right now.

    1 when the native library is absent or was built without pthreads;
    otherwise :func:`native_thread_count`.  Callers sizing work chunks for
    the threaded kernels (e.g. the batched frame engine's streaming budget)
    use this rather than the raw env parse.
    """
    lib = get_lib()
    if lib is None or not lib.threads_compiled():
        return 1
    return native_thread_count()


def _threads_for(items: int, events: int) -> int:
    """Thread count for one kernel call of ``items`` blocks / ``events`` work."""
    if items <= 1 or events < _MT_MIN_EVENTS:
        return 1
    return max(1, min(effective_threads(), items))


def _record_call(
    kernel: str, threads: int, seconds: float, calls: int = 1, threaded: int | None = None
) -> None:
    """Kernel observability: thread fan-out, call counts, one wall-time sample.

    One call by default (threaded when it fanned out); a metered round
    (:func:`scatter_round`) passes its ``calls``/``threaded`` totals, its
    last call's ``threads`` and its summed ``seconds``.
    """
    from ..obs import metrics as _metrics

    if threaded is None:
        threaded = calls if threads > 1 else 0
    _metrics.gauge("native.threads_used", threads)
    _metrics.inc("kernel.native.calls", calls)
    if threaded:
        _metrics.inc("kernel.native.calls_threaded", threaded)
    _metrics.observe(f"kernel.native.{kernel}.seconds", seconds)


class _ScatterTally(threading.local):
    """This thread's open :func:`scatter_round` (``open`` is False outside one)."""

    open = False
    calls = threaded = threads = 0
    seconds = 0.0


_scatter_tally = _ScatterTally()


def _record_scatter(calls: int, threaded: int, threads: int, seconds: float) -> None:
    from ..obs import metrics as _metrics

    _metrics.inc("kernel.native.analytic_scatter", calls)
    _record_call("analytic_scatter", threads, seconds, calls, threaded)


@contextmanager
def scatter_round():
    """Meter every :func:`analytic_scatter_into` call of the block once.

    Inside the block a call only tallies itself; on exit the round writes
    each metric once — ``kernel.native.analytic_scatter``,
    ``kernel.native.calls`` and ``kernel.native.calls_threaded`` carry the
    exact call totals, ``native.threads_used`` the last call's fan-out, and
    ``kernel.native.analytic_scatter.seconds`` gets one sample, the round's
    summed kernel wall time.
    """
    tally = _scatter_tally
    tally.open = True
    tally.calls = tally.threaded = 0
    tally.seconds = 0.0
    try:
        yield
    finally:
        tally.open = False
        if tally.calls:
            _record_scatter(tally.calls, tally.threaded, tally.threads, tally.seconds)


def _build_dir() -> Path:
    """Where compiled kernels live (``REPRO_NATIVE_BUILD_DIR`` overrides)."""
    override = os.environ.get("REPRO_NATIVE_BUILD_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "build"


@contextmanager
def _build_lock(build_dir: Path):
    """Exclusive advisory lock serialising first-use compiles.

    Concurrent process-pool workers racing a cold build directory must not
    compile on top of each other: the winner compiles while the rest block,
    then find the finished ``.so``.  Falls back to unlocked operation where
    ``fcntl`` is unavailable — the atomic-rename publish still prevents a
    torn library, the lock only avoids duplicate compiles.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        yield
        return
    lock_path = build_dir / ".build.lock"
    try:
        fh = open(lock_path, "a+")
    except OSError:  # pragma: no cover - unwritable dir already handled
        yield
        return
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        fh.close()  # releases the lock


def _cpu_signature() -> str:
    """The host CPU's instruction-set features.

    ``-march=native`` compiles for exactly these features, so a library
    built on one host may fault on another; the build tag covers this
    string so hosts sharing a build directory never load each other's
    library.  Reads the first ``flags`` (x86) or ``Features`` (ARM) line of
    ``/proc/cpuinfo``, else the machine and processor names.
    """
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _build_tag(command: list[str], cpu: str) -> str:
    """Cache tag of one compiled variant: kernel source, compile command
    (compiler and every flag) and the host CPU signature."""
    digest = hashlib.sha256(_SOURCE.encode())
    digest.update("\0".join([*command, cpu]).encode())
    return digest.hexdigest()[:16]


def _compile_variant(build_dir: Path, variant: str, extra_cc: list[str]) -> Path | None:
    """Compile one build variant under the lock; returns the .so path.

    An already published library is reused without running the compiler.
    """
    command = [os.environ.get("CC", "cc"), *_CFLAGS, *extra_cc]
    tag = _build_tag(command, _cpu_signature())
    so_path = build_dir / f"_native_kernels_{tag}_{variant}.so"
    if so_path.exists():
        return so_path
    src_path = build_dir / f"_native_kernels_{tag}.c"
    if not src_path.exists():
        tmp_src = build_dir / f".{src_path.name}.{os.getpid()}.tmp"
        tmp_src.write_text(_SOURCE)
        os.replace(tmp_src, src_path)
    tmp_so = build_dir / f".{so_path.name}.{os.getpid()}.tmp"
    try:
        subprocess.run(
            [*command, str(src_path), "-o", str(tmp_so)],
            check=True,
            capture_output=True,
            timeout=120,
        )
    except (OSError, subprocess.SubprocessError):
        tmp_so.unlink(missing_ok=True)
        return None
    os.replace(tmp_so, so_path)  # atomic publish: loaders never see a torn .so
    return so_path


def _compile() -> tuple[ctypes.CDLL, ctypes.PyDLL] | None:
    """Compile the kernel source (cached by :func:`_build_tag`) and load it.

    Tries the pthread build first, then a serial fallback of the same
    source (``REPRO_MT`` undefined) on hosts whose toolchain lacks
    ``-pthread`` — the kernels then run their single-threaded path with
    identical outputs.  Returns a GIL-releasing ``CDLL`` handle and a
    GIL-holding ``PyDLL`` handle on the one loaded library.
    """
    build_dir = _build_dir()
    try:
        build_dir.mkdir(parents=True, exist_ok=True)
    except OSError:
        build_dir = Path(tempfile.mkdtemp(prefix="repro_native_"))
    variants = [("mt", ["-pthread", "-DREPRO_MT"]), ("st", [])]
    if not _pthreads_wanted():
        variants = [("st", [])]
    so_path = None
    with _build_lock(build_dir):
        for variant, extra_cc in variants:
            so_path = _compile_variant(build_dir, variant, extra_cc)
            if so_path is not None:
                break
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
        gil_lib = ctypes.PyDLL(str(so_path))
    except OSError:
        return None
    lib.threads_compiled.argtypes = []
    lib.threads_compiled.restype = ctypes.c_int
    lib.occupancy_batch.argtypes = [
        _U64P, ctypes.c_size_t, _U64P, ctypes.c_size_t,
        ctypes.c_uint64, ctypes.c_uint64, _U64P, ctypes.c_int,
    ]
    lib.occupancy_batch.restype = None
    lib.aloha_empty_batch.argtypes = [
        _U64P, ctypes.c_size_t, _U64P, _U64P, _U64P, ctypes.c_size_t,
        ctypes.c_uint64, _I64P, _I64P, ctypes.c_int,
    ]
    lib.aloha_empty_batch.restype = None
    lib.bfce_counts_batch.argtypes = [
        _U64P, _U32P, ctypes.c_size_t, _U32P, _U64P, _I64P,
        ctypes.c_size_t, ctypes.c_size_t, ctypes.c_uint32,
        ctypes.c_int, _I64P, ctypes.c_uint32, ctypes.c_int, _I64P, ctypes.c_int,
    ]
    lib.bfce_counts_batch.restype = None
    lib.bfce_prefix_buckets.argtypes = [
        _U64P, _U32P, ctypes.c_size_t, ctypes.c_uint32, ctypes.c_int,
        ctypes.c_size_t, _I64P, _U64P, _U32P,
    ]
    lib.bfce_prefix_buckets.restype = None
    for handle in (lib, gil_lib):
        # Rows go in as raw addresses: this kernel runs once per analytic
        # frame, where ``data_as`` costs more than the call itself.
        handle.analytic_scatter_balls.argtypes = [
            ctypes.c_uint64, ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_int,
        ]
        handle.analytic_scatter_balls.restype = None
    lib.hll_update_batch.argtypes = [
        _U64P, ctypes.c_size_t, ctypes.c_uint64, ctypes.c_int, _U8P, _U8P,
        ctypes.c_int,
    ]
    lib.hll_update_batch.restype = None
    lib.hll_merge_batch.argtypes = [_U8P, ctypes.c_size_t, ctypes.c_size_t, _U8P]
    lib.hll_merge_batch.restype = None
    return lib, gil_lib


def get_lib() -> ctypes.CDLL | None:
    """The loaded kernel library, or None when disabled/unbuildable."""
    global _lib, _gil_lib, _build_failed
    if not native_enabled():
        return None
    if _lib is None and not _build_failed:
        handles = _compile()
        _build_failed = handles is None
        if handles is not None:
            _lib, _gil_lib = handles
        from ..obs import metrics as _metrics

        _metrics.inc("kernel.native.build.ok" if _lib else "kernel.native.build.failed")
        if _lib is not None:
            _metrics.gauge(
                "native.threads_supported", float(bool(_lib.threads_compiled()))
            )
    return _lib


def _as_u64p(a: np.ndarray):
    return a.ctypes.data_as(_U64P)


def occupancy_native(
    ids: np.ndarray, seed_mix: np.ndarray, mask: int, top_bit: int
) -> np.ndarray:
    """C fast path of the occupancy kernel (caller checked :func:`get_lib`)."""
    lib = get_lib()
    out = np.empty(seed_mix.size, dtype=np.uint64)
    nt = _threads_for(seed_mix.size, seed_mix.size * ids.size)
    t0 = time.perf_counter()
    lib.occupancy_batch(
        _as_u64p(ids), ids.size, _as_u64p(seed_mix), seed_mix.size,
        ctypes.c_uint64(mask), ctypes.c_uint64(top_bit), _as_u64p(out),
        ctypes.c_int(nt),
    )
    _record_call("occupancy", nt, time.perf_counter() - t0)
    return out


def aloha_empty_native(
    ids: np.ndarray,
    join_mix: np.ndarray,
    slot_mix: np.ndarray,
    thresholds: np.ndarray,
    frame_size: int,
) -> np.ndarray:
    """C fast path of the ALOHA empty-count kernel (one scratch row per thread)."""
    lib = get_lib()
    nt = _threads_for(thresholds.size, thresholds.size * ids.size)
    counts = np.empty(nt * frame_size, dtype=np.int64)
    empty = np.empty(thresholds.size, dtype=np.int64)
    t0 = time.perf_counter()
    lib.aloha_empty_batch(
        _as_u64p(ids), ids.size, _as_u64p(join_mix), _as_u64p(slot_mix),
        _as_u64p(thresholds), thresholds.size, ctypes.c_uint64(frame_size),
        counts.ctypes.data_as(_I64P), empty.ctypes.data_as(_I64P),
        ctypes.c_int(nt),
    )
    _record_call("aloha_empty", nt, time.perf_counter() - t0)
    return empty


def bfce_counts_native(
    ids: np.ndarray,
    rn: np.ndarray,
    rs32: np.ndarray,
    mes: np.ndarray,
    pn: np.ndarray,
    w: int,
    static_mode: bool,
    prefix: tuple | None = None,
) -> np.ndarray:
    """C fast path of the BFCE frame-count kernels.

    ``rs32``/``mes`` are the chunk's ``(C, k)`` slot seeds and premixed
    event seeds, ``pn`` the ``(C,)`` persistence numerators.  Without
    ``prefix`` the frames are dense: returns int64 counts of shape
    ``(C, w)``, row-identical to the NumPy dense path of
    :func:`repro.rfid.frames._batched_chunk_counts`.  ``prefix`` is
    ``(observe_slots, starts)`` of a power-of-two truncated frame, with
    ``ids``/``rn`` in the bucket order of :func:`bfce_prefix_buckets`:
    returns the ``(C, observe_slots)`` counts of the observed prefix,
    row-identical to the NumPy truncated path.  Threading is over frames
    (rows), so the chunk size chosen by the caller bounds the usable
    parallelism.
    """
    lib = get_lib()
    c_frames, k = rs32.shape
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    rn = np.ascontiguousarray(rn, dtype=np.uint32)
    rs32 = np.ascontiguousarray(rs32, dtype=np.uint32)
    mes = np.ascontiguousarray(mes, dtype=np.uint64)
    pn = np.ascontiguousarray(pn, dtype=np.int64)
    slots, starts, events = w, None, c_frames * k * ids.size
    if prefix is not None:
        slots, starts = prefix
        events = events * slots // w
    counts = np.empty((c_frames, slots), dtype=np.int64)
    nt = _threads_for(c_frames, events)
    t0 = time.perf_counter()
    lib.bfce_counts_batch(
        _as_u64p(ids), rn.ctypes.data_as(_U32P), ids.size,
        rs32.ctypes.data_as(_U32P), _as_u64p(mes),
        pn.ctypes.data_as(_I64P), c_frames, k,
        ctypes.c_uint32(slots - 1), ctypes.c_int(int(static_mode)),
        None if starts is None else starts.ctypes.data_as(_I64P),
        ctypes.c_uint32((w - 1) ^ (slots - 1)), ctypes.c_int(slots.bit_length() - 1),
        counts.ctypes.data_as(_I64P), ctypes.c_int(nt),
    )
    _record_call("bfce_counts", nt, time.perf_counter() - t0)
    return counts


def bfce_prefix_buckets(
    ids: np.ndarray, rn: np.ndarray, w: int, observe_slots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bucket index of a power-of-two truncated frame, for the prefix pass.

    A stable counting sort of the tags by ``(rn & h) >> log2(observe_slots)``
    with ``h = (w-1) ^ (observe_slots-1)``: returns the ``w /
    observe_slots + 1`` bucket starts (the last is ``n``) and the ids and
    RNs in bucket order — the same order as the stable argsort of
    :meth:`repro.rfid.frames._BatchWorkspace.prefix_index`, in one O(n)
    pass.
    """
    lib = get_lib()
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    rn = np.ascontiguousarray(rn, dtype=np.uint32)
    n_buckets = w // observe_slots
    starts = np.empty(n_buckets + 1, dtype=np.int64)
    ids_out, rn_out = np.empty_like(ids), np.empty_like(rn)
    lib.bfce_prefix_buckets(
        _as_u64p(ids), rn.ctypes.data_as(_U32P), ids.size,
        ctypes.c_uint32((w - 1) ^ (observe_slots - 1)),
        ctypes.c_int(observe_slots.bit_length() - 1), n_buckets,
        starts.ctypes.data_as(_I64P), _as_u64p(ids_out), rn_out.ctypes.data_as(_U32P),
    )
    return starts, ids_out, rn_out


def analytic_scatter_native(seed: int, balls: int, n_slots: int) -> np.ndarray:
    """C fast path of the analytic uniform ball scatter, one frame.

    Returns the int32 counts of ``balls`` balls over ``n_slots`` slots,
    identical to the NumPy path of :func:`repro.rfid.occupancy.scatter_counts`
    (a new array filled by :func:`analytic_scatter_into`).
    """
    counts = np.empty(n_slots, dtype=np.int32)
    analytic_scatter_into(counts.ctypes.data, seed, balls, n_slots)
    return counts


def analytic_scatter_into(address: int, seed: int, balls: int, n_slots: int) -> None:
    """Scatter ``balls`` balls over the ``n_slots`` int32 slots at ``address``.

    The one native scatter call: the row at ``address`` (contiguous int32,
    ``n_slots`` long, overwritten) ends up identical to the NumPy path of
    :func:`repro.rfid.occupancy.scatter_counts`.  A call of at least
    ``_MT_MIN_EVENTS`` balls threads over disjoint ball ranges, with
    per-thread partial rows merged by exact integer addition (identical
    counts at every thread count), and releases the GIL.  A smaller call
    runs on one thread through the ``PyDLL`` handle, which keeps the GIL:
    it finishes sooner than a GIL handoff to another thread and back would.
    Inside a :func:`scatter_round` the call only tallies itself.
    """
    if balls >= 1 << 31:
        raise ValueError("per-frame ball count must fit int32")
    if _lib is None:
        get_lib()
    if balls < _MT_MIN_EVENTS:
        nt, scatter, scratch = 1, _gil_lib.analytic_scatter_balls, None
    else:
        nt, scatter = _threads_for(balls, balls), _lib.analytic_scatter_balls
        scratch = np.empty((nt - 1, n_slots), dtype=np.int32)
    t0 = time.perf_counter()
    scatter(
        seed, balls, n_slots, address,
        None if scratch is None else scratch.ctypes.data, nt,
    )
    seconds = time.perf_counter() - t0
    tally = _scatter_tally
    if tally.open:
        tally.calls += 1
        tally.threaded += nt > 1
        tally.threads = nt
        tally.seconds += seconds
    else:
        _record_scatter(1, int(nt > 1), nt, seconds)


def hll_update_native(ids: np.ndarray, seed_mix: int, p: int) -> np.ndarray:
    """C fast path of the fused HLL register scatter.

    ``ids`` is a contiguous uint64 tagID array, ``seed_mix`` the premixed
    hash seed (``mix64(seed)``), ``p`` the precision.  Returns a fresh
    ``2^p`` uint8 register array, bit-identical to
    :func:`repro.sketch.hll.hll_registers_numpy` at every thread count —
    per-thread partial registers are merged by element-wise max, which is
    associative and commutative over any partition of the ids.
    """
    lib = get_lib()
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    m = 1 << p
    registers = np.empty(m, dtype=np.uint8)
    nt = _threads_for(ids.size, ids.size)
    scratch = np.empty((max(0, nt - 1), m), dtype=np.uint8)
    t0 = time.perf_counter()
    lib.hll_update_batch(
        _as_u64p(ids), ids.size, ctypes.c_uint64(seed_mix & ((1 << 64) - 1)),
        ctypes.c_int(p), registers.ctypes.data_as(_U8P),
        scratch.ctypes.data_as(_U8P), ctypes.c_int(nt),
    )
    _record_call("hll_update", nt, time.perf_counter() - t0)
    return registers


def hll_merge_native(rows: np.ndarray) -> np.ndarray:
    """C fast path of the coordinator register union.

    ``rows`` is a contiguous ``(R, m)`` uint8 array of stacked register
    rows; returns their element-wise max as a fresh ``(m,)`` uint8 array,
    identical to ``np.maximum.reduce(rows, axis=0)``.  Serial by design —
    the merge is a streaming pass over an L2-resident working set.
    """
    lib = get_lib()
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    n_rows, m = rows.shape
    out = np.empty(m, dtype=np.uint8)
    t0 = time.perf_counter()
    lib.hll_merge_batch(
        rows.ctypes.data_as(_U8P), n_rows, m, out.ctypes.data_as(_U8P)
    )
    _record_call("hll_merge", 1, time.perf_counter() - t0)
    return out
