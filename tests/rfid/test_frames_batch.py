"""Bit-equivalence tests for the batched frame kernel.

The batched kernel's contract is not "statistically similar" but *identical
bits*: for every frame ``t`` of a batch, ``run_bfce_frame_batch`` must
reproduce slot-for-slot the Bloom vector, idle ratio and response count that
``run_bfce_frame`` produces for the same ``(seeds[t], p_n[t])`` pair.  The
property-style sweep below crosses every persistence mode with both RN
sources, truncated and full frames, boundary persistence numerators and
chunk boundaries, because each of those axes exercises a different code path
of the kernel (dense decisions, sparse prefix gather, bucket index,
degenerate rows, chunk stitching).
"""

import numpy as np
import pytest

import repro.rfid.frames as frames_mod
from repro.rfid.channel import NoisyChannel
from repro.rfid.frames import BatchFrameResult, run_bfce_frame, run_bfce_frame_batch
from repro.rfid.ids import uniform_ids
from repro.rfid.tags import TagPopulation

#: Boundary-heavy persistence numerators: never/always respond, the grid
#: ends, and a few interior values (one per frame of a batch).
PN_CASES = np.array([0, 1, 8, 55, 300, 512, 1023, 1024], dtype=np.int64)


def _seed_matrix(n_frames: int, k: int = 3, seed: int = 99) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 32, size=(n_frames, k), dtype=np.uint64)


def _assert_batch_matches_serial(population, *, w, seeds, pns, observe_slots):
    batch = run_bfce_frame_batch(
        population, w=w, seeds=seeds, p_n=pns, observe_slots=observe_slots
    )
    for t in range(seeds.shape[0]):
        ref = run_bfce_frame(
            population,
            w=w,
            seeds=seeds[t],
            p_n=int(pns[t]),
            observe_slots=observe_slots,
        )
        assert np.array_equal(ref.bloom, batch.blooms[t]), f"bloom mismatch at t={t}"
        assert ref.rho == batch.rho(t), f"rho mismatch at t={t}"
        assert ref.responses == int(batch.responses[t]), f"responses mismatch at t={t}"


class TestBatchKernelEquivalence:
    @pytest.mark.parametrize("mode", ["event", "rn_window", "static"])
    @pytest.mark.parametrize("rn_source", ["tagid", "random"])
    def test_full_frame_all_modes(self, mode, rn_source):
        pop = TagPopulation(
            uniform_ids(4_000, seed=3),
            rn_source=rn_source,
            rn_seed=77,
            persistence_mode=mode,
        )
        _assert_batch_matches_serial(
            pop, w=1024, seeds=_seed_matrix(8), pns=PN_CASES, observe_slots=1024
        )

    @pytest.mark.parametrize("mode", ["event", "rn_window", "static"])
    @pytest.mark.parametrize("observe_slots", [32, 1024])
    def test_truncated_frame_all_modes(self, mode, observe_slots):
        """Truncated batches take the sparse prefix path (power-of-two
        prefixes additionally take the rn-bucket index)."""
        pop = TagPopulation(uniform_ids(4_000, seed=4), persistence_mode=mode)
        _assert_batch_matches_serial(
            pop,
            w=8192,
            seeds=_seed_matrix(8, seed=5),
            pns=PN_CASES,
            observe_slots=observe_slots,
        )

    def test_non_power_of_two_prefix(self):
        """A prefix length with no bucket structure falls back to the
        blocked scan; the bits must not change."""
        pop = TagPopulation(uniform_ids(3_000, seed=6))
        _assert_batch_matches_serial(
            pop, w=1024, seeds=_seed_matrix(8, seed=7), pns=PN_CASES, observe_slots=96
        )

    @pytest.mark.parametrize("mode", ["event", "static"])
    @pytest.mark.parametrize("observe_slots", [3, 1000])
    def test_non_power_of_two_prefix_of_a_wide_frame(self, mode, observe_slots):
        """Truncated prefixes the native prefix pass does not take (no
        bucket structure) keep the NumPy scan and equal the serial kernel."""
        pop = TagPopulation(uniform_ids(5_000, seed=12), persistence_mode=mode)
        _assert_batch_matches_serial(
            pop, w=8192, seeds=_seed_matrix(8, seed=13), pns=PN_CASES,
            observe_slots=observe_slots,
        )

    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_tiny_and_empty_populations(self, n):
        pop = TagPopulation(uniform_ids(n, seed=8))
        _assert_batch_matches_serial(
            pop, w=64, seeds=_seed_matrix(8, seed=9), pns=PN_CASES, observe_slots=64
        )

    def test_chunk_boundaries_are_invisible(self, monkeypatch):
        """Forcing one-event chunks must not change a single bit — the chunk
        loop is a memory bound, not a semantic boundary."""
        monkeypatch.setattr(frames_mod, "_BATCH_EVENT_BUDGET", 1)
        pop = TagPopulation(uniform_ids(500, seed=10))
        _assert_batch_matches_serial(
            pop,
            w=1024,
            seeds=_seed_matrix(5, seed=11),
            pns=PN_CASES[:5],
            observe_slots=64,
        )

    def test_noisy_channel_per_frame_rngs(self):
        """A noisy channel routes through the per-frame fallback with one
        generator per frame, matching serial runs seeded identically."""
        pop = TagPopulation(uniform_ids(2_000, seed=12))
        seeds = _seed_matrix(5, seed=13)
        rngs = [np.random.default_rng(40 + t) for t in range(5)]
        batch = run_bfce_frame_batch(
            pop,
            w=1024,
            seeds=seeds,
            p_n=500,
            channel=NoisyChannel(0.05, 0.05),
            channel_rngs=rngs,
        )
        for t in range(5):
            ref = run_bfce_frame(
                pop,
                w=1024,
                seeds=seeds[t],
                p_n=500,
                channel=NoisyChannel(0.05, 0.05),
                channel_rng=np.random.default_rng(40 + t),
            )
            assert np.array_equal(ref.bloom, batch.blooms[t])


class TestPrefixIndex:
    """The narrow-key bucket index orders tags exactly as the uint32 keys."""

    @pytest.mark.parametrize(
        "w, observe_slots",
        [(8192, 32), (1 << 17, 32), (1024, 1024), (1 << 22, 32)],
        ids=["16bit-probe", "16bit-wide-frame", "h-mask-zero", "uint32-fallback"],
    )
    @pytest.mark.parametrize("rn_source", ["tagid", "random"])
    def test_matches_stable_argsort(self, w, observe_slots, rn_source):
        pop = TagPopulation(
            uniform_ids(20_000, seed=21), rn_source=rn_source, rn_seed=5
        )
        ws = frames_mod._BatchWorkspace()
        h_mask, order, sorted_keys = ws.prefix_index(pop, w, observe_slots)
        assert h_mask == np.uint32((w - 1) ^ (observe_slots - 1))
        keys = pop.rn & h_mask
        ref = np.argsort(keys, kind="stable")
        assert np.array_equal(order, ref)
        assert sorted_keys.dtype == np.uint32
        assert np.array_equal(sorted_keys, keys[ref])
        assert ws.prefix_index(pop, w, observe_slots)[1] is order


class TestWorkspace:
    """One workspace serves every round of a drive on one population."""

    def test_prefix_index_built_once_per_drive(self):
        pop = TagPopulation(uniform_ids(3_000, seed=31))
        other = TagPopulation(uniform_ids(3_000, seed=32))
        ws = frames_mod._BatchWorkspace()
        index = ws.prefix_index(pop, 8192, 32)
        # A dense round between two probe rounds keeps the index.
        run_bfce_frame_batch(pop, w=8192, seeds=_seed_matrix(4), p_n=300, workspace=ws)
        assert ws.prefix_index(pop, 8192, 32)[1] is index[1]
        # Another population object, even one of equal size, rebuilds.
        assert ws.prefix_index(other, 8192, 32)[1] is not index[1]
        assert ws.prefix_index(pop, 8192, 32)[1] is not index[1]

    def test_native_buckets_reused_in_argsort_order(self):
        if frames_mod._native.get_lib() is None:
            pytest.skip("no C compiler / native build failed")
        pop = TagPopulation(uniform_ids(3_000, seed=31))
        ws = frames_mod._BatchWorkspace()
        seeds = _seed_matrix(4, seed=33)
        run_bfce_frame_batch(pop, w=8192, seeds=seeds, p_n=300, observe_slots=32, workspace=ws)
        starts, ids, rn = ws.prefix_buckets(pop, 8192, 32)
        run_bfce_frame_batch(pop, w=8192, seeds=seeds, p_n=300, observe_slots=32, workspace=ws)
        assert ws.prefix_buckets(pop, 8192, 32)[1] is ids
        # The counting sort orders the tags exactly as the stable argsort.
        _, order, sorted_keys = ws.prefix_index(pop, 8192, 32)
        assert np.array_equal(ids, pop.tag_ids[order])
        assert np.array_equal(rn, pop.rn[order])
        assert np.array_equal(starts, np.searchsorted(sorted_keys >> np.uint32(5), np.arange(257)))

    @pytest.mark.parametrize("native", [True, False])
    def test_truncated_frames_count_a_kernel_call(self, native, monkeypatch):
        from repro.obs import metrics

        if not native:
            monkeypatch.setenv("REPRO_NATIVE", "0")
        elif frames_mod._native.get_lib() is None:
            pytest.skip("no C compiler / native build failed")
        counter = f"kernel.{'native' if native else 'numpy'}.bfce_counts"
        pop = TagPopulation(uniform_ids(2_000, seed=34))
        before = metrics.get(counter)
        run_bfce_frame_batch(pop, w=8192, seeds=_seed_matrix(3), p_n=300, observe_slots=32)
        assert metrics.get(counter) > before


class TestBatchFrameResult:
    def test_accessors_and_frame_materialisation(self):
        pop = TagPopulation(uniform_ids(1_000, seed=14))
        seeds = _seed_matrix(4, seed=15)
        batch = run_bfce_frame_batch(pop, w=256, seeds=seeds, p_n=700)
        assert isinstance(batch, BatchFrameResult)
        assert batch.n_frames == 4
        assert batch.observed_slots == 256
        frames = list(batch)
        assert len(frames) == 4
        for t, frame in enumerate(frames):
            assert frame.w == 256
            assert frame.rho == batch.rho(t)
            assert frame.bloom.sum() == batch.ones(t)


class TestBatchValidation:
    def test_seeds_shape_validated(self):
        pop = TagPopulation(uniform_ids(10, seed=16))
        with pytest.raises(ValueError, match="seeds"):
            run_bfce_frame_batch(
                pop, w=64, seeds=np.zeros(3, dtype=np.uint64), p_n=10
            )

    def test_w_power_of_two(self):
        pop = TagPopulation(uniform_ids(10, seed=17))
        with pytest.raises(ValueError):
            run_bfce_frame_batch(pop, w=100, seeds=_seed_matrix(2), p_n=10)

    def test_pn_range_validated(self):
        pop = TagPopulation(uniform_ids(10, seed=18))
        with pytest.raises(ValueError, match="p_n"):
            run_bfce_frame_batch(pop, w=64, seeds=_seed_matrix(2), p_n=2000)

    def test_observe_slots_validated(self):
        pop = TagPopulation(uniform_ids(10, seed=19))
        with pytest.raises(ValueError, match="observe_slots"):
            run_bfce_frame_batch(
                pop, w=64, seeds=_seed_matrix(2), p_n=10, observe_slots=65
            )

    def test_channel_rngs_length_validated(self):
        pop = TagPopulation(uniform_ids(10, seed=20))
        with pytest.raises(ValueError, match="channel_rngs"):
            run_bfce_frame_batch(
                pop,
                w=64,
                seeds=_seed_matrix(3),
                p_n=10,
                channel_rngs=[np.random.default_rng(0)],
            )
