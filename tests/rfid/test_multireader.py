"""Unit tests for the synchronized multi-reader subsystem."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.bfce import BFCE
from repro.core.config import DEFAULT_CONFIG
from repro.rfid.ids import uniform_ids
from repro.rfid.multireader import (
    CoverageMap,
    MultiReaderSystem,
    SketchCoordinator,
    estimate_pairwise_overlap,
    naive_sum_estimate,
    sketch_union_estimate,
)
from repro.rfid.tags import TagPopulation
from repro.sketch import HLLSketch


def _coverage(n=50_000, readers=3, overlap=0.25, seed=1) -> CoverageMap:
    return CoverageMap.random_overlap(
        uniform_ids(n, seed=seed), readers, overlap=overlap, seed=seed + 1
    )


class TestCoverageMap:
    def test_every_tag_covered(self):
        cov = _coverage()
        assert cov.memberships.any(axis=0).all()

    def test_overlap_fraction(self):
        cov = _coverage(overlap=0.4)
        multi = (cov.memberships.sum(axis=0) >= 2).mean()
        assert multi == pytest.approx(0.4, abs=0.03)

    def test_reader_population(self):
        cov = _coverage()
        sizes = [cov.reader_population(r).size for r in range(cov.n_readers)]
        # Σ per-reader sizes = union + duplicated coverage.
        assert sum(sizes) == cov.memberships.sum()
        assert sum(sizes) > cov.union_size

    def test_uncovered_tag_rejected(self):
        ids = np.array([1, 2, 3], dtype=np.uint64)
        mem = np.array([[True, True, False]])
        with pytest.raises(ValueError, match="covered"):
            CoverageMap(tag_ids=ids, memberships=mem)

    def test_shape_validation(self):
        ids = np.array([1, 2], dtype=np.uint64)
        with pytest.raises(ValueError):
            CoverageMap(tag_ids=ids, memberships=np.ones((2, 3), dtype=bool))

    def test_zero_readers_rejected(self):
        with pytest.raises(ValueError):
            CoverageMap.random_overlap(np.array([1], dtype=np.uint64), 0)

    def test_overlap_validated(self):
        with pytest.raises(ValueError):
            CoverageMap.random_overlap(np.array([1], dtype=np.uint64), 2, overlap=1.5)


class TestMultiReaderSystem:
    def test_union_estimate_accurate(self):
        cov = _coverage(n=100_000, readers=4, overlap=0.3)
        result = MultiReaderSystem(cov).estimate(seed=5)
        assert result.relative_error(100_000) <= 0.05
        assert result.guarantee_met

    def test_or_merge_equals_single_reader(self):
        """The OR-merge theorem: synchronized readers over a partition
        reproduce exactly the single-reader execution on the union."""
        ids = uniform_ids(30_000, seed=3)
        cov = CoverageMap.random_overlap(ids, 3, overlap=0.5, seed=4)
        multi = MultiReaderSystem(cov).estimate(seed=9)
        single = BFCE().estimate(TagPopulation(ids.copy()), seed=9)
        assert multi.n_hat == pytest.approx(single.n_hat, rel=1e-12)

    def test_broadcasts_bill_the_config_message_width(self):
        """Every phase's parameter broadcast costs what single-reader BFCE
        bills under the same config, narrow seed and p fields included."""
        cfg = replace(DEFAULT_CONFIG, seed_bits=16, p_bits=10)
        ids = uniform_ids(30_000, seed=3)
        cov = CoverageMap.random_overlap(ids, 3, overlap=0.5, seed=4)
        multi = MultiReaderSystem(cov, config=cfg).estimate(seed=9)
        single = BFCE(config=cfg).estimate(TagPopulation(ids.copy()), seed=9)

        def widths(ledger):
            found = {}
            for m in ledger:
                if m.direction == "down":
                    found.setdefault(m.phase, set()).add(m.bits)
            return found

        assert widths(multi.ledger) == widths(single.ledger)
        assert set(widths(single.ledger)) == {"probe", "rough", "accurate"}

    def test_wallclock_constant_in_reader_count(self):
        ids = uniform_ids(50_000, seed=5)
        times = []
        for readers in (1, 4):
            cov = CoverageMap.random_overlap(ids, readers, overlap=0.2, seed=6)
            times.append(MultiReaderSystem(cov).estimate(seed=7).wallclock_seconds)
        assert abs(times[0] - times[1]) < 0.01

    def test_total_air_scales_with_readers(self):
        cov = _coverage(readers=4)
        result = MultiReaderSystem(cov).estimate(seed=8)
        assert result.total_air_seconds == pytest.approx(
            4 * result.wallclock_seconds
        )

    def test_empty_union(self):
        cov = CoverageMap(
            tag_ids=np.array([], dtype=np.uint64),
            memberships=np.zeros((2, 0), dtype=bool),
        )
        result = MultiReaderSystem(cov).estimate(seed=1)
        assert result.n_hat == 0.0
        assert not result.guarantee_met


    def test_accurate_phase_stuck_at_pn_min_fails_fast(self, monkeypatch):
        """A union that saturates the accurate frame even at p = pn_min/1024
        cannot be rescued by halving, so the synchronized accurate phase
        must raise after one pn_min frame, not re-run it 8 more times."""
        import repro.rfid.multireader as multireader
        from repro.core.config import BFCEConfig

        cfg = BFCEConfig(w=32, rough_slots=16, probe_slots=32)
        cov = CoverageMap.random_overlap(
            uniform_ids(50_000, seed=12), 3, overlap=0.25, seed=1
        )
        merged_calls = []
        counts = multireader.slot_response_counts

        def counting(pop, *, w, seeds, p_n):
            merged_calls.append(p_n)
            return counts(pop, w=w, seeds=seeds, p_n=p_n)

        monkeypatch.setattr(multireader, "slot_response_counts", counting)
        with pytest.raises(RuntimeError, match="stuck all-busy at pn_min"):
            MultiReaderSystem(cov, config=cfg).estimate(seed=1)
        # One synchronized frame = one slot-count pass per physical reader.
        assert merged_calls == [cfg.pn_min] * cov.n_readers


class TestNaiveSum:
    def test_overcounts_by_overlap(self):
        """Summing per-reader estimates over-counts the overlap region —
        the bias the coordinated design removes."""
        n, overlap = 80_000, 0.4
        cov = _coverage(n=n, overlap=overlap, seed=9)
        naive = naive_sum_estimate(cov, seed=10)
        coordinated = MultiReaderSystem(cov).estimate(seed=10).n_hat
        expected_naive = n * (1 + overlap)
        assert naive == pytest.approx(expected_naive, rel=0.06)
        assert abs(coordinated - n) < abs(naive - n)

    def test_no_overlap_no_bias(self):
        cov = _coverage(n=50_000, overlap=0.0, seed=11)
        naive = naive_sum_estimate(cov, seed=12)
        assert naive == pytest.approx(50_000, rel=0.05)


class TestEdgeCases:
    """Degenerate topologies every aggregation path must survive."""

    def test_single_reader_equals_single_bfce(self):
        ids = uniform_ids(30_000, seed=20)
        cov = CoverageMap.random_overlap(ids, 1, overlap=0.0, seed=21)
        multi = MultiReaderSystem(cov).estimate(seed=22)
        single = BFCE().estimate(TagPopulation(ids.copy()), seed=22)
        assert multi.n_hat == pytest.approx(single.n_hat, rel=1e-12)
        assert multi.total_air_seconds == pytest.approx(multi.wallclock_seconds)

    def test_single_reader_sketch(self):
        ids = uniform_ids(30_000, seed=23)
        cov = CoverageMap.random_overlap(ids, 1, overlap=0.0, seed=24)
        result = sketch_union_estimate(cov, seed=25)
        assert result.n_readers == 1
        assert result.relative_error(30_000) < 3 * result.error_bound

    def test_zero_overlap_partition(self):
        """A clean partition: both aggregators recover the union exactly as
        well as with overlap (the union is what they estimate either way)."""
        ids = uniform_ids(40_000, seed=26)
        cov = CoverageMap.random_overlap(ids, 5, overlap=0.0, seed=27)
        assert (cov.memberships.sum(axis=0) == 1).all()
        sync = MultiReaderSystem(cov).estimate(seed=28)
        sketch = sketch_union_estimate(cov, seed=28)
        assert sync.relative_error(40_000) <= 0.05
        assert sketch.relative_error(40_000) < 3 * sketch.error_bound

    def test_reader_covering_no_tags(self):
        """An all-False membership row (dead reader) is legal as long as the
        other readers cover every tag; it must not perturb either estimate."""
        ids = uniform_ids(20_000, seed=29)
        mem = np.zeros((3, ids.size), dtype=bool)
        mem[0, : ids.size // 2] = True
        mem[1, ids.size // 2 :] = True  # reader 2 hears nothing
        cov = CoverageMap(tag_ids=ids, memberships=mem)
        assert cov.reader_population(2).size == 0
        sync = MultiReaderSystem(cov).estimate(seed=30)
        assert sync.relative_error(20_000) <= 0.05
        sketch = sketch_union_estimate(cov, seed=30)
        assert sketch.relative_error(20_000) < 3 * sketch.error_bound

    def test_pairwise_overlap_small_samples(self):
        """Inclusion–exclusion on small coverage regions: the intersection
        estimate is noisy but must stay within the additive envelope of the
        three frame estimates it is built from (each ~5% of the union)."""
        ids = uniform_ids(4_000, seed=31)
        cov = CoverageMap.random_overlap(ids, 2, overlap=0.5, seed=32)
        true_overlap = int((cov.memberships.sum(axis=0) >= 2).sum())
        est = estimate_pairwise_overlap(cov, 0, 1, seed=33)
        envelope = 3 * 0.05 * ids.size
        assert abs(est.n_intersection - true_overlap) < envelope
        assert 0.0 <= est.jaccard <= 1.0

    def test_pairwise_overlap_validates_indices(self):
        cov = _coverage(n=5_000, readers=2)
        with pytest.raises(ValueError, match="out of range"):
            estimate_pairwise_overlap(cov, 0, 5)
        with pytest.raises(ValueError, match="distinct"):
            estimate_pairwise_overlap(cov, 1, 1)


class TestSketchAggregation:
    def test_matches_direct_union_sketch(self):
        """Per-reader sketches unioned at the coordinator give exactly the
        sketch of the union population — overlap cannot double-count."""
        ids = uniform_ids(25_000, seed=34)
        cov = CoverageMap.random_overlap(ids, 4, overlap=0.4, seed=35)
        result = sketch_union_estimate(cov, seed=36)
        direct = HLLSketch(result.p, seed=36).add_ids(ids)
        assert result.n_hat == pytest.approx(direct.estimate(), rel=1e-12)

    def test_air_time_independent_of_readers_and_n(self):
        times = set()
        for n, readers in ((10_000, 2), (40_000, 16)):
            cov = CoverageMap.random_overlap(
                uniform_ids(n, seed=37), readers, overlap=0.2, seed=38
            )
            times.add(sketch_union_estimate(cov, seed=39).wallclock_seconds)
        assert len(times) == 1  # one broadcast + one concurrent report round

    def test_coordinator_submit_validation(self):
        coordinator = SketchCoordinator(2, p=10, seed=1)
        with pytest.raises(ValueError, match="out of range"):
            coordinator.submit(2, HLLSketch(10, seed=1))
        with pytest.raises(TypeError):
            coordinator.submit(0, np.zeros(1024, dtype=np.uint8))
        with pytest.raises(ValueError, match="does not match"):
            coordinator.submit(0, HLLSketch(12, seed=1))
        with pytest.raises(ValueError, match="does not match"):
            coordinator.submit(0, HLLSketch(10, seed=2))
        with pytest.raises(ValueError):
            SketchCoordinator(0)

    def test_unreported_readers_are_identity(self):
        ids = uniform_ids(5_000, seed=40)
        coordinator = SketchCoordinator(8, p=10, seed=2)
        coordinator.submit(3, HLLSketch(10, seed=2).add_ids(ids))
        lone = HLLSketch(10, seed=2).add_ids(ids)
        assert coordinator.estimate() == pytest.approx(lone.estimate(), rel=1e-12)
        union = coordinator.union_sketch()
        assert np.array_equal(union.registers, lone.registers)

    def test_resubmission_overwrites(self):
        ids_a = uniform_ids(2_000, seed=41)
        ids_b = uniform_ids(2_000, seed=42)
        coordinator = SketchCoordinator(1, p=10, seed=3)
        coordinator.submit(0, HLLSketch(10, seed=3).add_ids(ids_a))
        coordinator.submit(0, HLLSketch(10, seed=3).add_ids(ids_b))
        only_b = HLLSketch(10, seed=3).add_ids(ids_b)
        assert np.array_equal(coordinator.bank[0], only_b.registers)
