"""Unit tests for the vectorized tag-population model."""

import numpy as np
import pytest

from repro.rfid.ids import uniform_ids
from repro.rfid.tags import PERSISTENCE_DENOM, TagPopulation


class TestConstruction:
    def test_size(self, pop_small):
        assert len(pop_small) == 2_000
        assert pop_small.size == 2_000

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            TagPopulation(np.array([1, 1, 2], dtype=np.uint64))

    def test_unsorted_duplicate_ids_rejected(self):
        """The duplicate check must not assume sorted input."""
        with pytest.raises(ValueError, match="unique"):
            TagPopulation(np.array([5, 1, 5], dtype=np.uint64))

    def test_2d_ids_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            TagPopulation(np.ones((2, 2), dtype=np.uint64))

    def test_rn_source_tagid_deterministic(self):
        ids = uniform_ids(100, seed=1)
        a = TagPopulation(ids.copy(), rn_source="tagid")
        b = TagPopulation(ids.copy(), rn_source="tagid")
        assert np.array_equal(a.rn, b.rn)

    def test_rn_source_random_uses_seed(self):
        ids = uniform_ids(100, seed=1)
        a = TagPopulation(ids.copy(), rn_source="random", rn_seed=5)
        b = TagPopulation(ids.copy(), rn_source="random", rn_seed=5)
        c = TagPopulation(ids.copy(), rn_source="random", rn_seed=6)
        assert np.array_equal(a.rn, b.rn)
        assert not np.array_equal(a.rn, c.rn)

    def test_invalid_rn_source(self):
        with pytest.raises(ValueError):
            TagPopulation(np.array([1], dtype=np.uint64), rn_source="bogus")

    def test_invalid_persistence_mode(self):
        with pytest.raises(ValueError):
            TagPopulation(np.array([1], dtype=np.uint64), persistence_mode="bogus")

    def test_empty_population(self):
        pop = TagPopulation(np.array([], dtype=np.uint64))
        assert pop.size == 0


class TestSlotSelections:
    def test_shape_and_range(self, pop_small):
        sel = pop_small.slot_selections([1, 2, 3], w=8192)
        assert sel.shape == (3, 2_000)
        assert sel.min() >= 0 and sel.max() < 8192

    def test_non_power_of_two_rejected(self, pop_small):
        with pytest.raises(ValueError, match="power of two"):
            pop_small.slot_selections([1], w=1000)

    def test_empty_seeds_rejected(self, pop_small):
        with pytest.raises(ValueError):
            pop_small.slot_selections([], w=8192)

    def test_deterministic(self, pop_small):
        a = pop_small.slot_selections([7, 8], w=8192)
        b = pop_small.slot_selections([7, 8], w=8192)
        assert np.array_equal(a, b)

    def test_per_seed_rows_differ(self, pop_small):
        sel = pop_small.slot_selections([100, 200], w=8192)
        assert not np.array_equal(sel[0], sel[1])

    def test_approximately_uniform(self):
        pop = TagPopulation(uniform_ids(100_000, seed=2))
        sel = pop.slot_selections([42], w=1024)[0]
        counts = np.bincount(sel, minlength=1024)
        # ~97.6 tags per slot; all slots occupied and spread is Poisson-like.
        assert counts.min() > 40 and counts.max() < 170


class TestPersistenceDecisions:
    def test_shape(self, pop_small):
        dec = pop_small.persistence_decisions(512, frame_seed=1, k=3)
        assert dec.shape == (3, 2_000)
        assert dec.dtype == bool

    def test_pn_zero_never_responds(self, pop_small):
        dec = pop_small.persistence_decisions(0, frame_seed=1, k=3)
        assert not dec.any()

    def test_pn_full_always_responds(self, pop_small):
        dec = pop_small.persistence_decisions(PERSISTENCE_DENOM, frame_seed=1, k=3)
        assert dec.all()

    @pytest.mark.parametrize("mode", ["event", "rn_window", "static"])
    def test_response_rate_matches_p(self, mode):
        pop = TagPopulation(uniform_ids(50_000, seed=3), persistence_mode=mode)
        pn = 256  # p = 0.25
        dec = pop.persistence_decisions(pn, frame_seed=9, k=3)
        assert dec.mean() == pytest.approx(0.25, abs=0.02)

    def test_event_mode_rows_independent(self):
        pop = TagPopulation(uniform_ids(20_000, seed=4), persistence_mode="event")
        dec = pop.persistence_decisions(512, frame_seed=5, k=2)
        # Independent Bernoulli(0.5) rows agree ~50% of the time.
        agreement = (dec[0] == dec[1]).mean()
        assert 0.45 < agreement < 0.55

    def test_static_mode_rows_identical(self):
        pop = TagPopulation(uniform_ids(5_000, seed=5), persistence_mode="static")
        dec = pop.persistence_decisions(512, frame_seed=6, k=3)
        assert np.array_equal(dec[0], dec[1])
        assert np.array_equal(dec[1], dec[2])

    def test_frame_seed_decorrelates_frames(self, pop_small):
        a = pop_small.persistence_decisions(512, frame_seed=1, k=1)
        b = pop_small.persistence_decisions(512, frame_seed=2, k=1)
        assert not np.array_equal(a, b)

    def test_pn_out_of_range(self, pop_small):
        with pytest.raises(ValueError):
            pop_small.persistence_decisions(PERSISTENCE_DENOM + 1, frame_seed=1, k=1)
        with pytest.raises(ValueError):
            pop_small.persistence_decisions(-1, frame_seed=1, k=1)

    def test_k_validated(self, pop_small):
        with pytest.raises(ValueError):
            pop_small.persistence_decisions(1, frame_seed=1, k=0)

    def test_rn_window_mode_depends_on_rn(self):
        ids = uniform_ids(10_000, seed=6)
        a = TagPopulation(ids.copy(), rn_source="random", rn_seed=1,
                          persistence_mode="rn_window")
        b = TagPopulation(ids.copy(), rn_source="random", rn_seed=2,
                          persistence_mode="rn_window")
        da = a.persistence_decisions(512, frame_seed=3, k=1)
        db = b.persistence_decisions(512, frame_seed=3, k=1)
        assert not np.array_equal(da, db)
