"""Unit tests for the workload builders."""

import numpy as np
import pytest

from repro.experiments.workloads import (
    CACHE_BYTES_ENV,
    DELTA_SWEEP,
    DISTRIBUTION_NAMES,
    EPS_SWEEP,
    N_SWEEP,
    REFERENCE_N,
    population,
    population_cache_bytes,
    population_cache_clear,
    population_cache_info,
)


class TestGrids:
    def test_paper_parameters(self):
        assert REFERENCE_N == 500_000
        assert EPS_SWEEP[0] == 0.05 and EPS_SWEEP[-1] == 0.30
        assert DELTA_SWEEP == EPS_SWEEP
        assert 1_000 in N_SWEEP and 1_000_000 in N_SWEEP
        assert DISTRIBUTION_NAMES == ("T1", "T2", "T3")


class TestPopulation:
    def test_size_and_type(self):
        pop = population("T1", 5_000, seed=1)
        assert pop.size == 5_000

    def test_cache_returns_same_ids(self):
        a = population("T1", 5_000, seed=1)
        b = population("T1", 5_000, seed=1)
        assert np.array_equal(a.tag_ids, b.tag_ids)

    def test_distinct_coordinates_distinct_ids(self):
        a = population("T1", 5_000, seed=1)
        b = population("T1", 5_000, seed=2)
        c = population("T2", 5_000, seed=1)
        assert not np.array_equal(a.tag_ids, b.tag_ids)
        assert not np.array_equal(a.tag_ids, c.tag_ids)

    def test_variants_share_ids_but_differ_in_behavior(self):
        a = population("T1", 2_000, seed=3, persistence_mode="event")
        b = population("T1", 2_000, seed=3, persistence_mode="static")
        assert np.array_equal(a.tag_ids, b.tag_ids)
        assert a.persistence_mode == "event"
        assert b.persistence_mode == "static"

    def test_populations_are_mutation_safe(self):
        """Each call returns an independent copy; mutating one must not
        poison the cache."""
        a = population("T1", 1_000, seed=4)
        a.tag_ids[0] = 0  # mutate the copy
        b = population("T1", 1_000, seed=4)
        assert b.tag_ids[0] != 0 or b.tag_ids[0] == b.tag_ids[0]
        assert not np.array_equal(a.tag_ids[:1], b.tag_ids[:1])

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            population("nope", 100)


class TestByteBudgetCache:
    def test_budget_env_parsing(self, monkeypatch):
        monkeypatch.delenv(CACHE_BYTES_ENV, raising=False)
        default = population_cache_bytes()
        assert default > 0
        monkeypatch.setenv(CACHE_BYTES_ENV, "1048576")
        assert population_cache_bytes() == 1_048_576
        for garbage in ("not-a-number", "-5", ""):
            monkeypatch.setenv(CACHE_BYTES_ENV, garbage)
            assert population_cache_bytes() == default

    def test_eviction_keeps_cached_bytes_under_budget(self, monkeypatch):
        population_cache_clear()
        one_entry = population("T1", 1_000, seed=0).tag_ids.nbytes
        # room for two entries, not three — the LRU one must be evicted
        monkeypatch.setenv(CACHE_BYTES_ENV, str(int(2.5 * one_entry)))
        for seed in range(3):
            population("T1", 1_000, seed=seed)
        info = population_cache_info()
        assert info.currsize <= int(2.5 * one_entry)
        assert info.currsize == 2 * one_entry
        # seeds 1 and 2 survive; seed 0 was the least recently used
        hits_before = population_cache_info().hits
        population("T1", 1_000, seed=2)
        assert population_cache_info().hits == hits_before + 1
        population("T1", 1_000, seed=0)  # miss: was evicted
        assert population_cache_info().hits == hits_before + 1
        population_cache_clear()

    def test_oversize_population_bypasses_the_cache(self, monkeypatch):
        population_cache_clear()
        monkeypatch.setenv(CACHE_BYTES_ENV, "64")  # smaller than any entry
        a = population("T1", 1_000, seed=0)
        b = population("T1", 1_000, seed=0)
        assert np.array_equal(a.tag_ids, b.tag_ids)  # correct, just uncached
        info = population_cache_info()
        assert info.currsize == 0
        assert info.hits == 0 and info.misses >= 2
        population_cache_clear()


class TestSharedPopulation:
    """``copy=False`` returns one read-only population per tagID set and
    variant, cached and evicted together with its id array."""

    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        population_cache_clear()
        yield
        population_cache_clear()

    def test_same_key_same_read_only_object(self):
        a = population("T2", 3_000, seed=5, copy=False)
        b = population("T2", 3_000, seed=5, copy=False)
        assert a is b
        assert not a.tag_ids.flags.writeable
        assert not a.rn.flags.writeable
        with pytest.raises(ValueError):
            a.rn[0] = 0

    @pytest.mark.parametrize(
        "base,variant",
        [
            ({}, {"rn_source": "random"}),
            ({"rn_source": "random"}, {"rn_source": "random", "rn_seed": 9}),
            ({}, {"persistence_mode": "static"}),
        ],
        ids=["rn_source", "rn_seed", "persistence_mode"],
    )
    def test_each_variant_is_its_own_population(self, base, variant):
        first = population("T1", 2_000, seed=1, copy=False, **base)
        other = population("T1", 2_000, seed=1, copy=False, **variant)
        assert other is not first
        assert other.tag_ids is first.tag_ids  # one shared id array
        assert other is population("T1", 2_000, seed=1, copy=False, **variant)

    def test_shared_population_equals_a_fresh_build(self):
        shared = population("T3", 2_000, seed=2, rn_source="random", rn_seed=4, copy=False)
        fresh = population("T3", 2_000, seed=2, rn_source="random", rn_seed=4)
        assert np.array_equal(shared.tag_ids, fresh.tag_ids)
        assert np.array_equal(shared.rn, fresh.rn)
        assert shared.persistence_mode == fresh.persistence_mode

    def test_copy_true_stays_fresh_and_writable(self):
        shared = population("T1", 1_000, seed=3, copy=False)
        a = population("T1", 1_000, seed=3)
        b = population("T1", 1_000, seed=3)
        assert a is not b and a is not shared
        assert a.tag_ids.flags.writeable and a.rn.flags.writeable
        a.tag_ids[0] = 0
        a.rn[0] = 0
        assert shared.tag_ids[0] != 0
        assert b.tag_ids[0] != 0

    def test_budget_counts_rn_bytes_and_evicts_together(self, monkeypatch):
        pop = population("T1", 1_000, seed=0, copy=False)
        ids_bytes, rn_bytes = pop.tag_ids.nbytes, pop.rn.nbytes
        assert population_cache_info().currsize == ids_bytes + rn_bytes
        population("T1", 1_000, seed=0, persistence_mode="static", copy=False)
        assert population_cache_info().currsize == ids_bytes + 2 * rn_bytes
        # Room for one more id array, not for its population too: building
        # that population evicts the least recently used entry whole.
        monkeypatch.setenv(CACHE_BYTES_ENV, str(2 * ids_bytes + 2 * rn_bytes))
        population("T1", 1_000, seed=1)
        assert population_cache_info().currsize == 2 * ids_bytes + 2 * rn_bytes
        population("T1", 1_000, seed=1, copy=False)
        assert population_cache_info().currsize == ids_bytes + rn_bytes
        misses = population_cache_info().misses
        again = population("T1", 1_000, seed=0, copy=False)
        assert population_cache_info().misses == misses + 1  # array gone too
        assert again is not pop

    def test_clear_drops_arrays_and_populations(self):
        pop = population("T1", 1_000, seed=0, copy=False)
        population_cache_clear()
        assert population_cache_info().currsize == 0
        assert population("T1", 1_000, seed=0, copy=False) is not pop

    @pytest.mark.parametrize("copy", [True, False])
    def test_hits_and_misses_count_one_per_call(self, copy):
        population("T1", 1_000, seed=0, copy=copy)
        population("T1", 1_000, seed=0, copy=copy)
        population("T1", 1_000, seed=0, persistence_mode="static", copy=copy)
        population("T1", 1_000, seed=1, copy=copy)
        info = population_cache_info()
        assert (info.hits, info.misses) == (2, 2)

    def test_racing_threads_get_equal_populations(self):
        import sys
        import threading

        barrier = threading.Barrier(2)
        results = [None, None]

        def build(slot):
            barrier.wait()
            results[slot] = population("T2", 20_000, seed=8, copy=False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        a, b = results
        assert np.array_equal(a.tag_ids, b.tag_ids)
        assert np.array_equal(a.rn, b.rn)
        assert population("T2", 20_000, seed=8, copy=False) in (a, b)
