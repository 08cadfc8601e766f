"""Unit tests for the tagID population generators (paper Fig. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rfid.ids import (
    DISTRIBUTIONS,
    ID_SPACE_MAX,
    approx_normal_ids,
    make_ids,
    normal_ids,
    sorted_unique,
    uniform_ids,
)

_U64_MAX = (1 << 64) - 1

#: uint64 values biased toward collisions and the top of the range: a small
#: pool makes duplicates likely, and the top values exercise the full width.
_u64 = st.one_of(
    st.integers(0, 16),
    st.integers(_U64_MAX - 16, _U64_MAX),
    st.integers(0, _U64_MAX),
)


def _assert_same_as_numpy(a: np.ndarray) -> None:
    got = sorted_unique(a)
    want = np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_u64, max_size=64))
    def test_equals_numpy_unique_uint64(self, values):
        _assert_same_as_numpy(np.array(values, dtype=np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=64))
    def test_equals_numpy_unique_int64(self, values):
        _assert_same_as_numpy(np.array(values, dtype=np.int64))

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [_U64_MAX],
            [5, 5, 5, 5],
            [_U64_MAX, _U64_MAX - 1, _U64_MAX, 0, _U64_MAX - 1],
            [3, 1, 2],
        ],
        ids=["empty", "one", "max", "all-dups", "near-2^64", "unsorted"],
    )
    def test_edge_cases(self, values):
        _assert_same_as_numpy(np.array(values, dtype=np.uint64))

    def test_large_draw(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 1 << 20, size=100_000, dtype=np.uint64)
        _assert_same_as_numpy(a)

    def test_does_not_modify_input(self):
        a = np.array([3, 1, 3, 2], dtype=np.uint64)
        sorted_unique(a)
        assert a.tolist() == [3, 1, 3, 2]


class TestUniformIds:
    def test_count_and_uniqueness(self):
        ids = uniform_ids(10_000, seed=1)
        assert ids.size == 10_000
        assert np.unique(ids).size == 10_000

    def test_range(self):
        ids = uniform_ids(10_000, seed=2)
        assert ids.min() >= 1 and ids.max() <= ID_SPACE_MAX

    def test_deterministic_for_seed(self):
        assert np.array_equal(uniform_ids(100, seed=3), uniform_ids(100, seed=3))

    def test_seed_changes_output(self):
        assert not np.array_equal(uniform_ids(100, seed=3), uniform_ids(100, seed=4))

    def test_uniform_spread(self):
        ids = uniform_ids(50_000, seed=5).astype(np.float64)
        # Mean of U[1, 1e15] is ~5e14; allow 2% tolerance.
        assert abs(ids.mean() - 5e14) / 5e14 < 0.02

    def test_zero_count(self):
        assert uniform_ids(0, seed=1).size == 0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            uniform_ids(10, seed=1, low=0)
        with pytest.raises(ValueError):
            uniform_ids(10, seed=1, low=100, high=100)

    def test_generator_instance_accepted(self):
        rng = np.random.default_rng(6)
        ids = uniform_ids(100, rng)
        assert ids.size == 100


class TestNormalIds:
    def test_count_unique_range(self):
        ids = normal_ids(10_000, seed=7)
        assert ids.size == 10_000
        assert np.unique(ids).size == 10_000
        assert ids.min() >= 1 and ids.max() <= ID_SPACE_MAX

    def test_central_concentration(self):
        """T3 is a tight bell: the central half-range holds nearly all mass."""
        ids = normal_ids(20_000, seed=8).astype(np.float64)
        central = ((ids > 2.5e14) & (ids < 7.5e14)).mean()
        assert central > 0.95

    def test_custom_mean_std(self):
        ids = normal_ids(5_000, seed=9, mean=1e14, std=1e13).astype(np.float64)
        assert abs(ids.mean() - 1e14) / 1e14 < 0.05

    def test_invalid_std(self):
        with pytest.raises(ValueError):
            normal_ids(10, seed=1, std=0.0)


class TestApproxNormalIds:
    def test_count_unique_range(self):
        ids = approx_normal_ids(10_000, seed=10)
        assert ids.size == 10_000
        assert np.unique(ids).size == 10_000
        assert ids.min() >= 1 and ids.max() <= ID_SPACE_MAX

    def test_heavier_tails_than_normal(self):
        """T2's contamination puts more mass in the outer 20% of the range
        than T3 does."""
        t2 = approx_normal_ids(20_000, seed=11).astype(np.float64)
        t3 = normal_ids(20_000, seed=11).astype(np.float64)
        outer = lambda x: ((x < 1e14) | (x > 9e14)).mean()  # noqa: E731
        assert outer(t2) > outer(t3)

    def test_still_bell_shaped(self):
        ids = approx_normal_ids(20_000, seed=12).astype(np.float64)
        central = ((ids > 2.5e14) & (ids < 7.5e14)).mean()
        assert central > 0.5

    def test_contamination_validated(self):
        with pytest.raises(ValueError):
            approx_normal_ids(10, seed=1, contamination=1.5)


class TestRegistry:
    def test_names(self):
        assert set(DISTRIBUTIONS) == {"T1", "T2", "T3", "T4"}

    def test_t4_structured(self):
        """T4 (extension): structured SGTIN EPCs, unique and estimable."""
        ids = make_ids("T4", 2_000, seed=9)
        assert np.unique(ids).size == 2_000

    @pytest.mark.parametrize("name", ["T1", "T2", "T3", "T4"])
    def test_make_ids(self, name):
        ids = make_ids(name, 1_000, seed=13)
        assert ids.size == 1_000
        assert np.unique(ids).size == 1_000

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            make_ids("T9", 10)

    def test_distribution_sample_method(self):
        ids = DISTRIBUTIONS["T1"].sample(50, seed=14)
        assert ids.size == 50
