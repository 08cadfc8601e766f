"""Unit tests for the hash primitives."""

import numpy as np
import pytest
from scipy.stats import chi2

# chi2_uniformity stays in src/ as the uniformity oracle of these tests.
from repro.rfid.hashing import (
    chi2_uniformity,
    derive_rn_from_ids,
    geometric_hash,
    mix64,
    uniform_hash,
    uniform_unit,
    xor_bitget_hash,
)


class TestMix64:
    def test_deterministic(self):
        a = mix64(np.arange(100, dtype=np.uint64))
        b = mix64(np.arange(100, dtype=np.uint64))
        assert np.array_equal(a, b)

    def test_bijective_on_sample(self):
        # A mixer must not collide; check a large sample is collision-free.
        out = mix64(np.arange(200_000, dtype=np.uint64))
        assert np.unique(out).size == out.size

    def test_avalanche_changes_output_substantially(self):
        x = np.uint64(0x0123456789ABCDEF)
        a = int(mix64(x))
        b = int(mix64(x ^ np.uint64(1)))
        differing = bin(a ^ b).count("1")
        assert 16 <= differing <= 48  # ~32 expected

    def test_scalar_input(self):
        assert int(mix64(42)) == int(mix64(np.uint64(42)))


class TestDeriveRN:
    def test_dtype_and_shape(self):
        ids = np.array([1, 2, 3, 10**15], dtype=np.uint64)
        rn = derive_rn_from_ids(ids)
        assert rn.dtype == np.uint32
        assert rn.shape == ids.shape

    def test_clustered_ids_give_spread_rns(self):
        """Sequential tagIDs (worst case for XOR hashing) must still produce
        uniform-looking RNs — that's the whole point of the mix."""
        ids = np.arange(1, 100_001, dtype=np.uint64)
        rn = derive_rn_from_ids(ids)
        low13 = rn & 0x1FFF
        stat = chi2_uniformity(low13.astype(np.int64), 8192)
        # 99.9th percentile of chi2(8191)
        assert stat < chi2.ppf(0.999, 8191)

    def test_python_int_list_accepted(self):
        rn = derive_rn_from_ids(np.array([10**15, 10**14]))
        assert rn.size == 2


class TestXorBitgetHash:
    def test_range(self):
        rn = np.random.default_rng(0).integers(0, 1 << 32, 10_000, dtype=np.uint32)
        h = xor_bitget_hash(rn, seed=0xDEADBEEF, out_bits=13)
        assert h.min() >= 0 and h.max() < 8192

    def test_seed_zero_is_identity_on_low_bits(self):
        rn = np.array([0b1010101010101], dtype=np.uint32)
        assert xor_bitget_hash(rn, 0, 13)[0] == 0b1010101010101

    def test_xor_is_involution(self):
        rn = np.random.default_rng(1).integers(0, 1 << 32, 100, dtype=np.uint32)
        s = 0xCAFEBABE
        once = xor_bitget_hash(rn, s, 13)
        # XORing the seed twice cancels: hash of (rn ^ s) with seed s is rn's low bits.
        again = xor_bitget_hash(rn ^ np.uint32(s), s, 13)
        assert np.array_equal(again, rn & np.uint32(0x1FFF))
        assert not np.array_equal(once, again) or s & 0x1FFF == 0

    @pytest.mark.parametrize("bits", [0, 33])
    def test_out_bits_validated(self, bits):
        with pytest.raises(ValueError):
            xor_bitget_hash(np.array([1], dtype=np.uint32), 0, bits)

    def test_different_seeds_decorrelate(self):
        rn = np.random.default_rng(2).integers(0, 1 << 32, 50_000, dtype=np.uint32)
        h1 = xor_bitget_hash(rn, 0x1111, 13)
        h2 = xor_bitget_hash(rn, 0x2222, 13)
        assert (h1 == h2).mean() < 0.01


class TestUniformHash:
    def test_range_and_dtype(self):
        keys = np.arange(1000, dtype=np.uint64)
        h = uniform_hash(keys, seed=7, modulus=97)
        assert h.dtype == np.int64
        assert h.min() >= 0 and h.max() < 97

    def test_uniformity_chi2(self):
        keys = np.arange(100_000, dtype=np.uint64)
        h = uniform_hash(keys, seed=5, modulus=256)
        stat = chi2_uniformity(h, 256)
        assert stat < chi2.ppf(0.999, 255)

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            uniform_hash(np.array([1], dtype=np.uint64), 0, 0)


class TestUniformUnit:
    def test_range(self):
        u = uniform_unit(np.arange(10_000, dtype=np.uint64), seed=3)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_mean_near_half(self):
        u = uniform_unit(np.arange(100_000, dtype=np.uint64), seed=4)
        assert abs(u.mean() - 0.5) < 0.01

    def test_seed_sensitivity(self):
        keys = np.arange(1000, dtype=np.uint64)
        assert not np.array_equal(uniform_unit(keys, 1), uniform_unit(keys, 2))


class TestGeometricHash:
    def test_range(self):
        g = geometric_hash(np.arange(10_000, dtype=np.uint64), seed=9, max_bits=32)
        assert g.min() >= 0 and g.max() < 32

    def test_geometric_pmf(self):
        g = geometric_hash(np.arange(400_000, dtype=np.uint64), seed=10, max_bits=32)
        for i in range(5):
            frac = (g == i).mean()
            assert frac == pytest.approx(2.0 ** -(i + 1), rel=0.05)

    def test_all_zero_low_bits_bucket(self):
        # keys hashing to all-zero low bits land in the last bucket
        g = geometric_hash(np.arange(1 << 16, dtype=np.uint64), seed=11, max_bits=4)
        assert g.max() == 3

    @pytest.mark.parametrize("bits", [0, 65])
    def test_max_bits_validated(self, bits):
        with pytest.raises(ValueError):
            geometric_hash(np.array([1], dtype=np.uint64), 0, bits)


class TestChi2Uniformity:
    def test_uniform_counts_give_zero(self):
        samples = np.repeat(np.arange(10), 100)
        assert chi2_uniformity(samples, 10) == 0.0

    def test_concentrated_samples_give_large_stat(self):
        samples = np.zeros(1000, dtype=np.int64)
        assert chi2_uniformity(samples, 10) > 1000

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            chi2_uniformity(np.array([10]), 10)

    def test_bins_validated(self):
        with pytest.raises(ValueError):
            chi2_uniformity(np.array([0]), 1)
