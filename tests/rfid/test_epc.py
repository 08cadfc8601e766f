"""Unit tests for SGTIN-96 encoding and structured populations."""

import numpy as np
import pytest

# decode_sgtin96 stays in src/ as the round-trip oracle of the encoder.
from repro.rfid.epc import Sgtin96, decode_sgtin96, encode_sgtin96, sgtin_population
from repro.rfid.tags import TagPopulation


class TestEncodeDecode:
    def test_roundtrip(self):
        tag = Sgtin96(filter_value=1, partition=5, company_prefix=123_456,
                      item_reference=789, serial=42)
        assert decode_sgtin96(encode_sgtin96(tag)) == tag

    @pytest.mark.parametrize("partition", range(7))
    def test_roundtrip_all_partitions(self, partition):
        tag = Sgtin96(filter_value=3, partition=partition, company_prefix=1,
                      item_reference=1, serial=99)
        assert decode_sgtin96(encode_sgtin96(tag)) == tag

    def test_header(self):
        tag = Sgtin96(filter_value=0, partition=0, company_prefix=0,
                      item_reference=0, serial=0)
        assert encode_sgtin96(tag) >> 88 == 0x30

    def test_96_bits(self):
        tag = Sgtin96(filter_value=7, partition=6,
                      company_prefix=(1 << 20) - 1,
                      item_reference=(1 << 24) - 1,
                      serial=(1 << 38) - 1)
        assert encode_sgtin96(tag) < (1 << 96)

    def test_decode_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            decode_sgtin96(0)

    def test_decode_rejects_oversized(self):
        with pytest.raises(ValueError):
            decode_sgtin96(1 << 96)

    @pytest.mark.parametrize("kwargs", [
        {"filter_value": 8},
        {"partition": 7},
        {"company_prefix": 1 << 27},   # partition 5 allows 24 bits
        {"item_reference": 1 << 21},   # partition 5 allows 20 bits
        {"serial": 1 << 38},
    ])
    def test_field_validation(self, kwargs):
        base = dict(filter_value=0, partition=5, company_prefix=0,
                    item_reference=0, serial=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            Sgtin96(**base)


class TestSgtinPopulation:
    def test_size_and_uniqueness(self):
        ids = sgtin_population(10_000, seed=1)
        assert ids.size == 10_000
        assert np.unique(ids).size == 10_000

    def test_sequential_serial_structure(self):
        """Populations are clustered: consecutive serials differ by 1 within
        a SKU — the adversarial low-bit pattern."""
        ids = sgtin_population(1_000, companies=1, skus_per_company=1, seed=2)
        serials = ids & np.uint64((1 << 38) - 1)
        diffs = np.diff(np.sort(serials.astype(np.int64)))
        assert (diffs == 1).mean() > 0.99

    def test_bfce_accurate_on_structured_ids(self):
        """The mix64 RN derivation must launder even sequential-serial EPC
        populations (the worst case for truncation hashing)."""
        from repro.core.bfce import BFCE

        n = 30_000
        ids = sgtin_population(n, seed=3)
        result = BFCE().estimate(TagPopulation(ids), seed=4)
        assert result.relative_error(n) <= 0.05

    def test_hash_uniformity_on_structured_ids(self):
        from scipy.stats import chi2

        from repro.rfid.hashing import chi2_uniformity, derive_rn_from_ids

        ids = sgtin_population(50_000, seed=5)
        rn = derive_rn_from_ids(ids)
        stat = chi2_uniformity((rn & np.uint32(0x1FFF)).astype(np.int64), 8192)
        assert stat < chi2.ppf(0.999, 8191)

    def test_validation(self):
        with pytest.raises(ValueError):
            sgtin_population(0)
        with pytest.raises(ValueError):
            sgtin_population(10, companies=0)
