"""SGTIN-96 EPC encoding: realistic structured tagIDs.

The paper's T1–T3 tagID sets are synthetic distributions over [1, 10¹⁵].
Real supply chains use **structured** identifiers — GS1's SGTIN-96 packs a
header, filter, company prefix, item reference and serial number into fixed
bit fields:

    [ header 8 | filter 3 | partition 3 | company 20–40 | item 24–4 | serial 38 ]

Structured IDs are the adversarial case for cheap hashes: thousands of tags
from one shipment share every field except a (often *sequential*) serial —
exactly the clustered-bit pattern that breaks naive truncation hashes.  This
module encodes/decodes SGTIN-96 and generates realistic warehouse
populations (few companies × few SKUs × sequential serials) so the tag-side
RN derivation can be stress-tested beyond the paper's T1–T3
(see ``tests/rfid/test_epc.py`` and the RN-source ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ids import sorted_unique

__all__ = ["Sgtin96", "encode_sgtin96", "decode_sgtin96", "sgtin_population"]

#: SGTIN-96 header value.
SGTIN_HEADER = 0x30

#: Company-prefix bit width per GS1 partition value (partition 0–6).
_COMPANY_BITS = (40, 37, 34, 30, 27, 24, 20)
#: Item-reference bit width per partition (company + item = 44 bits).
_ITEM_BITS = (4, 7, 10, 14, 17, 20, 24)
_SERIAL_BITS = 38


@dataclass(frozen=True)
class Sgtin96:
    """A decoded SGTIN-96 identifier."""

    filter_value: int
    partition: int
    company_prefix: int
    item_reference: int
    serial: int

    def __post_init__(self) -> None:
        if not 0 <= self.filter_value < 8:
            raise ValueError("filter_value must fit 3 bits")
        if not 0 <= self.partition <= 6:
            raise ValueError("partition must be 0–6")
        if not 0 <= self.company_prefix < (1 << _COMPANY_BITS[self.partition]):
            raise ValueError("company_prefix out of range for partition")
        if not 0 <= self.item_reference < (1 << _ITEM_BITS[self.partition]):
            raise ValueError("item_reference out of range for partition")
        if not 0 <= self.serial < (1 << _SERIAL_BITS):
            raise ValueError("serial must fit 38 bits")


def encode_sgtin96(tag: Sgtin96) -> int:
    """Pack an :class:`Sgtin96` into its 96-bit integer EPC."""
    company_bits = _COMPANY_BITS[tag.partition]
    item_bits = _ITEM_BITS[tag.partition]
    value = SGTIN_HEADER
    value = (value << 3) | tag.filter_value
    value = (value << 3) | tag.partition
    value = (value << company_bits) | tag.company_prefix
    value = (value << item_bits) | tag.item_reference
    value = (value << _SERIAL_BITS) | tag.serial
    return value


def decode_sgtin96(epc: int) -> Sgtin96:
    """Unpack a 96-bit SGTIN EPC.

    Raises
    ------
    ValueError
        If the header is not SGTIN-96 or the partition is invalid.
    """
    if epc < 0 or epc >= (1 << 96):
        raise ValueError("EPC must be a 96-bit unsigned integer")
    if (epc >> 88) != SGTIN_HEADER:
        raise ValueError("not an SGTIN-96 EPC (bad header)")
    serial = epc & ((1 << _SERIAL_BITS) - 1)
    rest = epc >> _SERIAL_BITS
    partition = (rest >> 44) & 0x7
    if partition > 6:
        raise ValueError("invalid partition value")
    item_bits = _ITEM_BITS[partition]
    company_bits = _COMPANY_BITS[partition]
    item = rest & ((1 << item_bits) - 1)
    rest >>= item_bits
    company = rest & ((1 << company_bits) - 1)
    rest >>= company_bits
    rest >>= 3  # drop the partition field (already read above)
    filter_value = rest & 0x7
    return Sgtin96(
        filter_value=int(filter_value),
        partition=int(partition),
        company_prefix=int(company),
        item_reference=int(item),
        serial=int(serial),
    )


def sgtin_population(
    n: int,
    *,
    companies: int = 3,
    skus_per_company: int = 8,
    partition: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Generate ``n`` realistic SGTIN-96 EPCs as *low-64-bit* tagIDs.

    Items are spread over a handful of companies and SKUs with **sequential
    serials within each SKU** — the worst case for truncation hashing: the
    IDs differ only in their lowest bits.  Returned as the low 64 bits of
    each EPC (the variable part: partition remainder, company low bits,
    item, serial), unique by construction, suitable as
    :class:`~repro.rfid.tags.TagPopulation` input.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if companies <= 0 or skus_per_company <= 0:
        raise ValueError("companies and skus_per_company must be positive")
    rng = np.random.default_rng(seed)
    company_ids = rng.integers(
        0, 1 << _COMPANY_BITS[partition], size=companies, dtype=np.int64
    )
    epcs: list[int] = []
    per_sku = n // (companies * skus_per_company) + 1
    for c in company_ids:
        for _ in range(skus_per_company):
            item = int(rng.integers(0, 1 << _ITEM_BITS[partition]))
            serial_base = int(rng.integers(0, (1 << _SERIAL_BITS) - per_sku - 1))
            for s in range(per_sku):
                epcs.append(
                    encode_sgtin96(
                        Sgtin96(
                            filter_value=1,
                            partition=partition,
                            company_prefix=int(c),
                            item_reference=item,
                            serial=serial_base + s,
                        )
                    )
                )
                if len(epcs) >= n:
                    break
            if len(epcs) >= n:
                break
        if len(epcs) >= n:
            break
    low64 = np.array([e & ((1 << 64) - 1) for e in epcs[:n]], dtype=np.uint64)
    if sorted_unique(low64).size != low64.size:
        # Company/SKU collisions on the low bits are astronomically rare at
        # these sizes; regenerate deterministically if one happens.
        return sgtin_population(
            n,
            companies=companies,
            skus_per_company=skus_per_company,
            partition=partition,
            seed=seed + 1,
        )
    return low64
