"""ZoneConfig.group_key is built once and stays out of the value semantics."""

from __future__ import annotations

from dataclasses import asdict, replace

from repro.service.zones import ZoneConfig


def test_memoised_group_key_never_enters_equality_hash_or_dict_forms():
    keyed = ZoneConfig(n=3_000, eps=0.1)
    key = keyed.group_key()
    assert keyed.group_key() is key  # built once
    fresh = ZoneConfig(n=3_000, eps=0.1)  # equal value, no key built yet
    assert keyed == fresh and hash(keyed) == hash(fresh)
    assert keyed.to_dict() == fresh.to_dict() == asdict(keyed)
    assert "_group_key" not in keyed.to_dict()
    assert "_group_key" not in repr(keyed)
    assert ZoneConfig.from_dict(keyed.to_dict()) == keyed
    assert fresh.group_key() == key


def test_group_key_follows_the_engine_fields_only():
    base = ZoneConfig(n=3_000)
    base.group_key()
    assert replace(base, n=3_001).group_key() != base.group_key()
    assert replace(base, tracker="ekf").group_key() == base.group_key()
