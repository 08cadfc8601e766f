"""Property-based tests (hypothesis) for the extension modules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.membership import CensusFilter
from repro.experiments.dynamics import BatchEvent, PopulationTrace
# decode_sgtin96 stays in src/ as the round-trip oracle of the encoder.
from repro.rfid.epc import Sgtin96, decode_sgtin96, encode_sgtin96
from repro.rfid.faults import FaultModel, correct_skew
from repro.timing.link_budget import LinkProfile

# ----------------------------------------------------------------------
# SGTIN-96 encode/decode
# ----------------------------------------------------------------------

partitions = st.integers(0, 6)


@st.composite
def sgtin_tags(draw):
    from repro.rfid.epc import _COMPANY_BITS, _ITEM_BITS

    partition = draw(partitions)
    return Sgtin96(
        filter_value=draw(st.integers(0, 7)),
        partition=partition,
        company_prefix=draw(st.integers(0, (1 << _COMPANY_BITS[partition]) - 1)),
        item_reference=draw(st.integers(0, (1 << _ITEM_BITS[partition]) - 1)),
        serial=draw(st.integers(0, (1 << 38) - 1)),
    )


@given(tag=sgtin_tags())
def test_sgtin_roundtrip(tag):
    epc = encode_sgtin96(tag)
    assert 0 <= epc < (1 << 96)
    assert decode_sgtin96(epc) == tag


@given(tag=sgtin_tags())
def test_sgtin_header_fixed(tag):
    assert encode_sgtin96(tag) >> 88 == 0x30


# ----------------------------------------------------------------------
# population traces
# ----------------------------------------------------------------------


@given(
    initial=st.integers(0, 5_000),
    churn=st.floats(min_value=0.0, max_value=0.3),
    epochs=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_trace_ids_always_unique(initial, churn, epochs, seed):
    trace = PopulationTrace(initial_size=initial, churn_rate=churn, seed=seed)
    for _ in range(epochs):
        pop = trace.step()
        assert np.unique(pop.tag_ids).size == pop.size


@given(
    initial=st.integers(100, 3_000),
    delta=st.integers(-2_000, 2_000).filter(lambda d: d != 0),
)
@settings(max_examples=30, deadline=None)
def test_trace_batch_event_arithmetic(initial, delta):
    trace = PopulationTrace(initial_size=initial, events=(BatchEvent(0, delta),))
    pop = trace.step()
    assert pop.size == max(initial + delta, 0)


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------


@given(
    skew=st.floats(min_value=0.1, max_value=3.0),
    n_hat=st.floats(min_value=1.0, max_value=1e7),
)
def test_skew_correction_inverts(skew, n_hat):
    assert correct_skew(n_hat * skew, skew) == np.float64(n_hat * skew) / skew


@given(
    skew=st.floats(min_value=0.1, max_value=2.0),
    desync=st.floats(min_value=0.0, max_value=0.9),
    drift=st.floats(min_value=0.0, max_value=1.0),
)
def test_fault_model_construction(skew, desync, drift):
    fault = FaultModel(
        persistence_skew=skew, desync_fraction=desync, drift_prob=drift
    )
    assert fault.is_nominal == (skew == 1.0 and desync == 0.0 and drift == 0.0)


# ----------------------------------------------------------------------
# census filters
# ----------------------------------------------------------------------


@given(
    fill_bits=st.integers(0, 256),
    k=st.integers(1, 5),
)
@settings(max_examples=40)
def test_census_fpr_bounds(fill_bits, k):
    """0 ≤ ideal ≤ analytic fpr ≤ 1 for any fill and k."""
    busy = np.zeros(256, dtype=bool)
    busy[:fill_bits] = True
    census = CensusFilter(
        busy=busy,
        seeds=np.arange(k, dtype=np.uint64),
        w=256,
        elapsed_seconds=0.1,
    )
    assert 0.0 <= census.ideal_false_positive_rate <= census.false_positive_rate <= 1.0


# ----------------------------------------------------------------------
# link budget
# ----------------------------------------------------------------------


@given(
    tari=st.floats(min_value=6.25, max_value=25.0),
    ratio=st.floats(min_value=1.5, max_value=2.1),
    blf=st.floats(min_value=40.0, max_value=640.0),
    m=st.sampled_from([1, 2, 4, 8]),
)
def test_link_profile_rates_consistent(tari, ratio, blf, m):
    profile = LinkProfile(tari_us=tari, data1_ratio=ratio, blf_khz=blf, miller_m=m)
    assert profile.downlink_us_per_bit > 0
    assert profile.uplink_us_per_bit > 0
    # kbps · µs/bit ≡ 1000.
    assert profile.downlink_kbps * profile.downlink_us_per_bit == np.float64(
        profile.downlink_kbps
    ) * profile.downlink_us_per_bit
    timing = profile.to_timing()
    assert timing.downlink_s(8) > 0
