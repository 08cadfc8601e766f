"""Property-based tests (hypothesis) on the core math and data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

# expected_rho and theoretical_rho_interval stay in src/ as this file's oracles.
from repro.core.accuracy import (
    AccuracyRequirement,
    f1,
    f2,
    normal_quantile_d,
    theoretical_rho_interval,
)
from repro.core.config import BFCEConfig
from repro.core.estmath import (
    estimate_cardinality,
    expected_rho,
    gamma,
    gamma_extrema,
    lam,
)
from repro.core.optimal_p import find_optimal_pn
from repro.rfid.hashing import (
    geometric_hash,
    mix64,
    uniform_hash,
    uniform_unit,
    xor_bitget_hash,
)
from repro.timing.accounting import Message, TimeLedger
from repro.timing.c1g2 import C1G2Timing

# ----------------------------------------------------------------------
# estimator math
# ----------------------------------------------------------------------

pos_n = st.floats(min_value=1.0, max_value=2e7, allow_nan=False)
valid_p = st.floats(min_value=1 / 1024, max_value=1023 / 1024)
valid_eps = st.floats(min_value=0.01, max_value=0.5)
valid_delta = st.floats(min_value=0.01, max_value=0.5)


@given(n=pos_n, p=valid_p)
def test_estimator_inverts_model(n, p):
    """Eq. 3 is the exact inverse of Theorem 1's expectation."""
    rho = float(expected_rho(n, 8192, 3, p))
    # Subnormal ρ̄ (λ ≫ 700) loses log precision; real frames can never
    # observe ρ̄ below 1/w anyway.
    if 1e-12 < rho < 1.0:
        assert abs(estimate_cardinality(rho, 8192, 3, p) - n) <= max(1e-6 * n, 1e-6)


@given(n=pos_n, p=valid_p)
def test_lambda_nonnegative_and_linear(n, p):
    l1 = float(lam(n, 8192, 3, p))
    l2 = float(lam(2 * n, 8192, 3, p))
    assert l1 >= 0
    assert abs(l2 - 2 * l1) < 1e-9 * max(l2, 1.0)


@given(rho=st.floats(min_value=1e-6, max_value=1 - 1e-6), p=valid_p)
def test_gamma_estimate_consistency(rho, p):
    """n̂ = γ·w for every valid (ρ̄, p)."""
    assert np.isclose(
        estimate_cardinality(rho, 8192, 3, p), float(gamma(rho, p, 3)) * 8192
    )


@given(res=st.integers(min_value=2, max_value=4096))
def test_gamma_extrema_ordering(res):
    g_min, g_max = gamma_extrema(res)
    assert 0 < g_min <= g_max
    if res > 2:  # res == 2 has a single grid point, so min == max
        assert g_min < g_max


# ----------------------------------------------------------------------
# accuracy theory
# ----------------------------------------------------------------------


@given(delta=valid_delta)
def test_normal_quantile_positive_monotone(delta):
    d = normal_quantile_d(delta)
    assert d > 0
    assert normal_quantile_d(delta / 2) > d


@given(n=st.floats(min_value=1e3, max_value=1e6), p=valid_p, eps=valid_eps)
def test_f1_negative_f2_positive(n, p, eps):
    lo = float(f1(n, 8192, 3, p, eps))
    hi = float(f2(n, 8192, 3, p, eps))
    assert lo <= 0.0
    assert hi >= 0.0


@given(n=st.floats(min_value=1e3, max_value=1e6), p=valid_p, eps=valid_eps)
def test_rho_interval_brackets_mean(n, p, eps):
    lo, hi = theoretical_rho_interval(n, 8192, 3, p, eps)
    mean = float(expected_rho(n, 8192, 3, p))
    assert lo <= mean <= hi


@settings(max_examples=25)
@given(
    n_low=st.floats(min_value=1e3, max_value=2e6),
    eps=st.floats(min_value=0.03, max_value=0.3),
    delta=st.floats(min_value=0.03, max_value=0.3),
)
def test_optimal_pn_invariants(n_low, eps, delta):
    """The selected grid point is valid, and feasibility ⇔ margin ≥ 0."""
    req = AccuracyRequirement(eps, delta)
    result = find_optimal_pn(n_low, req)
    assert 1 <= result.pn <= 1023
    assert result.feasible == (result.margin >= 0)


# ----------------------------------------------------------------------
# hashing
# ----------------------------------------------------------------------

uint64_arrays = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=200
).map(lambda xs: np.array(xs, dtype=np.uint64))


@given(keys=uint64_arrays)
def test_mix64_deterministic_and_shape(keys):
    a = mix64(keys)
    b = mix64(keys)
    assert np.array_equal(a, b)
    assert a.shape == keys.shape


@given(keys=uint64_arrays, seed=st.integers(0, 2**32 - 1),
       bits=st.integers(1, 32))
def test_xor_bitget_range(keys, seed, bits):
    rn = (keys & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    h = xor_bitget_hash(rn, seed, bits)
    assert h.max() < (1 << bits)


@given(keys=uint64_arrays, seed=st.integers(0, 2**32 - 1),
       modulus=st.integers(1, 10**9))
def test_uniform_hash_range(keys, seed, modulus):
    h = uniform_hash(keys, seed, modulus)
    assert h.min() >= 0 and h.max() < modulus


@given(keys=uint64_arrays, seed=st.integers(0, 2**32 - 1))
def test_uniform_unit_range(keys, seed):
    u = uniform_unit(keys, seed)
    assert float(u.min()) >= 0.0 and float(u.max()) < 1.0


@given(keys=uint64_arrays, seed=st.integers(0, 2**32 - 1),
       bits=st.integers(1, 64))
def test_geometric_hash_range(keys, seed, bits):
    g = geometric_hash(keys, seed, bits)
    assert g.min() >= 0 and g.max() < bits


# ----------------------------------------------------------------------
# timing ledger
# ----------------------------------------------------------------------

message_strategy = st.builds(
    Message,
    direction=st.sampled_from(["down", "up"]),
    bits=st.integers(0, 10_000),
    phase=st.sampled_from(["", "a", "b"]),
    label=st.just(""),
    count=st.integers(1, 100),
)


@given(msgs=st.lists(message_strategy, max_size=50))
def test_ledger_total_is_sum_and_nonnegative(msgs):
    ledger = TimeLedger()
    ledger.messages.extend(msgs)
    total = ledger.total_seconds()
    assert total >= 0
    assert np.isclose(total, sum(m.cost_seconds(ledger.timing) for m in msgs))


@given(msgs=st.lists(message_strategy, max_size=50))
def test_ledger_phase_breakdown_partitions_totals(msgs):
    ledger = TimeLedger()
    ledger.messages.extend(msgs)
    phases = ledger.phase_breakdown()
    assert np.isclose(sum(p.seconds for p in phases), ledger.total_seconds())
    assert sum(p.downlink_bits for p in phases) == ledger.downlink_bits()
    assert sum(p.uplink_slots for p in phases) == ledger.uplink_slots()
    assert sum(p.messages for p in phases) == ledger.message_count()


@given(bits=st.integers(0, 10**6))
def test_downlink_slower_than_uplink(bits):
    t = C1G2Timing()
    assert t.downlink_s(bits) >= t.uplink_s(bits)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@given(
    w_exp=st.integers(5, 16),
    k=st.integers(1, 8),
    c=st.floats(min_value=0.05, max_value=1.0),
)
def test_config_accepts_valid_space(w_exp, k, c):
    w = 1 << w_exp
    cfg = BFCEConfig(w=w, k=k, c=c, rough_slots=min(1024, w), probe_slots=min(32, w))
    assert cfg.p_of(cfg.pn_max) < 1.0
