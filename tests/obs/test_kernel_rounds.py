"""Per-round metering of the analytic scatter kernel.

Inside a BFCE analytic round every scatter call only tallies itself; the
round then writes each metric once.  The counters must still carry the
exact per-call totals, the live windows must still mirror every write, and
``obs summary`` must still report the true call count.
"""

from __future__ import annotations

import pytest

from repro.core.bfce import BFCE
from repro.obs import metrics, trace
from repro.obs import report as obs_report
from repro.obs.live import LiveTelemetry
from repro.rfid import _native

pytestmark = pytest.mark.skipif(
    _native.get_lib() is None, reason="native kernels unavailable"
)

N = 5_000
SEEDS = list(range(40, 52))
COUNTERS = (
    "kernel.native.analytic_scatter",
    "kernel.native.calls",
    "kernel.native.calls_threaded",
    "frame.count",
)
HIST = "kernel.native.analytic_scatter.seconds"


@pytest.fixture()
def scatter_calls(monkeypatch):
    """Counts every real call of the scatter kernel."""
    calls = []
    real = _native.analytic_scatter_native

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_native, "analytic_scatter_native", counted)
    return calls


def counters() -> dict:
    snap = metrics.snapshot()["counters"]
    return {name: snap.get(name, 0) for name in COUNTERS}


def test_round_totals_equal_per_seed_and_per_call_totals(scatter_calls):
    bfce = BFCE()
    many = bfce.estimate_analytic_many(N, SEEDS)
    lockstep, lockstep_calls = counters(), len(scatter_calls)
    rounds = metrics.histograms()[HIST]["count"]

    metrics.reset()
    scatter_calls.clear()
    singles = [bfce.estimate_analytic(N, seed=s) for s in SEEDS]
    assert [r.n_hat for r in many] == [r.n_hat for r in singles]
    assert counters() == lockstep
    assert lockstep["kernel.native.analytic_scatter"] == lockstep_calls == len(scatter_calls)
    assert lockstep["kernel.native.calls"] == lockstep_calls
    assert lockstep["frame.count"] == lockstep_calls  # one scatter per frame here
    # One timing sample per lockstep round, far fewer than calls.
    assert 0 < rounds < lockstep_calls


def test_a_call_outside_a_round_meters_itself():
    _native.analytic_scatter_native(7, 100, 32)
    assert counters()["kernel.native.analytic_scatter"] == 1
    assert counters()["kernel.native.calls"] == 1
    assert metrics.histograms()[HIST]["count"] == 1
    with _native.scatter_round():
        _native.analytic_scatter_native(7, 100, 32)
        _native.analytic_scatter_native(8, 100, 32)
        assert counters()["kernel.native.calls"] == 1  # nothing written yet
    assert counters()["kernel.native.analytic_scatter"] == 3
    assert counters()["kernel.native.calls"] == 3
    assert metrics.histograms()[HIST]["count"] == 2


def test_live_reconcile_stays_exact_while_attached():
    telemetry = LiveTelemetry()
    telemetry.attach()
    try:
        BFCE().estimate_analytic_many(N, SEEDS)
        reconcile = telemetry.reconcile(list(COUNTERS))
    finally:
        telemetry.detach()
    assert all(entry["exact"] for entry in reconcile.values()), reconcile
    assert reconcile["kernel.native.analytic_scatter"]["windowed"] > 0


def test_obs_summary_shows_the_true_call_count(tmp_path, scatter_calls):
    path = tmp_path / "t.jsonl"
    trace.configure(path)
    BFCE().estimate_analytic_many(N, SEEDS)
    trace.flush()
    summary = obs_report.summarise(path)
    assert summary["kernel_native_seconds"]["analytic_scatter"]["count"] < len(scatter_calls)
    text = obs_report.render_summary(summary)
    row = next(
        line.split() for line in text.splitlines()
        if line.split()[:1] == ["analytic_scatter"]
    )
    assert int(row[1]) == len(scatter_calls)
