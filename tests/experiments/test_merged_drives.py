"""Merged BFCE drives: one lockstep drive per shared population.

The (ε, δ) requirement enters BFCE only at the optimal-p search, so sweep
points that share a population (batched tier) or a config, channel and
persistence mode (analytic tier) advance all their readers through one
drive, each reader planned with its own point's requirement.  The contract
is that merging is invisible: every payload and cache entry equals the one
the point produces alone, a raising point fails only itself, and the drive
count is one per population key.
"""

import json

import numpy as np
import pytest

from repro.core.config import BFCEConfig
from repro.experiments import batch
from repro.experiments.runner import BFCERun, run_bfce_runs
from repro.experiments.sweep import (
    SweepPoint,
    TrialCache,
    execute_point_inline,
    execute_points_inline,
    run_sweep,
)
from repro.rfid.channel import NoisyChannel

N = 3_000
#: Far above the estimable range of a 16-slot frame: every drive raises.
TINY = BFCEConfig(w=16, rough_slots=16, probe_slots=16)


def _bfce(**kwargs):
    spec = dict(distribution="T1", n=N, trials=3, base_seed=7)
    spec.update(kwargs)
    return SweepPoint.bfce_trials(**spec)


def _grid():
    """Three requirements on one population, a second population, a
    serial-engine point and a point every cache already holds."""
    cached = _bfce(base_seed=90)
    return [
        _bfce(eps=0.05, delta=0.05),
        _bfce(eps=0.1, delta=0.05),
        _bfce(eps=0.2, delta=0.1),
        _bfce(n=2 * N, eps=0.1, delta=0.2),
        _bfce(eps=0.1, engine="serial"),
        cached,
    ], cached


@pytest.fixture
def batched_drives(monkeypatch):
    """The readers of every batched BFCE drive attempted, in drive order."""
    drives = []
    drive = batch.run_bfce_trials_batched

    def counting(population, **kwargs):
        drives.append(int(np.sum(kwargs["trials"])))
        return drive(population, **kwargs)

    monkeypatch.setattr(batch, "run_bfce_trials_batched", counting)
    return drives


class TestMergedBatchedDrives:
    def test_every_executor_gives_equal_payloads_and_cache_bytes(self, tmp_path, batched_drives):
        points, cached = _grid()
        caches = {
            name: TrialCache(tmp_path / name) for name in ("serial", "parallel", "inline", "single")
        }
        for cache in caches.values():
            execute_point_inline(cached, cache=cache)
        del batched_drives[:]
        serial = run_sweep(points, max_workers=1, cache=caches["serial"])
        # One drive per population key: three requirements share the first.
        assert batched_drives == [9, 3]
        parallel = run_sweep(points, max_workers=2, cache=caches["parallel"])
        outcomes, _ = execute_points_inline(points, cache=caches["inline"])
        assert [hit for _, hit in outcomes] == [p is cached for p in points]
        single = [execute_point_inline(p, cache=caches["single"])[0] for p in points]
        texts = [
            [json.dumps(payload, sort_keys=True) for payload in payloads]
            for payloads in (serial, parallel, [p for p, _ in outcomes], single)
        ]
        assert texts[0] == texts[1] == texts[2] == texts[3]
        entries = {
            name: {path.name: path.read_bytes() for path in cache.directory.glob("*.json")}
            for name, cache in caches.items()
        }
        assert len(entries["serial"]) == len(points)
        assert entries["serial"] == entries["parallel"] == entries["inline"] == entries["single"]

    def test_merged_records_equal_the_serial_engine(self, tmp_path):
        requirements = ((0.05, 0.05), (0.2, 0.1))
        merged = run_sweep(
            [_bfce(eps=eps, delta=delta) for eps, delta in requirements],
            max_workers=1, cache=TrialCache(tmp_path / "merged"),
        )
        for (eps, delta), payload in zip(requirements, merged):
            [reference] = run_sweep(
                [_bfce(eps=eps, delta=delta, engine="serial")],
                max_workers=1, cache=TrialCache(tmp_path / "serial"),
            )
            for got, want in zip(payload["records"], reference["records"]):
                assert got["extra"].pop("engine") == "batched"
                assert want["extra"].pop("engine") == "serial"
                assert got == want

    @pytest.mark.filterwarnings("ignore::repro.obs.EngineFallbackWarning")
    def test_a_raising_point_fails_only_itself(self, tmp_path, batched_drives):
        ok = _bfce(eps=0.1)
        too_large = _bfce(n=100_000, config=TINY, trials=2)
        also_too_large = _bfce(n=100_000, config=TINY, trials=1, base_seed=50)
        noisy = _bfce(channel=NoisyChannel(0.01, 0.0), base_seed=8)
        points = [ok, too_large, noisy, also_too_large]
        outcomes, _ = execute_points_inline(points, cache=TrialCache(tmp_path / "inline"))
        failed = [isinstance(payload, Exception) for payload, _ in outcomes]
        assert failed == [False, True, False, True]
        # The noisy point falls back alone, inside the spec loop; then the
        # good drive, and the raising merged drive re-driven run by run.
        assert batched_drives == [3, 3, 3, 2, 1]
        assert outcomes[0][0] == execute_point_inline(ok, cache=TrialCache(tmp_path / "ok"))[0]
        bad_args = SweepPoint.baseline_trials(
            "ZOE", distribution="T1", n=N, trials=1, args={"bogus": 1}
        )
        for workers in (1, 2):
            cache = TrialCache(tmp_path / f"w{workers}")
            with pytest.raises(RuntimeError, match="w=16"):
                run_sweep(points + [bad_args], max_workers=workers, cache=cache)
            with pytest.raises(TypeError, match="bogus"):
                run_sweep([ok, bad_args] + points, max_workers=workers, cache=cache)
        # In process, the points that succeeded were stored before the raise.
        assert len(list((tmp_path / "w1").glob("*.json"))) == 2


class TestMergedAnalyticDrives:
    def test_mixed_requirements_share_one_drive(self):
        requirements = [(0.05, 0.05), (0.1, 0.05), (0.2, 0.1), (0.1, 0.2)]
        runs = [
            BFCERun(n=n, trials=3, base_seed=seed, eps=eps, delta=delta)
            for (eps, delta), n, seed in zip(requirements, (10**4, 10**5, 10**5, 10**6), (1, 2, 1, 9))
        ]
        outcomes, drives = run_bfce_runs(runs)
        assert drives == [12]
        for run, records in zip(runs, outcomes):
            [alone], [readers] = run_bfce_runs([run])
            assert readers == run.trials
            assert records == alone
            assert {(r.eps, r.delta) for r in records} == {(run.eps, run.delta)}
