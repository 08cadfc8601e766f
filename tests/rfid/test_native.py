"""Equivalence tests for the optional C kernel fast paths.

:mod:`repro.rfid._native` fuses the batched occupancy and ALOHA kernels
into single-pass C loops.  Its contract is bit-identical output to the
pure-NumPy implementations, which these tests pin directly: each kernel
runs once with the native library active and once with ``REPRO_NATIVE=0``
(forcing the NumPy path) on the same inputs.  On machines without a C
compiler the native half is skipped and the NumPy path is the only one —
still covered by the serial-equivalence suites.

The threading layer adds a second contract: kernel outputs must be
bit-identical at *every* ``REPRO_NATIVE_THREADS`` setting (trial-block
parallelism over independent seed streams, plus commutative integer
merges for the single-frame ball split).  The suites below pin the env
parsing, the threaded-vs-NumPy equivalence at 1/2/7 threads, the
single-thread fallback build, the first-use build-race lock, and the
thread-utilisation metrics.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.framedaloha import aloha_empty_counts_batch
from repro.rfid import _native
from repro.rfid.hashing import geometric_occupancy_batch
from repro.rfid.ids import uniform_ids
from repro.rfid.tags import TagPopulation

needs_native = pytest.mark.skipif(
    _native.get_lib() is None, reason="no C compiler / native build failed"
)

#: Id counts around the 1024-id blocks of the blocked kernels: none, one,
#: one short of a block, one block, one past it, three blocks and a tail.
BLOCK_EDGES = (0, 1, 1023, 1024, 1025, 3073)


def _at_block_edges(cases, n, *extra):
    """Each case at the historical size ``n`` (ids unchanged), then at
    every block edge; ``extra`` is appended to every parameter set."""
    return [pytest.param(c, n, *extra, id=str(c)) for c in cases] + [
        pytest.param(c, edge, *extra, id=f"{c}-n{edge}")
        for c in cases
        for edge in BLOCK_EDGES
    ]


@pytest.fixture
def numpy_only(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")


class TestNativeAvailability:
    def test_env_opt_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert not _native.native_enabled()
        assert _native.get_lib() is None

    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        assert _native.native_enabled()


@needs_native
class TestNativeMatchesNumpy:
    @pytest.mark.parametrize("max_bits,n", _at_block_edges([1, 16, 32, 64], 5_000))
    def test_occupancy_kernel(self, max_bits, n, monkeypatch):
        keys = uniform_ids(n, seed=1)
        seeds = np.random.default_rng(2).integers(0, 1 << 32, 40, dtype=np.uint64)
        native = geometric_occupancy_batch(keys, seeds, max_bits=max_bits)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = geometric_occupancy_batch(keys, seeds, max_bits=max_bits)
        assert np.array_equal(native, reference)

    @pytest.mark.parametrize(
        "rho,n,frame_size",
        _at_block_edges([0.0, 0.01, 0.5, 1.0], 5_000, 257)
        + [
            pytest.param(rho, 5_000, 4_000, id=f"{rho}-w4000")
            for rho in (0.0, 0.01, 0.6, 1.0)
        ],
    )
    def test_aloha_kernel(self, rho, n, frame_size, monkeypatch):
        pop = TagPopulation(uniform_ids(n, seed=3))
        seeds = np.random.default_rng(4).integers(0, 1 << 32, 20, dtype=np.uint64)
        probs = np.full(seeds.size, rho)
        native = aloha_empty_counts_batch(
            pop, frame_size=frame_size, sampling_probs=probs, seeds=seeds
        )
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = aloha_empty_counts_batch(
            pop, frame_size=frame_size, sampling_probs=probs, seeds=seeds
        )
        assert np.array_equal(native, reference)

    def test_aloha_mixed_probabilities(self, monkeypatch):
        pop = TagPopulation(uniform_ids(2_000, seed=5))
        rng = np.random.default_rng(6)
        seeds = rng.integers(0, 1 << 32, 33, dtype=np.uint64)
        probs = rng.uniform(0.0, 1.0, seeds.size)
        native = aloha_empty_counts_batch(
            pop, frame_size=100, sampling_probs=probs, seeds=seeds
        )
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = aloha_empty_counts_batch(
            pop, frame_size=100, sampling_probs=probs, seeds=seeds
        )
        assert np.array_equal(native, reference)

    @pytest.mark.parametrize("mode", ["event", "static"])
    def test_bfce_dense_frame_kernel(self, mode, monkeypatch):
        from repro.rfid.frames import run_bfce_frame_batch

        pop = TagPopulation(uniform_ids(6_000, seed=8), persistence_mode=mode)
        rng = np.random.default_rng(9)
        seeds = rng.integers(0, 1 << 32, size=(7, 3), dtype=np.uint64)
        # Degenerate numerators (0 = nobody, 1024 = everybody) plus typical.
        pns = np.array([0, 1024, 1, 102, 512, 1023, 300], dtype=np.int64)
        native = run_bfce_frame_batch(pop, w=1024, seeds=seeds, p_n=pns)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = run_bfce_frame_batch(pop, w=1024, seeds=seeds, p_n=pns)
        assert np.array_equal(native.blooms, reference.blooms)
        assert np.array_equal(native.responses, reference.responses)

    @pytest.mark.parametrize("p,n", _at_block_edges([4, 10, 12, 16], 20_000))
    def test_hll_register_kernel(self, p, n, monkeypatch):
        from repro.sketch.hll import hll_registers

        ids = uniform_ids(n, seed=21)
        native = hll_registers(ids, 42, p)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = hll_registers(ids, 42, p)
        assert np.array_equal(native, reference)

    def test_hll_merge_kernel(self, monkeypatch):
        from repro.sketch.hll import hll_registers, hll_union_registers

        rows = np.stack(
            [hll_registers(uniform_ids(3_000, seed=s), 42, 10) for s in range(6)]
        )
        native = hll_union_registers(rows)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = hll_union_registers(rows)
        assert np.array_equal(native, reference)

    def test_empty_population(self):
        pop = TagPopulation(np.array([], dtype=np.uint64))
        seeds = np.arange(5, dtype=np.uint64)
        empty = aloha_empty_counts_batch(
            pop, frame_size=64, sampling_probs=np.full(5, 0.5), seeds=seeds
        )
        assert np.array_equal(empty, np.full(5, 64))
        occ = geometric_occupancy_batch(np.array([], dtype=np.uint64), seeds)
        assert np.array_equal(occ, np.zeros(5, dtype=np.uint64))
        from repro.sketch.hll import hll_registers

        assert np.array_equal(
            hll_registers(np.array([], dtype=np.uint64), 0, 8),
            np.zeros(256, dtype=np.uint8),
        )


class TestThreadCountParsing:
    """``REPRO_NATIVE_THREADS`` parsing: explicit values, auto fallbacks, clamp."""

    def _auto(self):
        try:
            visible = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            visible = os.cpu_count() or 1
        return max(1, min(visible, 64))

    @pytest.mark.parametrize("raw", [None, "", "0", "-3", "garbage", "2.5"])
    def test_auto_fallbacks(self, raw, monkeypatch):
        if raw is None:
            monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        else:
            monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        assert _native.native_thread_count() == self._auto()

    @pytest.mark.parametrize("raw,expected", [("1", 1), ("2", 2), ("7", 7), ("64", 64)])
    def test_explicit_values(self, raw, expected, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        assert _native.native_thread_count() == expected

    def test_oversubscription_clamped_to_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "100000")
        assert _native.native_thread_count() == 64

    def test_effective_threads_is_one_without_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "8")
        assert _native.effective_threads() == 1

    def test_divide_thread_budget_respects_explicit_setting(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        _native.divide_thread_budget(4)
        assert os.environ["REPRO_NATIVE_THREADS"] == "3"

    def test_divide_thread_budget_splits_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        _native.divide_thread_budget(4)
        try:
            visible = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            visible = os.cpu_count() or 1
        assert os.environ["REPRO_NATIVE_THREADS"] == str(max(1, visible // 4))
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)


@needs_native
class TestThreadedEquivalence:
    """Threaded kernels bit-identical to NumPy at 1, 2 and 7 threads.

    The workloads are sized past the minimum-event threshold so the thread
    fan-out actually engages (when the build has pthreads); the block-edge
    cases lower that threshold so their small calls spread over threads
    too.  On serial-only builds the env var is ignored and the comparison
    still holds.
    """

    @pytest.fixture(params=["1", "2", "7"])
    def threads(self, request, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", request.param)
        return int(request.param)

    @pytest.mark.parametrize(
        "threads,n", _at_block_edges(["1", "2", "7"], 5_000), indirect=["threads"]
    )
    def test_occupancy_kernel_threaded(self, threads, n, monkeypatch):
        monkeypatch.setattr(_native, "_MT_MIN_EVENTS", 1)
        keys = uniform_ids(n, seed=11)
        seeds = np.random.default_rng(12).integers(0, 1 << 32, 60, dtype=np.uint64)
        native = geometric_occupancy_batch(keys, seeds, max_bits=32)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = geometric_occupancy_batch(keys, seeds, max_bits=32)
        assert np.array_equal(native, reference)

    @pytest.mark.parametrize(
        "threads,n", _at_block_edges(["1", "2", "7"], 5_000), indirect=["threads"]
    )
    def test_aloha_kernel_threaded(self, threads, n, monkeypatch):
        monkeypatch.setattr(_native, "_MT_MIN_EVENTS", 1)
        pop = TagPopulation(uniform_ids(n, seed=13))
        rng = np.random.default_rng(14)
        seeds = rng.integers(0, 1 << 32, 40, dtype=np.uint64)
        probs = rng.uniform(0.0, 1.0, seeds.size)
        native = aloha_empty_counts_batch(
            pop, frame_size=257, sampling_probs=probs, seeds=seeds
        )
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = aloha_empty_counts_batch(
            pop, frame_size=257, sampling_probs=probs, seeds=seeds
        )
        assert np.array_equal(native, reference)

    @pytest.mark.parametrize("mode", ["event", "static"])
    def test_bfce_dense_kernel_threaded(self, mode, threads, monkeypatch):
        from repro.rfid.frames import run_bfce_frame_batch

        pop = TagPopulation(uniform_ids(6_000, seed=15), persistence_mode=mode)
        rng = np.random.default_rng(16)
        seeds = rng.integers(0, 1 << 32, size=(9, 3), dtype=np.uint64)
        pns = np.array([0, 1024, 1, 102, 512, 1023, 300, 7, 900], dtype=np.int64)
        native = run_bfce_frame_batch(pop, w=1024, seeds=seeds, p_n=pns)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = run_bfce_frame_batch(pop, w=1024, seeds=seeds, p_n=pns)
        assert np.array_equal(native.blooms, reference.blooms)
        assert np.array_equal(native.responses, reference.responses)

    def test_scatter_multi_frame_threaded(self, threads, monkeypatch):
        from repro.rfid.occupancy import scatter_counts

        rng = np.random.default_rng(17)
        # Multi-frame path: one row per (seed, balls) pair.
        natives = [
            scatter_counts(int(s), int(b), 4096)
            for s, b in zip(
                rng.integers(0, 1 << 63, 5, dtype=np.uint64),
                [0, 1, 1000, 60_000, 200_000],
            )
        ]
        monkeypatch.setenv("REPRO_NATIVE", "0")
        rng = np.random.default_rng(17)
        references = [
            scatter_counts(int(s), int(b), 4096)
            for s, b in zip(
                rng.integers(0, 1 << 63, 5, dtype=np.uint64),
                [0, 1, 1000, 60_000, 200_000],
            )
        ]
        for native, reference in zip(natives, references):
            assert np.array_equal(native, reference)

    @pytest.mark.parametrize(
        "threads,n", _at_block_edges(["1", "2", "7"], 50_000), indirect=["threads"]
    )
    def test_hll_register_kernel_threaded(self, threads, n, monkeypatch):
        """The update kernel splits ids across threads into scratch register
        rows; the elementwise-max merge must reproduce the serial registers
        exactly at every thread count."""
        from repro.sketch.hll import hll_registers

        monkeypatch.setattr(_native, "_MT_MIN_EVENTS", 1)
        ids = uniform_ids(n, seed=22)
        native = hll_registers(ids, 0xBEEF, 12)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = hll_registers(ids, 0xBEEF, 12)
        assert np.array_equal(native, reference)

    def test_scatter_ball_split_threaded(self, threads, monkeypatch):
        """Single-frame scatter splits the ball range across threads; the
        integer-addition merge must reproduce the serial row exactly."""
        from repro.rfid.occupancy import scatter_counts

        native = scatter_counts(0xABCDEF, 500_000, 1 << 13)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = scatter_counts(0xABCDEF, 500_000, 1 << 13)
        assert int(native.sum()) == 500_000
        assert np.array_equal(native, reference)


@needs_native
class TestSingleFrameScatter:
    """The analytic scatter is one single-frame call: below
    ``_MT_MIN_EVENTS`` balls it runs on one thread through the GIL-holding
    handle, above it threads over ball ranges and releases the GIL — the
    counts equal the NumPy path either way."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "balls,n_slots",
        [
            (1, 1 << 13),
            (_native._MT_MIN_EVENTS - 1, 1 << 13),
            (_native._MT_MIN_EVENTS, 1 << 13),
            (3 * _native._MT_MIN_EVENTS + 7, 4_000),
        ],
    )
    def test_native_equals_numpy_around_threshold(
        self, threads, balls, n_slots, monkeypatch
    ):
        from repro.rfid.occupancy import scatter_counts

        monkeypatch.setenv("REPRO_NATIVE_THREADS", threads)
        native = scatter_counts(0x5EED, balls, n_slots)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = scatter_counts(0x5EED, balls, n_slots)
        assert native.shape == (n_slots,)
        assert native.dtype == reference.dtype == np.int32
        assert np.array_equal(native, reference)

    def test_small_calls_stay_on_one_thread(self, monkeypatch):
        from repro.obs import metrics

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        before = metrics.get("kernel.native.calls_threaded")
        _native.analytic_scatter_native(9, _native._MT_MIN_EVENTS - 1, 1 << 13)
        assert metrics.get("kernel.native.calls_threaded") == before
        assert metrics.snapshot()["gauges"]["native.threads_used"] == 1

    def test_ball_count_must_fit_int32(self):
        with pytest.raises(ValueError, match="int32"):
            _native.analytic_scatter_native(1, 1 << 31, 64)

    def test_loads_the_library_when_called_first(self, monkeypatch):
        from repro.rfid.occupancy import scatter_counts

        expected = scatter_counts(3, 500, 1 << 10)
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_gil_lib", None)
        assert np.array_equal(_native.analytic_scatter_native(3, 500, 1 << 10), expected)


@needs_native
class TestThreadObservability:
    def test_kernel_calls_emit_thread_gauge_and_timings(self, monkeypatch):
        from repro.obs import metrics

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        keys = uniform_ids(5_000, seed=18)
        seeds = np.random.default_rng(19).integers(0, 1 << 32, 60, dtype=np.uint64)
        before = metrics.snapshot()
        geometric_occupancy_batch(keys, seeds, max_bits=32)
        after = metrics.snapshot()
        assert "native.threads_used" in after["gauges"]
        hist = after["histograms"]["kernel.native.occupancy.seconds"]
        prior = before["histograms"].get("kernel.native.occupancy.seconds")
        assert hist["count"] == (prior["count"] if prior else 0) + 1
        assert (
            after["counters"]["kernel.native.calls"]
            == before["counters"].get("kernel.native.calls", 0) + 1
        )
        if _native.threads_supported():
            assert after["gauges"]["native.threads_used"] == 2


_BUILDER_SNIPPET = r"""
import numpy as np
from repro.rfid import _native
lib = _native.get_lib()
assert lib is not None, "native build failed"
ids = np.arange(1000, dtype=np.uint64)
seed_mix = np.arange(8, dtype=np.uint64)
out = _native.occupancy_native(ids, seed_mix, (1 << 32) - 1, 1 << 31)
assert out.shape == (8,)
print("BUILD_OK", int(lib.threads_compiled()))
"""


def _spawn_builder(build_dir, extra_env=None):
    env = dict(os.environ, REPRO_NATIVE_BUILD_DIR=str(build_dir))
    env.pop("REPRO_NATIVE", None)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [sys.executable, "-c", _BUILDER_SNIPPET],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestBuildIsolation:
    def test_concurrent_builders_race_cleanly(self, tmp_path):
        """Several processes hitting a cold build dir must all succeed, with
        the lock serialising compiles and atomic rename publishing one .so —
        no process may ever load a torn library."""
        build_dir = tmp_path / "cold_build"
        procs = [_spawn_builder(build_dir) for _ in range(4)]
        for proc in procs:
            out, err = proc.communicate(timeout=180)
            assert proc.returncode == 0, err
            assert "BUILD_OK" in out
        libs = list(build_dir.glob("*.so"))
        assert len(libs) == 1, f"expected one published .so, got {libs}"
        assert not list(build_dir.glob("*.tmp")), "leftover temp artifacts"

    def test_single_thread_fallback_build(self, tmp_path):
        """``REPRO_NATIVE_PTHREADS=0`` forces the serial variant: the library
        reports no thread support and a thread request is ignored.  CI runs
        this whole file with that setting, so the serial build meets the
        same bit-for-bit NumPy contract as the pthread build."""
        proc = _spawn_builder(
            tmp_path / "st_build",
            extra_env={"REPRO_NATIVE_PTHREADS": "0", "REPRO_NATIVE_THREADS": "8"},
        )
        out, err = proc.communicate(timeout=180)
        assert proc.returncode == 0, err
        assert "BUILD_OK 0" in out
        libs = list((tmp_path / "st_build").glob("*_st.so"))
        assert len(libs) == 1


class TestBuildTag:
    """The library cache tag covers the compile command and the host CPU, so
    a build directory shared by two hosts (or two flag sets) never hands one
    of them the other's library — and loading a published library runs no
    compiler, which keeps process set-up cheap."""

    COMMAND = ["cc", *_native._CFLAGS, "-pthread", "-DREPRO_MT"]

    def test_tag_is_stable(self):
        assert _native._build_tag(self.COMMAND, "avx2 avx512f") == _native._build_tag(
            list(self.COMMAND), "avx2 avx512f"
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["cc", "-O2", *_native._CFLAGS[2:], "-pthread", "-DREPRO_MT"],
            ["cc", *_native._CFLAGS],
            ["clang", *_native._CFLAGS, "-pthread", "-DREPRO_MT"],
        ],
        ids=["flags", "variant", "compiler"],
    )
    def test_tag_changes_with_the_command(self, command):
        assert _native._build_tag(command, "avx2") != _native._build_tag(
            self.COMMAND, "avx2"
        )

    def test_tag_changes_with_the_cpu_signature(self):
        assert _native._build_tag(self.COMMAND, "avx2 avx512f") != _native._build_tag(
            self.COMMAND, "avx2"
        )

    def test_cpu_signature_is_read(self):
        assert _native._cpu_signature().strip()

    def _reset(self, monkeypatch):
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_gil_lib", None)
        monkeypatch.setattr(_native, "_build_failed", False)

    @needs_native
    def test_published_library_loads_without_a_subprocess(self, monkeypatch):
        def no_compiler(*args, **kwargs):
            raise AssertionError(f"compiler ran: {args}")

        self._reset(monkeypatch)
        monkeypatch.setattr(_native.subprocess, "run", no_compiler)
        assert _native.get_lib() is not None

    @needs_native
    def test_another_cpu_never_loads_this_library(self, tmp_path, monkeypatch):
        """A build directory holding this host's library, seen from a host
        with another CPU: that host compiles its own library instead."""
        runs = []

        def failing_compiler(*args, **kwargs):
            runs.append(args)
            raise subprocess.CalledProcessError(1, args[0])

        published = Path(_native.get_lib()._name)
        shutil.copy(published, tmp_path / published.name)
        monkeypatch.setenv("REPRO_NATIVE_BUILD_DIR", str(tmp_path))
        monkeypatch.setattr(_native.subprocess, "run", failing_compiler)
        self._reset(monkeypatch)
        assert _native.get_lib() is not None and not runs  # this host reuses it
        self._reset(monkeypatch)
        monkeypatch.setattr(_native, "_cpu_signature", lambda: "another host's cpu")
        assert _native.get_lib() is None  # it compiles its own (failing here)
        assert runs


class TestNumpyFallbackEndToEnd:
    def test_batched_engine_matches_serial_without_native(self, numpy_only):
        """The pure-NumPy batch engine must stay serial-identical even on
        hosts where the C kernels normally mask it."""
        from repro.baselines import SRC, ZOE
        from repro.core.accuracy import AccuracyRequirement

        pop = TagPopulation(uniform_ids(8_000, seed=7))
        req = AccuracyRequirement(0.1, 0.1)
        for est in (ZOE(req), SRC(req)):
            batched = est.estimate_many(pop, [1, 2])
            for seed, got in zip([1, 2], batched):
                ref = est.estimate(pop, seed=seed)
                assert got.n_hat == ref.n_hat
                assert got.elapsed_seconds == ref.elapsed_seconds
