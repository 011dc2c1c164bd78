"""Unit tests for the wall-clock replay benchmark harness
(:mod:`repro.bench.wallclock`)."""

import json

import numpy as np
import pytest

from repro.bench.wallclock import (
    PRE_PR_BASELINE_OPS_PER_S,
    assert_counters_bit_identical,
    assert_results_bit_identical,
    make_prefill,
    make_replay_phases,
    update_trajectory,
    wallclock_replay,
)
from repro.bench.workloads import MixedOpConfig, hot_key_set
from repro.core.lsm import LookupResult
from repro.gpu.device import Device


class TestReplayWorkload:
    def test_phases_are_deterministic(self):
        a = make_replay_phases(1 << 11, 1 << 8, prefill_batches=3)
        b = make_replay_phases(1 << 11, 1 << 8, prefill_batches=3)
        assert set(a) == {"prefill", "mixed", "hot"}
        for (ka, va), (kb, vb) in zip(a["prefill"], b["prefill"]):
            np.testing.assert_array_equal(ka, kb)
            np.testing.assert_array_equal(va, vb)
        for phase in ("mixed", "hot"):
            for x, y in zip(a[phase], b[phase]):
                np.testing.assert_array_equal(x.opcodes, y.opcodes)
                np.testing.assert_array_equal(x.keys, y.keys)
                np.testing.assert_array_equal(x.values, y.values)
                np.testing.assert_array_equal(x.range_ends, y.range_ends)

    def test_each_phase_gets_half_the_ops(self):
        phases = make_replay_phases(1 << 12, 1 << 8, prefill_batches=0)
        assert phases["prefill"] == []
        for phase in ("mixed", "hot"):
            assert sum(b.size for b in phases[phase]) == 1 << 11

    def test_prefill_contains_the_hot_key_set(self):
        """Every hot lookup must be a *present* key, so the uncached
        baseline pays real per-level probes instead of Bloom rejections."""
        phases = make_replay_phases(1 << 11, 1 << 8, prefill_batches=4)
        hot = hot_key_set(
            MixedOpConfig(
                num_ops=1 << 10,
                tick_size=1 << 8,
                seed=8,  # REPLAY_SEED + 1, the hot phase's stream
                hot_key_count=256,
                hot_fraction=1.0,
            )
        )
        prefilled = np.concatenate([k for k, _ in phases["prefill"]])
        assert np.isin(hot, prefilled).all()

    def test_prefill_batches_fit_the_tick_size(self):
        batches = make_prefill(1 << 8, prefill_batches=5)
        assert len(batches) == 5
        for keys, values in batches:
            assert keys.size == 1 << 8
            np.testing.assert_array_equal(values, keys * np.uint64(5))
        combined = np.concatenate([k for k, _ in batches])
        assert np.unique(combined).size == combined.size  # no duplicates


class TestBitIdentityAssertion:
    def _result(self, **overrides):
        from repro.api.ops import ResultBatch, ResultStatus

        base = dict(
            request=None,
            statuses=np.full(2, ResultStatus.OK, dtype=np.uint8),
            found=np.array([True, False]),
            values=np.array([7, 0], dtype=np.uint64),
            counts=np.zeros(2, dtype=np.int64),
            range_offsets=np.zeros(3, dtype=np.int64),
            range_keys=np.empty(0, dtype=np.uint64),
            range_values=None,
            errors={},
        )
        base.update(overrides)
        return ResultBatch(**base)

    def test_identical_results_pass(self):
        assert_results_bit_identical(self._result(), self._result())

    def test_value_divergence_raises(self):
        with pytest.raises(AssertionError, match="values"):
            assert_results_bit_identical(
                self._result(),
                self._result(values=np.array([8, 0], dtype=np.uint64)),
                context="tick 3",
            )

    def test_found_divergence_raises(self):
        with pytest.raises(AssertionError, match="found"):
            assert_results_bit_identical(
                self._result(), self._result(found=np.array([True, True]))
            )


class TestCounterIdentityAssertion:
    @staticmethod
    def _device(*launches):
        dev = Device(seed=1)
        for name, nbytes in launches:
            dev.record_kernel(name, coalesced_read_bytes=nbytes, work_items=1)
        return dev

    def test_identical_charges_pass(self):
        assert_counters_bit_identical(
            self._device(("a", 8), ("b", 16)), self._device(("a", 8), ("b", 16))
        )

    def test_traffic_divergence_raises(self):
        with pytest.raises(AssertionError, match="per-kernel"):
            assert_counters_bit_identical(
                self._device(("a", 8)), self._device(("a", 9)), context="sort"
            )

    def test_launch_order_divergence_raises(self):
        # Same per-kernel totals, different chronology.
        with pytest.raises(AssertionError, match="kernel logs"):
            assert_counters_bit_identical(
                self._device(("a", 8), ("b", 16)), self._device(("b", 16), ("a", 8))
            )

    def test_clock_divergence_raises(self):
        a, b = self._device(("a", 8)), self._device(("a", 8))
        b.simulated_seconds += 1e-18
        with pytest.raises(AssertionError, match="simulated clocks"):
            assert_counters_bit_identical(a, b)


class TestLookupResultHelper:
    def test_smoke_replay_is_bit_identical_and_reports_cache_rows(self):
        rows = wallclock_replay(
            num_ops=1 << 10,
            tick_size=1 << 8,
            backends=("gpulsm",),
            prefill_batches=3,
            repeats=1,
        )
        # Reaching here means every tick matched bit-for-bit.
        phases = {r["phase"] for r in rows}
        assert phases == {"mixed", "hot", "overall"}
        cached_hot = [
            r for r in rows if r["mode"] == "cached" and r["phase"] == "hot"
        ][0]
        assert cached_hot["cache_hits"] > 0
        assert cached_hot["ops_per_s"] > 0
        uncached = [r for r in rows if r["mode"] == "uncached"]
        assert all("cache_hits" not in r for r in uncached)

    def test_lookup_result_shape(self):
        r = LookupResult(found=np.array([True]), values=None)
        assert r.values is None


class TestTrajectory:
    def test_creates_file_with_baseline_first(self, tmp_path):
        path = str(tmp_path / "BENCH_wallclock.json")
        rows = [
            {
                "backend": "gpulsm",
                "mode": "cached",
                "phase": "hot",
                "ops_per_s": 123.0,
            }
        ]
        doc = update_trajectory(path, rows, label="run A")
        assert doc["entries"][0]["label"] == "pre-PR baseline"
        assert doc["entries"][0]["ops_per_s"] == PRE_PR_BASELINE_OPS_PER_S
        assert doc["entries"][-1]["ops_per_s"]["gpulsm"]["hot"] == 123.0
        with open(path) as handle:
            assert json.load(handle) == doc

    def test_rerun_replaces_same_label(self, tmp_path):
        path = str(tmp_path / "BENCH_wallclock.json")
        row = {
            "backend": "gpulsm",
            "mode": "cached",
            "phase": "hot",
            "ops_per_s": 1.0,
        }
        update_trajectory(path, [row], label="run A")
        update_trajectory(path, [dict(row, ops_per_s=2.0)], label="run A")
        doc = update_trajectory(path, [dict(row, ops_per_s=3.0)], label="run B")
        labels = [e["label"] for e in doc["entries"]]
        assert labels == ["pre-PR baseline", "run A", "run B"]
        run_a = [e for e in doc["entries"] if e["label"] == "run A"][0]
        assert run_a["ops_per_s"]["gpulsm"]["hot"] == 2.0
