"""Unit tests for load-aware shard rebalancing: the split/merge
primitives on :class:`~repro.scale.sharded.ShardedLSM`, the
:class:`~repro.scale.rebalance.LoadImbalancePolicy`, the split planner,
the executor, and the engine/KVStore stats surfacing."""

import csv
import json

import numpy as np
import pytest

from repro import KVStore
from repro.api.ops import OpBatch
from repro.bench import report
from repro.bench.rebalance import _traffic_ratio, update_rebalance_trajectory
from repro.core.lsm import GPULSM
from repro.core.maintenance import MaintenanceAction
from repro.scale import (
    LoadImbalancePolicy,
    ShardedLSM,
    choose_split_key,
    execute_rebalance,
)
from repro.scale.protocol import structural_epoch
from repro.serve.engine import Engine

DOMAIN = 1 << 12


def _sharded(num_shards=4, max_shards=None, policy=None, **kw):
    return ShardedLSM(
        num_shards,
        batch_size=64,
        key_domain=DOMAIN,
        max_shards=max_shards,
        rebalance_policy=policy,
        **kw,
    )


def _fill(sharded, keys):
    keys = np.asarray(keys, dtype=np.uint64)
    sharded.bulk_build(keys, keys * 3)


def _assert_bounds_invariants(sharded):
    bounds = sharded.shard_bounds
    assert bounds[0] == 0
    assert bounds[-1] == sharded.key_domain
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    assert len(bounds) == sharded.num_shards + 1


def _assert_answers(sharded, reference: dict):
    queries = np.arange(0, DOMAIN, 7, dtype=np.uint64)
    res = sharded.lookup(queries)
    for k, f, v in zip(queries, res.found, res.values):
        assert f == (int(k) in reference)
        if f:
            assert int(v) == reference[int(k)]


class TestSplitShard:
    def test_split_moves_boundary_and_preserves_answers(self):
        s = _sharded(2)
        keys = np.arange(0, DOMAIN, 3, dtype=np.uint64)
        _fill(s, keys)
        reference = {int(k): int(k) * 3 for k in keys}
        stats = s.split_shard(0, 512)
        assert stats["kind"] == "split"
        assert s.num_shards == 3
        assert s.shard_bounds == (0, 512, DOMAIN // 2, DOMAIN)
        assert stats["rows_migrated"] == int((keys < DOMAIN // 2).sum())
        _assert_bounds_invariants(s)
        _assert_answers(s, reference)

    def test_split_drops_stale_copies(self):
        s = _sharded(2)
        keys = np.arange(64, dtype=np.uint64)
        _fill(s, keys)
        s.insert(keys, keys + 1)  # a second version of every key
        before = s.num_elements
        stats = s.split_shard(0, 32)
        assert stats["removed"] > 0
        assert s.num_elements < before
        _assert_answers(s, {int(k): int(k) + 1 for k in keys})

    def test_split_key_must_be_strictly_inside(self):
        s = _sharded(2)
        lo, hi = s.shard_range(0)
        with pytest.raises(ValueError, match="split key"):
            s.split_shard(0, lo)
        with pytest.raises(ValueError, match="split key"):
            s.split_shard(0, hi + 1)

    def test_split_at_max_warp_buckets_rejected(self):
        s = ShardedLSM(32, batch_size=64, key_domain=1 << 10)
        with pytest.raises(RuntimeError, match="bucket limit"):
            s.split_shard(0, 8)

    def test_lifetime_counters_continuous_across_split(self):
        s = _sharded(2)
        keys = np.arange(128, dtype=np.uint64)
        _fill(s, keys)
        s.delete(np.arange(16, dtype=np.uint64))
        ins, dels = s.total_insertions, s.total_deletions
        s.split_shard(0, 64)
        assert s.total_insertions == ins
        assert s.total_deletions == dels

    def test_empty_shard_splits_cleanly(self):
        s = _sharded(2)
        stats = s.split_shard(1, DOMAIN // 2 + 8)
        assert stats["rows_migrated"] == 0
        assert s.num_shards == 3
        _assert_bounds_invariants(s)


class TestMergeShards:
    def test_merge_combines_ranges_and_answers(self):
        s = _sharded(4)
        keys = np.arange(0, DOMAIN, 5, dtype=np.uint64)
        _fill(s, keys)
        s.merge_shards(1)
        assert s.num_shards == 3
        _assert_bounds_invariants(s)
        _assert_answers(s, {int(k): int(k) * 3 for k in keys})

    def test_merge_parks_device_and_split_reuses_it(self):
        s = _sharded(4)
        _fill(s, np.arange(0, DOMAIN, 5, dtype=np.uint64))
        s.merge_shards(0)
        assert len(s._spare_devices) == 1
        s.split_shard(0, 100)
        assert len(s._spare_devices) == 0

    def test_merge_keeps_slower_clock(self):
        s = _sharded(4)
        _fill(s, np.arange(0, DOMAIN, 5, dtype=np.uint64))
        clocks = [sh.device.simulated_seconds for sh in s.shards[:2]]
        max_before = max(clocks)
        s.merge_shards(0)
        # The merged shard keeps the device that had done more work, so
        # the parallel profile's max clock can never drop below history.
        assert s.shards[0].device.simulated_seconds >= max_before

    def test_merge_index_validation(self):
        s = _sharded(2)
        with pytest.raises(ValueError, match="adjacent"):
            s.merge_shards(1)

    def test_serial_profile_counts_parked_devices(self):
        s = _sharded(4)
        _fill(s, np.arange(0, DOMAIN, 5, dtype=np.uint64))
        serial_before = s.profile()["serial_seconds"]
        s.merge_shards(0)
        assert s.profile()["serial_seconds"] >= serial_before


class TestEpochContract:
    def test_epoch_strictly_increases_across_boundary_changes(self):
        s = _sharded(2)
        _fill(s, np.arange(0, DOMAIN, 9, dtype=np.uint64))
        seen = [s.epoch]
        s.split_shard(0, 512)
        seen.append(s.epoch)
        s.merge_shards(0)
        seen.append(s.epoch)
        assert seen == sorted(set(seen)), f"epoch not monotone: {seen}"
        assert s.boundary_version == 2

    def test_sum_aliasing_regression(self):
        """A rebalance rebuilds shards whose fresh counters can make the
        per-shard epoch *sum* (the old aggregate) collide with an earlier
        state; the monotone top-level epoch must not."""
        s = _sharded(2)
        _fill(s, np.arange(0, DOMAIN, 9, dtype=np.uint64))
        epoch_before = s.epoch
        sum_before = sum(s.shard_epochs)
        s.split_shard(0, 512)
        s.merge_shards(0)
        # Both replacement shards were rebuilt with one bulk_build each, so
        # the naive sum is back at (or below) its old value...
        assert sum(s.shard_epochs) <= sum_before
        # ...but the top-level epoch moved strictly forward.
        assert s.epoch > epoch_before

    def test_structural_epoch_token_carries_boundary_version(self):
        s = _sharded(2)
        _fill(s, np.arange(0, DOMAIN, 9, dtype=np.uint64))
        kind, payload = structural_epoch(s)
        assert kind == "shards"
        assert payload[0] == 0
        s.split_shard(0, 512)
        kind, payload = structural_epoch(s)
        assert payload[0] == 1

    def test_rollback_cannot_cross_boundary_change(self):
        s = _sharded(2)
        _fill(s, np.arange(0, DOMAIN, 9, dtype=np.uint64))
        capture = s.snapshot_state()
        s.split_shard(0, 512)
        with pytest.raises(RuntimeError, match="boundary"):
            s.rollback_to(capture)

    def test_rollback_within_same_boundaries_still_works(self):
        s = _sharded(2)
        keys = np.arange(0, DOMAIN, 9, dtype=np.uint64)
        _fill(s, keys)
        capture = s.snapshot_state()
        s.insert(np.array([1], dtype=np.uint64), np.array([99], dtype=np.uint64))
        s.rollback_to(capture)
        _assert_answers(s, {int(k): int(k) * 3 for k in keys})


class TestRestoreBoundaries:
    def test_restore_into_empty_store(self):
        s = _sharded(2)
        s.restore_boundaries([0, 100, 700, DOMAIN])
        assert s.num_shards == 3
        assert s.shard_bounds == (0, 100, 700, DOMAIN)
        assert s.boundary_version == 1
        _assert_bounds_invariants(s)

    def test_identical_bounds_is_a_no_op(self):
        s = _sharded(2)
        epoch = s.epoch
        s.restore_boundaries(list(s.shard_bounds))
        assert s.boundary_version == 0
        assert s.epoch == epoch

    def test_non_empty_store_rejected(self):
        s = _sharded(2)
        _fill(s, np.arange(16, dtype=np.uint64))
        with pytest.raises(RuntimeError, match="empty"):
            s.restore_boundaries([0, 100, DOMAIN])

    def test_bad_bounds_rejected(self):
        s = _sharded(2)
        with pytest.raises(ValueError, match="cover"):
            s.restore_boundaries([0, 100, DOMAIN + 1])
        with pytest.raises(ValueError, match="non-decreasing"):
            s.restore_boundaries([0, 700, 100, DOMAIN])
        with pytest.raises(ValueError, match="at least two"):
            s.restore_boundaries([0])


class TestTrafficAccounting:
    def test_routed_traffic_is_counted_per_shard(self):
        s = _sharded(2)
        _fill(s, np.arange(0, DOMAIN, 7, dtype=np.uint64))
        low = np.arange(32, dtype=np.uint64)  # all in shard 0
        s.lookup(low)
        traffic = s.traffic_stats()
        assert traffic["per_shard_ops"][0] >= 32
        assert traffic["per_shard_ewma"][0] > traffic["per_shard_ewma"][1]

    def test_bulk_build_does_not_count_as_traffic(self):
        s = _sharded(2)
        _fill(s, np.arange(0, DOMAIN, 7, dtype=np.uint64))
        assert s.traffic_stats()["per_shard_ops"] == [0, 0]

    def test_traffic_accounting_adds_no_simulated_cost(self):
        a = _sharded(2, seed=3)
        b = _sharded(2, seed=3)
        keys = np.arange(0, 64, dtype=np.uint64)
        a.insert(keys, keys)
        b.insert(keys, keys)
        a.lookup(keys)
        # Traffic counters moved on a, but the clocks agree exactly with
        # the backend that did the same routed work.
        b.lookup(keys)
        assert a.profile() == b.profile()

    def test_shard_stats_carries_traffic_columns(self):
        s = _sharded(2)
        _fill(s, np.arange(0, DOMAIN, 7, dtype=np.uint64))
        s.lookup(np.arange(8, dtype=np.uint64))
        row = s.shard_stats()[0]
        assert row["traffic_ops"] >= 8
        assert row["traffic_ewma"] > 0.0


class TestLoadImbalancePolicy:
    def _hot(self, s, n=512):
        """Route n point lookups into shard 0's range."""
        s.lookup(np.zeros(n, dtype=np.uint64) + 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="imbalance_threshold"):
            LoadImbalancePolicy(imbalance_threshold=1.0)
        with pytest.raises(ValueError, match="min_traffic"):
            LoadImbalancePolicy(min_traffic=-1)
        with pytest.raises(ValueError, match="cooldown"):
            LoadImbalancePolicy(cooldown_ticks=-1)

    def test_trips_on_skew_and_respects_floor(self):
        policy = LoadImbalancePolicy(2.0, min_traffic=256, cooldown_ticks=0)
        s = _sharded(2, max_shards=4)
        _fill(s, np.arange(0, DOMAIN, 7, dtype=np.uint64))
        assert policy.decide(s) is None  # no traffic yet
        self._hot(s, 100)
        assert policy.decide(s) is None  # below the min-traffic floor
        self._hot(s, 500)
        action = policy.decide(s)
        assert isinstance(action, MaintenanceAction)
        assert action.kind == "rebalance"
        assert action.policy == "load_imbalance"

    def test_cooldown_silences_following_polls(self):
        policy = LoadImbalancePolicy(2.0, min_traffic=1, cooldown_ticks=2)
        s = _sharded(2, max_shards=4)
        _fill(s, np.arange(0, DOMAIN, 7, dtype=np.uint64))
        self._hot(s)
        assert policy.decide(s) is not None
        assert policy.decide(s) is None
        assert policy.decide(s) is None
        assert policy.decide(s) is not None

    def test_balanced_traffic_does_not_trip(self):
        policy = LoadImbalancePolicy(2.0, min_traffic=1, cooldown_ticks=0)
        s = _sharded(2, max_shards=4)
        _fill(s, np.arange(0, DOMAIN, 7, dtype=np.uint64))
        s.lookup(np.arange(0, DOMAIN, 8, dtype=np.uint64))  # uniform
        assert policy.decide(s) is None


class TestPlannerAndExecutor:
    def test_choose_split_key_lands_inside_the_hot_range(self):
        s = _sharded(2)
        _fill(s, np.arange(0, DOMAIN, 3, dtype=np.uint64))
        s.lookup(np.arange(256, dtype=np.uint64))  # heat shard 0's low end
        lo, hi = s.shard_range(0)
        key = choose_split_key(s, 0)
        assert lo < key <= hi
        # The traffic histogram concentrates at the low end, so the
        # weighted median must land well below the range midpoint.
        assert key < (lo + hi) // 2

    def test_choose_split_key_empty_shard_uses_histogram_then_midpoint(self):
        s = _sharded(2)
        lo, hi = s.shard_range(1)
        key = choose_split_key(s, 1)  # empty, no traffic: midpoint
        assert key == lo + (hi + 1 - lo) // 2

    def test_executor_splits_below_max_shards(self):
        s = _sharded(2, max_shards=4)
        _fill(s, np.arange(0, DOMAIN, 3, dtype=np.uint64))
        s.lookup(np.arange(512, dtype=np.uint64))
        stats = execute_rebalance(s, trigger="test")
        assert stats is not None
        assert stats["split"] is not None and stats["merged"] is None
        assert s.num_shards == 3
        assert s.rebalance_stats()["rebalance_runs"] == 1

    def test_executor_merges_to_make_room_at_max_shards(self):
        s = _sharded(4, max_shards=4)
        _fill(s, np.arange(0, DOMAIN, 3, dtype=np.uint64))
        s.lookup(np.arange(512, dtype=np.uint64))  # shard 0 hot
        stats = execute_rebalance(s, trigger="test")
        assert stats is not None
        assert stats["merged"] is not None and stats["split"] is not None
        assert s.num_shards == 4  # merge + split nets out
        _assert_bounds_invariants(s)

    def test_executor_is_a_fixed_point_when_balanced(self):
        s = _sharded(4, max_shards=4)
        _fill(s, np.arange(0, DOMAIN, 3, dtype=np.uint64))
        s.lookup(np.arange(0, DOMAIN, 4, dtype=np.uint64))  # uniform
        assert execute_rebalance(s) is None
        assert s.rebalance_stats()["rebalance_runs"] == 0

    def test_run_due_maintenance_drives_the_policy(self):
        policy = LoadImbalancePolicy(2.0, min_traffic=1, cooldown_ticks=0)
        s = _sharded(2, max_shards=4, policy=policy)
        _fill(s, np.arange(0, DOMAIN, 3, dtype=np.uint64))
        s.lookup(np.arange(512, dtype=np.uint64))
        stats = s.run_due_maintenance()
        assert stats is not None and "rebalance" in stats
        assert s.num_shards == 3

    def test_no_policy_means_no_rebalancing(self):
        s = _sharded(2)
        _fill(s, np.arange(0, DOMAIN, 3, dtype=np.uint64))
        s.lookup(np.arange(512, dtype=np.uint64))
        assert s.run_due_maintenance() is None
        assert s.boundary_version == 0


class TestStatsSurfacing:
    def _engine_with_skew(self):
        policy = LoadImbalancePolicy(2.0, min_traffic=32, cooldown_ticks=0)
        backend = ShardedLSM(
            2,
            batch_size=64,
            key_domain=DOMAIN,
            max_shards=4,
            rebalance_policy=policy,
        )
        engine = Engine(backend)
        keys = np.arange(48, dtype=np.uint64)  # all in shard 0
        engine.apply(OpBatch.inserts(keys, keys * 2))
        engine.apply(OpBatch.lookups(np.repeat(keys, 2)))
        return engine, backend

    def test_engine_stats_breaks_out_rebalance_counters(self):
        engine, backend = self._engine_with_skew()
        stats = engine.stats()
        assert stats.backend_rebalance is not None
        assert stats.backend_rebalance["rebalance_runs"] >= 1
        assert stats.backend_rebalance["rows_migrated"] >= 1
        assert (
            stats.backend_rebalance["boundary_version"]
            == backend.boundary_version
        )
        assert len(stats.backend_rebalance["shard_traffic_ops"]) == (
            backend.num_shards
        )

    def test_gpulsm_backend_reports_none(self):
        engine = Engine(GPULSM(batch_size=16))
        engine.apply(OpBatch.lookups(np.array([1], dtype=np.uint64)))
        assert engine.stats().backend_rebalance is None

    def test_kvstore_forwards_rebalance_stats(self):
        policy = LoadImbalancePolicy(2.0, min_traffic=32, cooldown_ticks=0)
        backend = ShardedLSM(
            2,
            batch_size=64,
            key_domain=DOMAIN,
            max_shards=4,
            rebalance_policy=policy,
        )
        store = KVStore(backend=backend)
        keys = np.arange(48, dtype=np.uint64)
        store.apply(OpBatch.inserts(keys, keys * 2))
        store.apply(OpBatch.lookups(np.repeat(keys, 2)))
        assert store.rebalance_stats() is not None
        assert store.stats().backend_rebalance["rebalance_runs"] >= 1
        assert store.rebalance_stats() == store.stats().backend_rebalance

    def test_maintenance_action_accepts_rebalance_kind(self):
        action = MaintenanceAction(kind="rebalance", policy="x")
        assert action.kind == "rebalance"
        with pytest.raises(ValueError, match="kind"):
            MaintenanceAction(kind="reshard")


class TestRebalanceReportIdleShard:
    """A shard that saw no traffic makes max/min undefined: the report
    emits an empty cell, never a sentinel number."""

    def _idle_backend(self):
        backend = ShardedLSM(4, batch_size=64, key_domain=DOMAIN)
        engine = Engine(backend)
        # Every key routes to shard 0; shards 1-3 stay idle.
        keys = np.arange(8, dtype=np.uint64)
        engine.apply(OpBatch.inserts(keys, keys))
        engine.apply(OpBatch.lookups(keys))
        return backend

    def test_ratio_is_none_with_an_idle_shard(self):
        backend = self._idle_backend()
        assert min(backend.traffic_stats()["per_shard_ewma"]) == 0.0
        assert _traffic_ratio(backend) is None

    def test_ratio_is_finite_when_every_shard_has_traffic(self):
        backend = ShardedLSM(2, batch_size=64, key_domain=DOMAIN)
        keys = np.array([1, 2, 3, DOMAIN - 1], dtype=np.uint64)
        Engine(backend).apply(OpBatch.lookups(keys))
        assert _traffic_ratio(backend) == pytest.approx(3.0)

    def test_trajectory_and_csv_leave_the_cell_empty(self, tmp_path):
        rows = [
            {"workload": "zipf", "num_shards": 4, "mode": "static",
             "effective_rate_mops": 1.0, "traffic_max_min_ratio": 3.0},
            {"workload": "zipf", "num_shards": 4, "mode": "rebalance",
             "effective_rate_mops": 2.0, "speedup_vs_static": 2.0,
             "traffic_max_min_ratio": _traffic_ratio(self._idle_backend())},
        ]
        doc = update_rebalance_trajectory(
            str(tmp_path / "BENCH_rebalance.json"), rows, label="idle"
        )
        point = doc["entries"][-1]["rates"]["zipf@4"]
        assert point["traffic_max_min_ratio"] is None
        on_disk = json.loads((tmp_path / "BENCH_rebalance.json").read_text())
        assert on_disk["entries"][-1]["rates"]["zipf@4"]["traffic_max_min_ratio"] is None

        path = report.write_csv(rows, str(tmp_path / "rebalance_rates.csv"))
        with open(path, newline="") as handle:
            cells = [r["traffic_max_min_ratio"] for r in csv.DictReader(handle)]
        assert cells == ["3.0", ""]
