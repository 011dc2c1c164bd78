"""Load-aware shard rebalancing: near-linear scaling under skew.

Replays the skewed serving workloads (Zipf(1.0) and hot-tenant) tick by
tick through the engine against a static uniform partition and against the
same backend with the :class:`~repro.scale.rebalance.LoadImbalancePolicy`
driving online range split/merge.
:func:`repro.bench.rebalance.rebalance_scaling` raises if any tick's
answers diverge bit-for-bit between the two modes, so a passing benchmark
*is* the answer-invariance proof.

Asserted bounds (machine-independent — simulated device time), on the
Zipf(1.0) workload at 8 shards:

* rebalancing reaches >= 1.5x the static partition's steady-state
  effective (parallel) rate;
* the per-shard traffic max/min EWMA ratio converges to <= 2;
* the policy actually ran (>= 1 rebalance pass, rows migrated) while the
  static arm ran none — rebalancing stays off by default.

The hot-tenant rows are recorded but not floor-asserted: with fewer
tenants than shards a single un-splittable hot key bounds the achievable
balance, which is exactly what the CSV should show.

Writes ``rebalance_rates.csv`` (this run) and appends the run to the
cumulative ``BENCH_rebalance.json`` trajectory.
"""

import os

from repro.bench import report
from repro.bench.rebalance import rebalance_scaling, update_rebalance_trajectory

#: Trajectory label for this PR's point (replaced, not duplicated, on
#: re-runs).
_TRAJECTORY_LABEL = "load-aware shard rebalancing"


def _row(rows, workload, num_shards, mode):
    (match,) = [
        r
        for r in rows
        if r["workload"] == workload
        and r["num_shards"] == num_shards
        and r["mode"] == mode
    ]
    return match


def test_rebalance_scaling_under_skew(benchmark, bench_scale, results_dir):
    cfg = bench_scale["rebalance"]

    rows = benchmark.pedantic(
        lambda: rebalance_scaling(**cfg), rounds=1, iterations=1
    )

    # The harness itself asserted bit-identical static/rebalancing answers
    # for every tick; reaching this line is that proof.
    for workload in ("zipf", "hot_tenant"):
        for num_shards in cfg["shard_counts"]:
            static = _row(rows, workload, num_shards, "static")
            rebal = _row(rows, workload, num_shards, "rebalance")
            # Off by default: the static arm must never have moved a row.
            assert static["rebalance_runs"] == 0
            assert static["rows_migrated"] == 0
            assert static["boundary_version"] == 0
            # The policy arm must have actually rebalanced under skew.
            assert rebal["rebalance_runs"] >= 1, (
                f"{workload}@{num_shards}: the load-imbalance policy "
                "never tripped"
            )
            assert rebal["rows_migrated"] >= 1

    # The acceptance floors, on the Zipf(1.0) workload at 8 shards.
    zipf8 = _row(rows, "zipf", 8, "rebalance")
    assert zipf8["speedup_vs_static"] >= 1.5, (
        f"rebalancing only {zipf8['speedup_vs_static']:.2f}x the static "
        "partition's effective rate on Zipf(1.0) at 8 shards"
    )
    # A ratio of None means some shard saw no traffic at all: unbounded
    # imbalance.
    ratio = zipf8["traffic_max_min_ratio"]
    assert ratio is not None and ratio <= 2.0, (
        f"per-shard traffic max/min converged to {ratio} > 2 on Zipf(1.0) "
        "at 8 shards"
    )
    static8 = _row(rows, "zipf", 8, "static")
    static_ratio = static8["traffic_max_min_ratio"]
    assert static_ratio is None or static_ratio > 2.0, (
        "the static partition shows no imbalance — the workload is not "
        "skewed enough to measure rebalancing against"
    )

    report.write_csv(rows, os.path.join(results_dir, "rebalance_rates.csv"))
    update_rebalance_trajectory(
        os.path.join(results_dir, "BENCH_rebalance.json"),
        rows,
        label=_TRAJECTORY_LABEL,
    )
    print()
    print(report.format_table(rows))
