"""Closed-loop benchmark of the GPU LSM reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mixed-uniform --seed 1 --seconds 10 --trace 0

One client calls ``Engine.apply`` once per tick and waits for the answer;
no engine thread is started.  The run is a sequence of *rounds*.  Each
round sets the store up from scratch (timed as ``setup_s``) and replays the
same seeded tick stream, so every round does identical work and its
simulated clock and device counters must repeat bit for bit.  Round 0 is
an untimed warm-up whose answers are checked against the oracle in
``oracle.py``; every later round must reproduce round 0's answers exactly.
Timed rounds continue until ``--seconds`` of tick time has been measured
(at least three), and each end-to-end metric is the median over them.
Wall-clock metrics are scaled by a reference probe timed after every tick
(``reference.py``), which cancels the drift of a shared host's speed; the
unscaled values are printed and recorded beside them.

With ``--trace 1`` one more round runs with benchmark-side spans around
every layer (``tracing.py``) and the per-layer metrics are reported from
it; its answers and device counters must equal the untraced rounds'.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
per-layer metrics traced).  Each run also appends a record stamped with
the commit, Python/numpy versions, CPU count and a calibration rate to
``.perfbench-out/results.jsonl``; a traced run writes its spans to
``.perfbench-out/spans-<workload>-<seed>.jsonl``.  The command exits
non-zero when an answer, the recovered state, or a determinism check
disagrees.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from perfbench import oracle as oracle_mod
from perfbench import reference as reference_mod
from perfbench import tracing, workloads
from repro import recover
from repro.scale.protocol import simulated_seconds

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

#: Timed rounds per run, at least; and no new round starts once the run
#: has been going this long (the per-run limit is 180 s).
MIN_ROUNDS = 3
ROUND_BUDGET_S = 110.0
#: Ticks beyond the reported tail percentile.
TAIL_BEYOND = 10

#: name -> (unit, better); the order is the report order.
END_TO_END = {
    "norm_ops_per_s": ("ops/s", "higher"),
    "norm_tick_p50_ms": ("ms", "lower"),
    "norm_tick_tail_ms": ("ms", "lower"),
    "sim_mops": ("Mops/s", "higher"),
    "setup_s": ("s", "lower"),
    "space_amp": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: The unscaled timings, printed and recorded beside the metrics.
WALL_CLOCK = {
    "ops_per_s": ("ops/s", "higher"),
    "tick_p50_ms": ("ms", "lower"),
    "tick_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "reference_s": ("s", "lower"),
}

PER_LAYER = {
    "serve.apply.self_s": ("s", "lower"),
    "serve.cache.lookup.self_s": ("s", "lower"),
    "serve.cache.hit_ratio": ("ratio", "higher"),
    "serve.cache.evictions": ("count", "lower"),
    "serve.cache.invalidations": ("count", "lower"),
    "api.plan.wall_s": ("s", "lower"),
    "api.plan.segments": ("count", "lower"),
    "api.execute.self_s": ("s", "lower"),
    "core.update.wall_s": ("s", "lower"),
    "core.update.rows": ("count", "lower"),
    "core.update.sim_s": ("s", "lower"),
    "core.lookup.wall_s": ("s", "lower"),
    "core.lookup.rows": ("count", "lower"),
    "core.lookup.sim_s": ("s", "lower"),
    "core.count.wall_s": ("s", "lower"),
    "core.count.rows": ("count", "lower"),
    "core.count.sim_s": ("s", "lower"),
    "core.range.wall_s": ("s", "lower"),
    "core.range.rows": ("count", "lower"),
    "core.range.keys_returned": ("count", "higher"),
    "core.range.sim_s": ("s", "lower"),
    "core.query.candidates_per_result": ("ratio", "lower"),
    "core.maintenance.wall_s": ("s", "lower"),
    "core.maintenance.runs": ("count", "lower"),
    "core.maintenance.reclaimed": ("count", "higher"),
    "core.levels_occupied": ("count", "lower"),
    "scale.route.self_s": ("s", "lower"),
    "scale.fanout.shard_calls_per_tick": ("count", "lower"),
    "scale.traffic.max_min_ratio": ("ratio", "lower"),
    "scale.rebalance.wall_s": ("s", "lower"),
    "scale.rebalance.runs": ("count", "lower"),
    "scale.rebalance.rows_migrated": ("count", "lower"),
    "primitives.sort.wall_s": ("s", "lower"),
    "primitives.sort.elements": ("count", "lower"),
    "primitives.merge.wall_s": ("s", "lower"),
    "primitives.merge.elements": ("count", "lower"),
    "primitives.segmented_sort.wall_s": ("s", "lower"),
    "primitives.segmented_sort.elements": ("count", "lower"),
    "primitives.search.wall_s": ("s", "lower"),
    "primitives.search.queries": ("count", "lower"),
    "primitives.multisplit.wall_s": ("s", "lower"),
    "durability.log_tick.wall_s": ("s", "lower"),
    "durability.wal.bytes": ("B", "lower"),
    "durability.wal.fsyncs": ("count", "lower"),
    "durability.wal.sync.wall_s": ("s", "lower"),
    "durability.wal.bytes_per_user_byte": ("ratio", "lower"),
    "durability.snapshot.runs": ("count", "lower"),
    "durability.snapshot.wall_s": ("s", "lower"),
    "durability.recovery_s": ("s", "lower"),
    "gpu.kernels": ("count", "lower"),
    "gpu.bytes_moved": ("B", "lower"),
    "gpu.sim_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# Run stamp
# ---------------------------------------------------------------------- #
def git_sha():
    """The checked-out commit, read from ``.git`` without running git
    (``None`` outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibration_rate():
    """Million uint64 elements sorted per second by a fixed numpy loop
    (median of five), so records from different hosts can be normalised."""
    data = np.random.default_rng(0).integers(0, 1 << 63, 1 << 20, dtype=np.uint64)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        np.sort(data)
        times.append(time.perf_counter() - t)
    return data.size / statistics.median(times) / 1e6


def stamp():
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "calibration_msort_per_s": calibration_rate(),
        "unix_time": time.time(),
    }


# ---------------------------------------------------------------------- #
# Rounds
# ---------------------------------------------------------------------- #
def devices(backend):
    shards = getattr(backend, "shards", None)
    if shards is None:
        return [backend.device]
    return [backend.router_device] + [s.device for s in shards] + list(backend._spare_devices)


def gpu_totals(backend):
    devs = devices(backend)
    return (
        sum(d.counter.total_launches for d in devs),
        sum(d.counter.total_bytes for d in devs),
        sum(d.simulated_seconds for d in devs),
    )


def occupied_levels(backend):
    shards = getattr(backend, "shards", None)
    structures = [backend] if shards is None else shards
    return sum(s.num_occupied_levels for s in structures)


class Round:
    """Set up one store, replay the tick stream once, keep what it measured."""

    def __init__(self, spec, seed, ticks, workdir, reference, tracer=None):
        gc.collect()
        t0 = time.perf_counter()
        wrap = None if tracer is None else functools.partial(tracing.wrap_backend, tracer=tracer)
        engine, backend = workloads.build_store(spec, seed, workdir, wrap=wrap)
        self.setup_s = time.perf_counter() - t0
        patches = None
        if tracer is not None:
            patches = tracing.install(tracer, engine)
            tracer.clear()
        cache = engine.read_cache
        manager = engine.durability
        wal_before = manager.stats() if manager is not None else None
        sim_before = simulated_seconds(backend)
        gpu_before = gpu_totals(backend)

        apply = engine.apply
        probe = reference.once
        perf = time.perf_counter
        lat = [0.0] * len(ticks)
        probes = [0.0] * len(ticks)
        memory = [0] * len(ticks)
        results = [None] * len(ticks)
        for i, batch in enumerate(ticks):
            if tracer is not None:
                tracer.tick = i
            t = perf()
            results[i] = apply(batch)
            lat[i] = perf() - t
            probes[i] = probe()
            memory[i] = backend.memory_usage_bytes
        self.wall_s = sum(lat)
        self.ref_s = statistics.mean(probes)
        self.scale = reference_mod.scale(probes)

        self.sim_s = simulated_seconds(backend) - sim_before
        self.gpu = tuple(a - b for a, b in zip(gpu_totals(backend), gpu_before))
        self.results = results
        self.lat = sorted(lat)
        self.ops = sum(b.size for b in ticks)
        self.memory = memory
        self.levels = occupied_levels(backend)
        self.cache = cache.cache_stats() if cache is not None else None
        traffic = getattr(backend, "traffic_stats", None)
        self.shard_ops = traffic()["per_shard_ops"] if traffic is not None else None
        self.wal = None
        if manager is not None:
            after = manager.stats()
            self.wal = {k: after[k] - wal_before[k] for k in ("wal_bytes", "wal_fsyncs")}
            self.wal["snapshot_runs"] = after["snapshot_runs"] - wal_before["snapshot_runs"]
        if patches is not None:
            patches.undo()
            tracing.unwrap_shards(backend)
        engine.close()
        self.recovered = None
        self.recovery_s = None
        if manager is not None:
            fresh = workloads.make_backend(spec)
            t = time.perf_counter()
            recover(manager.directory, fresh)
            self.recovery_s = time.perf_counter() - t
            self.recovered = fresh

    @property
    def tail(self):
        """``(value, percentile)``: the highest tick latency with at least
        ``TAIL_BEYOND`` ticks above it, and its nearest-rank percentile."""
        n = len(self.lat)
        k = max(0, n - TAIL_BEYOND - 1)
        return self.lat[k], 100.0 * (k + 1) / n


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    t_start = time.perf_counter()
    problems = oracle_mod.self_test()
    if problems:
        raise SystemExit("oracle self-test failed: " + "; ".join(problems))
    run_stamp = stamp()

    prefill_keys, prefill_values = workloads.make_prefill(args.seed)
    ticks = workloads.make_ticks(args.workload, args.seed, prefill_keys)
    update_rows = sum(int(np.count_nonzero(b.update_mask)) for b in ticks)

    OUT.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT)
    oracle = oracle_mod.Oracle.from_insert_batches(prefill_keys, prefill_values, workloads.B)
    del prefill_keys, prefill_values
    ref = reference_mod.Reference()
    failed = 0
    rounds = []
    live = []  # live keys after each tick, from the oracle

    def run_round(tracer=None):
        """Run one round, then check it outside the timed region: the
        warm-up against the oracle, later rounds against the warm-up."""
        nonlocal failed
        workdir = tempfile.mkdtemp(dir=run_dir) if spec.durable else None
        rnd = Round(spec, args.seed, ticks, workdir, ref, tracer)
        if not rounds:
            for r, b in zip(rnd.results, ticks):
                failed += oracle_mod.mismatched_rows(r, oracle.apply(b))
                live.append(len(oracle))
        else:
            failed += sum(oracle_mod.mismatched_rows(r, e)
                          for r, e in zip(rnd.results, rounds[0].results))
            rnd.results = None
        if rnd.recovered is not None:
            keys, values = oracle_mod.live_items(rnd.recovered)
            failed += oracle_mod.state_mismatches(keys, values, oracle)
            rnd.recovered = None
        if workdir is not None:
            shutil.rmtree(workdir)
        rounds.append(rnd)
        return rnd

    try:
        run_round()  # untimed warm-up
        timed = []
        while len(timed) < MIN_ROUNDS or (
            sum(r.wall_s for r in timed) < args.seconds
            and time.perf_counter() - t_start < ROUND_BUDGET_S
        ):
            timed.append(run_round())
        traced = tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            traced = run_round(tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    warmup = rounds[0]
    if any((r.sim_s, r.gpu, r.memory) != (warmup.sim_s, warmup.gpu, warmup.memory)
           for r in rounds):
        problems.append("simulated clock, device counters or memory use differ between rounds")

    attempted = sum(r.ops for r in rounds)
    end_to_end = end_to_end_metrics(timed, live)
    report = {"end_to_end": end_to_end, "wall_clock": wall_clock_metrics(timed)}
    if traced is not None:
        report["per_layer"] = per_layer_metrics(traced, tracer, timed, update_rows, spec)
        tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))
    correct = failed == 0 and not problems

    print_table(args, spec, report, len(timed), attempted, failed, problems)
    record = {
        "stamp": run_stamp,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_rounds": len(timed),
        "ticks_per_round": len(ticks),
        "ops_per_tick": workloads.B,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_op_frac": failed / attempted,
        "problems": problems,
        **report,
    }
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    chosen = report["per_layer"] if args.trace else end_to_end
    table = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": chosen[name]["value"], "unit": table[name][0]}
                    for name in table},
    }
    print(json.dumps(line))
    return 0 if correct else 1


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def _metric(value, samples, **extra):
    return {"value": value, "samples": samples, **extra}


def _timings(timed, normalised):
    """Throughput and tick latencies per round, median over rounds; with
    ``normalised`` each round's wall times are scaled to the nominal host
    by the reference probe timed between its ticks (``reference.py``)."""
    ticks = len(timed[0].lat)
    rounds = len(timed)
    med = statistics.median
    scale = [r.scale if normalised else 1.0 for r in timed]
    tail = [r.tail for r in timed]
    return {
        "ops_per_s": _metric(med(r.ops / (r.wall_s * f) for r, f in zip(timed, scale)), rounds,
                             note=f"median over {rounds} rounds of {ticks} ticks"),
        "tick_p50_ms": _metric(med(r.lat[len(r.lat) // 2] * f * 1e3
                                   for r, f in zip(timed, scale)), rounds * ticks,
                               note="median over rounds of each round's median tick"),
        "tick_tail_ms": _metric(med(v * f * 1e3 for (v, _), f in zip(tail, scale)),
                                rounds * ticks, percentile=tail[0][1],
                                note=f"p{tail[0][1]:.2f} per round, median over rounds"),
        "setup_s": _metric(med(r.setup_s * f for r, f in zip(timed, scale)), rounds),
    }


def wall_clock_metrics(timed):
    """The same timings as measured, unscaled, with the mean probe time."""
    m = _timings(timed, normalised=False)
    m["reference_s"] = _metric(statistics.median(r.ref_s for r in timed), len(timed),
                               note=f"nominal {reference_mod.NOMINAL_S}")
    return m


def end_to_end_metrics(timed, live):
    rounds = len(timed)
    norm = _timings(timed, normalised=True)
    return {
        "norm_ops_per_s": norm["ops_per_s"],
        "norm_tick_p50_ms": norm["tick_p50_ms"],
        "norm_tick_tail_ms": norm["tick_tail_ms"],
        "sim_mops": _metric(timed[0].ops / timed[0].sim_s / 1e6, rounds,
                            note="identical in every round"),
        "setup_s": norm["setup_s"],
        "space_amp": _metric(statistics.median(m / (n * 8) for m, n in zip(timed[0].memory, live)),
                             len(live), note="median over the ticks of a round"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def per_layer_metrics(traced, tracer, timed, update_rows, spec):
    stats = tracing.SpanStats(tracer.spans)
    ticks = len(traced.lat)
    m = {
        "serve.apply.self_s": stats.self_time.get("serve.apply", 0.0),
        "serve.cache.lookup.self_s": stats.self_time.get("serve.cache.lookup", 0.0),
        "api.plan.wall_s": stats.wall.get("api.plan", 0.0),
        "api.plan.segments": stats.get("api.plan", "segments"),
        "api.execute.self_s": stats.self_time.get("api.execute", 0.0),
    }
    cache = traced.cache or {}
    probes = cache.get("hits", 0) + cache.get("misses", 0)
    m["serve.cache.hit_ratio"] = cache["hits"] / probes if probes else 0.0
    m["serve.cache.evictions"] = cache.get("evictions", 0)
    m["serve.cache.invalidations"] = cache.get("invalidations", 0)
    for op in ("update", "lookup", "count", "range"):
        m[f"core.{op}.wall_s"] = stats.wall.get(f"core.{op}", 0.0)
        m[f"core.{op}.rows"] = stats.get(f"core.{op}", "rows")
        m[f"core.{op}.sim_s"] = stats.get(f"core.{op}", "sim_s")
    m["core.range.keys_returned"] = stats.get("core.range", "returned")
    returned = stats.get("core.count", "returned") + stats.get("core.range", "returned")
    m["core.query.candidates_per_result"] = stats.candidates / returned if returned else 0.0
    m["core.maintenance.wall_s"] = stats.wall.get("core.maintenance", 0.0)
    m["core.maintenance.runs"] = stats.get("core.maintenance", "runs")
    m["core.maintenance.reclaimed"] = stats.get("core.maintenance", "reclaimed")
    m["core.levels_occupied"] = traced.levels
    m["scale.route.self_s"] = sum(
        v for k, v in stats.self_time.items()
        if k.startswith("scale.") and not k.startswith("scale.rebalance")
    )
    m["scale.fanout.shard_calls_per_tick"] = stats.shard_calls / ticks
    shard_ops = traced.shard_ops
    if shard_ops is None:
        m["scale.traffic.max_min_ratio"] = 1.0
    else:
        # An idle shard has no finite ratio; say so instead of a sentinel.
        m["scale.traffic.max_min_ratio"] = max(shard_ops) / min(shard_ops) if min(shard_ops) else None
    m["scale.rebalance.wall_s"] = stats.wall.get("scale.rebalance", 0.0)
    m["scale.rebalance.runs"] = stats.get("scale.rebalance", "runs")
    m["scale.rebalance.rows_migrated"] = stats.get("scale.rebalance", "rows_migrated")
    for prim in ("sort", "merge", "segmented_sort"):
        m[f"primitives.{prim}.wall_s"] = stats.wall.get(f"primitives.{prim}", 0.0)
        m[f"primitives.{prim}.elements"] = stats.get(f"primitives.{prim}", "n")
    m["primitives.search.wall_s"] = stats.wall.get("primitives.search", 0.0)
    m["primitives.search.queries"] = stats.get("primitives.search", "n")
    m["primitives.multisplit.wall_s"] = stats.wall.get("primitives.multisplit", 0.0)
    wal = traced.wal or {}
    m["durability.log_tick.wall_s"] = stats.wall.get("durability.log_tick", 0.0)
    m["durability.wal.bytes"] = wal.get("wal_bytes", 0)
    m["durability.wal.fsyncs"] = wal.get("wal_fsyncs", 0)
    m["durability.wal.sync.wall_s"] = stats.wall.get("durability.wal.sync", 0.0)
    m["durability.wal.bytes_per_user_byte"] = (
        wal["wal_bytes"] / (update_rows * 8) if wal else 0.0
    )
    m["durability.snapshot.runs"] = wal.get("snapshot_runs", 0)
    m["durability.snapshot.wall_s"] = stats.wall.get("durability.snapshot", 0.0)
    m["durability.recovery_s"] = (
        statistics.median(r.recovery_s for r in timed) if spec.durable else 0.0
    )
    m["gpu.kernels"], m["gpu.bytes_moved"], m["gpu.sim_s"] = traced.gpu
    untraced = statistics.median(r.wall_s * r.scale for r in timed)
    m["trace.overhead_frac"] = traced.wall_s * traced.scale / untraced - 1.0
    m["trace.unattributed_s"] = traced.wall_s - stats.total_self
    return {name: _metric(value, 1) for name, value in m.items()}


def print_table(args, spec, report, rounds, attempted, failed, problems):
    print(f"workload {args.workload}  seed {args.seed}  {rounds} timed rounds x "
          f"{spec.ticks} ticks x {workloads.B} ops  (closed loop, one client)")
    for section, table in (("end_to_end", END_TO_END), ("wall_clock", WALL_CLOCK),
                           ("per_layer", PER_LAYER)):
        if section not in report:
            continue
        print(f"-- {section}")
        for name, (unit, _) in table.items():
            entry = report[section][name]
            value = entry["value"]
            shown = "null" if value is None else f"{value:.6g}"
            extra = f"  {entry['note']}" if "note" in entry else ""
            print(f"{name:40s} {shown:>14s} {unit:8s} n={entry['samples']}{extra}")
    print(f"failed_op_frac {failed / attempted:.6g}  ({failed} of {attempted} ops failed)")
    for problem in problems:
        print(f"PROBLEM: {problem}")
