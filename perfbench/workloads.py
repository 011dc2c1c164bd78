"""The benchmark's three workloads: seeded inputs and store construction.

Inputs are generated here, from the workload seed alone, and handed to the
program as plain arrays and ``OpBatch`` ticks, so an edit to the program's
own generators can never change what the benchmark measures.

Every workload runs ``B`` = 4096 operations per tick against a store that
was prefilled with ``PREFILL_BATCHES`` = 127 insert batches (0b1111111, so
the bottom seven LSM levels are all occupied when timing starts).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (
    GPULSM,
    Device,
    DurabilityConfig,
    Engine,
    EveryNTicks,
    OpBatch,
    OpCode,
    ShardedLSM,
    StaleFractionPolicy,
)
from repro.core.encoding import MAX_KEY
from repro.scale.rebalance import LoadImbalancePolicy

#: Operations per tick (the paper's batch size ``b`` for every backend).
B = 4096
#: Insert batches loaded before timing starts.
PREFILL_BATCHES = 127
#: Keys are uniform over the whole 31-bit original-key domain.
KEY_LIMIT = MAX_KEY + 1
#: Expected matches per COUNT/RANGE window against the prefilled store.
RANGE_L = 8
#: Size of the hot-lookup workload's hot set and its share of lookups.
HOT_KEYS = 256
HOT_FRACTION = 0.9
#: Zipf(1.0) support of the ingest workload: rank ``r`` maps to key
#: ``r * ZIPF_STRIDE``, so the popular head is one hot *key range* that the
#: range-sharded front-end feels (and rebalances).
ZIPF_SUPPORT = 1 << 20
ZIPF_STRIDE = KEY_LIMIT // ZIPF_SUPPORT

#: The paper's general-purpose mix (``repro.bench.workloads.DEFAULT_OP_MIX``).
MIXED_OP_MIX = {
    OpCode.INSERT: 0.45,
    OpCode.DELETE: 0.10,
    OpCode.LOOKUP: 0.30,
    OpCode.COUNT: 0.075,
    OpCode.RANGE: 0.075,
}
INGEST_OP_MIX = {OpCode.INSERT: 0.70, OpCode.DELETE: 0.10, OpCode.LOOKUP: 0.20}

#: Ingest maintenance tuning: a stale-fraction trip point of 0.9 fires a
#: per-shard cleanup about once per ten ticks on this stream (0.3 fired
#: several per tick), and the rebalancer's floor and cooldown let it split
#: or merge a handful of times per round instead of thrashing on a skew
#: that no partition can fully even out.
STALE_THRESHOLD = 0.9
REBALANCE = dict(imbalance_threshold=2.0, min_traffic=1 << 16, cooldown_ticks=16)
#: Group commit and checkpoint cadence, the same on every run.
FSYNC_EVERY = 8
SNAPSHOT_EVERY = 64


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: Ticks per round: a fixed amount of work, so simulated-clock and
    #: device counters are a pure function of the seed.
    ticks: int
    sharded: bool
    cache_capacity: Optional[int]
    durable: bool
    why: str


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="mixed-uniform",
            ticks=128,
            sharded=False,
            cache_capacity=4096,
            durable=False,
            why="the paper's general mix: the only COUNT/RANGE traffic, plus the "
            "update cascade; the cache sees no hits",
        ),
        WorkloadSpec(
            name="hot-lookup",
            ticks=256,
            sharded=False,
            cache_capacity=4096,
            durable=False,
            why="point lookups, 90% on a 256-key hot set: the read cache and the "
            "core lookup path, with no updates",
        ),
        WorkloadSpec(
            name="ingest-durable",
            ticks=160,
            sharded=True,
            cache_capacity=None,
            durable=True,
            why="Zipf writes on a sharded store with WAL, snapshots, cleanup and "
            "rebalancing: the background work behind tail spikes",
        ),
    )
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def make_prefill(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``PREFILL_BATCHES * B`` uniform keys and values, inserted batch by
    batch (duplicates across batches are kept: the later batch wins)."""
    rng = _rng(seed, 0)
    n = PREFILL_BATCHES * B
    keys = rng.integers(0, KEY_LIMIT, n, dtype=np.uint64)
    values = rng.integers(0, 1 << 31, n, dtype=np.uint64)
    return keys, values


def _opcodes(rng: np.random.Generator, mix, n: int) -> np.ndarray:
    codes = np.array(sorted(mix), dtype=np.uint8)
    weights = np.array([mix[OpCode(c)] for c in codes], dtype=np.float64)
    return rng.choice(codes, size=n, p=weights / weights.sum()).astype(np.uint8)


def make_ticks(name: str, seed: int, prefill_keys: np.ndarray) -> List[OpBatch]:
    """The round's tick stream, a pure function of ``(name, seed)``."""
    spec = WORKLOADS[name]
    rng = _rng(seed, 1)
    n = spec.ticks * B
    values = rng.integers(0, 1 << 31, n, dtype=np.uint64)
    range_ends = np.zeros(n, dtype=np.uint64)
    if name == "mixed-uniform":
        codes = _opcodes(rng, MIXED_OP_MIX, n)
        keys = rng.integers(0, KEY_LIMIT, n, dtype=np.uint64)
        window = RANGE_L * KEY_LIMIT // prefill_keys.size
        ranged = (codes == OpCode.COUNT) | (codes == OpCode.RANGE)
        keys[ranged] = rng.integers(0, KEY_LIMIT - window, int(ranged.sum()), dtype=np.uint64)
        range_ends[ranged] = keys[ranged] + np.uint64(window)
    elif name == "hot-lookup":
        codes = np.full(n, OpCode.LOOKUP, dtype=np.uint8)
        keys = rng.integers(0, KEY_LIMIT, n, dtype=np.uint64)
        # Hot keys are drawn from the prefill, so every hot lookup is a
        # present key whose uncached probe walks the levels.
        hot = rng.choice(np.unique(prefill_keys), HOT_KEYS, replace=False)
        goes_hot = rng.random(n) < HOT_FRACTION
        keys[goes_hot] = hot[rng.integers(0, HOT_KEYS, int(goes_hot.sum()))]
    elif name == "ingest-durable":
        codes = _opcodes(rng, INGEST_OP_MIX, n)
        ranks = np.arange(1, ZIPF_SUPPORT + 1, dtype=np.float64)
        cdf = np.cumsum(1.0 / ranks)
        cdf /= cdf[-1]
        rank = np.searchsorted(cdf, rng.random(n), side="right")
        keys = rank.astype(np.uint64) * np.uint64(ZIPF_STRIDE)
    else:
        raise ValueError(f"unknown workload {name!r}")
    values[codes != OpCode.INSERT] = 0
    return [
        OpBatch(codes[lo : lo + B], keys[lo : lo + B], values[lo : lo + B],
                range_ends[lo : lo + B])
        for lo in range(0, n, B)
    ]


def make_backend(spec: WorkloadSpec):
    """An empty store of the workload's shape (also the recovery target)."""
    if spec.sharded:
        return ShardedLSM(
            num_shards=4,
            max_shards=8,
            batch_size=B,
            seed=1,
            maintenance_policy=StaleFractionPolicy(threshold=STALE_THRESHOLD),
            rebalance_policy=LoadImbalancePolicy(**REBALANCE),
        )
    return GPULSM(batch_size=B, device=Device(seed=1))


def build_store(spec: WorkloadSpec, seed: int, workdir: Optional[str], wrap=None):
    """Set up one round: generate the prefill, load it, construct the engine.

    ``wrap``, when given, replaces the loaded backend before the engine is
    built (the traced run's protocol proxy).  With durability on, the engine
    attaches to a fresh directory under ``workdir`` and the loaded store is
    checkpointed at once, so recovery starts from the prefilled state.
    Returns ``(engine, backend)``, the backend as the engine sees it.
    """
    keys, values = make_prefill(seed)
    backend = make_backend(spec)
    for lo in range(0, keys.size, B):
        backend.insert(keys[lo : lo + B], values[lo : lo + B])
    if wrap is not None:
        backend = wrap(backend)
    durability = None
    if spec.durable:
        durability = DurabilityConfig(
            directory=os.path.join(workdir, "store"),
            fsync_every_n_ticks=FSYNC_EVERY,
            snapshot_policy=EveryNTicks(SNAPSHOT_EVERY),
        )
    engine = Engine(backend, cache_capacity=spec.cache_capacity, durability=durability)
    if spec.durable:
        engine.durability.snapshot()
    return engine, backend
