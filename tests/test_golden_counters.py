"""Golden device counters: the simulated clock must not drift.

A fixed 32-tick mixed stream runs through :class:`GPULSM` (filters off,
and with fence + Bloom filters on) and through a :class:`ShardedLSM` with
stale-fraction cleanup and load-imbalance rebalancing on, and a hot/cold lookup stream runs through a cached
:class:`Engine`.  Every device's ``(total_launches, total_bytes,
simulated_seconds.hex())``, and the read cache's counters, are pinned to
the values the streams produced when they were recorded.  A change to how
a primitive computes its answer must leave these untouched; a change to
the traffic model must update them deliberately and say why.
"""

import numpy as np
import pytest

from repro.api import OpBatch
from repro.bench.workloads import MixedOpConfig, make_mixed_batches
from repro.core.config import LSMConfig
from repro.core.lsm import GPULSM
from repro.core.maintenance import StaleFractionPolicy
from repro.gpu.device import Device
from repro.scale.rebalance import LoadImbalancePolicy
from repro.scale.sharded import ShardedLSM
from repro.serve.engine import Engine

TICKS = 32
TICK_SIZE = 512


def _stream():
    config = MixedOpConfig(
        num_ops=TICKS * TICK_SIZE,
        tick_size=TICK_SIZE,
        seed=2024,
        zipf_theta=1.0,
        zipf_key_count=1024,
    )
    return make_mixed_batches(config)


def _devices(backend):
    if isinstance(backend, GPULSM):
        return [backend.device]
    return (
        [backend.router_device]
        + [shard.device for shard in backend.shards]
        + list(backend._spare_devices)
    )


def _replay(backend):
    engine = Engine(backend)
    for batch in _stream():
        engine.apply(batch)
    return [
        (d.counter.total_launches, d.counter.total_bytes, d.simulated_seconds.hex())
        for d in _devices(backend)
    ]


def _sharded():
    return ShardedLSM(
        4,
        batch_size=TICK_SIZE,
        seed=1,
        maintenance_policy=StaleFractionPolicy(threshold=0.5),
        rebalance_policy=LoadImbalancePolicy(
            imbalance_threshold=1.5, min_traffic=TICK_SIZE, cooldown_ticks=2
        ),
        max_shards=6,
    )


#: One ``(launches, bytes, simulated_seconds.hex())`` per device: the
#: GPULSM's device (filters off, then filters on); the sharded front-end's router, its live shards, then
#: any devices a merge parked.
GOLDEN = {
    "gpulsm": [(1608, 13994918, "0x1.0e9d8562a3d15p-7")],
    "gpulsm-filters": [(1720, 16709315, "0x1.214060668082cp-7")],
    "sharded": [
        (976, 2815400, "0x1.40f19b02a9435p-8"),
        (1367, 2727724, "0x1.c1d627c27af8cp-8"),
        (1233, 2092500, "0x1.9535161b9ae21p-8"),
        (1371, 2200630, "0x1.c2861a9bb5046p-8"),
        (1471, 2148059, "0x1.e33d761ed4eafp-8"),
        (1401, 2433522, "0x1.ccc536cd09fe3p-8"),
        (1475, 2975311, "0x1.e596d0d35703fp-8"),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_device_counters_match_golden(name):
    if name == "gpulsm":
        backend = GPULSM(batch_size=TICK_SIZE, device=Device(seed=1))
    elif name == "gpulsm-filters":
        backend = GPULSM(
            config=LSMConfig(
                batch_size=TICK_SIZE, enable_fences=True, bloom_bits_per_key=8
            ),
            device=Device(seed=1),
        )
    else:
        backend = _sharded()
    got = _replay(backend)
    if name == "gpulsm-filters":
        # The fence charge and the pruned-pair search charges must run.
        stats = backend.filter_stats()
        assert stats["range_fence_pruned"] > 0
        assert stats["fence_pruned"] > 0 and stats["bloom_pruned"] > 0
    if name == "sharded":
        # The stream must exercise what it is meant to pin.
        assert backend.rebalance_stats()["rebalance_runs"] >= 1
        assert backend.maintenance_stats()["runs"] >= 1
    assert got == GOLDEN[name]


def _cached_stream():
    """Hot/cold LOOKUP ticks (90% on a 48-key hot set) with an INSERT
    tick every eighth tick, so a 64-key cache fills, evicts and is
    invalidated throughout."""
    rng = np.random.default_rng(2025)
    hot = rng.choice(1 << 12, 48, replace=False).astype(np.uint64)
    batches = []
    for tick in range(TICKS):
        if tick % 8 == 0:
            keys = rng.integers(0, 1 << 12, TICK_SIZE, dtype=np.uint64)
            batches.append(OpBatch.inserts(keys, keys * np.uint64(3)))
            continue
        keys = rng.integers(0, 1 << 12, TICK_SIZE, dtype=np.uint64)
        is_hot = rng.random(TICK_SIZE) < 0.9
        keys[is_hot] = hot[rng.integers(0, hot.size, int(is_hot.sum()))]
        batches.append(OpBatch.lookups(keys))
    return batches


#: ``(launches, bytes, simulated_seconds.hex())`` of the cached engine's
#: device, then its read-cache counters.
GOLDEN_CACHED = (
    (193, 1760204, "0x1.04177a7ae1321p-10"),
    {
        "hits": 5478,
        "misses": 8858,
        "fills": 1759,
        "evictions": 1503,
        "invalidations": 3,
    },
)


def test_cached_engine_counters_match_golden():
    """The read cache's table layout is private: a change to it must not
    move which keys are evicted, and so which misses reach the device."""
    backend = GPULSM(batch_size=TICK_SIZE, device=Device(seed=1))
    engine = Engine(backend, cache_capacity=64)
    for batch in _cached_stream():
        engine.apply(batch)
    d = backend.device
    stats = engine.read_cache.cache_stats()
    got = (
        (d.counter.total_launches, d.counter.total_bytes, d.simulated_seconds.hex()),
        {
            k: stats[k]
            for k in ("hits", "misses", "fills", "evictions", "invalidations")
        },
    )
    assert min(got[1].values()) > 0
    assert got == GOLDEN_CACHED
