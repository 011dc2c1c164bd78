"""Golden device counters: the simulated clock must not drift.

A fixed 32-tick mixed stream runs through :class:`GPULSM` and through a
:class:`ShardedLSM` with stale-fraction cleanup and load-imbalance
rebalancing on.  Every device's ``(total_launches, total_bytes,
simulated_seconds.hex())`` is pinned to the values the stream produced
when they were recorded.  A change to how a primitive computes its answer
must leave these untouched; a change to the traffic model must update them
deliberately and say why.
"""

import pytest

from repro.bench.workloads import MixedOpConfig, make_mixed_batches
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
#: GPULSM's device; the sharded front-end's router, its live shards, then
#: any devices a merge parked.
GOLDEN = {
    "gpulsm": [(1608, 13994918, "0x1.0e9d8562a3d15p-7")],
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
    else:
        backend = _sharded()
    got = _replay(backend)
    if name == "sharded":
        # The stream must exercise what it is meant to pin.
        assert backend.rebalance_stats()["rebalance_runs"] >= 1
        assert backend.maintenance_stats()["runs"] >= 1
    assert got == GOLDEN[name]
