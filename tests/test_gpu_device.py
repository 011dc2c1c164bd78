"""Unit tests for the simulated Device (repro.gpu.device)."""

import numpy as np

from repro.gpu.device import Device, get_default_device, set_default_device
from repro.gpu.spec import K40C_SPEC


class TestDeviceBasics:
    def test_record_kernel_advances_clock(self, device):
        before = device.simulated_seconds
        device.record_kernel("k", coalesced_read_bytes=1 << 20)
        assert device.simulated_seconds > before

    def test_record_kernel_returns_stats(self, device):
        stats = device.record_kernel("k", coalesced_read_bytes=10, work_items=3)
        assert stats.name == "k"
        assert stats.coalesced_read_bytes == 10
        assert stats.work_items == 3

    def test_elapsed_since_snapshot(self, device):
        snap = device.snapshot()
        device.record_kernel("k", coalesced_read_bytes=1 << 20)
        elapsed = device.elapsed_since(snap)
        assert elapsed > 0
        # A later snapshot measures only what comes after it.
        snap2 = device.snapshot()
        assert device.elapsed_since(snap2) == 0

    def test_memory_info_reflects_allocations(self, device):
        info_before = device.memory_info()
        arr = device.alloc(1024, dtype=np.uint8)
        info_after = device.memory_info()
        assert info_after["used_bytes"] == info_before["used_bytes"] + 1024
        arr.free()

    def test_reset_counters_clears_clock_but_keeps_memory(self, device):
        arr = device.alloc(128)
        device.record_kernel("k", coalesced_read_bytes=1000)
        device.reset_counters()
        assert device.simulated_seconds == 0.0
        assert len(device.counter) == 0
        assert device.pool.used_bytes >= 128  # allocation survives
        arr.free()

    def test_grid_for_uses_spec(self, device):
        grid = device.grid_for(1 << 20)
        assert grid.num_items == 1 << 20
        assert grid.num_blocks >= 1

    def test_rng_reproducible(self):
        d1 = Device(K40C_SPEC, seed=7)
        d2 = Device(K40C_SPEC, seed=7)
        assert np.array_equal(d1.rng.integers(0, 100, 10), d2.rng.integers(0, 100, 10))

    def test_record_kernels_equals_per_launch_recording(self):
        from repro.bench.wallclock import assert_counters_bit_identical
        from repro.gpu.counters import KernelStats

        kernels = [
            KernelStats("hist", coalesced_read_bytes=4096, coalesced_write_bytes=2048,
                        work_items=1024),
            KernelStats("scatter", coalesced_read_bytes=8192, random_write_bytes=8192,
                        work_items=1024),
        ]
        batched, single = Device(K40C_SPEC), Device(K40C_SPEC)
        single.record_kernel("warm", coalesced_read_bytes=3)
        batched.record_kernel("warm", coalesced_read_bytes=3)
        batched.record_kernels(kernels, repeat=3)
        batched.record_kernels(kernels[:1])
        for stats in kernels * 3 + kernels[:1]:
            single.record_kernel(
                stats.name,
                coalesced_read_bytes=stats.coalesced_read_bytes,
                coalesced_write_bytes=stats.coalesced_write_bytes,
                random_write_bytes=stats.random_write_bytes,
                work_items=stats.work_items,
            )
        assert_counters_bit_identical(single, batched)
        assert batched.counter.total_launches == single.counter.total_launches == 8
        assert batched.counter.total_bytes == single.counter.total_bytes


class TestDefaultDevice:
    def test_default_device_created_lazily(self):
        set_default_device(None)
        dev = get_default_device()
        assert isinstance(dev, Device)
        assert get_default_device() is dev

    def test_set_default_device(self):
        custom = Device(K40C_SPEC)
        set_default_device(custom)
        assert get_default_device() is custom
        set_default_device(None)
