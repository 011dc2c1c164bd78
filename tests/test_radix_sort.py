"""Unit tests for the LSD radix sort (repro.primitives.radix_sort)."""

import numpy as np
import pytest

from repro.bench.wallclock import assert_counters_bit_identical
from repro.gpu.device import Device
from repro.primitives.histogram import block_histograms
from repro.primitives.radix_sort import (
    RadixSortConfig,
    _resolve_bits,
    radix_sort_keys,
    radix_sort_pairs,
)
from repro.primitives.scan import exclusive_scan


def _reference_sort_passes(keys, values, config, device):
    """Digit-by-digit LSD radix sort, the oracle for the production sort.

    Every pass materialises its digit, builds the per-block histogram
    table, scans it, and stably scatters keys and values by the digit —
    the three kernels CUB launches, each charged as it runs.
    """
    begin_bit, end_bit = _resolve_bits(keys, config)
    num_passes = max(0, -(-(end_bit - begin_bit) // config.digit_bits))
    out_keys = keys.copy()
    out_values = values.copy() if values is not None else None
    if keys.size == 0 or num_passes == 0:
        return out_keys, out_values
    payload_bytes = keys.nbytes + (values.nbytes if values is not None else 0)
    for p in range(num_passes):
        shift = begin_bit + p * config.digit_bits
        width = min(config.digit_bits, end_bit - shift)
        mask = out_keys.dtype.type((1 << width) - 1)
        digits = (out_keys >> out_keys.dtype.type(shift)) & mask
        hist = block_histograms(digits.astype(out_keys.dtype), width, 0, device=device)
        exclusive_scan(hist.reshape(-1), device=device, kernel_name="radix_sort.scan")
        order = np.argsort(digits, kind="stable")
        out_keys = out_keys[order]
        if out_values is not None:
            out_values = out_values[order]
        device.record_kernel(
            "radix_sort.scatter",
            coalesced_read_bytes=payload_bytes,
            random_write_bytes=payload_bytes,
            work_items=keys.size,
        )
    return out_keys, out_values


_CONFIGS = {
    "default": RadixSortConfig(),
    "digits4": RadixSortConfig(digit_bits=4),
    "digits5": RadixSortConfig(digit_bits=5),
    "digits11": RadixSortConfig(digit_bits=11),
    "digits16": RadixSortConfig(digit_bits=16),
    "begin1": RadixSortConfig(begin_bit=1),
    "bits3to13": RadixSortConfig(begin_bit=3, end_bit=13),
    "end30": RadixSortConfig(end_bit=30),
}


@pytest.mark.parametrize("config_name", sorted(_CONFIGS))
@pytest.mark.parametrize("n", [0, 1, 7, 4095, 4096, 4097, 20000])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_matches_per_digit_reference(dtype, n, config_name):
    """Same keys, values, kernel log and simulated clock as the per-digit
    reference, for every key width, tile boundary and bit range."""
    config = _CONFIGS[config_name]
    rng = np.random.default_rng(n)
    keys = rng.integers(0, np.iinfo(dtype).max, n, dtype=dtype, endpoint=True)
    dup = n // 3
    keys[:dup] = keys[rng.integers(0, n, dup)]
    values = rng.permutation(n).astype(np.uint32)

    ref_dev, dev = Device(seed=1), Device(seed=1)
    ref_keys, ref_values = _reference_sort_passes(keys, values, config, ref_dev)
    _reference_sort_passes(keys, None, config, ref_dev)
    out_keys, out_values = radix_sort_pairs(keys, values, config=config, device=dev)
    only_keys = radix_sort_keys(keys, config=config, device=dev)

    assert out_keys.dtype == keys.dtype and out_values.dtype == values.dtype
    np.testing.assert_array_equal(out_keys, ref_keys)
    np.testing.assert_array_equal(out_values, ref_values)
    np.testing.assert_array_equal(only_keys, ref_keys)
    assert_counters_bit_identical(ref_dev, dev)


class TestRadixSortKeys:
    def test_sorts_random_uint32(self, device, rng):
        keys = rng.integers(0, 2**32, 4096, dtype=np.uint32)
        out = radix_sort_keys(keys, device=device)
        assert np.array_equal(out, np.sort(keys))

    def test_sorts_uint64(self, device, rng):
        keys = rng.integers(0, 2**63, 1024, dtype=np.uint64)
        out = radix_sort_keys(keys, device=device)
        assert np.array_equal(out, np.sort(keys))

    def test_input_not_modified(self, device, rng):
        keys = rng.integers(0, 1000, 128, dtype=np.uint32)
        original = keys.copy()
        radix_sort_keys(keys, device=device)
        assert np.array_equal(keys, original)

    def test_empty_input(self, device):
        out = radix_sort_keys(np.zeros(0, dtype=np.uint32), device=device)
        assert out.size == 0

    def test_single_element(self, device):
        out = radix_sort_keys(np.array([42], dtype=np.uint32), device=device)
        assert list(out) == [42]

    def test_all_equal(self, device):
        keys = np.full(100, 7, dtype=np.uint32)
        assert np.array_equal(radix_sort_keys(keys, device=device), keys)

    def test_already_sorted(self, device):
        keys = np.arange(256, dtype=np.uint32)
        assert np.array_equal(radix_sort_keys(keys, device=device), keys)

    def test_reverse_sorted(self, device):
        keys = np.arange(256, dtype=np.uint32)[::-1].copy()
        assert np.array_equal(radix_sort_keys(keys, device=device), np.arange(256))

    def test_extreme_values(self, device):
        keys = np.array([0, 2**32 - 1, 1, 2**31], dtype=np.uint32)
        assert list(radix_sort_keys(keys, device=device)) == [0, 1, 2**31, 2**32 - 1]

    def test_rejects_signed_keys(self, device):
        with pytest.raises(TypeError):
            radix_sort_keys(np.arange(10, dtype=np.int32), device=device)

    def test_rejects_2d_input(self, device):
        with pytest.raises(ValueError):
            radix_sort_keys(np.zeros((4, 4), dtype=np.uint32), device=device)

    def test_records_traffic(self, device, rng):
        keys = rng.integers(0, 2**32, 1 << 12, dtype=np.uint32)
        before = device.snapshot()
        radix_sort_keys(keys, device=device)
        delta = device.counter.since(before)
        # Four 8-bit passes over 32-bit keys, each reading & writing the keys.
        assert delta.total_bytes >= 4 * 2 * keys.nbytes
        assert delta.launches >= 4


class TestRadixSortPairs:
    def test_values_follow_keys(self, device, rng):
        keys = rng.integers(0, 2**32, 2048, dtype=np.uint32)
        values = np.arange(2048, dtype=np.uint32)
        out_k, out_v = radix_sort_pairs(keys, values, device=device)
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(out_k, keys[order])
        assert np.array_equal(out_v, values[order])

    def test_stability_of_equal_keys(self, device):
        keys = np.array([5, 3, 5, 3, 5], dtype=np.uint32)
        values = np.arange(5, dtype=np.uint32)
        _, out_v = radix_sort_pairs(keys, values, device=device)
        # Equal keys keep their original relative order: 3s then 5s.
        assert list(out_v) == [1, 3, 0, 2, 4]

    def test_value_dtype_preserved(self, device, rng):
        keys = rng.integers(0, 100, 64, dtype=np.uint32)
        values = rng.random(64)
        _, out_v = radix_sort_pairs(keys, values, device=device)
        assert out_v.dtype == np.float64

    def test_length_mismatch_rejected(self, device):
        with pytest.raises(ValueError):
            radix_sort_pairs(
                np.zeros(4, dtype=np.uint32), np.zeros(5, dtype=np.uint32),
                device=device,
            )

    def test_empty_pairs(self, device):
        k, v = radix_sort_pairs(
            np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.uint32), device=device
        )
        assert k.size == 0 and v.size == 0


class TestRadixSortConfig:
    def test_bit_range_sort_ignores_high_bits(self, device):
        # Sorting only bits [0, 8) must order by the low byte alone and be
        # stable with respect to the rest of the key.
        keys = np.array([0x0102, 0x0201, 0x0301, 0x0102], dtype=np.uint32)
        cfg = RadixSortConfig(digit_bits=8, begin_bit=0, end_bit=8)
        out = radix_sort_keys(keys, config=cfg, device=device)
        assert [k & 0xFF for k in out] == sorted(k & 0xFF for k in keys)
        # stability among equal low bytes: 0x0201 before 0x0301
        low01 = [hex(k) for k in out if (k & 0xFF) == 0x01]
        assert low01 == ["0x201", "0x301"]

    def test_begin_bit_skips_status_bit(self, device):
        # Sorting from bit 1 upward ignores the LSB — the LSM's merge-order
        # comparator — so words differing only in the LSB are "equal".
        keys = np.array([0b1011, 0b1010, 0b0101, 0b0100], dtype=np.uint32)
        cfg = RadixSortConfig(begin_bit=1)
        out = radix_sort_keys(keys, config=cfg, device=device)
        assert [k >> 1 for k in out] == sorted(k >> 1 for k in keys)

    def test_invalid_digit_bits(self):
        with pytest.raises(ValueError):
            RadixSortConfig(digit_bits=0)
        with pytest.raises(ValueError):
            RadixSortConfig(digit_bits=17)

    def test_invalid_bit_range(self):
        with pytest.raises(ValueError):
            RadixSortConfig(begin_bit=8, end_bit=8)
        with pytest.raises(ValueError):
            RadixSortConfig(begin_bit=-1)

    def test_digit_width_variants_agree(self, device, rng):
        keys = rng.integers(0, 2**32, 1024, dtype=np.uint32)
        for bits in (4, 8, 11, 16):
            out = radix_sort_keys(keys, config=RadixSortConfig(digit_bits=bits),
                                  device=device)
            assert np.array_equal(out, np.sort(keys)), bits
