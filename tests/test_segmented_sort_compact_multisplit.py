"""Unit tests for segmented sort, compaction and multisplit primitives."""

import numpy as np
import pytest

from repro.bench.wallclock import assert_counters_bit_identical
from repro.gpu.device import Device
from repro.primitives import segmented_sort as segmented_sort_module
from repro.primitives.compact import (
    compact,
    partition_two_way,
    segmented_compact,
    select_if,
)
from repro.primitives.histogram import block_histograms, digit_histogram
from repro.primitives.multisplit import multisplit_keys, multisplit_pairs
from repro.primitives.segmented_sort import segmented_sort_keys, segmented_sort_pairs


class TestSegmentedSort:
    def test_each_segment_sorted_independently(self, device):
        keys = np.array([5, 1, 9, 8, 2, 7, 3], dtype=np.uint32)
        offsets = np.array([0, 3, 5])
        out = segmented_sort_keys(keys, offsets, device=device)
        assert list(out) == [1, 5, 9, 2, 8, 3, 7]

    def test_stability_within_segment(self, device):
        # Words 4 and 5 share the original key 2 (after >>1); stable sort
        # must keep 4 (earlier) before 5.
        keys = np.array([5, 4, 2], dtype=np.uint32)
        out = segmented_sort_keys(keys, np.array([0]), key=lambda k: k >> 1,
                                  device=device)
        assert list(out) == [2, 5, 4]

    def test_pairs_follow_keys(self, device, rng):
        keys = rng.integers(0, 100, 64, dtype=np.uint32)
        values = np.arange(64, dtype=np.uint32)
        offsets = np.array([0, 20, 40])
        out_k, out_v = segmented_sort_pairs(keys, values, offsets, device=device)
        for s, e in ((0, 20), (20, 40), (40, 64)):
            order = np.argsort(keys[s:e], kind="stable")
            assert np.array_equal(out_k[s:e], keys[s:e][order])
            assert np.array_equal(out_v[s:e], values[s:e][order])

    def test_empty_input(self, device):
        out = segmented_sort_keys(np.zeros(0, dtype=np.uint32), np.zeros(0),
                                  device=device)
        assert out.size == 0

    def test_empty_segments_allowed(self, device):
        keys = np.array([3, 1], dtype=np.uint32)
        offsets = np.array([0, 0, 2, 2])
        out = segmented_sort_keys(keys, offsets, device=device)
        assert list(out) == [1, 3]

    def test_rejects_bad_offsets(self, device):
        with pytest.raises(ValueError):
            segmented_sort_keys(np.array([1], dtype=np.uint32), np.array([1]),
                                device=device)


def _reference_segmented_sort(keys, values, offsets, key, device, kernel_name):
    """Segmented sort by ``np.lexsort`` on (segment id, compare key), charged
    as one four-launch segsort call — the oracle for the production path."""
    offsets = np.asarray(offsets, dtype=np.int64)
    seg_ids = np.searchsorted(offsets, np.arange(keys.size), side="right") - 1
    cmp = keys if key is None else key(keys)
    order = np.lexsort((cmp, seg_ids))
    payload = keys.nbytes + (values.nbytes if values is not None else 0)
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=2 * payload,
        coalesced_write_bytes=payload,
        work_items=keys.size,
        launches=4,
    )
    return keys[order], values[order] if values is not None else None


def _strip_status(words):
    return words >> words.dtype.type(1)


_SEGMENT_CASES = {
    "zero_length": (0, [0, 0, 0]),
    "no_offsets": (50, []),
    "single_segment": (300, [0]),
    "empty_segments": (300, [0, 0, 40, 40, 40, 299, 300, 300]),
    "many_segments": (5000, list(range(0, 5000, 7))),
}


@pytest.mark.parametrize("key", [None, _strip_status], ids=["words", "status_stripped"])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
@pytest.mark.parametrize("case", sorted(_SEGMENT_CASES))
def test_segmented_sort_matches_lexsort(case, dtype, key):
    """Keys, values and the device charge all match the lexsort oracle."""
    n, offsets = _SEGMENT_CASES[case]
    offsets = np.array(offsets, dtype=np.int64)
    rng = np.random.default_rng(n + len(offsets))
    keys = rng.integers(0, np.iinfo(dtype).max, n, dtype=dtype, endpoint=True)
    keys[: n // 3] = keys[rng.integers(0, max(n, 1), n // 3)]
    values = np.arange(n, dtype=np.uint32)

    ref_dev, dev = Device(seed=1), Device(seed=1)
    ref_keys, _ = _reference_segmented_sort(
        keys, None, offsets, key, ref_dev, "segmented_sort.keys"
    )
    ref_pk, ref_pv = _reference_segmented_sort(
        keys, values, offsets, key, ref_dev, "segmented_sort.pairs"
    )
    out_keys = segmented_sort_keys(keys, offsets, key=key, device=dev)
    out_pk, out_pv = segmented_sort_pairs(keys, values, offsets, key=key, device=dev)

    assert out_keys.dtype == keys.dtype
    np.testing.assert_array_equal(out_keys, ref_keys)
    np.testing.assert_array_equal(out_pk, ref_pk)
    np.testing.assert_array_equal(out_pv, ref_pv)
    assert_counters_bit_identical(ref_dev, dev)


def test_segmented_sort_64bit_keys_fall_back_to_lexsort(monkeypatch):
    """A 64-bit compare key leaves no room for the segment id in a 64-bit
    composite, so the permutation comes from lexsort (and still matches)."""
    calls = []
    real_lexsort = np.lexsort

    def spy(keys_seq):
        calls.append(len(keys_seq))
        return real_lexsort(keys_seq)

    keys = np.array([2**63 + 5, 3, 2**63 + 5, 1, 2**64 - 1, 0], dtype=np.uint64)
    offsets = np.array([0, 3])
    monkeypatch.setattr(segmented_sort_module.np, "lexsort", spy)
    out = segmented_sort_keys(keys, offsets, device=Device(seed=1))
    assert calls == [2]
    assert list(out) == [3, 2**63 + 5, 2**63 + 5, 0, 1, 2**64 - 1]

    calls.clear()
    segmented_sort_keys(keys.astype(np.uint32), offsets, device=Device(seed=1))
    assert calls == []


class TestCompact:
    def test_keeps_flagged_elements_in_order(self, device):
        vals = np.arange(10, dtype=np.uint32)
        flags = vals % 3 == 0
        out = compact(vals, flags, device=device)
        assert list(out) == [0, 3, 6, 9]

    def test_all_false(self, device):
        out = compact(np.arange(5, dtype=np.uint32), np.zeros(5, dtype=bool),
                      device=device)
        assert out.size == 0

    def test_all_true(self, device):
        vals = np.arange(5, dtype=np.uint32)
        assert np.array_equal(compact(vals, np.ones(5, dtype=bool), device=device), vals)

    def test_shape_mismatch_rejected(self, device):
        with pytest.raises(ValueError):
            compact(np.arange(4), np.ones(3, dtype=bool), device=device)

    def test_select_if(self, device):
        vals = np.arange(20, dtype=np.uint32)
        out = select_if(vals, lambda v: v > 15, device=device)
        assert list(out) == [16, 17, 18, 19]

    def test_partition_two_way(self, device):
        vals = np.arange(10, dtype=np.uint32)
        flags = vals % 2 == 0
        sel, rej = partition_two_way(vals, flags, device=device)
        assert list(sel) == [0, 2, 4, 6, 8]
        assert list(rej) == [1, 3, 5, 7, 9]

    def test_segmented_compact_offsets(self, device):
        vals = np.array([1, 2, 3, 4, 5, 6], dtype=np.uint32)
        flags = np.array([True, False, True, True, False, False])
        seg_offsets = np.array([0, 3])
        out, new_offsets = segmented_compact(vals, flags, seg_offsets, device=device)
        assert list(out) == [1, 3, 4]
        assert list(new_offsets) == [0, 2, 3]

    def test_segmented_compact_empty_result_segment(self, device):
        vals = np.array([1, 2, 3, 4], dtype=np.uint32)
        flags = np.array([False, False, True, True])
        seg_offsets = np.array([0, 2])
        out, new_offsets = segmented_compact(vals, flags, seg_offsets, device=device)
        assert list(out) == [3, 4]
        assert list(new_offsets) == [0, 0, 2]


class TestMultisplit:
    def test_two_bucket_partition_is_stable(self, device):
        keys = np.array([10, 3, 8, 5, 2, 7], dtype=np.uint32)
        reordered, offsets = multisplit_keys(
            keys, lambda k: (k % 2 == 0).astype(np.int64), num_buckets=2,
            device=device,
        )
        # bucket 0 = odd keys (functor returns 0 for odd), bucket 1 = even
        assert list(reordered[offsets[0]:offsets[1]]) == [3, 5, 7]
        assert list(reordered[offsets[1]:offsets[2]]) == [10, 8, 2]

    def test_offsets_cover_input(self, device, rng):
        keys = rng.integers(0, 1000, 500, dtype=np.uint32)
        _, offsets = multisplit_keys(
            keys, lambda k: (k % 4).astype(np.int64), num_buckets=4, device=device
        )
        assert offsets[0] == 0
        assert offsets[-1] == keys.size
        assert np.all(np.diff(offsets) >= 0)

    def test_pairs_follow_keys(self, device, rng):
        keys = rng.integers(0, 100, 200, dtype=np.uint32)
        values = np.arange(200, dtype=np.uint32)
        rk, rv, offsets = multisplit_pairs(
            keys, values, lambda k: (k % 3).astype(np.int64), num_buckets=3,
            device=device,
        )
        assert np.array_equal(keys[rv], rk)  # values are the original indices

    def test_rejects_out_of_range_bucket(self, device):
        with pytest.raises(ValueError):
            multisplit_keys(np.array([1], dtype=np.uint32),
                            lambda k: np.array([5]), num_buckets=2, device=device)

    def test_rejects_too_many_buckets(self, device):
        with pytest.raises(ValueError):
            multisplit_keys(np.array([1], dtype=np.uint32),
                            lambda k: np.array([0]), num_buckets=64, device=device)

    def test_single_bucket_is_identity(self, device, rng):
        keys = rng.integers(0, 50, 64, dtype=np.uint32)
        reordered, offsets = multisplit_keys(
            keys, lambda k: np.zeros(k.size, dtype=np.int64), num_buckets=1,
            device=device,
        )
        assert np.array_equal(reordered, keys)
        assert list(offsets) == [0, 64]


class TestHistogram:
    def test_digit_histogram_counts(self, device):
        keys = np.array([0x00, 0x01, 0x01, 0xFF, 0x100], dtype=np.uint32)
        hist = digit_histogram(keys, 8, 0, device=device)
        assert hist[0x00] == 2  # 0x00 and 0x100 share the low byte 0
        assert hist[0x01] == 2
        assert hist[0xFF] == 1
        assert hist.sum() == keys.size

    def test_digit_histogram_shifted(self, device):
        keys = np.array([0x100, 0x200, 0x2FF], dtype=np.uint32)
        hist = digit_histogram(keys, 8, 8, device=device)
        assert hist[1] == 1 and hist[2] == 2

    def test_rejects_signed(self, device):
        with pytest.raises(TypeError):
            digit_histogram(np.arange(4, dtype=np.int32), 8, 0, device=device)

    def test_block_histograms_sum_to_global(self, device, rng):
        keys = rng.integers(0, 2**16, 10000, dtype=np.uint32)
        per_block = block_histograms(keys, 8, 0, device=device)
        total = digit_histogram(keys, 8, 0, device=device)
        assert np.array_equal(per_block.sum(axis=0), total)
