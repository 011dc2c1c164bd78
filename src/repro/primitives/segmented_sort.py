"""Segmented sort (moderngpu ``segsort`` equivalent).

COUNT and RANGE queries gather, for every query, all candidate elements from
every level into one contiguous segment of a result buffer, then run a
*segmented sort* over the buffer — each query's segment is sorted
independently by original key, ignoring the status bit, while preserving the
temporal (level) order of equal keys (Section IV-C stage 4, IV-D).  With the
segments sorted, the first element of every run of equal keys within a
segment is the most recent version, so validity can be decided with a single
neighbouring comparison.

The module separates the answer from the charge.  The answer is one stable
permutation: the segment id is joined into the most significant bits of the
comparison key, ``(segment_id << 32) | compare_key``, and one stable argsort
of that composite orders every segment at once — the trick real GPU segsort
implementations use for large segment counts.  A 64-bit comparison key does
not leave room for the segment id, so it falls back to a stable
``lexsort((compare_key, segment_id))``, which gives the same permutation.
The charge is independent of how the permutation was found: a segsort's
merge passes, recorded per call from the payload size.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.gpu.device import Device, get_default_device

KeyFunc = Optional[Callable[[np.ndarray], np.ndarray]]


def _segment_ids_from_offsets(offsets: np.ndarray, total: int) -> np.ndarray:
    """Expand segment start offsets into a per-element segment id array.

    Ids are non-decreasing and distinct per segment; empty segments simply
    own no elements.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1:
        raise ValueError("segment offsets must be one-dimensional")
    if offsets.size and (offsets[0] != 0 or np.any(np.diff(offsets) < 0)):
        raise ValueError("segment offsets must start at zero and be non-decreasing")
    if offsets.size and offsets[-1] > total:
        raise ValueError("segment offsets exceed the data length")
    if offsets.size == 0:
        return np.zeros(total, dtype=np.uint64)
    lengths = np.diff(offsets, append=total)
    return np.repeat(np.arange(offsets.size, dtype=np.uint64), lengths)


def _segmented_order(keys: np.ndarray, segment_offsets: np.ndarray, key: KeyFunc) -> np.ndarray:
    """Stable permutation sorting each segment of ``keys`` by ``key(keys)``.

    Equal ``(segment, compare key)`` pairs keep their input order, which is
    what preserves the temporal ordering of duplicate keys.
    """
    seg_ids = _segment_ids_from_offsets(segment_offsets, keys.size)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    cmp = keys if key is None else key(keys)
    if cmp.dtype.kind == "u" and cmp.dtype.itemsize <= 4 and seg_ids[-1] >> np.uint64(32) == 0:
        composite = (seg_ids << np.uint64(32)) | cmp.astype(np.uint64)
        return np.argsort(composite, kind="stable")
    # lexsort's last key is the primary one; sorting by (cmp within segment).
    return np.lexsort((cmp, seg_ids))


def segmented_sort_keys(
    keys: np.ndarray,
    segment_offsets: np.ndarray,
    key: KeyFunc = None,
    device: Optional[Device] = None,
    kernel_name: str = "segmented_sort.keys",
) -> np.ndarray:
    """Sort each segment of ``keys`` independently and stably.

    ``segment_offsets`` holds the start index of every segment (the last
    segment extends to the end of the array).  ``key`` optionally extracts
    the comparison key (the LSM passes "shift out the status bit").
    """
    device = device or get_default_device()
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("segmented_sort_keys expects a one-dimensional array")

    result = keys[_segmented_order(keys, segment_offsets, key)]

    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=2 * keys.nbytes,
        coalesced_write_bytes=keys.nbytes,
        work_items=keys.size,
        launches=4,  # real segsort does multiple merge passes
    )
    return result


def segmented_sort_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    segment_offsets: np.ndarray,
    key: KeyFunc = None,
    device: Optional[Device] = None,
    kernel_name: str = "segmented_sort.pairs",
) -> Tuple[np.ndarray, np.ndarray]:
    """Segmented stable sort of key-value pairs (used by RANGE queries)."""
    device = device or get_default_device()
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.ndim != 1 or values.shape != keys.shape:
        raise ValueError("keys and values must be one-dimensional and equally long")

    order = _segmented_order(keys, segment_offsets, key)
    sorted_keys = keys[order]
    sorted_values = values[order]

    payload = keys.nbytes + values.nbytes
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=2 * payload,
        coalesced_write_bytes=payload,
        work_items=keys.size,
        launches=4,
    )
    return sorted_keys, sorted_values
