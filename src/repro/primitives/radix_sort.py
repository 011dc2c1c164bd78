"""Least-significant-digit radix sort (CUB ``DeviceRadixSort`` equivalent).

The GPU LSM sorts every incoming batch with CUB's radix sort *including the
status bit* (Fig. 3 line 9), which is what places tombstones ahead of regular
elements with the same key inside a batch.  The GPU SA baseline and the
cleanup fallback path also rely on it.

The module separates the answer from the charge:

* **Result.** An LSD radix sort over any digit width yields one thing: the
  stable permutation by the key's ``[begin_bit, end_bit)`` field.  That
  permutation is computed once, with LSD passes over 16-bit chunks of the
  field cast to ``uint16`` (NumPy's stable argsort is itself a radix sort
  at that width), and keys and values are gathered through it at the end.
* **Charge.** The device is charged per *configured* ``digit_bits`` pass,
  exactly as CUB launches it: (1) a per-block digit histogram, (2) an
  exclusive scan of the histogram table and (3) a stable scatter.  Every
  kernel's traffic is a function of the input length, the 4096-item
  histogram tile and ``2**digit_bits`` alone, so it is recorded from sizes
  without materialising per-pass digits.

Traffic model per pass: read keys (+ values), write keys (+ values), plus the
histogram/scan traffic — giving the familiar ``passes × 2 × payload`` DRAM
volume that makes radix sort bandwidth-bound.  The paper's measured 770 M
key-value pairs/s on the K40c corresponds to ~4-bit-per-pass efficiency with
this model; the default 8-bit digits land in the same regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.gpu.counters import KernelStats
from repro.gpu.device import Device, get_default_device
from repro.primitives.histogram import block_histogram_kernel


@dataclass(frozen=True)
class RadixSortConfig:
    """Tuning knobs of the radix sort.

    ``digit_bits`` is the radix width per pass (CUB uses 5–8 depending on
    architecture); ``begin_bit``/``end_bit`` restrict sorting to a bit range
    of the key, which the LSM uses to *exclude* the status bit when it needs
    key-only ordering and to sort full words when it needs tombstones first.
    ``end_bit = None`` means "the full key width".
    """

    digit_bits: int = 8
    begin_bit: int = 0
    end_bit: Optional[int] = None

    def __post_init__(self) -> None:
        if not 1 <= self.digit_bits <= 16:
            raise ValueError("digit_bits must be in [1, 16]")
        if self.begin_bit < 0:
            raise ValueError("begin_bit must be non-negative")
        if self.end_bit is not None and self.end_bit <= self.begin_bit:
            raise ValueError("end_bit must exceed begin_bit")


def _resolve_bits(keys: np.ndarray, config: RadixSortConfig) -> Tuple[int, int]:
    key_bits = keys.dtype.itemsize * 8
    end_bit = key_bits if config.end_bit is None else min(config.end_bit, key_bits)
    begin_bit = min(config.begin_bit, end_bit)
    return begin_bit, end_bit


def _check_keys(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("radix sort expects a one-dimensional key array")
    if keys.dtype.kind != "u":
        raise TypeError("radix sort expects unsigned integer keys")
    return keys


#: Width of the chunks the stable permutation is built from: the widest
#: integer width NumPy's stable argsort radix-sorts (wider types get timsort).
_CHUNK_BITS = 16


def _chunk(keys: np.ndarray, shift: int, end_bit: int) -> np.ndarray:
    """Bits ``[shift, min(shift + 16, end_bit))`` of every key, as ``uint16``."""
    mask = keys.dtype.type((1 << min(_CHUNK_BITS, end_bit - shift)) - 1)
    return ((keys >> keys.dtype.type(shift)) & mask).astype(np.uint16)


def _stable_order(keys: np.ndarray, begin_bit: int, end_bit: int) -> np.ndarray:
    """Stable permutation sorting ``keys`` by bits ``[begin_bit, end_bit)``."""
    shifts = range(begin_bit, end_bit, _CHUNK_BITS)
    order = np.argsort(_chunk(keys, shifts[0], end_bit), kind="stable")
    for shift in shifts[1:]:
        order = order[np.argsort(_chunk(keys, shift, end_bit)[order], kind="stable")]
    return order


def _pass_kernels(keys: np.ndarray, width: int, payload_bytes: int) -> List[KernelStats]:
    """The three kernels of one ``width``-bit digit pass, charged from sizes."""
    n = keys.size
    # Stage 1 + 2: per-block histogram of the digit and a scan of the
    # whole [blocks, 2**width] table into scatter offsets.
    hist = block_histogram_kernel(n, keys.dtype.itemsize, width)
    table_bytes = hist.coalesced_write_bytes
    scan = KernelStats(
        name="radix_sort.scan",
        coalesced_read_bytes=table_bytes,
        coalesced_write_bytes=table_bytes,
        work_items=table_bytes // 8,
    )
    # Stage 3: stable scatter by the digit.  The writes land in
    # 2**digit_bits distinct output partitions, so they are only partially
    # coalesced; charging them as random traffic is what calibrates the
    # simulated sort to the ~770 M key-value pairs/s the paper measures on
    # the K40c.
    scatter = KernelStats(
        name="radix_sort.scatter",
        coalesced_read_bytes=payload_bytes,
        random_write_bytes=payload_bytes,
        work_items=n,
    )
    return [hist, scan, scatter]


def _sort_passes(
    keys: np.ndarray,
    values: Optional[np.ndarray],
    config: RadixSortConfig,
    device: Device,
) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Sort by the configured bit range; charge CUB's digit passes.

    Returns sorted key/value copies and the number of passes charged.
    """
    begin_bit, end_bit = _resolve_bits(keys, config)
    num_passes = max(0, -(-(end_bit - begin_bit) // config.digit_bits))

    if keys.size == 0 or num_passes == 0:
        # Zero-length (or zero-bit-range) sorts still launch nothing on the
        # real device worth modelling; return copies for API uniformity.
        return keys.copy(), values.copy() if values is not None else None, 0

    order = _stable_order(keys, begin_bit, end_bit)
    out_keys = keys[order]
    out_values = values[order] if values is not None else None

    # Every pass but the last is a full ``digit_bits`` wide, so it launches
    # the same three kernels with the same traffic.
    last_width = end_bit - begin_bit - (num_passes - 1) * config.digit_bits
    payload_bytes = keys.nbytes + (values.nbytes if values is not None else 0)
    if num_passes > 1:
        device.record_kernels(
            _pass_kernels(keys, config.digit_bits, payload_bytes),
            repeat=num_passes - 1,
        )
    device.record_kernels(_pass_kernels(keys, last_width, payload_bytes))

    return out_keys, out_values, num_passes


def radix_sort_keys(
    keys: np.ndarray,
    config: RadixSortConfig = RadixSortConfig(),
    device: Optional[Device] = None,
) -> np.ndarray:
    """Stable ascending sort of an unsigned integer key array.

    Returns a new sorted array; the input is not modified (the real CUB call
    uses a :class:`~repro.gpu.memory.DoubleBuffer` for the same reason).
    """
    device = device or get_default_device()
    keys = _check_keys(keys)
    sorted_keys, _, _ = _sort_passes(keys, None, config, device)
    return sorted_keys


def radix_sort_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    config: RadixSortConfig = RadixSortConfig(),
    device: Optional[Device] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable ascending key-value sort (CUB ``SortPairs``).

    ``values`` may be any dtype (the LSM stores 32-bit values; the cleanup
    path also sorts permutation indices).  Both outputs are new arrays.
    """
    device = device or get_default_device()
    keys = _check_keys(keys)
    values = np.asarray(values)
    if values.ndim != 1 or values.size != keys.size:
        raise ValueError("values must be one-dimensional and match keys in length")
    sorted_keys, sorted_values, _ = _sort_passes(keys, values, config, device)
    assert sorted_values is not None
    return sorted_keys, sorted_values
