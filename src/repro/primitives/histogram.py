"""Digit histograms, the first stage of every radix-sort pass.

CUB's radix sort computes, per thread block, a histogram of the current
digit, scans the histograms to obtain global scatter offsets, and then
scatters.  The simulated sort in :mod:`repro.primitives.radix_sort` uses the
same three stages; this module implements the histogram stage both
device-wide (:func:`digit_histogram`) and per-block
(:func:`block_histograms`), the latter being what the scatter offsets are
actually derived from.  :func:`block_histogram_kernel` states the
per-block kernel's traffic from sizes alone, which is how the radix sort
charges its histogram stage without materialising the table.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.counters import KernelStats
from repro.gpu.device import Device, get_default_device
from repro.gpu.launch import LaunchConfig


def digit_histogram(
    keys: np.ndarray,
    digit_bits: int,
    shift: int,
    device: Optional[Device] = None,
    kernel_name: str = "histogram.digit",
) -> np.ndarray:
    """Histogram of the ``digit_bits``-wide digit at bit offset ``shift``.

    Parameters
    ----------
    keys:
        Unsigned integer keys.
    digit_bits:
        Width of the radix digit (CUB uses 4–8 bits per pass; we default to
        8 in the sort).
    shift:
        Bit offset of the digit within the key.
    device:
        Device that receives the traffic accounting; defaults to the
        process-wide device.

    Returns
    -------
    numpy.ndarray
        ``int64`` histogram of length ``2**digit_bits``.
    """
    device = device or get_default_device()
    keys = np.asarray(keys)
    if keys.dtype.kind != "u":
        raise TypeError("digit_histogram expects unsigned integer keys")
    if digit_bits <= 0 or digit_bits > 16:
        raise ValueError("digit_bits must be in (0, 16]")
    if shift < 0:
        raise ValueError("shift must be non-negative")

    num_buckets = 1 << digit_bits
    mask = keys.dtype.type(num_buckets - 1)
    digits = (keys >> keys.dtype.type(shift)) & mask
    hist = np.bincount(digits.astype(np.int64), minlength=num_buckets).astype(np.int64)

    # One streaming read of the keys; the histogram itself lives in shared
    # memory on the real device and its write-back is negligible.
    device.record_kernel(
        kernel_name,
        coalesced_read_bytes=keys.nbytes,
        coalesced_write_bytes=num_buckets * 8,
        work_items=keys.size,
    )
    return hist


#: Launch shape of the per-block histogram kernel: one 4096-item tile per
#: thread block, the tile the radix sort's scatter offsets are derived from.
BLOCK_HISTOGRAM_CONFIG = LaunchConfig(block_size=256, items_per_thread=16)


def block_histogram_kernel(
    num_items: int,
    key_itemsize: int,
    digit_bits: int,
    config: LaunchConfig = BLOCK_HISTOGRAM_CONFIG,
) -> KernelStats:
    """The traffic of one per-block histogram launch, from sizes alone.

    One streaming read of the keys and a write-back of the
    ``[num_blocks, 2**digit_bits]`` ``int64`` histogram table.
    """
    num_blocks = max(1, -(-num_items // config.tile_size))
    return KernelStats(
        name="histogram.block_digit",
        coalesced_read_bytes=num_items * key_itemsize,
        coalesced_write_bytes=(num_blocks << digit_bits) * 8,
        work_items=num_items,
    )


def block_histograms(
    keys: np.ndarray,
    digit_bits: int,
    shift: int,
    device: Optional[Device] = None,
    config: LaunchConfig = BLOCK_HISTOGRAM_CONFIG,
) -> np.ndarray:
    """Per-block digit histograms, shaped ``[num_blocks, 2**digit_bits]``.

    The per-block decomposition is what makes the subsequent scatter stable:
    ordering offsets first by digit, then by block index, then by rank
    within the block preserves the input order of equal digits.
    """
    device = device or get_default_device()
    keys = np.asarray(keys)
    if keys.dtype.kind != "u":
        raise TypeError("block_histograms expects unsigned integer keys")
    num_buckets = 1 << digit_bits
    tile = config.tile_size
    n = keys.size
    num_blocks = max(1, -(-n // tile))

    mask = keys.dtype.type(num_buckets - 1)
    digits = ((keys >> keys.dtype.type(shift)) & mask).astype(np.int64)

    # Vectorised per-block histogram: combine (block, digit) into one index
    # and bincount once.
    block_of = np.arange(n, dtype=np.int64) // tile
    combined = block_of * num_buckets + digits
    flat = np.bincount(combined, minlength=num_blocks * num_buckets)
    hist = flat.reshape(num_blocks, num_buckets).astype(np.int64)

    device.record_kernels(
        [block_histogram_kernel(n, keys.dtype.itemsize, digit_bits, config)]
    )
    return hist
