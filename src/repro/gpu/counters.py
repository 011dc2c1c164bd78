"""Traffic and kernel statistics counters.

Every simulated kernel reports the global-memory traffic it generates
(bytes read / written, split into coalesced and random access) plus a count
of "work items" (threads that did useful work).  The :class:`TrafficCounter`
aggregates these per kernel and per logical operation; the cost model then
converts a :class:`KernelStats` record into simulated time.

The counters are deliberately cheap — plain Python ints updated once per
kernel launch, not per element — so they add no measurable overhead to the
NumPy work that computes the functional result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence


@dataclass
class KernelStats:
    """Memory traffic and work generated by one simulated kernel launch.

    Attributes
    ----------
    name:
        Kernel identifier, e.g. ``"radix_sort.digit_pass"``.
    coalesced_read_bytes / coalesced_write_bytes:
        Bytes moved through DRAM with fully coalesced (streaming) access.
    random_read_bytes / random_write_bytes:
        Bytes moved with effectively random access (binary-search probes,
        hash probes, scattered writes).
    filter_read_bytes / filter_write_bytes:
        Bytes moved by *filter probes* — scattered word accesses into a
        compact, mostly-L2-resident structure (the per-level Bloom
        filters).  Cheaper than full random transactions, dearer than
        streaming; the cost model charges them at the spec's filter
        bandwidth.
    work_items:
        Number of logical threads that performed work; used for occupancy
        based adjustments and sanity checks in tests.
    launches:
        Number of physical kernel launches this record represents (a
        multi-pass primitive such as radix sort reports one record with
        ``launches = number_of_passes``).
    """

    name: str
    coalesced_read_bytes: int = 0
    coalesced_write_bytes: int = 0
    random_read_bytes: int = 0
    random_write_bytes: int = 0
    filter_read_bytes: int = 0
    filter_write_bytes: int = 0
    work_items: int = 0
    launches: int = 1

    @property
    def coalesced_bytes(self) -> int:
        """Total coalesced traffic (read + write)."""
        return self.coalesced_read_bytes + self.coalesced_write_bytes

    @property
    def random_bytes(self) -> int:
        """Total random-access traffic (read + write)."""
        return self.random_read_bytes + self.random_write_bytes

    @property
    def filter_bytes(self) -> int:
        """Total filter-probe traffic (read + write)."""
        return self.filter_read_bytes + self.filter_write_bytes

    @property
    def total_bytes(self) -> int:
        """All DRAM traffic attributed to this kernel."""
        return self.coalesced_bytes + self.random_bytes + self.filter_bytes

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Return a new record combining this one with ``other``.

        The name of ``self`` is kept; used when accumulating repeated
        launches of the same kernel.
        """
        return KernelStats(
            name=self.name,
            coalesced_read_bytes=self.coalesced_read_bytes + other.coalesced_read_bytes,
            coalesced_write_bytes=self.coalesced_write_bytes
            + other.coalesced_write_bytes,
            random_read_bytes=self.random_read_bytes + other.random_read_bytes,
            random_write_bytes=self.random_write_bytes + other.random_write_bytes,
            filter_read_bytes=self.filter_read_bytes + other.filter_read_bytes,
            filter_write_bytes=self.filter_write_bytes + other.filter_write_bytes,
            work_items=self.work_items + other.work_items,
            launches=self.launches + other.launches,
        )

    def times(self, repeat: int) -> "KernelStats":
        """Return the exact integer total of ``repeat`` identical launches
        (what ``repeat - 1`` successive :meth:`merge` calls would give)."""
        return KernelStats(
            name=self.name,
            coalesced_read_bytes=self.coalesced_read_bytes * repeat,
            coalesced_write_bytes=self.coalesced_write_bytes * repeat,
            random_read_bytes=self.random_read_bytes * repeat,
            random_write_bytes=self.random_write_bytes * repeat,
            filter_read_bytes=self.filter_read_bytes * repeat,
            filter_write_bytes=self.filter_write_bytes * repeat,
            work_items=self.work_items * repeat,
            launches=self.launches * repeat,
        )

    def scaled(self, factor: float) -> "KernelStats":
        """Return a copy with all traffic scaled by ``factor`` (used by the
        workload extrapolation helpers in the benchmark harness)."""
        return KernelStats(
            name=self.name,
            coalesced_read_bytes=int(self.coalesced_read_bytes * factor),
            coalesced_write_bytes=int(self.coalesced_write_bytes * factor),
            random_read_bytes=int(self.random_read_bytes * factor),
            random_write_bytes=int(self.random_write_bytes * factor),
            filter_read_bytes=int(self.filter_read_bytes * factor),
            filter_write_bytes=int(self.filter_write_bytes * factor),
            work_items=int(self.work_items * factor),
            launches=self.launches,
        )


@dataclass
class TrafficCounter:
    """Aggregates :class:`KernelStats` over the lifetime of a device.

    The counter keeps both a per-kernel-name aggregate (for profiling
    reports) and a chronological log (for the profiler timeline).  It also
    tracks a simple epoch mechanism: :meth:`snapshot` captures the totals so
    callers can measure the traffic of a region of code by differencing two
    snapshots — the same pattern as ``cudaEventRecord`` bracketing.
    """

    per_kernel: Dict[str, KernelStats] = field(default_factory=dict)
    log: List[KernelStats] = field(default_factory=list)
    total_coalesced_bytes: int = 0
    total_random_bytes: int = 0
    total_filter_bytes: int = 0
    total_launches: int = 0
    total_work_items: int = 0

    def record(self, stats: KernelStats) -> None:
        """Add one kernel launch record to the aggregate."""
        self.log.append(stats)
        existing = self.per_kernel.get(stats.name)
        if existing is None:
            self.per_kernel[stats.name] = stats
        else:
            self.per_kernel[stats.name] = existing.merge(stats)
        self.total_coalesced_bytes += stats.coalesced_bytes
        self.total_random_bytes += stats.random_bytes
        self.total_filter_bytes += stats.filter_bytes
        self.total_launches += stats.launches
        self.total_work_items += stats.work_items

    def record_repeated(self, kernels: Sequence[KernelStats], repeat: int = 1) -> None:
        """Record ``kernels`` in order, ``repeat`` times over.

        Leaves exactly the state ``repeat`` rounds of :meth:`record` would:
        every launch lands in the log, and the integer aggregates are added
        once per distinct record instead of once per launch.
        """
        self.log.extend(list(kernels) * repeat)
        for stats in kernels:
            total = stats if repeat == 1 else stats.times(repeat)
            existing = self.per_kernel.get(stats.name)
            self.per_kernel[stats.name] = (
                total if existing is None else existing.merge(total)
            )
            self.total_coalesced_bytes += total.coalesced_bytes
            self.total_random_bytes += total.random_bytes
            self.total_filter_bytes += total.filter_bytes
            self.total_launches += total.launches
            self.total_work_items += total.work_items

    @property
    def total_bytes(self) -> int:
        """Total DRAM traffic recorded so far."""
        return (
            self.total_coalesced_bytes
            + self.total_random_bytes
            + self.total_filter_bytes
        )

    def snapshot(self) -> "CounterSnapshot":
        """Capture the current totals for later differencing."""
        return CounterSnapshot(
            coalesced_bytes=self.total_coalesced_bytes,
            random_bytes=self.total_random_bytes,
            filter_bytes=self.total_filter_bytes,
            launches=self.total_launches,
            work_items=self.total_work_items,
            log_length=len(self.log),
        )

    def since(self, snap: "CounterSnapshot") -> "CounterSnapshot":
        """Return the traffic recorded since ``snap`` was taken."""
        return CounterSnapshot(
            coalesced_bytes=self.total_coalesced_bytes - snap.coalesced_bytes,
            random_bytes=self.total_random_bytes - snap.random_bytes,
            filter_bytes=self.total_filter_bytes - snap.filter_bytes,
            launches=self.total_launches - snap.launches,
            work_items=self.total_work_items - snap.work_items,
            log_length=len(self.log) - snap.log_length,
        )

    def kernels_since(self, snap: "CounterSnapshot") -> List[KernelStats]:
        """Return the chronological kernel log recorded since ``snap``."""
        return list(self.log[snap.log_length :])

    def reset(self) -> None:
        """Clear all recorded statistics."""
        self.per_kernel.clear()
        self.log.clear()
        self.total_coalesced_bytes = 0
        self.total_random_bytes = 0
        self.total_filter_bytes = 0
        self.total_launches = 0
        self.total_work_items = 0

    def __iter__(self) -> Iterator[KernelStats]:
        return iter(self.log)

    def __len__(self) -> int:
        return len(self.log)


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable capture of a :class:`TrafficCounter`'s totals."""

    coalesced_bytes: int
    random_bytes: int
    launches: int
    work_items: int
    log_length: int
    filter_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.coalesced_bytes + self.random_bytes + self.filter_bytes
