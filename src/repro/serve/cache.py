"""Epoch-guarded hot-key read cache in front of a dictionary backend.

The paper's structures amortise work over bulk-synchronous batches, so a
repeated hot key still pays a full per-level probe on every tick.
:class:`ReadCachedBackend` is a transparent proxy that memoises LOOKUP
answers per key in a bounded LRU, keyed on the backend's **structural
epoch**: every mutation (batch push, cascade, cleanup, maintenance) bumps
the epoch, and the cache is invalidated *wholesale* the moment the
observed epoch differs from the epoch the cache was filled at.  That
makes the contract trivially bit-identical — a cached answer is only ever
served for the exact structure state that produced it — and composes with
the planner's SNAPSHOT/STRICT epoch pinning unchanged (the proxy forwards
``epoch`` / ``shard_epochs`` untouched, so
:func:`repro.api.planner.execute_plan` pins and verifies the same values
it would see without the cache).

Only ``lookup`` is intercepted; ordered queries (``count`` /
``range_query``) and every mutation forward straight to the inner
backend.  The store is a flat open-addressing hash table (multiplicative
hashing, linear probing) over append-only answer columns, so the whole
hit path is a handful of vectorized gathers with no per-key Python work —
a binary-search probe was measured ~5x slower, and the cache must beat
the backend's own vectorized probe to be worth having.  Recency is
batch-granular: every key touched by one ``lookup`` call shares one LRU
stamp, and eviction drops the oldest-stamped entries first.  Every fill
rebuilds the table in one pass: entries sorted by home slot each take the
first free slot at or after their home, which is the layout linear
probing yields, and since a probe only needs every slot from home to
position occupied, tie order is free (no stable sort).  Clusters never
wrap: an overflow tail of ``capacity + 1`` slots follows the hashed range.

Backends without an ``epoch`` / ``shard_epochs`` surface cannot signal
mutations, so the proxy degrades to a counting pass-through for them
(nothing is ever cached; correctness over speed).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.encoding import check_non_negative
from repro.core.lsm import LookupResult

__all__ = ["ReadCachedBackend", "DEFAULT_CACHE_CAPACITY"]

#: Default bound on cached keys — small enough to stay a "hot key" cache,
#: large enough to cover every benchmark's hot set.
DEFAULT_CACHE_CAPACITY = 4096

#: Fibonacci-hashing multiplier (2^64 / golden ratio, forced odd).
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


class ReadCachedBackend:
    """Bounded-LRU lookup cache wrapped around a dictionary backend.

    Every attribute that is not ``lookup`` (or cache plumbing) forwards to
    the wrapped backend, so the proxy satisfies
    :class:`~repro.scale.protocol.DictionaryProtocol` whenever the inner
    backend does, and the serving engine's telemetry (``filter_stats``,
    ``maintenance_stats``, ``profile``, epoch pinning) reads through it
    transparently.

    Parameters
    ----------
    inner:
        The backend to wrap (``GPULSM``, ``ShardedLSM``, or any
        epoch-bearing dictionary).
    capacity:
        Maximum number of distinct keys held; the least recently used
        keys (batch-granular stamps) are evicted first.  ``0`` disables
        caching (pure pass-through with counters).
    """

    def __init__(self, inner, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._inner = inner
        self._capacity = int(capacity)
        self._fill_token = self._epoch_token()
        self._has_values: Optional[bool] = None
        self._values_dtype = np.dtype(np.uint64)
        self._clock = 0
        # Hashing into at least 4x capacity keeps the load factor <= 0.25,
        # so linear-probe clusters stay short and the probe loop converges
        # in one or two vectorized rounds.  A cluster holds <= capacity
        # entries, so the overflow tail always ends in an empty slot.
        table_size = 8
        while table_size < 4 * max(self._capacity, 1):
            table_size *= 2
        self._mask = np.int64(table_size - 1)
        self._shift = np.uint64(64 - int(table_size).bit_length() + 1)
        self._table_slot = np.full(table_size + self._capacity + 1, -1, dtype=np.int64)
        self._reset_store()
        self._hits = 0
        self._misses = 0
        self._fills = 0
        self._evictions = 0
        self._invalidations = 0

    def _reset_store(self) -> None:
        # Append-only answer columns indexed by the table's slot values.
        self._table_slot.fill(-1)
        cap = self._capacity
        self._entry_keys = np.empty(cap, dtype=np.uint64)
        self._found = np.empty(cap, dtype=bool)
        self._vals = np.empty(cap, dtype=self._values_dtype)
        self._stamps = np.empty(cap, dtype=np.int64)
        self._n_entries = 0

    # ------------------------------------------------------------------ #
    # Transparent forwarding
    # ------------------------------------------------------------------ #
    @property
    def inner(self):
        """The wrapped backend."""
        return self._inner

    def __getattr__(self, name: str):
        # Only called for attributes not found on the proxy itself:
        # mutations, ordered queries, telemetry, epoch pinning, devices.
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReadCachedBackend({self._inner!r}, capacity={self._capacity}, "
            f"entries={self._n_entries})"
        )

    # ------------------------------------------------------------------ #
    # Epoch guard
    # ------------------------------------------------------------------ #
    def _epoch_token(self):
        """The structural-state token answers are keyed on.

        A sharded backend's boundary version plus its tuple of per-shard
        epochs (a summed ``epoch`` could in principle alias two distinct
        states, and a rebalance rebuilds shards whose fresh counters could
        alias an earlier tuple — the boundary version disambiguates); a
        single structure's ``epoch`` counter; ``None`` when the backend
        has neither — in which case nothing is ever cached.
        """
        shard_epochs = getattr(self._inner, "shard_epochs", None)
        if shard_epochs is not None:
            version = int(getattr(self._inner, "boundary_version", 0))
            return (version, tuple(shard_epochs))
        return getattr(self._inner, "epoch", None)

    def _maybe_invalidate(self) -> None:
        token = self._epoch_token()
        if token != self._fill_token:
            if self._n_entries:
                self._reset_store()
                self._invalidations += 1
            self._fill_token = token

    # ------------------------------------------------------------------ #
    # Hash-table plumbing
    # ------------------------------------------------------------------ #
    def _hash(self, keys: np.ndarray) -> np.ndarray:
        return ((keys * _HASH_MULT) >> self._shift).astype(np.int64) & self._mask

    def _probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized linear probe: ``(hit_mask, entry_slot)`` per key.

        Each round gathers one table position for every still-unresolved
        key; a key resolves on its own key match (hit) or on an empty
        slot (definitive miss: the table is rebuilt, never tombstoned).
        Rounds = longest probe cluster, ~1-2 at our load.
        """
        h = self._hash(keys)
        slot = self._table_slot[h]
        occupied = slot >= 0
        hit = occupied & (self._entry_keys[np.maximum(slot, 0)] == keys)
        unresolved = np.flatnonzero(occupied & ~hit)
        while unresolved.size:
            nh = h[unresolved] + 1
            h[unresolved] = nh
            s = self._table_slot[nh]
            slot[unresolved] = s
            occ = s >= 0
            now_hit = occ & (self._entry_keys[np.maximum(s, 0)] == keys[unresolved])
            hit[unresolved[now_hit]] = True
            unresolved = unresolved[occ & ~now_hit]
        return hit, slot

    def _rebuild_table(self) -> None:
        """Lay out the table over all live entries in one sorted pass.

        With entries ordered by home slot ``h``, entry ``i`` lands at
        ``max(h[i], pos[i - 1] + 1)``; subtracting ``i`` turns that
        recurrence into a running maximum of ``h - i``.
        """
        n = self._n_entries
        h = self._hash(self._entry_keys[:n])
        order = np.argsort(h)
        ramp = np.arange(n)
        pos = np.maximum.accumulate(h[order] - ramp) + ramp
        self._table_slot.fill(-1)
        self._table_slot[pos] = order

    def _evict_to(self, room: int) -> None:
        """Drop the oldest-stamped entries until ``room`` slots are free,
        compacting the survivors to the front of the columns."""
        n = self._n_entries
        drop = n + room - self._capacity
        if drop >= n:
            keep = np.empty(0, dtype=np.int64)
        else:
            keep = np.argpartition(self._stamps[:n], drop)[drop:]
        kept = keep.size
        self._entry_keys[:kept] = self._entry_keys[keep]
        self._found[:kept] = self._found[keep]
        self._vals[:kept] = self._vals[keep]
        self._stamps[:kept] = self._stamps[keep]
        self._n_entries = kept
        self._evictions += drop

    # ------------------------------------------------------------------ #
    # The cached operation
    # ------------------------------------------------------------------ #
    def lookup(self, query_keys: np.ndarray) -> LookupResult:
        """Answer a LOOKUP batch, serving hot keys from the cache.

        Bit-identical to ``inner.lookup(query_keys)``: per-key answers
        are a pure function of the structure state, the cache only holds
        answers produced at the *current* epoch token, and missing keys
        are resolved by the inner backend itself.
        """
        self._maybe_invalidate()
        # Signed keys times the uint64 hash constant would promote to float64.
        query_keys = check_non_negative(query_keys, "query keys").astype(np.uint64, copy=False)
        n = int(query_keys.size)
        usable = self._capacity > 0 and self._fill_token is not None
        if n == 0 or not usable:
            self._misses += n
            return self._inner.lookup(query_keys)

        self._clock += 1
        if self._n_entries:
            hit, slot = self._probe(query_keys)
        else:
            hit = np.zeros(n, dtype=bool)
            slot = None
        n_hit = int(np.count_nonzero(hit))
        self._hits += n_hit
        self._misses += n - n_hit

        found = np.empty(n, dtype=bool)
        values: Optional[np.ndarray] = None
        if n_hit:
            # A hit implies a prior fill, so _has_values is decided.
            hit_slots = slot[hit]
            found[hit] = self._found[hit_slots]
            if self._has_values:
                values = np.empty(n, dtype=self._values_dtype)
                values[hit] = self._vals[hit_slots]
            self._stamps[hit_slots] = self._clock  # LRU touch, one scatter

        if n_hit < n:
            miss_mask = ~hit
            miss_keys = query_keys[miss_mask]
            uniq_miss = np.unique(miss_keys)
            result = self._inner.lookup(uniq_miss)
            if self._has_values is None:
                self._has_values = result.values is not None
                if self._has_values:
                    self._values_dtype = result.values.dtype
                    self._vals = self._vals.astype(self._values_dtype)
            if self._has_values and values is None:
                values = np.empty(n, dtype=self._values_dtype)
            src = np.searchsorted(uniq_miss, miss_keys)
            found[miss_mask] = result.found[src]
            if values is not None:
                values[miss_mask] = result.values[src]
            self._fill(uniq_miss, result)

        return LookupResult(found=found, values=values)

    def _fill(self, uniq_miss: np.ndarray, result: LookupResult) -> None:
        """Append freshly resolved unique keys to the store."""
        add = min(int(uniq_miss.size), self._capacity)
        if add < uniq_miss.size:
            # More new keys than the whole cache holds: keep the first
            # `capacity` (they are all equally fresh).
            uniq_miss = uniq_miss[:add]
            result = LookupResult(
                found=result.found[:add],
                values=None if result.values is None else result.values[:add],
            )
        if add == 0:
            return
        if self._n_entries + add > self._capacity:
            self._evict_to(add)
        lo = self._n_entries
        hi = lo + add
        self._entry_keys[lo:hi] = uniq_miss
        self._found[lo:hi] = result.found
        if result.values is not None:
            self._vals[lo:hi] = result.values
        else:
            self._vals[lo:hi] = 0
        self._stamps[lo:hi] = self._clock
        self._n_entries = hi
        self._fills += add
        self._rebuild_table()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        """Number of keys currently cached."""
        return int(self._n_entries)

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/fill/eviction/invalidation counters plus occupancy.

        ``hits`` and ``misses`` count *operations* (a batch with the same
        hot key 64 times scores 64 hits), matching the engine's
        per-operation throughput accounting.
        """
        return {
            "capacity": self._capacity,
            "entries": int(self._n_entries),
            "hits": self._hits,
            "misses": self._misses,
            "fills": self._fills,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
        }

    def clear(self) -> None:
        """Drop every cached answer (counters are kept)."""
        self._reset_store()
        self._fill_token = self._epoch_token()

    def reset_cache_counters(self) -> None:
        self._hits = 0
        self._misses = 0
        self._fills = 0
        self._evictions = 0
        self._invalidations = 0
