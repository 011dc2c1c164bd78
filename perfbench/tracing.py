"""Benchmark-side spans around the calls into each layer of ``repro``.

Nothing inside ``src/`` is edited: for the traced run the benchmark wraps
the layer boundaries from outside and restores them afterwards —

* a protocol proxy around the backend, and around every shard of a
  sharded backend (re-applied after each maintenance poll, since a
  rebalance replaces shards);
* ``plan_batch`` / ``execute_plan`` as bound in ``repro.serve.engine``;
* the durability manager's ``log_tick`` and ``snapshot`` and its WAL's
  ``sync``;
* the read cache's ``lookup``;
* the rebalance executor, and the primitives' entry points as bound in the
  modules that call them.

A span is ``(name, start_ns, end_ns, parent, tick, attrs)``; spans live in
memory and are written out when the run ends.  A layer's self time is its
span's duration minus its child spans' durations.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.api.planner as planner
import repro.core.lsm as lsm
import repro.primitives.columns as columns
import repro.scale.rebalance as rebalance
import repro.serve.engine as serve_engine

_now = time.perf_counter_ns

#: Backend methods the protocol proxy records, by span suffix.
_PROTOCOL = {
    "insert": "update",
    "delete": "update",
    "update": "update",
    "lookup": "lookup",
    "count": "count",
    "range_query": "range",
    "run_due_maintenance": "maintenance",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self.tick = -1

    def clear(self) -> None:
        self.spans.clear()

    def call(self, name: str, fn: Callable, args, kwargs, attrs: Optional[dict] = None,
             after: Optional[Callable] = None):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.tick, attrs)
        if after is not None:
            after(result, attrs)
        return result

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span; ``count(args)`` sizes its work
        and ``after(result, attrs)`` records what it returned."""

        def traced(*args, **kwargs):
            attrs = None if count is None and after is None else {}
            if count is not None:
                attrs["n"] = count(args)
            return self.call(name, fn, args, kwargs, attrs, after)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, tick, attrs in self.spans:
                row = {"name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "tick": tick}
                row.update(attrs or {})
                handle.write(json.dumps(row) + "\n")


def _rows(method: str, args, kwargs) -> int:
    if method == "update":
        return sum(int(np.size(kwargs[k])) for k in ("insert_keys", "delete_keys")
                   if kwargs.get(k) is not None)
    return int(np.size(args[0])) if args else 0


def _after(kind: str, device):
    def done(result, attrs):
        attrs["sim_s"] = device.simulated_seconds - attrs["sim_s"]
        if kind == "count":
            attrs["returned"] = int(np.sum(result))
        elif kind == "range":
            attrs["returned"] = int(result.keys.size)
        elif kind == "maintenance" and result is not None:
            attrs["runs"] = 1
            attrs["reclaimed"] = int(result.get("removed", 0))
    return done


class ProtocolProxy:
    """Records a span per protocol call; every other attribute, read or
    written, goes to the wrapped backend."""

    def __init__(self, inner, layer: str, tracer: Tracer, on_return=None) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_layer", layer)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_on_return", on_return)

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        kind = _PROTOCOL.get(name)
        if kind is None:
            return attr
        span = f"{self._layer}.{kind}"
        device = self._inner.device if self._layer == "core" else None
        tracer, on_return = self._tracer, self._on_return

        def traced(*args, **kwargs):
            attrs: dict = {"rows": _rows(name, args, kwargs)}
            after = None
            if device is not None:
                attrs["sim_s"] = device.simulated_seconds
                after = _after(kind, device)
            result = tracer.call(span, attr, args, kwargs, attrs, after)
            if on_return is not None:
                on_return()
            return result

        object.__setattr__(self, name, traced)
        return traced

    def __setattr__(self, name: str, value) -> None:
        setattr(self._inner, name, value)

    def __len__(self) -> int:
        return len(self._inner)


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, obj, name: str, value) -> None:
        own = vars(obj)
        self._undo.append((obj, name, name in own, own.get(name)))
        setattr(obj, name, value)

    def undo(self) -> None:
        while self._undo:
            obj, name, had, old = self._undo.pop()
            if had:
                setattr(obj, name, old)
            else:
                delattr(obj, name)


def _plan_done(plan, attrs) -> None:
    attrs["segments"] = plan.num_segments


def _rebalance_done(result, attrs) -> None:
    if result is not None:
        attrs["runs"] = 1
        attrs["rows_migrated"] = int(result["rows_migrated"])


def _size(i: int) -> Callable:
    return lambda args: int(np.size(args[i]))


def _sum_sizes(i: int, j: int) -> Callable:
    return lambda args: int(np.size(args[i]) + np.size(args[j]))


def wrap_backend(backend, tracer: Tracer):
    """The traced run's protocol proxy (plus per-shard proxies)."""
    if getattr(backend, "shards", None) is None:
        return ProtocolProxy(backend, "core", tracer)

    def wrap_shards() -> None:
        shards = backend.shards
        for s, shard in enumerate(shards):
            if not isinstance(shard, ProtocolProxy):
                shards[s] = ProtocolProxy(shard, "core", tracer)

    wrap_shards()
    return ProtocolProxy(backend, "scale", tracer, on_return=wrap_shards)


def install(tracer: Tracer, engine) -> Patches:
    """Install every benchmark-side span except the backend proxy, which
    :func:`wrap_backend` places before the engine is built."""
    patches = Patches()
    patches.set(engine, "apply", tracer.wrap("serve.apply", engine.apply))
    patches.set(serve_engine, "plan_batch",
                tracer.wrap("api.plan", serve_engine.plan_batch, after=_plan_done))
    patches.set(serve_engine, "execute_plan",
                tracer.wrap("api.execute", serve_engine.execute_plan))
    if engine.read_cache is not None:
        cache = engine.read_cache
        patches.set(cache, "lookup", tracer.wrap("serve.cache.lookup", cache.lookup))
    manager = engine.durability
    if manager is not None:
        patches.set(manager, "log_tick", tracer.wrap("durability.log_tick", manager.log_tick))
        patches.set(manager, "snapshot", tracer.wrap("durability.snapshot", manager.snapshot))
        wal = manager._wal
        patches.set(wal, "sync", tracer.wrap("durability.wal.sync", wal.sync))
    patches.set(rebalance, "execute_rebalance",
                tracer.wrap("scale.rebalance", rebalance.execute_rebalance,
                            after=_rebalance_done))
    for module, name, span, count in (
        (columns, "radix_sort_keys", "primitives.sort", _size(0)),
        (columns, "radix_sort_pairs", "primitives.sort", _size(0)),
        (lsm, "radix_sort_pairs", "primitives.sort", _size(0)),
        (columns, "merge_keys", "primitives.merge", _sum_sizes(0, 1)),
        (columns, "merge_pairs", "primitives.merge", _sum_sizes(0, 2)),
        (columns, "segmented_sort_keys", "primitives.segmented_sort", _size(0)),
        (columns, "segmented_sort_pairs", "primitives.segmented_sort", _size(0)),
        (lsm, "lower_bound", "primitives.search", _size(1)),
        (lsm, "upper_bound", "primitives.search", _size(1)),
        (columns, "multisplit_keys", "primitives.multisplit", None),
        (columns, "multisplit_pairs", "primitives.multisplit", None),
        (planner, "multisplit_keys", "primitives.multisplit", None),
    ):
        patches.set(module, name, tracer.wrap(span, getattr(module, name), count))
    return patches


def unwrap_shards(backend) -> None:
    shards = getattr(backend, "shards", None)
    if shards is not None:
        shards[:] = [s._inner if isinstance(s, ProtocolProxy) else s for s in shards]


class SpanStats:
    """Per-name totals of a span list: wall, self time and attributes."""

    def __init__(self, spans: List[tuple]) -> None:
        n = len(spans)
        child = np.zeros(n)
        in_rebalance = np.zeros(n, dtype=bool)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_rebalance[i] = in_rebalance[parent] or spans[parent][0] == "scale.rebalance"
        self.wall: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.attrs: Dict[str, Dict[str, float]] = {}
        #: Per-shard calls made by the sharded front-end's data path.
        self.shard_calls = 0
        #: Segmented-sort input elements inside count/range spans.
        self.candidates = 0
        for i, (name, start, end, parent, _, attrs) in enumerate(spans):
            if name.startswith("core.") and in_rebalance[i]:
                # A migration drains shards through range_query; that is
                # rebalance work, not served COUNT/RANGE traffic.
                name = "scale.rebalance.drain"
            parent_name = spans[parent][0] if parent >= 0 else None
            dur = (end - start) * 1e-9
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[i] * 1e-9
            if parent_name != name:
                self.wall[name] = self.wall.get(name, 0.0) + dur
            if attrs:
                bucket = self.attrs.setdefault(name, {})
                for key, value in attrs.items():
                    bucket[key] = bucket.get(key, 0) + value
            if (name in ("core.update", "core.lookup", "core.count", "core.range")
                    and parent_name is not None and parent_name.startswith("scale.")):
                self.shard_calls += 1
            if (name == "primitives.segmented_sort" and parent_name in ("core.count", "core.range")
                    and not in_rebalance[i]):
                self.candidates += attrs["n"]
        self.total_self = sum(self.self_time.values())

    def get(self, name: str, attr: str) -> float:
        return self.attrs.get(name, {}).get(attr, 0)
