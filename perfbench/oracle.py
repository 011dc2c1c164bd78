"""Independent, vectorised oracle for the engine's SNAPSHOT tick semantics.

The live dictionary is two aligned sorted arrays (keys, values).  A tick's
queries read the state as it stood before the tick; its updates then fold
into one canonical batch — a deletion anywhere in the tick removes its
key, otherwise the key's *first* insertion in the tick wins and overwrites
any older value (Section III-A, rules 3, 4 and 6).  Each tick costs a few
``searchsorted`` passes plus one linear merge, so the whole stream can be
checked without the O(n)-per-query reference model of ``repro.core``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro import GPULSM, Device, Engine, OpBatch, OpCode
from repro.core.encoding import MAX_KEY


@dataclass
class Expected:
    """Expected answer columns of one tick, laid out like ``ResultBatch``."""

    statuses: np.ndarray
    found: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    range_offsets: np.ndarray
    range_keys: np.ndarray
    range_values: np.ndarray


def _ragged_index(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Flat indices of the concatenated slices ``[lo[i], hi[i])``."""
    widths = hi - lo
    total = int(widths.sum())
    starts = np.cumsum(widths) - widths
    return np.repeat(lo, widths) + (np.arange(total) - np.repeat(starts, widths))


class Oracle:
    """The live key → value state of a store, advanced tick by tick."""

    def __init__(self) -> None:
        self.keys = np.zeros(0, dtype=np.uint64)
        self.values = np.zeros(0, dtype=np.uint64)

    @classmethod
    def from_insert_batches(cls, keys: np.ndarray, values: np.ndarray, b: int) -> "Oracle":
        """The state after inserting ``keys``/``values`` in batches of ``b``:
        per key, the last batch that holds it wins, and inside that batch
        its first occurrence."""
        n = keys.size
        pos = np.arange(n, dtype=np.int64)
        score = (pos // b) * b + (b - 1 - pos % b)
        order = np.lexsort((score, keys))
        sorted_keys = keys[order]
        last = np.ones(n, dtype=bool)
        last[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        oracle = cls()
        oracle.keys = sorted_keys[last]
        oracle.values = values[order][last]
        return oracle

    def __len__(self) -> int:
        return int(self.keys.size)

    def apply(self, batch) -> Expected:
        """Answer ``batch``'s queries from the pre-tick state, then fold its
        updates in; returns the expected answers."""
        n = batch.size
        codes, keys, ends = batch.opcodes, batch.keys, batch.range_ends
        state_keys, state_values = self.keys, self.values
        size = state_keys.size
        found = np.zeros(n, dtype=bool)
        values = np.zeros(n, dtype=np.uint64)
        counts = np.zeros(n, dtype=np.int64)

        look = np.flatnonzero(codes == OpCode.LOOKUP)
        if look.size:
            pos = np.searchsorted(state_keys, keys[look])
            clipped = np.minimum(pos, max(size - 1, 0))
            hit = (pos < size) & (state_keys[clipped] == keys[look]) if size else pos < 0
            found[look] = hit
            values[look[hit]] = state_values[clipped[hit]]

        ranged = np.flatnonzero((codes == OpCode.COUNT) | (codes == OpCode.RANGE))
        lo = np.searchsorted(state_keys, keys[ranged], side="left")
        hi = np.searchsorted(state_keys, ends[ranged], side="right")
        counts[ranged] = hi - lo
        is_range = codes[ranged] == OpCode.RANGE
        widths = np.zeros(n, dtype=np.int64)
        widths[ranged[is_range]] = (hi - lo)[is_range]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(widths, out=offsets[1:])
        flat = _ragged_index(lo[is_range], hi[is_range])

        expected = Expected(
            statuses=np.zeros(n, dtype=np.uint8),
            found=found,
            values=values,
            counts=counts,
            range_offsets=offsets,
            range_keys=state_keys[flat],
            range_values=state_values[flat],
        )
        self._fold_updates(codes, keys, batch.values)
        return expected

    def _fold_updates(self, codes: np.ndarray, keys: np.ndarray, values: np.ndarray) -> None:
        deleted = np.unique(keys[codes == OpCode.DELETE])
        ins = np.flatnonzero(codes == OpCode.INSERT)
        ins_keys, first = np.unique(keys[ins], return_index=True)
        ins_values = values[ins][first]
        survive = ~np.isin(ins_keys, deleted, assume_unique=True)
        ins_keys, ins_values = ins_keys[survive], ins_values[survive]
        touched = np.union1d(deleted, ins_keys)
        if touched.size == 0:
            return
        pos = np.searchsorted(self.keys, touched)
        clipped = np.minimum(pos, max(self.keys.size - 1, 0))
        present = (pos < self.keys.size) & (self.keys[clipped] == touched) if self.keys.size else pos < 0
        keys_left = np.delete(self.keys, pos[present])
        values_left = np.delete(self.values, pos[present])
        at = np.searchsorted(keys_left, ins_keys)
        self.keys = np.insert(keys_left, at, ins_keys)
        self.values = np.insert(values_left, at, ins_values)


def mismatched_rows(result, expected) -> int:
    """Rows of ``result`` that disagree with ``expected`` in any column.

    ``expected`` is an :class:`Expected` or another result batch (the
    bit-identity check between rounds).  A non-OK status is a mismatch,
    since every expected status is OK.
    """
    n = result.statuses.size
    bad = result.statuses != expected.statuses
    bad |= result.found != expected.found
    bad |= result.counts != expected.counts
    if result.values is None or expected.values is None:
        if (result.values is None) != (expected.values is None):
            bad |= True
    else:
        bad |= result.values != expected.values
    widths = np.diff(result.range_offsets)
    exp_widths = np.diff(expected.range_offsets)
    bad |= widths != exp_widths
    if not np.any(widths != exp_widths):
        diff = result.range_keys != expected.range_keys
        if (result.range_values is None) != (expected.range_values is None):
            diff |= True
        elif result.range_values is not None:
            diff |= result.range_values != expected.range_values
        rows = np.searchsorted(result.range_offsets, np.flatnonzero(diff), side="right") - 1
        bad[rows] = True
    if getattr(result, "errors", None):
        bad[list(result.errors)] = True
    return int(np.count_nonzero(bad)) if n else 0


def live_items(backend) -> Tuple[np.ndarray, np.ndarray]:
    """Every live ``(key, value)`` of a backend, ascending by key."""
    rr = backend.range_query(np.array([0], dtype=np.uint64), np.array([MAX_KEY], dtype=np.uint64))
    values = rr.values if rr.values is not None else np.zeros(rr.keys.size, np.uint64)
    return rr.keys.astype(np.uint64), values.astype(np.uint64)


def state_mismatches(keys: np.ndarray, values: np.ndarray, oracle: Oracle) -> int:
    """Keys missing, extra, or holding a wrong value, against the oracle."""
    common, in_got, in_want = np.intersect1d(keys, oracle.keys, return_indices=True)
    wrong = int(np.count_nonzero(values[in_got] != oracle.values[in_want]))
    return (keys.size - common.size) + (oracle.keys.size - common.size) + wrong


def self_test() -> List[str]:
    """Run a tiny store through the engine and the checker, then feed the
    checker single corrupted answers; returns the problems found (empty
    when the checker accepts the real answers and catches every fault)."""
    b = 64
    rng = np.random.default_rng(12345)
    pre_keys = rng.integers(0, 2000, 4 * b, dtype=np.uint64)
    pre_values = rng.integers(0, 1 << 31, 4 * b, dtype=np.uint64)
    store = GPULSM(batch_size=b, device=Device(seed=1))
    for lo in range(0, pre_keys.size, b):
        store.insert(pre_keys[lo : lo + b], pre_values[lo : lo + b])
    oracle = Oracle.from_insert_batches(pre_keys, pre_values, b)
    engine = Engine(store)
    problems: List[str] = []
    for _ in range(3):
        codes = rng.integers(0, 5, b).astype(np.uint8)
        keys = rng.integers(0, 2000, b, dtype=np.uint64)
        ends = np.minimum(keys + rng.integers(0, 64, b, dtype=np.uint64), np.uint64(2100))
        vals = np.where(codes == OpCode.INSERT, rng.integers(0, 1 << 31, b, dtype=np.uint64), 0)
        batch = OpBatch(codes, keys, vals.astype(np.uint64), ends)
        result = engine.apply(batch)
        expected = oracle.apply(batch)
        if mismatched_rows(result, expected):
            problems.append("the checker rejected correct engine answers")
    codes = result.request.opcodes
    faults = {
        "lookup value": ("values", int(np.flatnonzero(result.found)[0])),
        "lookup found flag": ("found", int(np.flatnonzero(codes == OpCode.LOOKUP)[0])),
        "count": ("counts", int(np.flatnonzero(codes == OpCode.COUNT)[0])),
        "range key": ("range_keys", 0),
        "status": ("statuses", 0),
    }
    if result.range_keys.size == 0:
        problems.append("self-test stream returned no range keys")
    for label, (column, row) in faults.items():
        bad = getattr(result, column).copy()
        bad[row] = bad[row] ^ 1 if bad.dtype != bool else not bad[row]
        if mismatched_rows(replace(result, **{column: bad}), expected) != 1:
            problems.append(f"the checker missed a corrupted {label}")
    keys, values = live_items(store)
    if state_mismatches(keys, values, oracle):
        problems.append("the final state disagrees with the oracle")
    values = values.copy()
    values[0] ^= 1
    if state_mismatches(keys, values, oracle) != 1:
        problems.append("the state check missed a corrupted value")
    return problems
