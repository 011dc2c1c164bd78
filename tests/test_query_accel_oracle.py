"""Hypothesis oracle: query filters are answer-invariant.

Random insert/delete/cleanup interleavings — tombstones included — drive
four configurations of the same dictionary (filters off, fences only,
fences+Bloom, fences+Bloom+sorted-probe) plus a plain Python dict oracle.
After every batch, ``lookup`` / ``count`` / ``range_query`` must agree
across all four configurations *and* with the oracle, on both the
single-device :class:`GPULSM` and a four-shard :class:`ShardedLSM`.

This is the end-to-end guarantee of the acceleration layer: filters may
skip probes, never answers.  A second axis feeds COUNT/RANGE bounds in
random, reversed and duplicated-``k1`` request order, and as zero-width
``[k, k]`` windows: answers must come back in request order whatever
order the bound searches run in.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import LSMConfig
from repro.core.lsm import GPULSM
from repro.gpu.device import Device
from repro.gpu.spec import K40C_SPEC
from repro.scale import ShardedLSM

KEY_SPACE = 96
BATCH = 16

#: The four filter configurations of the acceptance criteria.
FILTER_MODES = (
    ("off", {}),
    ("fences", dict(enable_fences=True)),
    ("fences+bloom", dict(enable_fences=True, bloom_bits_per_key=10)),
    (
        "fences+bloom+sorted",
        dict(enable_fences=True, bloom_bits_per_key=10, sort_queries=True),
    ),
)

key_strategy = st.integers(min_value=0, max_value=KEY_SPACE - 1)
value_strategy = st.integers(min_value=0, max_value=1000)
pair_strategy = st.tuples(key_strategy, value_strategy)
batch_strategy = st.tuples(
    st.lists(pair_strategy, max_size=6),   # insertions
    st.lists(key_strategy, max_size=6),    # deletions (tombstones)
    st.booleans(),                         # cleanup after this batch?
).filter(lambda t: len(t[0]) + len(t[1]) >= 1)
trace_strategy = st.lists(batch_strategy, min_size=1, max_size=6)


def _make_backends(kind):
    if kind == "gpulsm":
        return {
            name: GPULSM(
                config=LSMConfig(batch_size=BATCH, **kwargs),
                device=Device(K40C_SPEC, seed=17),
            )
            for name, kwargs in FILTER_MODES
        }
    return {
        name: ShardedLSM(
            num_shards=4,
            batch_size=BATCH,
            key_domain=KEY_SPACE,
            seed=17,
            **kwargs,
        )
        for name, kwargs in FILTER_MODES
    }


def _oracle_apply(oracle, inserts, deletes):
    """The paper's batch semantics on a python dict: a delete anywhere in
    the batch dominates its key; among insertions the first wins."""
    deleted = {k for k in deletes}
    first_insert = {}
    for k, v in inserts:
        first_insert.setdefault(k, v)
    for k in deleted:
        oracle.pop(k, None)
    for k, v in first_insert.items():
        if k not in deleted:
            oracle[k] = v


def _check_agreement(backends, oracle, queries, k1, k2):
    expected_found = [k in oracle for k in queries.tolist()]
    expected_counts = [
        sum(1 for k in oracle if lo <= k <= hi)
        for lo, hi in zip(k1.tolist(), k2.tolist())
    ]
    for name, backend in backends.items():
        key_only = backend.key_only
        res = backend.lookup(queries)
        assert res.found.tolist() == expected_found, name
        if key_only:
            assert res.values is None, name
        else:
            for i, k in enumerate(queries.tolist()):
                if k in oracle:
                    assert int(res.values[i]) == oracle[k], (name, k)
        counts = backend.count(k1, k2)
        assert counts.tolist() == expected_counts, name
        rr = backend.range_query(k1, k2)
        assert (rr.values is None) == key_only, name
        for i, (lo, hi) in enumerate(zip(k1.tolist(), k2.tolist())):
            expected_pairs = sorted(
                (k, v) for k, v in oracle.items() if lo <= k <= hi
            )
            keys_i, vals_i = rr.query_slice(i)
            if key_only:
                got = [int(k) for k in keys_i]
                expected = [k for k, _ in expected_pairs]
            else:
                got = [(int(k), int(v)) for k, v in zip(keys_i, vals_i)]
                expected = expected_pairs
            assert got == expected, (name, lo, hi)


def run_trace(kind, trace, k1=None, k2=None, backends=None):
    if backends is None:
        backends = _make_backends(kind)
    oracle = {}
    all_keys = np.arange(KEY_SPACE + 8, dtype=np.uint32)  # misses included
    if k1 is None:
        k1 = np.array([0, 30, 7, 90], dtype=np.uint32)
        k2 = np.array([KEY_SPACE - 1, 60, 7, KEY_SPACE + 4], dtype=np.uint32)

    for inserts, deletes, do_cleanup in trace:
        ins_keys = np.array([k for k, _ in inserts], dtype=np.uint32)
        ins_vals = np.array([v for _, v in inserts], dtype=np.uint32)
        del_keys = np.array(deletes, dtype=np.uint32)
        for backend in backends.values():
            backend.update(
                insert_keys=ins_keys if ins_keys.size else None,
                insert_values=(
                    ins_vals
                    if ins_keys.size and not backend.key_only
                    else None
                ),
                delete_keys=del_keys if del_keys.size else None,
            )
        _oracle_apply(oracle, inserts, deletes)
        if do_cleanup:
            for backend in backends.values():
                backend.cleanup()
        _check_agreement(backends, oracle, all_keys, k1, k2)


def _bounds(order):
    """COUNT/RANGE bounds ``(k1, k2)`` in the request order ``order``.

    Widths vary from 0 to 11 keys and the windows reach past the key
    space, so searches land on both level ends and between levels."""
    rng = np.random.default_rng(11)
    if order == "zero-width":
        k1 = rng.integers(0, KEY_SPACE + 4, 24).astype(np.uint32)
        return k1, k1.copy()
    if order == "duplicated-k1":
        # Each start repeats with different widths, so requests that tie
        # on ``k1`` must still get their own answers.
        k1 = np.repeat(rng.integers(0, KEY_SPACE, 8), 3)
        perm = rng.permutation(k1.size)
    else:
        k1 = np.arange(0, KEY_SPACE + 4, 5)
        perm = (
            rng.permutation(k1.size) if order == "random" else np.arange(k1.size)[::-1]
        )
    k2 = k1 + rng.integers(0, 12, k1.size)
    return k1[perm].astype(np.uint32), k2[perm].astype(np.uint32)


def _clustered_trace():
    """Batches over disjoint key slices, then tombstones and re-inserts
    across them: levels cover different key ranges, so fences prune many
    (query, level) pairs, and recency decides the duplicated keys."""
    trace = [
        ([(k, k + 100) for k in range(lo, lo + 12)], [], False)
        for lo in (0, 24, 48, 72)
    ]
    trace.append(([(5, 1), (50, 2), (80, 3)], [6, 7, 49, 73], False))
    trace.append(([(7, 4), (30, 5)], [24, 95], False))
    trace.append(([(90, 6)], [5], True))
    trace.append(([(10, 7), (60, 8)], [11], False))
    return trace


class TestFilterInvarianceOracle:
    @settings(max_examples=25, deadline=None)
    @given(trace=trace_strategy)
    def test_gpulsm_filters_are_answer_invariant(self, trace):
        run_trace("gpulsm", trace)

    @settings(max_examples=10, deadline=None)
    @given(trace=trace_strategy)
    def test_sharded4_filters_are_answer_invariant(self, trace):
        run_trace("sharded", trace)

    @pytest.mark.parametrize("kind", ["gpulsm", "sharded"])
    def test_tombstone_heavy_trace(self, kind):
        """A deterministic delete-then-reinsert trace: a Bloom-pruned level
        must never hide a tombstone that shadows an older copy."""
        trace = [
            ([(k, k * 2) for k in range(12)], [], False),
            ([], list(range(0, 12, 2)), False),       # tombstone half
            ([(1, 99), (0, 77)], [3], True),           # reinsert + cleanup
        ]
        run_trace(kind, trace)


class TestBoundOrderOracle:
    """Bound searches run in ``k1`` order; answers stay in request order."""

    @pytest.mark.parametrize(
        "order", ["random", "reversed", "duplicated-k1", "zero-width"]
    )
    def test_gpulsm_answers_follow_request_order(self, order):
        k1, k2 = _bounds(order)
        backends = _make_backends("gpulsm")
        backends["key-only"] = GPULSM(
            config=LSMConfig(batch_size=BATCH, enable_fences=True),
            device=Device(K40C_SPEC, seed=17),
            key_only=True,
        )
        run_trace("gpulsm", _clustered_trace(), k1, k2, backends)
        # The fence-pruned path must have run.
        assert backends["fences"].filter_stats()["range_fence_pruned"] > 0

    @pytest.mark.parametrize("order", ["random", "duplicated-k1"])
    def test_sharded4_answers_follow_request_order(self, order):
        k1, k2 = _bounds(order)
        run_trace("sharded", _clustered_trace(), k1, k2)
