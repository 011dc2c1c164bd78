"""A fixed reference probe that tells how fast the host runs right now.

The benchmark runs on a few cores of a shared host, and the speed those
cores deliver drifts with the neighbours' load: by half again within
minutes, and in bursts shorter than a round when the cores are time-shared.
So a round runs this probe after every tick, outside the tick's timing,
and the end-to-end wall-clock metrics are scaled to a host on which the
probe takes ``NOMINAL_S`` on average::

    normalised time = measured time * NOMINAL_S / mean probe time

Probing between ticks samples the host at the same moments the ticks ran,
so the mean also counts the share of time the cores were taken away.  A
change to the program cannot move the probe: it uses only numpy and the
interpreter, never the program's code.  Its two halves weigh the two kinds
of work a tick does, numpy kernels (sort, binary search) and interpreter
overhead.  To the closed-loop client it is a little work between requests.
"""

from __future__ import annotations

import time

import numpy as np

#: Mean probe time of the host the normalised metrics are quoted for.
NOMINAL_S = 0.0005


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20180521)
        self.data = rng.integers(0, 1 << 63, 1 << 13, dtype=np.uint64)
        self.queries = rng.integers(0, 1 << 63, 1 << 11, dtype=np.uint64)

    def once(self) -> float:
        """Wall seconds of one pass over the probe."""
        t = time.perf_counter()
        np.searchsorted(np.sort(self.data), self.queries)
        acc = 0
        table = {}
        for i in range(1000):
            table[i & 1023] = acc
            acc += i ^ (acc & 7)
        return time.perf_counter() - t


def scale(samples) -> float:
    """Factor that turns a wall time measured among ``samples`` into one
    quoted for the nominal host (below 1 on a slower host)."""
    return NOMINAL_S * len(samples) / sum(samples)
