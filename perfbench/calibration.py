"""Host-speed reference for the benchmark's wall-clock end-to-end metrics.

The benchmark runs on shared hosts whose speed drifts with the load of their
other tenants: on a 2-vCPU VM a fixed pure-Python loop measured 26-38 ms per
pass between 2-second windows of one run, and 27 vs 40 ms in runs minutes
apart, with CPU time tracking wall time (contention, not descheduling).  A
query's wall time moves with it, so raw wall times from runs minutes apart
differ by more than any useful regression bound.

Every wall-clock end-to-end metric is therefore reported in *refs* (the
millisecond figures stay as per-layer metrics): one ref is the wall time of
one pass of :class:`ReferenceKernel` — a fixed mix of dict building and
probing, tuple construction, list sorting and NumPy sorting, the kinds of
work the engine's operators do — measured on the same host, in the same
process and phase: the median of the passes run just before, during
(between its queries or session steps, at most one per
:attr:`ReferenceKernel.interval_s`) and just after the round being
measured.  The kernel uses no engine code and its inputs never change, so a
change to the program moves a metric in refs by its own factor, while a
change in host speed moves both sides.
Measured on ``fig3a-lanes`` over 25-second windows of one 200-second run,
with passes around each round, the spread (quartile distance over median)
of the p50 query wall fell from 0.18 in milliseconds to 0.06 in refs, and
that of the throughput from 0.13 to 0.05.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import numpy as np

#: Sizes of the kernel's inputs; one pass takes 25-60 ms on the host above.
KEYS = 10_000
ARRAY = 80_000


class ReferenceKernel:
    """A fixed reference computation and the wall times of its passes."""

    def __init__(self, interval_s: float) -> None:
        #: Least wall time between the end of one pass and a :meth:`tick` pass.
        self.interval_s = interval_s
        rng = random.Random(0)
        self.keys = [rng.randrange(1 << 20) for _ in range(KEYS)]
        self.array = np.random.default_rng(0).integers(0, 1 << 20, ARRAY)
        #: Wall seconds of every pass measured so far.
        self.passes: list[float] = []
        # The first pass pays one-time costs (allocator growth, NumPy's
        # first calls) and is not recorded.
        self._timed_pass()
        self._last_end = time.perf_counter()

    def _timed_pass(self) -> float:
        # The cyclic collector is off during a pass: a collection traverses
        # every live object of the process, so with it on a pass's time
        # would depend on the workload's heap, not only on the host.
        gc.disable()
        try:
            started = time.perf_counter()
            groups: dict[int, list[int]] = {}
            for position, key in enumerate(self.keys):
                groups.setdefault(key, []).append(position)
            pairs = [(key, groups.get(key ^ 1)) for key in self.keys]
            ordered = sorted(self.keys)
            order = np.argsort(self.array, kind="stable")
            distinct = np.unique(self.array[order] >> 4)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        if len(pairs) != len(ordered) or distinct.size == 0:
            raise RuntimeError("reference kernel produced an inconsistent result")
        return elapsed

    def run_pass(self) -> float:
        """One pass; records its wall seconds and returns the wall seconds
        spent here."""
        started = time.perf_counter()
        self.passes.append(self._timed_pass())
        self._last_end = time.perf_counter()
        return self._last_end - started

    def tick(self) -> float:
        """A pass if ``interval_s`` has passed since the last one ended;
        returns the wall seconds spent here (0.0 without a pass)."""
        if time.perf_counter() - self._last_end < self.interval_s:
            return 0.0
        return self.run_pass()

    def ref_s(self) -> float:
        """Wall seconds of the median pass so far."""
        return statistics.median(self.passes)
