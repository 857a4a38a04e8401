"""Virtual time.

All experiment timing in this reproduction runs against a :class:`SimClock`
rather than the wall clock.  Sources stamp tuples with arrival times computed
from their latency and bandwidth models; operators advance the clock when
they wait for data, burn CPU, or perform disk I/O.  This keeps every
benchmark deterministic and lets the harness report the tuples-vs-time curves
that the paper's figures plot.

A single query owns one :class:`SimClock`.  The multi-query server instead
hands each session a :class:`repro.server.clock.SessionClock` — a
``SimClock`` subclass registered with a shared
:class:`~repro.server.clock.ServerClock` — so every session's waits, CPU and
I/O land on one server timeline and the scheduler can pick whichever session
is furthest behind.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ClockStats:
    """Breakdown of where virtual time went."""

    wait_ms: float = 0.0
    cpu_ms: float = 0.0
    io_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.wait_ms + self.cpu_ms + self.io_ms

    def add(self, other: "ClockStats") -> None:
        """Accumulate ``other`` into this breakdown (server-level aggregation)."""
        self.wait_ms += other.wait_ms
        self.cpu_ms += other.cpu_ms
        self.io_ms += other.io_ms


class SimClock:
    """A monotonically advancing virtual clock measured in milliseconds."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now = float(start_ms)
        self.stats = ClockStats()

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def advance_to(self, time_ms: float) -> float:
        """Move the clock forward to ``time_ms`` (no-op if already past).

        The gap is accounted as waiting (for network data).  Returns the new
        current time.
        """
        if time_ms > self._now:
            self.stats.wait_ms += time_ms - self._now
            self._now = time_ms
        return self._now

    def consume_cpu(self, cpu_ms: float) -> float:
        """Burn ``cpu_ms`` of processing time."""
        if cpu_ms < 0:
            raise ValueError(f"cpu time must be non-negative, got {cpu_ms}")
        self._now += cpu_ms
        self.stats.cpu_ms += cpu_ms
        return self._now

    def consume_io(self, io_ms: float) -> float:
        """Burn ``io_ms`` of disk I/O time."""
        if io_ms < 0:
            raise ValueError(f"io time must be non-negative, got {io_ms}")
        self._now += io_ms
        self.stats.io_ms += io_ms
        return self._now

    def consume_cpu_overlapped(self, cpu_ms: float, absorbable_wait_ms: float) -> float:
        """Charge CPU that overlapped network waiting (pipelined execution).

        A pipelined operator's per-tuple CPU runs *between* arrival waits, so
        the cost hides inside the next wait whenever data is the bottleneck.
        A batch is charged after it has streamed in; to model that overlap,
        up to ``absorbable_wait_ms`` of the
        charge (the waiting that accrued while this batch was produced) is
        reclassified from waiting to CPU, and only the excess extends virtual
        time.
        """
        if cpu_ms < 0:
            raise ValueError(f"cpu time must be non-negative, got {cpu_ms}")
        overlap = min(cpu_ms, absorbable_wait_ms, self.stats.wait_ms)
        if overlap > 0:
            self.stats.wait_ms -= overlap
            self.stats.cpu_ms += overlap
        excess = cpu_ms - overlap
        if excess > 0:
            self._now += excess
            self.stats.cpu_ms += excess
        return self._now

    def consume_io_overlapped(self, io_ms: float, absorbable_wait_ms: float) -> float:
        """IO counterpart of :meth:`consume_cpu_overlapped`."""
        if io_ms < 0:
            raise ValueError(f"io time must be non-negative, got {io_ms}")
        overlap = min(io_ms, absorbable_wait_ms, self.stats.wait_ms)
        if overlap > 0:
            self.stats.wait_ms -= overlap
            self.stats.io_ms += overlap
        excess = io_ms - overlap
        if excess > 0:
            self._now += excess
            self.stats.io_ms += excess
        return self._now

    def charge(self, wait_ms: float, cpu_ms: float, io_ms: float = 0.0) -> float:
        """Apply a pre-aggregated batch of waiting/CPU/IO time in one call.

        Equivalent to the corresponding sequence of :meth:`advance_to` /
        :meth:`consume_cpu` / :meth:`consume_io` calls; batch operators use it
        to charge a whole block of tuples at once.
        """
        if wait_ms < 0 or cpu_ms < 0 or io_ms < 0:
            raise ValueError(
                f"charges must be non-negative, got wait={wait_ms} cpu={cpu_ms} io={io_ms}"
            )
        self._now += wait_ms + cpu_ms + io_ms
        self.stats.wait_ms += wait_ms
        self.stats.cpu_ms += cpu_ms
        self.stats.io_ms += io_ms
        return self._now

    def reset(self, start_ms: float = 0.0) -> None:
        """Rewind the clock (used between benchmark repetitions)."""
        self._now = float(start_ms)
        self.stats = ClockStats()

    def restore(self, now_ms: float, wait_ms: float, cpu_ms: float, io_ms: float) -> None:
        """Adopt an externally accounted position and breakdown wholesale.

        The process exchange backend runs each lane's clock *in the worker*
        and mirrors it onto the parent's registered clock from the worker's
        reports.  A plain charge cannot express the mirror: overlapped
        charges reclassify waiting into CPU, so a worker's cumulative wait
        may *decrease* between reports.  Mutates the existing
        :class:`ClockStats` in place so aggregators holding a reference see
        the update.
        """
        self._now = float(now_ms)
        self.stats.wait_ms = wait_ms
        self.stats.cpu_ms = cpu_ms
        self.stats.io_ms = io_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.2f}ms)"
