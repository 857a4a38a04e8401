"""The iterator model: the runtime operator base class.

Tukwila executes operator trees top-down with the standard iterator (open /
next / close) protocol.  Here one pipeline moves columnar batches:
:meth:`Operator.next_batch` pulls up to ``max_rows`` rows,
:meth:`Operator.next_batch_bounded` only the rows arriving before a bound,
and :meth:`Operator.next` is a one-row pull of the same path.  Operators
additionally expose :meth:`peek_arrival` — an estimate of the earliest
virtual time at which their next tuple could be delivered — which is what
lets data-driven operators (the double pipelined join, the dynamic
collector) decide which input to service first, standing in for the
original engine's per-child threads.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.context import ExecutionContext
from repro.errors import ExecutionError
from repro.plan.rules import EventType
from repro.storage.batch import Batch
from repro.storage.schema import Schema
from repro.storage.tuples import Row

#: Default number of rows per batch in the vectorized (batch-at-a-time) path.
DEFAULT_BATCH_SIZE = 256


class Operator:
    """Base class for all runtime operators.

    Subclasses implement :meth:`_next_batch` (the one pull hook) and
    optionally :meth:`_do_open`, :meth:`_do_close` and :meth:`peek_arrival`.
    The base class maintains state, statistics, the per-tuple CPU charge and
    event emission.
    """

    #: Multiplier on the per-tuple CPU charge for this operator's output.
    #: 1.0 for operators that touch every value; exchange endpoints lower it
    #: (routing and merging move encoded column references, not values) so a
    #: serial merge point does not re-pay the work its lanes parallelized.
    PER_TUPLE_CPU_FACTOR = 1.0

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        children: list["Operator"] | None = None,
        estimated_cardinality: int | None = None,
    ) -> None:
        self.operator_id = operator_id
        self.context = context
        self.children = children or []
        self.estimated_cardinality = estimated_cardinality
        self.state = "pending"
        context.register_operator(self)

    # -- schema --------------------------------------------------------------------

    @property
    def output_schema(self) -> Schema:
        """Schema of the rows this operator produces."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------------------

    def open(self) -> None:
        """Open children then this operator; emits the ``opened`` event."""
        if self.state == "open":
            return
        for child in self.children:
            child.open()
        self._do_open()
        self.state = "open"
        self._stats.state = "open"
        self.context.emit_event(EventType.OPENED, self.operator_id)

    def next(self) -> Row | None:
        """Produce the next output row, or ``None`` at end of stream.

        A one-row :meth:`next_batch`: the row is pulled, charged and counted
        exactly like any batch.
        """
        batch = self.next_batch(1)
        if not batch:
            return None
        return batch[0]

    def next_batch(self, max_rows: int = DEFAULT_BATCH_SIZE) -> Batch:
        """Produce up to ``max_rows`` output rows as a :class:`Batch`.

        The batch contract:

        * A non-empty batch may hold fewer than ``max_rows`` rows (operators
          cut batches short when a watched event fires, so the executor can
          run rules at exactly the tuple that raised the event).
        * An empty (falsy) batch is only returned at end of stream —
          operators keep pulling until they have at least one row or their
          input is done.
        * Consumers read :attr:`Batch.columns`; a batch built from rows (a
          watched or cache-fed scan) transposes on first access.

        Per-tuple CPU and statistics are charged once per batch.
        """
        return self._charged_pull(max_rows, None)

    def next_batch_bounded(self, max_rows: int, arrival_bound: float) -> Batch:
        """Produce up to ``max_rows`` rows arriving strictly before ``arrival_bound``.

        Used by data-driven consumers (the double pipelined join, the
        dynamic collector) to consume a *run* of tuples from one input in
        bulk: every row returned would also have been consumed back to back
        one at a time, because no other input could deliver anything
        earlier.  May return an empty :class:`Batch` when the next row
        arrives at or after the bound — that is not end of stream; callers
        then take a one-row :meth:`next_batch` step (the tie-break case).
        """
        return self._charged_pull(max_rows, arrival_bound)

    def _charged_pull(self, max_rows: int, arrival_bound: float | None) -> Batch:
        if self.state == "pending":
            raise ExecutionError(f"operator {self.operator_id!r} used before open()")
        if self.state in ("closed", "deactivated"):
            return Batch.empty(self.output_schema)
        if max_rows <= 0:
            raise ExecutionError(f"batch size must be positive, got {max_rows}")
        clock = self.context.clock
        wait_before = clock.stats.wait_ms
        batch = self._next_batch(max_rows, arrival_bound)
        if batch:
            # Charge the batch's per-tuple CPU as overlapped with the waiting
            # that accrued while the batch streamed in: one row's CPU hides
            # inside the wait before the next row's arrival.
            clock.consume_cpu_overlapped(
                len(batch) * self.context.config.per_tuple_cpu_ms * self.PER_TUPLE_CPU_FACTOR,
                max(0.0, clock.stats.wait_ms - wait_before),
            )
            self._stats.record_output_batch(len(batch), clock.now)
        return batch

    def close(self) -> None:
        """Close this operator and its children; emits the ``closed`` event."""
        if self.state == "closed":
            return
        self._do_close()
        for child in self.children:
            child.close()
        self.state = "closed"
        self._stats.state = "closed"
        self.context.emit_event(
            EventType.CLOSED, self.operator_id, value=self._stats.tuples_produced
        )

    def deactivate(self) -> None:
        """Stop execution of this operator (the ``deactivate`` rule action)."""
        self.state = "deactivated"
        self._stats.state = "deactivated"
        self.context.deactivate(self.operator_id)
        for child in self.children:
            child.deactivate()

    # -- data-driven support -------------------------------------------------------------

    def peek_arrival(self) -> float | None:
        """Earliest virtual time the next tuple could be available.

        ``None`` means end of stream.  The default assumes data is ready now,
        which is correct for operators over already-materialized inputs.
        """
        if self.state in ("closed", "deactivated"):
            return None
        return self.context.clock.now

    # -- helpers ---------------------------------------------------------------------------

    @property
    def _stats(self):
        return self.context.stats.operator(self.operator_id)

    @property
    def tuples_produced(self) -> int:
        return self._stats.tuples_produced

    def iterate(self) -> Iterator[Row]:
        """Convenience generator over the operator's full output."""
        while True:
            row = self.next()
            if row is None:
                return
            yield row

    # -- subclass hooks ----------------------------------------------------------------------

    def _do_open(self) -> None:
        """Subclass hook: acquire resources."""

    def _next_batch(self, max_rows: int, arrival_bound: float | None) -> Batch:
        """Subclass hook: up to ``max_rows`` rows (empty = end of stream).

        With an ``arrival_bound``, only rows arriving strictly before it; an
        empty batch may then just mean the bound was reached.
        """
        raise NotImplementedError

    def _next_rows_before(self, max_rows: int, arrival_bound: float) -> Batch:
        """Bounded pull for operators that cannot see past their next row.

        Takes one-row steps of :meth:`_next_batch` while :meth:`peek_arrival`
        stays before the bound, stopping early when a watched event
        interrupts the batch.
        """
        context = self.context
        parts: list[Batch] = []
        count = 0
        while count < max_rows:
            arrival = self.peek_arrival()
            if arrival is None or arrival >= arrival_bound:
                break
            part = self._next_batch(1, None)
            if not part:
                break
            parts.append(part)
            count += len(part)
            if context.batch_interrupt:
                break
        return Batch.concat(self.output_schema, parts)

    def _do_close(self) -> None:
        """Subclass hook: release resources."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.operator_id!r}, state={self.state!r})"


def pull(child: Operator, max_rows: int, arrival_bound: float | None) -> Batch:
    """``child.next_batch`` or, under an arrival bound, ``child.next_batch_bounded``."""
    if arrival_bound is None:
        return child.next_batch(max_rows)
    return child.next_batch_bounded(max_rows, arrival_bound)
