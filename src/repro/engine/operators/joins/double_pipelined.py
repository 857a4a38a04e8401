"""The double pipelined hash join (Section 4.2.2) with overflow resolution.

The double pipelined join (DPJ) is symmetric and incremental: each arriving
tuple probes the opposite input's hash table and is then inserted into its
own side's table, so results are produced as soon as matching tuples have
arrived from both inputs.  The original implementation is data-driven via
threads; here the join pulls from whichever child can deliver a tuple at the
earlier virtual time, which yields the same interleaving deterministically.

Two memory-overflow strategies from Section 4.2.3 are implemented:

* **Incremental Left Flush** — on overflow, flush buckets from the left
  input's hash table and switch to draining the right input; resume the left
  input once the right is exhausted.  Output stalls while the right side is
  drained, then resumes (the "abrupt" curve of Figure 4).
* **Incremental Symmetric Flush** — on overflow, pick one bucket and flush it
  from *both* hash tables; both inputs keep streaming, so output continues
  smoothly but the in-memory fraction (and hence the match rate) shrinks.

Correctness with spilling relies on a marking discipline: tuples flushed
while resident are written *unmarked*; tuples that arrive after their bucket
was flushed are written *marked* and are not probed live.  During the final
overflow resolution, every pair is emitted except unmarked-with-unmarked —
those pairs were already produced while both tuples were resident.

Both hash tables store columnar partitions in every drive mode.  Under the
columnar drive the whole pipeline is positional: input runs arrive as
struct-of-arrays batches and are processed in bulk segments (each probes
the opposite table once, inserts once, and emits its matches straight into
output columns), spills move column values, and the final overflow
resolution joins spill chunks positionally — no :class:`Row` boxing
anywhere.  The row-batch and tuple drives feed the same tables row by row
(the row-spill baseline).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator

from repro.engine.context import ExecutionContext
from repro.engine.iterators import Operator
from repro.engine.operators.joins.base import JoinOperator
from repro.errors import MemoryOverflowError
from repro.plan.physical import OverflowMethod
from repro.plan.rules import EventType
from repro.storage.batch import Batch
from repro.storage.columns import (
    DictColumn,
    as_values,
    empty_like,
    extend_column,
    gather,
)
from repro.storage.hash_table import BucketedHashTable, DEFAULT_BUCKET_COUNT, bucket_of
from repro.storage.memory import MemoryBudget
from repro.storage.tuples import Row

#: Side identifiers (also used as indices into per-side lists).
LEFT, RIGHT = 0, 1

#: Maximum rows consumed from one input per arrival-bounded run (batch path).
RUN_LENGTH = 128

#: Virtual-time lookahead allowed when consuming a run (batch path).  The
#: original engine's per-child threads buffered tuples ahead of the join;
#: letting a run overshoot the other side's next arrival by this window models
#: that queueing while keeping consumption deterministic and (at run
#: granularity) data-driven.
RUN_SLACK_MS = 5.0


class _Run:
    """One consumed input run: a batch plus its bulk-extracted join keys.

    ``arrivals`` is the columnar run's arrival column as a plain sequence
    (``None`` for row-backed runs), so segments read stamps by C-level
    subscripts.
    """

    __slots__ = ("batch", "keys", "arrivals", "cursor")

    def __init__(self, batch: Batch, keys: list[tuple[Any, ...]]) -> None:
        self.batch = batch
        self.keys = keys
        self.arrivals = as_values(batch.arrivals) if batch.is_columnar else None
        self.cursor = 0


class _OutputColumns:
    """Pending columnar join output: per-column accumulators plus arrivals.

    Accumulators start as plain lists; on the first emission the operator
    *upgrades* slots to dict-encoded accumulators sharing the inputs'
    dictionaries, after which matched string values move as raw codes and
    the output batches stay encoded end to end.
    """

    __slots__ = ("columns", "arrivals", "cursor", "adopted")

    def __init__(self, width: int) -> None:
        self.columns: list[list[Any]] = [[] for _ in range(width)]
        self.arrivals: list[float] = []
        self.cursor = 0
        self.adopted = False

    def __len__(self) -> int:
        return len(self.arrivals) - self.cursor

    def append_matches(
        self,
        own_offset: int,
        own_columns: list,
        take: list[int],
        match_offset: int,
        match_columns: list,
        arrivals,
    ) -> None:
        """Append join output column by column: output row ``i`` joins row
        ``take[i]`` of ``own_columns`` with row ``i`` of ``match_columns``."""
        columns = self.columns
        base = len(self.arrivals)
        sides = ((own_offset, own_columns, take), (match_offset, match_columns, None))
        for offset, sources, rows in sides:
            for j, source in enumerate(sources, offset):
                if not self.adopted and type(source) is DictColumn and not len(columns[j]):
                    columns[j] = DictColumn(source.dictionary)
                if rows is None:
                    extend_column(columns, j, source, base)
                elif type(columns[j]) is list and type(source) is not DictColumn:
                    # Plain values move in one C-level take, without a typed copy.
                    columns[j].extend(map(source.__getitem__, rows))
                else:
                    extend_column(columns, j, gather(source, rows), base)
        self.adopted = True
        self.arrivals.extend(arrivals)

    def _reset_columns(self) -> None:
        self.columns = [empty_like(column) for column in self.columns]

    def take_batch(self, schema, max_rows: int) -> Batch:
        """Up to ``max_rows`` pending rows as a columnar batch."""
        start = self.cursor
        stop = min(start + max_rows, len(self.arrivals))
        self.cursor = stop
        if start == 0 and stop == len(self.arrivals):
            batch = Batch.from_columns(schema, self.columns, self.arrivals)
            self._reset_columns()
            self.arrivals = []
            self.cursor = 0
            return batch
        columns = [column[start:stop] for column in self.columns]
        batch = Batch.from_columns(schema, columns, self.arrivals[start:stop])
        if self.cursor >= len(self.arrivals):
            self._reset_columns()
            self.arrivals = []
            self.cursor = 0
        return batch


class DoublePipelinedJoin(JoinOperator):
    """Symmetric, incremental hash join with pluggable overflow resolution."""

    def __init__(
        self,
        operator_id: str,
        context: ExecutionContext,
        left: Operator,
        right: Operator,
        left_keys: list[str],
        right_keys: list[str],
        memory_limit_bytes: int | None = None,
        bucket_count: int = DEFAULT_BUCKET_COUNT,
        overflow_method: OverflowMethod | str = OverflowMethod.LEFT_FLUSH,
        estimated_cardinality: int | None = None,
    ) -> None:
        super().__init__(
            operator_id, context, left, right, left_keys, right_keys, estimated_cardinality
        )
        self.budget: MemoryBudget = context.memory_pool.grant(operator_id, memory_limit_bytes)
        self.budget.on_revoke = self._on_lease_revoked
        self.bucket_count = bucket_count
        self.overflow_method = OverflowMethod(overflow_method)
        self._tables: list[BucketedHashTable] = []
        self._exhausted = [False, False]
        self._drain_right_first = False
        self._pending: list[Row] = []
        self._cleanup: Iterator[Row] | None = None
        self._cleanup_batches: Iterator[Batch] | None = None
        # Batch path only: per-side run buffers (rows already consumed from a
        # child in bulk because they all arrive before the other side's next).
        # Join keys are bulk-extracted from the run's key columns; the run
        # batch itself stays in whatever representation the child produced.
        self._runs: list[_Run | None] = [None, None]
        self._out: _OutputColumns | None = None
        self._popped_key: tuple[Any, ...] | None = None
        self._emitted_output = False
        self.overflow_count = 0

    # -- configuration hooks (rule actions) -------------------------------------------------

    def set_overflow_method(self, method: OverflowMethod | str) -> None:
        """Change the overflow strategy (the ``set overflow method`` rule action)."""
        self.overflow_method = OverflowMethod(method)

    # -- lifecycle -----------------------------------------------------------------------------

    def _do_open(self) -> None:
        self._tables = [
            BucketedHashTable(
                self.left_keys,
                self.budget,
                self.context.disk,
                bucket_count=self.bucket_count,
                name=f"{self.operator_id}-left",
                schema=self.left.output_schema,
                encoded=self.context.encoded_columns,
            ),
            BucketedHashTable(
                self.right_keys,
                self.budget,
                self.context.disk,
                bucket_count=self.bucket_count,
                name=f"{self.operator_id}-right",
                schema=self.right.output_schema,
                encoded=self.context.encoded_columns,
            ),
        ]
        self._left_width = len(self.left.output_schema)
        self._right_width = len(self.right.output_schema)
        self._out = _OutputColumns(self._left_width + self._right_width)

    def _do_close(self) -> None:
        try:
            for table in self._tables:
                table.release_all()
        finally:
            # Even if releasing a table raises mid-flush, the pool lease
            # must go back so broker.used == sum(resident_bytes) holds.
            self.context.memory_pool.revoke(self.operator_id)

    # -- child selection (the data-driven behaviour) ---------------------------------------------

    def _child(self, side: int) -> Operator:
        return self.children[side]

    def _choose_side(self) -> int | None:
        """Pick which input to consume next, or ``None`` when both are done.

        Arrivals are taken from the run buffers first (see
        :meth:`_pull_buffered`); with empty buffers — always the case under a
        pure tuple-at-a-time drive — this is the plain data-driven choice over
        the children's ``peek_arrival``.
        """
        if self._exhausted[LEFT] and self._exhausted[RIGHT]:
            return None
        if self._drain_right_first and not self._exhausted[RIGHT]:
            return RIGHT
        if self._exhausted[LEFT]:
            return RIGHT
        if self._exhausted[RIGHT]:
            return LEFT
        left_arrival = self._peek_side(LEFT)
        right_arrival = self._peek_side(RIGHT)
        if left_arrival is None:
            self._exhausted[LEFT] = True
            return RIGHT
        if right_arrival is None:
            self._exhausted[RIGHT] = True
            return LEFT
        # Prefer the input whose next tuple arrives earlier; alternate on ties
        # by favouring the side with fewer tuples consumed so far.
        if left_arrival < right_arrival:
            return LEFT
        if right_arrival < left_arrival:
            return RIGHT
        return LEFT if self._tables[LEFT].total_inserted <= self._tables[RIGHT].total_inserted else RIGHT

    def peek_arrival(self) -> float | None:
        """Earliest time this join could produce or consume its next tuple.

        With output or input rows already buffered, "now"; otherwise the
        earlier of the two inputs' next arrivals.  Side-effect free — used
        by data-driven parents and as the executor's source-wait hint, so a
        join-rooted fragment yields its network stalls to the session
        scheduler instead of sleeping through them.
        """
        if self.state in ("closed", "deactivated"):
            return None
        now = self.context.clock.now
        if self._pending or self._cleanup is not None or self._cleanup_batches is not None:
            return now
        out = self._out
        if out is not None and out.arrivals:
            return now
        if self._side_has_buffer(LEFT) or self._side_has_buffer(RIGHT):
            return now
        arrivals = [
            arrival
            for side in (LEFT, RIGHT)
            if not self._exhausted[side]
            and (arrival := self._child(side).peek_arrival()) is not None
        ]
        if not arrivals:
            return now
        return min(arrivals)

    # -- batch-path input runs -----------------------------------------------------------------------

    def _side_has_buffer(self, side: int) -> bool:
        run = self._runs[side]
        return run is not None and run.cursor < len(run.batch)

    def _peek_side(self, side: int) -> float | None:
        """Arrival of side's next row, looking at its run buffer first."""
        run = self._runs[side]
        if run is not None and run.cursor < len(run.batch):
            return run.batch.arrivals[run.cursor]
        return self._child(side).peek_arrival()

    def _pop_buffered(self, side: int) -> Row | None:
        """Next already-buffered row of ``side``, or ``None`` when none is held.

        Sets :attr:`_popped_key` to the row's precomputed join key (``None``
        when nothing was buffered — the caller computes it).
        """
        run = self._runs[side]
        if run is None or run.cursor >= len(run.batch):
            self._popped_key = None
            return None
        cursor = run.cursor
        run.cursor = cursor + 1
        self._popped_key = run.keys[cursor]
        return run.batch[cursor]

    def _pull_run(self, side: int) -> _Run | None:
        """Consume the next bulk run of ``side``; ``None`` when the run is empty.

        A *run* consumes every row arriving before the other side's next
        arrival plus a small lookahead window (:data:`RUN_SLACK_MS`) — the
        rows the original engine's per-child reader thread would have had
        queued.  The run batch keeps the representation the child produced:
        columnar runs drive the positional pipeline, row-backed runs the
        row-at-a-time one.
        """
        other = 1 - side
        if self._exhausted[other] or (side == RIGHT and self._drain_right_first):
            # No interleaving constraint: the other side is done, or paused by
            # Incremental Left Flush — the tuple drive consumes this side
            # back to back regardless of the other side's arrivals, so an
            # unbounded run matches its consumption order exactly.
            bound = float("inf")
        else:
            other_arrival = self._peek_side(other)
            if other_arrival is None:
                bound = float("inf")
            elif self._emitted_output:
                bound = other_arrival + RUN_SLACK_MS
            else:
                # Before the first output the lookahead window stays closed so
                # time-to-first-tuple matches the tuple-at-a-time drive exactly
                # (the paper's headline DPJ metric).
                bound = other_arrival
        run_batch = self._child(side).next_batch_bounded(RUN_LENGTH, bound)
        if not run_batch:
            return None
        binder = self._left_binder if side == LEFT else self._right_binder
        keys = run_batch.key_tuples(binder.indices_in(run_batch.schema))
        run = _Run(run_batch, keys)
        self._runs[side] = run
        return run

    # -- tuple processing ----------------------------------------------------------------------------

    def _bucket_spilled(self, index: int) -> bool:
        return self._tables[LEFT].buckets[index].flushed or self._tables[RIGHT].buckets[index].flushed

    def _spill_arriving(self, side: int, index: int, row: Row, marked: bool = True) -> None:
        """Send an arriving tuple straight to its side's overflow file.

        ``marked=True`` records that the tuple never probed the opposite
        side's resident rows (it arrived after the bucket spilled); the final
        overflow resolution joins marked tuples against everything.  A tuple
        that *did* probe before its bucket spilled is written unmarked so its
        already-emitted pairs are not produced again.
        """
        table = self._tables[side]
        bucket = table.buckets[index]
        table._ensure_overflow(bucket).write(row, marked=marked)
        self._charge_disk_time()

    def _process(self, side: int, row: Row, key: tuple[Any, ...] | None = None) -> None:
        """Probe, emit, and insert one arriving tuple (key may be precomputed).

        The row-at-a-time pipeline, serving the tuple drive and row-backed
        runs; matches are boxed into output rows on :attr:`_pending`.
        """
        other = 1 - side
        if key is None:
            key = self.left_key(row) if side == LEFT else self.right_key(row)
        index = bucket_of(key, self.bucket_count)
        tables = self._tables
        if tables[LEFT].buckets[index].flushed or tables[RIGHT].buckets[index].flushed:
            self._spill_arriving(side, index, row)
            return
        # Probe the opposite side's resident rows (both tables share the
        # bucket count, so the bucket index computed above is reusable).
        other_bucket = tables[other].buckets[index]
        partition = other_bucket.partition
        matches = partition.positions.get(key) if partition is not None else None
        if matches:
            self._emitted_output = True
            schema = self.output_schema
            pending = self._pending
            values = row.values
            arrival = row.arrival
            arrivals = partition.arrivals
            value_tuple = partition.value_tuple
            make = Row.make
            for position in matches:
                match_values = value_tuple(position)
                joined_values = (
                    values + match_values if side == LEFT else match_values + values
                )
                match_arrival = arrivals[position]
                pending.append(
                    make(
                        schema,
                        joined_values,
                        arrival if arrival >= match_arrival else match_arrival,
                    )
                )
        # Once the opposite input is exhausted there is no need to retain this
        # tuple (footnote 3 of the paper) unless its bucket later spills —
        # which cannot affect it because all of its matches were resident.
        if self._exhausted[other]:
            return
        self._insert_with_overflow(side, row, key, index)

    def _insert_with_overflow(
        self, side: int, row: Row, key: tuple[Any, ...], index: int
    ) -> None:
        table = self._tables[side]
        while True:
            if table.buckets[index].flushed:
                # The overflow strategy spilled this row's bucket while we were
                # trying to insert it.  The row has already probed the opposite
                # side's resident rows, so it spills unmarked — exactly like
                # the resident rows that were just flushed alongside it.
                self._spill_arriving(side, index, row, marked=False)
                return
            if table.insert(row, key=key):
                return
            self._resolve_overflow()

    def _process_segment(self, side: int, run: _Run, room: int) -> None:
        """Probe, emit, and insert one *segment* of a columnar run in bulk.

        A segment is a prefix of the run's unprocessed rows that a per-tuple
        pipeline would process back to back without the clock moving.  It
        ends before a row the other input's next arrival would preempt,
        before a row whose bucket has spilled, after ``room`` rows or the
        row whose output fills ``room`` (one row when ``room <= 0``), and
        after a row the budget refuses.  Rows of one side never probe each
        other, so a segment probes the opposite table once, inserts once,
        and appends its output column by column — no arriving tuple is
        boxed.
        """
        other = 1 - side
        tables = self._tables
        table = tables[side]
        batch = run.batch
        columns = batch.columns
        keys = run.keys
        arrivals = run.arrivals
        start = run.cursor
        # Probe at most ``room`` rows: with one match each they fill the batch.
        stop = start + 1 if room <= 0 else min(len(batch), start + room)
        if not (self._exhausted[other] or (side == RIGHT and self._drain_right_first)):
            # The other input's next row preempts any later row of this run
            # that does not arrive strictly before it (ties re-run the
            # tie-break, which counts this segment's inserts; an input that
            # ran dry meanwhile is marked exhausted by the next choice).
            other_arrival = self._peek_side(other)
            for i in range(start + 1, stop):
                if other_arrival is None or arrivals[i] >= other_arrival:
                    stop = i
                    break
        if tables[LEFT].flushed_count or tables[RIGHT].flushed_count:
            for i in range(start, stop):
                index = hash(keys[i]) % self.bucket_count
                if tables[LEFT].buckets[index].flushed or tables[RIGHT].buckets[index].flushed:
                    if i > start:
                        stop = i
                        break
                    # The bucket spilled before this tuple arrived: it goes
                    # straight to disk, marked (it probed nothing).
                    table.spill_position(index, columns, i, arrivals[i], marked=True)
                    self._charge_disk_time()
                    run.cursor = i + 1
                    return
        matches = tables[other].gather_matches(keys, range(start, stop))
        if matches is not None and 0 < room <= len(matches[0]):
            stop = matches[0][room - 1] + 1
        refused = None
        if not self._exhausted[other]:
            # Once the opposite input is exhausted there is no need to
            # retain arriving tuples (footnote 3 of the paper).
            inserted = table.insert_batch(batch, keys=keys, start=start, stop=stop)
            if inserted < stop:
                refused, stop = inserted, inserted + 1
        run.cursor = stop
        if matches is not None:
            take, match_columns, match_arrivals, _ = matches
            cut = bisect_left(take, stop)
            if cut:
                if cut < len(take):
                    take = take[:cut]
                    match_columns = [column[:cut] for column in match_columns]
                    match_arrivals = match_arrivals[:cut]
                self._emitted_output = True
                own_offset = 0 if side == LEFT else self._left_width
                self._out.append_matches(
                    own_offset,
                    columns,
                    take,
                    self._left_width - own_offset,
                    match_columns,
                    map(max, map(arrivals.__getitem__, take), match_arrivals),
                )
        if refused is None:
            return
        # The refused tuple already probed; resolve the overflow and retry.
        key = keys[refused]
        index = bucket_of(key, self.bucket_count)
        arrival = arrivals[refused]
        while True:
            self._resolve_overflow()
            if table.buckets[index].flushed:
                # Spilled by the overflow strategy mid-insert: unmarked, as in
                # :meth:`_insert_with_overflow`.
                table.spill_position(index, columns, refused, arrival, marked=False)
                self._charge_disk_time()
                return
            if table.insert_position(index, key, columns, refused, arrival):
                return

    # -- overflow resolution -------------------------------------------------------------------------------

    def _on_lease_revoked(self, budget: MemoryBudget) -> None:
        """The broker shrank this join's lease under cross-query pressure.

        Runs the configured Section 4.2 overflow resolution until resident
        bytes fit the new allotment — the same bucket flushes to the encoded
        columnar spill path an insert-time overflow triggers, charged to
        this session's own virtual clock.  With resolution disabled
        (``OverflowMethod.FAIL``) nothing happens here: the shrunken limit
        surfaces on the victim's *own* next insert, so the failure lands in
        the right session.
        """
        if not self._tables or self.overflow_method == OverflowMethod.FAIL:
            return
        while budget.limit_bytes is not None and budget.used_bytes > budget.limit_bytes:
            before = budget.used_bytes
            self._resolve_overflow()
            if budget.used_bytes >= before:
                # Nothing left to flush (dictionary/metadata bytes remain);
                # further pressure resolves at the next insert.
                break

    def _resolve_overflow(self) -> None:
        """Free memory according to the configured strategy."""
        self.overflow_count += 1
        self._stats.overflow_events += 1
        self.context.emit_event(EventType.OUT_OF_MEMORY, self.operator_id)
        if self.overflow_method == OverflowMethod.FAIL:
            raise MemoryOverflowError(
                f"{self.operator_id}: memory exhausted and overflow resolution disabled"
            )
        if self.overflow_method == OverflowMethod.SYMMETRIC_FLUSH:
            self._symmetric_flush()
        else:
            self._left_flush()
        self._charge_disk_time()

    def _symmetric_flush(self) -> None:
        """Flush the bucket with the most combined resident bytes from both tables."""
        left_table, right_table = self._tables
        best_index, best_bytes = None, -1
        for index in range(self.bucket_count):
            combined = (
                left_table.buckets[index].resident_count * left_table.row_bytes
                + right_table.buckets[index].resident_count * right_table.row_bytes
            )
            if combined > best_bytes and not self._bucket_spilled(index):
                best_index, best_bytes = index, combined
        if best_index is None or best_bytes <= 0:
            raise MemoryOverflowError(
                f"{self.operator_id}: no resident bucket left to flush symmetrically"
            )
        left_table.flush_bucket(best_index)
        right_table.flush_bucket(best_index)

    def _left_flush(self) -> None:
        """Flush a left-side bucket (falling back to the right side), pause the left input."""
        self._drain_right_first = True
        flushed = self._tables[LEFT].flush_largest_bucket()
        if flushed is not None:
            return
        flushed = self._tables[RIGHT].flush_largest_bucket()
        if flushed is None:
            raise MemoryOverflowError(
                f"{self.operator_id}: both hash tables are empty yet memory is exhausted"
            )

    # -- overflow resolution output (the final phase) ---------------------------------------------------------

    def _spilled_entries(self, side: int, index: int) -> list | None:
        """One bucket side's spilled + resident entries as positional views.

        Returns a list of ``(columns, arrivals, marked_list_or_None, count)``
        quadruples — disk chunks carry their marked column, resident remnants
        are implicitly unmarked (``None``) and charge no read I/O.  ``None``
        when the side holds nothing for this bucket.
        """
        bucket = self._tables[side].buckets[index]
        entries: list = []
        # Dict-encoded columns and RLE arrivals decode once per chunk here
        # (C-level map to the canonical values — no string construction, no
        # Row boxing), so the positional join below indexes plain sequences.
        if bucket.overflow is not None and len(bucket.overflow) > 0:
            for chunk in bucket.overflow.read_chunks():
                if len(chunk):
                    entries.append(
                        (
                            [as_values(c) for c in chunk.columns],
                            as_values(chunk.arrivals),
                            chunk.marked,
                            len(chunk),
                        )
                    )
        partition = bucket.partition
        if partition is not None and partition.arrivals:
            entries.append(
                (
                    [as_values(c) for c in partition.columns],
                    as_values(partition.arrivals),
                    None,
                    len(partition.arrivals),
                )
            )
        return entries or None

    def _cleanup_batches_iter(self) -> Iterator[Batch]:
        """Join the spilled buckets positionally, one output batch per bucket.

        Skips unmarked-with-unmarked pairs (already produced live).  Spilled
        tuples are never boxed: keys come from chunk key columns, matches are
        located through a positional map, and output values move column to
        column.
        """
        left_schema = self._tables[LEFT].schema
        right_schema = self._tables[RIGHT].schema
        left_key_at = self._left_binder.indices_in(left_schema)
        right_key_at = self._right_binder.indices_in(right_schema)
        left_width = self._left_width
        right_width = self._right_width
        schema = self.output_schema
        for index in range(self.bucket_count):
            left_bucket = self._tables[LEFT].buckets[index]
            right_bucket = self._tables[RIGHT].buckets[index]
            has_disk = (
                left_bucket.overflow is not None and len(left_bucket.overflow) > 0
            ) or (right_bucket.overflow is not None and len(right_bucket.overflow) > 0)
            if not has_disk:
                continue
            left_entries = self._spilled_entries(LEFT, index)
            right_entries = self._spilled_entries(RIGHT, index)
            self._charge_disk_time()
            if not left_entries or not right_entries:
                continue
            # Positional map over the right side: key -> (entry columns,
            # arrivals, marked flag, position) per spilled/resident row.
            right_by_key: dict[tuple, list] = {}
            for columns, arrivals, marked, count in right_entries:
                key_columns = [columns[i] for i in right_key_at]
                for position in range(count):
                    key = tuple(column[position] for column in key_columns)
                    is_marked = marked[position] if marked is not None else False
                    right_by_key.setdefault(key, []).append(
                        (columns, arrivals, is_marked, position)
                    )
            out_columns: list[list[Any]] = [[] for _ in range(left_width + right_width)]
            out_arrivals: list[float] = []
            for columns, arrivals, marked, count in left_entries:
                key_columns = [columns[i] for i in left_key_at]
                for position in range(count):
                    key = tuple(column[position] for column in key_columns)
                    found = right_by_key.get(key)
                    if not found:
                        continue
                    left_marked = marked[position] if marked is not None else False
                    left_arrival = arrivals[position]
                    for right_columns, right_arrivals, right_marked, right_position in found:
                        if not left_marked and not right_marked:
                            continue  # both were resident when they met: already emitted
                        for j in range(left_width):
                            out_columns[j].append(columns[j][position])
                        for j in range(right_width):
                            out_columns[left_width + j].append(
                                right_columns[j][right_position]
                            )
                        right_arrival = right_arrivals[right_position]
                        out_arrivals.append(
                            left_arrival
                            if left_arrival >= right_arrival
                            else right_arrival
                        )
            if out_arrivals:
                yield Batch.from_columns(schema, out_columns, out_arrivals)

    def _cleanup_pairs(self) -> Iterator[Row]:
        """Row-at-a-time overflow resolution (tuple and row-batch drives).

        Same pair discipline and identical I/O accounting as
        :meth:`_cleanup_batches_iter`, but every spilled tuple read back from
        disk is boxed into a :class:`Row` and joined tuple-at-a-time — the
        re-boxing cost that makes this the *row-spill baseline* the spill
        benchmark measures the columnar resolution against.
        """
        for index in range(self.bucket_count):
            left_bucket = self._tables[LEFT].buckets[index]
            right_bucket = self._tables[RIGHT].buckets[index]
            has_disk = (
                left_bucket.overflow is not None and len(left_bucket.overflow) > 0
            ) or (right_bucket.overflow is not None and len(right_bucket.overflow) > 0)
            if not has_disk:
                continue
            left_entries: list[tuple[Row, bool]] = []
            right_entries: list[tuple[Row, bool]] = []
            if left_bucket.overflow is not None:
                left_entries.extend(left_bucket.overflow.read())
            if right_bucket.overflow is not None:
                right_entries.extend(right_bucket.overflow.read())
            self._charge_disk_time()
            # Resident remnants participate as unmarked entries (no read cost).
            if left_bucket.partition is not None:
                left_entries.extend((row, False) for row in left_bucket.partition.rows())
            if right_bucket.partition is not None:
                right_entries.extend(
                    (row, False) for row in right_bucket.partition.rows()
                )
            right_by_key: dict[tuple[Any, ...], list[tuple[Row, bool]]] = {}
            for row, marked in right_entries:
                right_by_key.setdefault(self.right_key(row), []).append((row, marked))
            for left_row, left_marked in left_entries:
                for right_row, right_marked in right_by_key.get(
                    self.left_key(left_row), ()
                ):
                    if not left_marked and not right_marked:
                        continue  # both were resident when they met: already emitted
                    yield self.join_rows(left_row, right_row)

    # -- iterator -------------------------------------------------------------------------------------------------

    def _next(self) -> Row | None:
        while True:
            if self._pending:
                return self._pending.pop(0)
            out = self._out
            if out is not None and len(out):
                batch = out.take_batch(self.output_schema, 1)
                return batch[0]
            if self._cleanup_batches is not None:
                # A batch caller started the columnar cleanup; keep draining it.
                batch = next(self._cleanup_batches, None)
                if batch is None:
                    return None
                self._pending.extend(batch.rows())
                continue
            if self._cleanup is not None:
                row = next(self._cleanup, None)
                if row is None:
                    return None
                return row
            side = self._choose_side()
            if side is None:
                self._cleanup = self._cleanup_pairs()
                continue
            row = self._pop_buffered(side)
            key = self._popped_key
            if row is None:
                row = self._child(side).next()
            if row is None:
                self._exhausted[side] = True
                if side == RIGHT and self._drain_right_first:
                    # Right side drained: resume reading the paused left input.
                    self._drain_right_first = False
                continue
            self._process(side, row, key)

    def _next_batch(self, max_rows: int) -> Batch:
        return self._produce_batch(max_rows, None)

    def _next_batch_bounded(self, max_rows: int, arrival_bound: float) -> Batch:
        # Mirrors the generic bounded fallback (whose per-pull check is
        # ``peek_arrival() < bound``, and an open join's peek is "now") while
        # keeping the run-buffer machinery engaged for this join's own inputs.
        return self._produce_batch(max_rows, arrival_bound)

    def _produce_batch(self, max_rows: int, arrival_bound: float | None) -> Batch:
        """Batch iteration around the symmetric per-tuple pipeline.

        Inputs are consumed in arrival-ordered *runs* (see
        :meth:`_pull_run`): which side to service next is still decided by
        arrival, and every arriving tuple still probes before the next is
        consumed, but consecutive same-side tuples are pulled in bulk with
        their join keys extracted from the run's key columns.  Columnar runs
        are processed a segment at a time (:meth:`_process_segment`), which
        accumulates output directly into column lists; row-backed runs go
        through the row pipeline.  The batch is cut short when a watched
        event (e.g. ``out_of_memory`` with an overflow-method rule attached)
        fires, so rule actions land at the tuple-accurate point.
        """
        context = self.context
        clock = context.clock
        schema = self.output_schema
        out = self._out
        parts: list[Batch] = []
        count = 0
        # Rows emitted into ``out`` (and leftovers on ``_pending``) count
        # toward the batch but are only sliced into an actual Batch once, on
        # the way out — draining them eagerly would shred the output into
        # per-row parts and pay a concat per column per row.
        while count + len(out) < max_rows:
            if arrival_bound is not None and clock.now >= arrival_bound:
                break
            if self._pending:
                # Leftovers from a tuple-at-a-time caller on the same
                # operator: flush any columnar output first to keep order.
                if len(out):
                    part = out.take_batch(schema, max_rows - count)
                    parts.append(part)
                    count += len(part)
                    if count >= max_rows:
                        break
                needed = max_rows - count
                rows = self._pending[:needed]
                del self._pending[:needed]
                parts.append(Batch.from_rows(schema, rows))
                count += len(rows)
                if context.batch_interrupt:
                    break
                continue
            if self._cleanup_batches is not None:
                batch = next(self._cleanup_batches, None)
                if batch is None:
                    break
                base = len(out.arrivals)
                for position, column in enumerate(batch.columns):
                    extend_column(out.columns, position, column, base)
                out.arrivals.extend(batch.arrivals)
                continue
            if self._cleanup is not None:
                # A tuple-at-a-time caller already started the row-based
                # cleanup; keep draining it row by row.
                row = next(self._cleanup, None)
                if row is None:
                    break
                self._pending.append(row)
                continue
            side = self._choose_side()
            if side is None:
                if context.columnar:
                    self._cleanup_batches = self._cleanup_batches_iter()
                else:
                    self._cleanup = self._cleanup_pairs()
                continue
            run = self._runs[side]
            if run is None or run.cursor >= len(run.batch):
                run = self._pull_run(side)
                if run is None:
                    row = self._child(side).next()
                    if row is None:
                        self._exhausted[side] = True
                        if side == RIGHT and self._drain_right_first:
                            # Right side drained: resume the paused left input.
                            self._drain_right_first = False
                        continue
                    self._process(side, row, None)
                    if context.batch_interrupt and (count or len(out)) and not self._pending:
                        break
                    continue
            if run.arrivals is not None:
                # The rows a segment may emit before this loop would stop:
                # a watched event stops it at the first output row, and a
                # bound the clock passed while pulling the run stops it
                # after one row.
                if arrival_bound is not None and clock.now >= arrival_bound:
                    room = 0
                else:
                    room = (1 if context.batch_interrupt else max_rows) - count - len(out)
                self._process_segment(side, run, room)
            else:
                position = run.cursor
                run.cursor = position + 1
                self._process(side, run.batch[position], run.keys[position])
            # Cut the batch at a watched event — but only once some output is
            # actually collectable; rows sitting on ``_pending`` are moved
            # into the batch by the next loop iteration first (an empty
            # return here would read as a spurious end-of-stream).
            if context.batch_interrupt and (count or len(out)) and not self._pending:
                break
        if len(out) and count < max_rows:
            part = out.take_batch(schema, max_rows - count)
            parts.append(part)
            count += len(part)
        if not parts:
            return Batch.empty(schema)
        if len(parts) == 1:
            return parts[0]
        return Batch.concat(schema, parts)
