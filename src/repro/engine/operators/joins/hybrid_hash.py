"""Hybrid hash join: the conventional baseline join (Section 4.2.1).

The inner (right) relation is built into a hash table; the outer (left)
relation then probes it.  When the build exceeds the operator's memory
allotment, buckets are lazily flushed to disk (hybrid hashing); probe tuples
that hash to a flushed bucket are spilled to matching outer overflow files,
and the overflow pairs are joined in a final pass.

The hash table stores columnar partitions: builds append column slices from
batch columns, probes return gathered match columns, outer tuples of flushed
buckets spill as column gathers, and the final overflow pass joins spill
chunks positionally — no :class:`Row` objects anywhere on those paths.

Because the build phase must consume the *entire* inner input before the
first output tuple, this operator exhibits exactly the delayed
time-to-first-tuple the paper contrasts with the double pipelined join.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from typing import Any, Iterator

from repro.engine.context import ExecutionContext
from repro.engine.iterators import DEFAULT_BATCH_SIZE, Operator, pull
from repro.engine.operators.joins.base import JoinOperator
from repro.plan.rules import EventType
from repro.storage.batch import Batch, BatchCursor, gather_join_columns
from repro.storage.columns import as_values
from repro.storage.disk import OverflowFile
from repro.storage.hash_table import BucketedHashTable, DEFAULT_BUCKET_COUNT, bucket_of
from repro.storage.memory import MemoryBudget


class HybridHashJoin(JoinOperator):
    """Classic hybrid hash join with lazy bucket overflow."""

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
        estimated_cardinality: int | None = None,
    ) -> None:
        super().__init__(
            operator_id, context, left, right, left_keys, right_keys, estimated_cardinality
        )
        self.budget: MemoryBudget = context.memory_pool.grant(operator_id, memory_limit_bytes)
        self.budget.on_revoke = self._on_lease_revoked
        self.bucket_count = bucket_count
        self._inner_table: BucketedHashTable | None = None
        self._outer_overflow: dict[int, OverflowFile] = {}
        self._built = False
        self._pending_out: BatchCursor | None = None
        self._overflow_batches: Iterator[Batch] | None = None

    # -- build phase --------------------------------------------------------------------

    def _do_open(self) -> None:
        self._inner_table = BucketedHashTable(
            self.right_keys,
            self.budget,
            self.context.disk,
            bucket_count=self.bucket_count,
            name=f"{self.operator_id}-inner",
            schema=self.right.output_schema,
            encoded=self.context.encoded_columns,
        )

    def _build(self) -> None:
        """Build the inner table: bulk columnar inserts with lazy overflow.

        ``insert_batch`` moves whole per-bucket column gathers while memory
        lasts and stops at exactly the row the budget refuses; the refused
        suffix is retried after flushing the largest bucket, so overflow
        events and bucket states are those of a row-by-row build.
        """
        assert self._inner_table is not None
        table = self._inner_table
        right = self.right
        while True:
            batch = right.next_batch(DEFAULT_BATCH_SIZE)
            if not batch:
                break
            keys = batch.key_tuples(table.key_indices_in(batch.schema))
            position = 0
            n = len(batch)
            while position < n:
                position = table.insert_batch(batch, keys=keys, start=position)
                if position < n:
                    # Memory pressure: flush the largest bucket and retry the
                    # refused suffix (rows whose bucket got flushed spill on
                    # the retry).
                    self._raise_out_of_memory()
                    if table.flush_largest_bucket() is None:
                        # Nothing resident to flush: insert this one row past
                        # the limit (or spill it) and move on.
                        key = keys[position]
                        index = bucket_of(key, table.bucket_count)
                        if table.buckets[index].flushed:
                            table.spill_position(
                                index,
                                batch.columns,
                                position,
                                batch.arrivals[position],
                                marked=False,
                            )
                        else:
                            table.insert_position(
                                index,
                                key,
                                batch.columns,
                                position,
                                batch.arrivals[position],
                            )
                        position += 1
        self._charge_disk_time()
        self._built = True

    def _raise_out_of_memory(self) -> None:
        self._stats.overflow_events += 1
        self.context.emit_event(EventType.OUT_OF_MEMORY, self.operator_id)

    def _on_lease_revoked(self, budget: MemoryBudget) -> None:
        """Broker revocation: lazily flush buckets until the new lease fits.

        Mid-build this is exactly the insert-time overflow path (flush the
        largest bucket); mid-probe it is still safe — probe tuples hashing
        to a freshly flushed bucket spill to the outer overflow files and
        join in the final pass, the standard hybrid-hash discipline.
        """
        table = self._inner_table
        if table is None:
            return
        flushed_any = False
        while budget.limit_bytes is not None and budget.used_bytes > budget.limit_bytes:
            # Flush first: a revocation that finds nothing resident (only
            # dictionary/metadata bytes remain) must not emit OUT_OF_MEMORY
            # events that no resolution follows.
            if table.flush_largest_bucket() is None:
                break
            flushed_any = True
            self._raise_out_of_memory()
        if flushed_any:
            self._charge_disk_time()

    # -- probe phase --------------------------------------------------------------------------

    def _outer_overflow_file(self, bucket_index: int) -> OverflowFile:
        if bucket_index not in self._outer_overflow:
            self._outer_overflow[bucket_index] = self.context.disk.create_file(
                f"{self.operator_id}-outer-b{bucket_index}",
                schema=self.left.output_schema,
            )
        return self._outer_overflow[bucket_index]

    def _overflow_pair_batches(self) -> Iterator[Batch]:
        """Columnar overflow pass: joins spill chunks positionally, no boxing."""
        assert self._inner_table is not None
        table = self._inner_table
        inner_schema = table.schema
        inner_key_at = self._right_binder.indices_in(inner_schema)
        outer_schema = self.left.output_schema
        outer_key_at = self._left_binder.indices_in(outer_schema)
        schema = self.output_schema
        outer_width = len(outer_schema)
        inner_width = len(inner_schema)
        for bucket_index in table.flushed_buckets:
            outer_file = self._outer_overflow.get(bucket_index)
            if outer_file is None:
                continue
            # Reload the inner bucket into a positional map: key -> list of
            # (chunk columns, chunk arrivals, position).
            inner_by_key: dict[tuple, list] = {}
            for chunk in table.overflow_chunks(bucket_index):
                # Decode dict codes / RLE arrivals once per chunk; the
                # positional map then indexes plain sequences.
                columns = [as_values(c) for c in chunk.columns]
                arrivals = as_values(chunk.arrivals)
                key_columns = [columns[i] for i in inner_key_at]
                for position in range(len(chunk)):
                    key = tuple(column[position] for column in key_columns)
                    inner_by_key.setdefault(key, []).append(
                        (columns, arrivals, position)
                    )
            self._charge_disk_time()
            out_columns: list[list[Any]] = [[] for _ in range(outer_width + inner_width)]
            out_arrivals: list[float] = []
            for chunk in outer_file.read_chunks():
                columns = [as_values(c) for c in chunk.columns]
                arrivals = as_values(chunk.arrivals)
                key_columns = [columns[i] for i in outer_key_at]
                for position in range(len(chunk)):
                    key = tuple(column[position] for column in key_columns)
                    matches = inner_by_key.get(key)
                    if not matches:
                        continue
                    outer_arrival = arrivals[position]
                    for inner_columns, inner_arrivals, inner_position in matches:
                        for j in range(outer_width):
                            out_columns[j].append(columns[j][position])
                        for j in range(inner_width):
                            out_columns[outer_width + j].append(
                                inner_columns[j][inner_position]
                            )
                        inner_arrival = inner_arrivals[inner_position]
                        out_arrivals.append(
                            outer_arrival
                            if outer_arrival >= inner_arrival
                            else inner_arrival
                        )
            self._charge_disk_time()
            if out_arrivals:
                yield Batch.from_columns(schema, out_columns, out_arrivals)

    # -- iterator ----------------------------------------------------------------------------------

    def _probe_outer_batch(self, outer: Batch) -> Batch | None:
        """Probe one outer batch in bulk; ``None`` when nothing matched.

        The probe keys are extracted as column slices (one ``zip`` over the
        key columns), outer tuples of flushed buckets are spilled as
        per-file column gathers, and the output batch is assembled from
        gathered match columns — no per-row key tuples via attribute lookup,
        no :class:`Row` construction, and no per-tuple spill writes.
        """
        assert self._inner_table is not None
        table = self._inner_table
        keys = outer.key_tuples(self._left_binder.indices_in(outer.schema))
        positions: list[int] | None = None
        if table.flushed_count:
            # Split probed positions into live probes and per-bucket spills.
            buckets = table.buckets
            count = table.bucket_count
            positions = []
            spills: dict[int, list[int]] = {}
            for position, key in enumerate(keys):
                index = hash(key) % count
                if buckets[index].flushed:
                    found = spills.get(index)
                    if found is None:
                        spills[index] = [position]
                    else:
                        found.append(position)
                else:
                    positions.append(position)
            if spills:
                columns = outer.columns
                arrivals = outer.arrivals
                for index, spill_positions in spills.items():
                    self._outer_overflow_file(index).write_gather(
                        columns, arrivals, spill_positions
                    )
                self._charge_disk_time()
        result = table.gather_matches(keys, positions)
        if result is None:
            return None
        take, match_columns, match_arrivals, aligned = result
        return gather_join_columns(
            outer, take, match_columns, match_arrivals, self.output_schema, aligned
        )

    def _next_batch(self, max_rows: int, arrival_bound: float | None) -> Batch:
        if not self._built:
            self._build()
        context = self.context
        schema = self.output_schema
        parts: list[Batch] = []
        count = 0
        while count < max_rows:
            if self._pending_out is not None:
                part = self._pending_out.take(max_rows - count)
                if not self._pending_out:
                    self._pending_out = None
                if part:
                    parts.append(part)
                    count += len(part)
                continue
            if self._overflow_batches is not None:
                batch = next(self._overflow_batches, None)
                if batch is None:
                    break
                self._pending_out = BatchCursor(batch)
                continue
            outer = pull(self.left, max_rows, arrival_bound)
            if not outer:
                if arrival_bound is not None and self.left.peek_arrival() is not None:
                    break  # the bound was reached, not the outer's end of stream
                self._overflow_batches = self._overflow_pair_batches()
                continue
            result = self._probe_outer_batch(outer)
            if result is not None:
                self._pending_out = BatchCursor(result)
            if context.batch_interrupt and count:
                break
        return Batch.concat(schema, parts)

    def _do_close(self) -> None:
        try:
            if self._inner_table is not None:
                self._inner_table.release_all()
        finally:
            # Even if releasing the table raises mid-flush, the pool lease
            # must go back so broker.used == sum(resident_bytes) holds.
            self.context.memory_pool.revoke(self.operator_id)
