"""Bucketed, spillable hash tables over columnar partitions.

Both the hybrid hash join and the double pipelined join build their inputs
into a :class:`BucketedHashTable`: a fixed number of buckets, each holding a
columnar partition (:class:`~repro.storage.columns.ColumnarPartition` — one
typed column per attribute, a parallel arrival list, and a ``key -> row
positions`` index) in memory until its owner decides to flush it to a
:class:`~repro.storage.disk.OverflowFile`.  Inserts append column values and
probes return gather positions, so neither direction materializes
:class:`~repro.storage.tuples.Row` objects; flushes move whole column sets to
disk as one spill chunk.  The table charges every resident row's columnar
byte estimate — :meth:`Schema.encoded_row_size` by default (string columns
dictionary-encode; dictionary entries charge once per table as they are
first inserted), :meth:`Schema.columnar_row_size` with ``encoded=False`` —
against a :class:`~repro.storage.memory.MemoryBudget`, so the join operators
discover memory pressure exactly when the paper's engine would.
"""

# repro: module-role[hot-path] -- per-row work here multiplies by the dataset size

from __future__ import annotations

from array import array
from operator import attrgetter, getitem
from typing import Any, Iterator, Sequence
from zlib import crc32

from repro.errors import StorageError
from repro.storage.batch import Batch
from repro.storage.columns import (
    DICT_SLOT_BYTES,
    ColumnarPartition,
    DictColumn,
    as_values,
    make_dictionaries,
)
from repro.storage.disk import OverflowFile, SimulatedDisk, SpillChunk
from repro.storage.memory import MemoryBudget
from repro.storage.schema import Schema
from repro.storage.tuples import KeyBinder

#: Default bucket count; the paper's engine sized this from optimizer hints.
DEFAULT_BUCKET_COUNT = 64

#: Below this many rows per touched bucket, bulk inserts append row by row.
SMALL_GROUP_ROWS = 4

_columns_of = attrgetter("columns")
_codes_of = attrgetter("codes")
_arrivals_of = attrgetter("arrivals")


def bucket_of(key: tuple[Any, ...], bucket_count: int) -> int:
    """Deterministic bucket assignment for a join key.

    Uses the builtin ``hash`` — fastest available, and perfectly fine for
    *intra-process* buckets.  It is NOT stable across processes for strings
    (``PYTHONHASHSEED`` randomization); anything that partitions across
    process boundaries must use :func:`stable_bucket_of` instead.
    """
    return hash(key) % bucket_count


def _stable_key_bytes(key: tuple[Any, ...]) -> bytes:
    """A canonical byte encoding of a join key, equal iff the keys route equal.

    Each value is tagged with its type so ``1`` and ``"1"`` never collide,
    except that floats with integral values encode as their int twin —
    builtin ``hash(1.0) == hash(1)``, and mixed int/float key columns must
    keep routing rows with equal keys to the same lane.
    """
    parts: list[bytes] = []
    for value in key:
        if isinstance(value, bool):
            parts.append(b"b1" if value else b"b0")
        elif isinstance(value, int):
            parts.append(b"i" + str(value).encode("ascii"))
        elif isinstance(value, float):
            if value.is_integer():
                parts.append(b"i" + str(int(value)).encode("ascii"))
            else:
                parts.append(b"f" + repr(value).encode("ascii"))
        elif isinstance(value, str):
            parts.append(b"s" + value.encode("utf-8", "surrogatepass"))
        elif value is None:
            parts.append(b"n")
        else:
            parts.append(b"o" + repr(value).encode("utf-8", "surrogatepass"))
    return b"\x1f".join(parts)


def stable_bucket_of(key: tuple[Any, ...], bucket_count: int) -> int:
    """Process-stable bucket assignment (exchange lane routing).

    ``zlib.crc32`` over a canonical byte encoding: identical across runs,
    interpreters, and processes regardless of ``PYTHONHASHSEED``, so a
    parent routing batches and a lane worker checking its share always
    agree.
    """
    return crc32(_stable_key_bytes(key)) % bucket_count


class Bucket:
    """One hash bucket: a resident columnar partition plus optional overflow."""

    __slots__ = ("index", "partition", "overflow", "flushed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.partition: ColumnarPartition | None = None
        self.overflow: OverflowFile | None = None
        self.flushed = False

    @property
    def resident_count(self) -> int:
        return len(self.partition.arrivals) if self.partition is not None else 0

    def match(self, key: tuple[Any, ...]) -> list[int] | None:
        """Resident row positions holding ``key`` (None for a miss)."""
        if self.partition is None:
            return None
        return self.partition.positions.get(key)


class BucketedHashTable:
    """A hash table over join keys with per-bucket spill support.

    Parameters
    ----------
    key_names:
        Attribute names forming the hash key.
    budget:
        Memory budget charged for resident rows (columnar byte estimates).
    disk:
        Destination for flushed buckets.
    bucket_count:
        Number of hash buckets.
    name:
        Used in overflow file names and error messages.
    schema:
        Schema of the stored rows; fixes the partitions' typed column layout
        and the per-row byte charge.  When omitted it is adopted from the
        first inserted row or batch.
    encoded:
        When true (the default, matching ``EngineConfig.encoded_columns``),
        partitions dictionary-encode string columns over *table-owned*
        dictionaries shared by every bucket — so flushed chunks stay
        code-compatible and each distinct value is stored (and charged)
        once per table — and resident rows charge
        :attr:`Schema.encoded_row_size`.  Dictionary growth is force-charged
        to the budget as it happens (it cannot be refused row by row) and
        counted in :attr:`resident_bytes`, so the budget invariant
        ``budget.used == sum(resident_bytes)`` holds in encoded bytes.
    """

    def __init__(
        self,
        key_names: Sequence[str],
        budget: MemoryBudget,
        disk: SimulatedDisk,
        bucket_count: int = DEFAULT_BUCKET_COUNT,
        name: str = "hash",
        schema: Schema | None = None,
        encoded: bool = True,
    ) -> None:
        if bucket_count <= 0:
            raise StorageError(f"bucket count must be positive, got {bucket_count}")
        self.key_names = tuple(key_names)
        self.budget = budget
        self.disk = disk
        self.bucket_count = bucket_count
        self.name = name
        self.schema = schema
        self.encoded = encoded
        self.row_bytes = schema.row_size_for(encoded) if schema is not None else 0
        self.buckets = [Bucket(i) for i in range(bucket_count)]
        self.total_inserted = 0
        self.flushed_count = 0
        self._binder = KeyBinder(self.key_names)
        self.dictionary_bytes = 0
        self._dictionaries = None
        #: ``[(slot, dictionary, seen_codes)]`` for slots whose dictionary
        #: was adopted from the insert stream (see ``_fix_dictionaries``).
        self._adopted_slots: list | None = None

    def _fix_dictionaries(self, source_columns: Sequence | None) -> None:
        """Fix the table's per-slot dictionaries on first insert.

        Dict-encodable slots *adopt* the insert stream's dictionary when the
        first insert arrives as columns carrying one (all later inserts from
        the same scan then move raw codes — no re-encoding); slots with no
        donor get table-owned dictionaries whose growth hook charges the
        budget at encode time.  Either way, growth is a side effect of value
        encoding and cannot be refused row by row, so it force-charges past
        the limit — the elevated usage simply brings the next row refusal
        (the overflow signal) forward.  Adopted slots charge each entry at
        the first *insert* referencing it (tracked per code), which is the
        same logical point an owned dictionary charges at, so byte totals
        and overflow positions do not depend on the dictionary's owner.
        """
        dictionaries = make_dictionaries(self.schema)
        adopted: list = []
        for j, dictionary in enumerate(dictionaries):
            if dictionary is None:
                continue
            source = source_columns[j] if source_columns is not None else None
            if type(source) is DictColumn:
                dictionaries[j] = source.dictionary
                adopted.append((j, source.dictionary, set()))
            else:
                dictionary.on_grow = self._record_dictionary_growth
        self._dictionaries = dictionaries
        self._adopted_slots = adopted

    def _record_dictionary_growth(self, nbytes: int) -> None:
        self.budget.force_reserve(nbytes)
        self.dictionary_bytes += nbytes

    def _charge_adopted(self, source_columns: Sequence, position: int) -> None:
        """Charge adopted-dictionary entries first referenced by this insert."""
        for j, dictionary, seen in self._adopted_slots:
            source = source_columns[j]
            if type(source) is DictColumn and source.dictionary is dictionary:
                code = source.codes[position]
                if code not in seen:
                    seen.add(code)
                    self._record_dictionary_growth(dictionary.entry_bytes(code))

    # -- schema / partition plumbing ----------------------------------------------

    def _adopt_schema(self, schema: Schema) -> None:
        if self.schema is None:
            self.schema = schema
            self.row_bytes = schema.row_size_for(self.encoded)

    def _partition(self, bucket: Bucket) -> ColumnarPartition:
        partition = bucket.partition
        if partition is None:
            if self.schema is None:
                raise StorageError(f"{self.name}: schema unknown before first insert")
            if self.encoded and self._dictionaries is None:
                self._fix_dictionaries(None)
            partition = bucket.partition = ColumnarPartition(
                self.schema, self.encoded, self._dictionaries
            )
        return partition

    # -- inserting -------------------------------------------------------------

    def key_indices_in(self, schema: Schema) -> tuple[int, ...]:
        """Positions of the key attributes in ``schema`` (for bulk extraction)."""
        return self._binder.indices_in(schema)

    def insert_position(
        self,
        bucket_index: int,
        key: tuple[Any, ...],
        source_columns: Sequence[Sequence[Any]],
        position: int,
        arrival: float,
    ) -> bool:
        """Insert one row by position from batch/run columns — no row boxing.

        Returns ``False`` when the memory budget refuses (the caller runs its
        overflow strategy and retries); the bucket must not be flushed.
        """
        if not self.budget.try_reserve(self.row_bytes):
            return False
        bucket = self.buckets[bucket_index]
        if self.encoded and self._dictionaries is None:
            self._fix_dictionaries(source_columns)
        self._partition(bucket).append_position(key, source_columns, position, arrival)
        if self._adopted_slots:
            self._charge_adopted(source_columns, position)
        self.total_inserted += 1
        return True

    def insert_batch(
        self,
        batch: Batch,
        marked: bool = False,
        keys: Sequence[tuple[Any, ...]] | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> int:
        """Bulk-insert ``batch`` rows ``start:stop``; returns the stop position.

        A return equal to ``stop`` (default ``len(batch)``) means every row
        was handled.  Rows whose bucket is already flushed are written
        straight to that bucket's overflow file (they count as handled).  On
        the first memory refusal for a resident insert, the refused row's
        position is returned so the caller can run its overflow strategy and
        retry from there — the refusal lands on exactly the row where
        row-by-row inserts would have overflowed.

        When no row's bucket has flushed and the rows fit the budget
        together with every dictionary entry they add, the rows move as
        per-bucket column gathers (the bulk fast path).
        """
        self._adopt_schema(batch.schema)
        if keys is None:
            keys = batch.key_tuples(self._binder.indices_in(batch.schema))
        n = len(batch) if stop is None else stop
        if start >= n:
            return n
        count = self.bucket_count
        buckets = self.buckets
        columns = batch.columns
        arrivals = as_values(batch.arrivals)
        remaining = n - start
        if self.encoded and self._dictionaries is None:
            self._fix_dictionaries(columns)
        indexes = [hash(keys[i]) % count for i in range(start, n)]
        grouped: dict[int, list[int]] = {}
        for i, index in enumerate(indexes, start):
            found = grouped.get(index)
            if found is None:
                grouped[index] = [i]
            else:
                found.append(i)
        if not (self.flushed_count and any(buckets[index].flushed for index in grouped)):
            growth = self._dictionary_growth(columns, start, n)
            if growth is not None and not self.budget.would_overflow(
                remaining * self.row_bytes + growth[0]
            ):
                self.budget.reserve(remaining * self.row_bytes)
                if remaining < SMALL_GROUP_ROWS * len(grouped):
                    # Few rows per bucket: per-row appends beat per-bucket
                    # column gathers, whose cost is per column per bucket.
                    for i, index in enumerate(indexes, start):
                        self._partition(buckets[index]).append_position(
                            keys[i], columns, i, arrivals[i]
                        )
                else:
                    for index, positions in grouped.items():
                        self._partition(buckets[index]).extend_gather(
                            columns, arrivals, keys, positions
                        )
                # Bulk form of the per-insert adopted charge: every code in
                # the inserted range not seen before is charged once.
                for seen, fresh, nbytes in growth[1]:
                    seen |= fresh
                    self._record_dictionary_growth(nbytes)
                self.total_inserted += remaining
                return n
        row_bytes = self.row_bytes
        budget = self.budget
        adopted = self._adopted_slots
        for i in range(start, n):
            key = keys[i]
            bucket = buckets[hash(key) % count]
            if bucket.flushed:
                self.total_inserted += 1
                self._ensure_overflow(bucket).write_position(
                    columns, i, arrivals[i], marked
                )
                continue
            if not budget.try_reserve(row_bytes):
                return i
            self.total_inserted += 1
            self._partition(bucket).append_position(key, columns, i, arrivals[i])
            if adopted:
                self._charge_adopted(columns, i)
        return n

    def _dictionary_growth(self, columns: Sequence, start: int, stop: int):
        """Bound the dictionary bytes that inserting rows ``start:stop`` charges.

        Returns ``(bytes, adopted)``, where ``adopted`` holds ``(seen,
        fresh_codes, bytes)`` per adopted slot for the caller to charge.
        Owned dictionaries charge themselves as values encode; their share
        counts every new string (a misfit degrades instead, so this is an
        upper bound).  ``None`` on an unhashable value: no bound.
        """
        total = 0
        adopted: list = []
        owned = list(enumerate(self._dictionaries or ()))
        for j, dictionary, seen in self._adopted_slots or ():
            owned[j] = (j, None)
            source = columns[j]
            if type(source) is DictColumn and source.dictionary is dictionary:
                fresh = set(source.codes[start:stop]) - seen
                if fresh:
                    nbytes = sum(map(dictionary.entry_bytes, fresh))
                    adopted.append((seen, fresh, nbytes))
                    total += nbytes
        for j, dictionary in owned:
            if dictionary is not None:
                try:
                    distinct = set(columns[j][start:stop])
                except TypeError:
                    return None
                known = dictionary.codes
                total += sum(
                    len(value) + DICT_SLOT_BYTES
                    for value in distinct
                    if type(value) is str and value not in known
                )
        return total, adopted

    def gather_matches(
        self,
        keys: Sequence[tuple[Any, ...]],
        positions: Sequence[int] | None = None,
    ) -> tuple[list[int], list[list[Any]], list[float], bool] | None:
        """Bulk probe: gathered match columns for the joins' output assembly.

        Probes ``keys`` (restricted to the probed ``positions`` when given)
        and returns ``(take, match_columns, match_arrivals, aligned)`` —
        ``take[i]`` is the probed position whose key produced match ``i``,
        and the matched build rows arrive as already-gathered column lists.
        ``aligned`` is true when every key matched exactly once (``take`` is
        the identity permutation).  ``None`` when nothing matched.

        The probe first collects each match's partition and row position in
        probe order; each column is then filled by one C-level take.  A
        string column whose matched partitions all hold dictionary codes is
        gathered as codes into a :class:`DictColumn` sharing the table's
        dictionary; every other column is gathered as values.
        """
        if self.schema is None:
            return None
        count = self.bucket_count
        buckets = self.buckets
        take: list[int] = []
        owners: list[ColumnarPartition] = []
        where: list[int] = []
        aligned = True
        take_one, owner_one, where_one = take.append, owners.append, where.append
        probe_range = range(len(keys)) if positions is None else positions
        for position in probe_range:
            key = keys[position]
            partition = buckets[hash(key) % count].partition
            found = partition.positions.get(key) if partition is not None else None
            if not found:
                aligned = False
            elif len(found) == 1:
                take_one(position)
                owner_one(partition)
                where_one(found[0])
            else:
                aligned = False
                take.extend([position] * len(found))
                owners.extend([partition] * len(found))
                where.extend(found)
        if not take:
            return None
        match_columns: list = []
        # ``sources``: each match's partition column for one attribute.
        for sources in zip(*map(_columns_of, owners)):
            if type(sources[0]) is DictColumn:
                # Partitions code the slot in the table's dictionary unless a
                # misfit degraded the column to a list (no ``codes``).
                try:
                    codes = array("q", map(getitem, map(_codes_of, sources), where))
                except AttributeError:
                    pass
                else:
                    match_columns.append(DictColumn(sources[0].dictionary, codes))
                    continue
            match_columns.append(list(map(getitem, sources, where)))
        match_arrivals = list(map(getitem, map(_arrivals_of, owners), where))
        aligned = aligned and len(probe_range) == len(keys)
        return take, match_columns, match_arrivals, aligned

    # -- flushing ----------------------------------------------------------------

    def _ensure_overflow(self, bucket: Bucket) -> OverflowFile:
        if bucket.overflow is None:
            bucket.overflow = self.disk.create_file(
                f"{self.name}-b{bucket.index}", schema=self.schema
            )
        return bucket.overflow

    def spill_position(
        self,
        bucket_index: int,
        source_columns: Sequence[Sequence[Any]],
        position: int,
        arrival: float,
        marked: bool,
    ) -> None:
        """Write one arriving row straight to a bucket's overflow file."""
        bucket = self.buckets[bucket_index]
        self._ensure_overflow(bucket).write_position(
            source_columns, position, arrival, marked
        )

    def flush_bucket(self, index: int, mark_rows: bool = False) -> int:
        """Write bucket ``index`` to disk, releasing its memory.

        Returns the number of rows flushed.  Subsequent inserts into this
        bucket go directly to its overflow file.  The partition's counters
        and the budget move in one atomic step — the columns are detached
        (and the resident bytes released) *before* the spill write, so no
        observer can see a half-drained bucket or double-release its bytes.
        """
        bucket = self.buckets[index]
        overflow = self._ensure_overflow(bucket)
        flushed = 0
        partition = bucket.partition
        if partition is not None and partition.arrivals:
            flushed = len(partition.arrivals)
            columns, arrivals = partition.take_data()
            self.budget.release(flushed * self.row_bytes)
            overflow.write_columns(columns, arrivals, mark_rows)
        if not bucket.flushed:
            bucket.flushed = True
            self.flushed_count += 1
        return flushed

    def flush_largest_bucket(self, mark_rows: bool = False) -> int | None:
        """Flush the resident bucket holding the most bytes; returns its index."""
        victim: Bucket | None = None
        victim_count = 0
        for bucket in self.buckets:
            if bucket.flushed:
                continue
            count = bucket.resident_count
            if count > victim_count:
                victim, victim_count = bucket, count
        if victim is None:
            return None
        self.flush_bucket(victim.index, mark_rows)
        return victim.index

    def flush_all(self, mark_rows: bool = False) -> int:
        """Flush every resident bucket; returns total rows flushed."""
        total = 0
        for bucket in self.buckets:
            if bucket.resident_count > 0 or not bucket.flushed:
                total += self.flush_bucket(bucket.index, mark_rows)
        return total

    # -- inspection ---------------------------------------------------------------

    @property
    def resident_rows(self) -> int:
        return sum(b.resident_count for b in self.buckets)

    @property
    def resident_bytes(self) -> int:
        """Bytes this table holds against its budget.

        Rows charge the (encoding-dependent) per-row estimate; encoded
        tables additionally hold their dictionaries resident, which stay
        charged across bucket flushes (spilled chunks keep referencing the
        table dictionaries, and any entry may recur in later inserts).
        """
        return self.resident_rows * self.row_bytes + self.dictionary_bytes

    @property
    def flushed_buckets(self) -> list[int]:
        if not self.flushed_count:
            return []
        return [b.index for b in self.buckets if b.flushed]

    @property
    def has_resident_data(self) -> bool:
        return any(b.resident_count > 0 for b in self.buckets)

    def overflow_chunks(self, index: int) -> Iterator[SpillChunk]:
        """Read back bucket ``index``'s overflow file as columnar chunks."""
        bucket = self.buckets[index]
        if bucket.overflow is None:
            return iter(())
        return bucket.overflow.read_chunks()

    def check_accounting(self) -> None:
        """Raise unless the budget's usage covers this table's resident bytes.

        The invariant asserted by the overflow tests: resident bytes are an
        exact multiple of the columnar row estimate, and never exceed what
        the budget believes is reserved (for a budget shared across tables,
        the *sum* of the tables' resident bytes must equal the reservation —
        callers with sole ownership can assert equality).
        """
        resident = self.resident_bytes
        if resident > self.budget.used_bytes:
            raise StorageError(
                f"{self.name}: accounting drift — resident {resident}B exceeds "
                f"budget reservation {self.budget.used_bytes}B"
            )

    def release_all(self) -> None:
        """Drop all resident rows and return their memory to the budget."""
        for bucket in self.buckets:
            partition = bucket.partition
            if partition is not None:
                count = len(partition.arrivals)
                if count:
                    partition.take_data()
                    self.budget.release(count * self.row_bytes)
        if self.dictionary_bytes:
            self.budget.release(self.dictionary_bytes)
            self.dictionary_bytes = 0
