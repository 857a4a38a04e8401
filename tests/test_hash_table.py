"""Unit tests for repro.storage.hash_table."""

from array import array

import pytest

from repro.errors import StorageError
from repro.storage.batch import Batch
from repro.storage.disk import SimulatedDisk
from repro.storage.hash_table import BucketedHashTable, bucket_of
from repro.storage.memory import MemoryBudget
from repro.storage.schema import Schema
from repro.storage.tuples import KeyBinder, Row, counting_row_constructions

from helpers import insert_row, probe_values, spilled_marks

SCHEMA = Schema.of("k:int", "v:str")

#: Bytes one resident row charges against the budget: the *encoded* columnar
#: estimate (tables dictionary-encode string columns by default).
ROW_BYTES = SCHEMA.encoded_row_size

#: Bytes one new dictionary entry charges (value length + slot pointer); the
#: default test value is the one-char string "x".
DICT_X_BYTES = 1 + 8

#: All-string schema used by the encoded hot-path guard tests.
STR_SCHEMA = Schema.of("k:str", "v:str")


def make_row(key: int, value: str = "x") -> Row:
    return Row(SCHEMA, (key, value))


def make_table(limit_bytes=None, buckets=8, name="t") -> BucketedHashTable:
    return BucketedHashTable(
        ["k"], MemoryBudget(limit_bytes), SimulatedDisk(), bucket_count=buckets, name=name,
        schema=SCHEMA,
    )


def make_batch(keys, value="x") -> Batch:
    return Batch.from_columns(
        SCHEMA, [array("q", keys), [value] * len(keys)], [0.0] * len(keys)
    )


class TestBasicOperations:
    def test_insert_and_probe(self):
        table = make_table()
        insert_row(table, make_row(1, "a"))
        insert_row(table, make_row(1, "b"))
        insert_row(table, make_row(2, "c"))
        assert {v for _, v in probe_values(table, (1,))} == {"a", "b"}
        assert probe_values(table, (99,)) == []
        assert table.resident_rows == 3

    def test_probe_row_uses_given_keys(self):
        # The probing side names its own key attributes.
        table = make_table()
        insert_row(table, make_row(5, "a"))
        other_schema = Schema.of("fk:int")
        probe = Batch.from_columns(other_schema, [array("q", [5, 6])], [0.0, 0.0])
        keys = probe.key_tuples(KeyBinder(["fk"]).indices_in(other_schema))
        take, _, _, _ = table.gather_matches(keys)
        assert take == [0]

    def test_budget_charged_per_row_in_encoded_bytes(self):
        budget = MemoryBudget(10_000)
        table = BucketedHashTable(["k"], budget, SimulatedDisk())
        insert_row(table, make_row(1))
        # One encoded row plus the value's dictionary entry, charged once.
        assert table.dictionary_bytes == DICT_X_BYTES
        assert budget.used_bytes == ROW_BYTES + DICT_X_BYTES
        insert_row(table, make_row(2))
        assert budget.used_bytes == 2 * ROW_BYTES + DICT_X_BYTES

    def test_plain_mode_charges_plain_columnar_bytes(self):
        budget = MemoryBudget(10_000)
        table = BucketedHashTable(["k"], budget, SimulatedDisk(), encoded=False)
        insert_row(table, make_row(1))
        assert budget.used_bytes == SCHEMA.columnar_row_size
        assert table.dictionary_bytes == 0

    def test_insert_refused_when_budget_full(self):
        table = make_table(limit_bytes=ROW_BYTES)
        assert insert_row(table, make_row(1))
        assert not insert_row(table, make_row(2))
        assert table.resident_rows == 1

    def test_bucket_count_validation(self):
        with pytest.raises(StorageError):
            make_table(buckets=0)

    def test_bucket_of_deterministic(self):
        assert bucket_of((5,), 16) == bucket_of((5,), 16)
        assert 0 <= bucket_of(("abc", 3), 7) < 7


class TestFlushing:
    def test_flush_bucket_releases_memory_and_spills(self):
        budget = MemoryBudget(None)
        disk = SimulatedDisk()
        table = BucketedHashTable(["k"], budget, disk, bucket_count=4)
        rows = [make_row(i) for i in range(20)]
        for row in rows:
            insert_row(table, row)
        used_before = budget.used_bytes
        index = table.flush_largest_bucket()
        assert index is not None
        assert budget.used_bytes < used_before
        assert disk.stats.tuples_written > 0
        assert index in table.flushed_buckets

    def test_inserts_into_flushed_bucket_go_to_disk(self):
        table = make_table(buckets=1)
        insert_row(table, make_row(1))
        table.flush_bucket(0)
        assert not insert_row(table, make_row(2))
        assert table.resident_rows == 0
        assert len(spilled_marks(table, 0)) == 2

    def test_flush_all(self):
        table = make_table(buckets=4)
        for i in range(10):
            insert_row(table, make_row(i))
        flushed = table.flush_all()
        assert flushed == 10
        assert table.resident_rows == 0
        assert not table.has_resident_data

    def test_flush_largest_picks_biggest(self):
        table = make_table(buckets=2)
        # Bucket of key k is deterministic; put more rows behind one key.
        heavy_key, light_key = 0, 1
        if bucket_of((0,), 2) == bucket_of((1,), 2):
            light_key = 2
        for _ in range(5):
            insert_row(table, make_row(heavy_key))
        insert_row(table, make_row(light_key))
        flushed_index = table.flush_largest_bucket()
        assert flushed_index == bucket_of((heavy_key,), 2)

    def test_flush_largest_none_when_empty(self):
        assert make_table().flush_largest_bucket() is None

    def test_overflow_rows_marks_preserved(self):
        table = make_table(buckets=1)
        insert_row(table, make_row(1))
        table.flush_bucket(0, mark_rows=True)
        assert spilled_marks(table, 0) == [True]

    def test_release_all_returns_budget(self):
        budget = MemoryBudget(None)
        table = BucketedHashTable(["k"], budget, SimulatedDisk())
        for i in range(5):
            insert_row(table, make_row(i))
        table.release_all()
        assert budget.used_bytes == 0
        assert table.resident_rows == 0

    def test_resident_items_iterates_all(self):
        table = make_table()
        for i in range(5):
            insert_row(table, make_row(i))
        resident = [
            key
            for bucket in table.buckets
            if bucket.partition is not None
            for key in bucket.partition.columns[0]
        ]
        assert sorted(resident) == [0, 1, 2, 3, 4]


class TestColumnarBuckets:
    """Buckets store columnar partitions: typed columns + key->positions map."""

    def test_partition_columns_are_typed(self):
        from repro.storage.columns import DictColumn

        table = make_table()
        insert_row(table, make_row(1, "a"))
        insert_row(table, make_row(2, "b"))
        bucket = table.buckets[bucket_of((1,), table.bucket_count)]
        assert isinstance(bucket.partition.columns[0], array)
        assert bucket.partition.columns[0].typecode == "q"
        # String columns dictionary-encode by default...
        assert isinstance(bucket.partition.columns[1], DictColumn)
        # ...and stay plain object lists with encoding off.
        plain = BucketedHashTable(
            ["k"], MemoryBudget(None), SimulatedDisk(), bucket_count=8,
            schema=SCHEMA, encoded=False,
        )
        insert_row(plain, make_row(1, "a"))
        assert isinstance(plain.buckets[bucket_of((1,), 8)].partition.columns[1], list)

    def test_insert_batch_bulk_fast_path(self):
        table = make_table()
        batch = make_batch(list(range(50)))
        assert table.insert_batch(batch) == 50
        assert table.resident_rows == 50
        assert table.budget.used_bytes == 50 * ROW_BYTES + DICT_X_BYTES
        assert {k for k, _ in probe_values(table, (7,))} == {7}

    def test_insert_batch_stops_at_exact_refusal_row(self):
        # Budget fits 3 rows (plus the shared "x" dictionary entry); the 4th
        # insert must be the refusal position.
        table = make_table(limit_bytes=3 * ROW_BYTES + DICT_X_BYTES)
        batch = make_batch([0, 1, 2, 3, 4])
        stop = table.insert_batch(batch)
        assert stop == 3
        assert table.resident_rows == 3
        assert table.budget.stats.overflow_events == 1

    @pytest.mark.parametrize("adopted", [False, True], ids=["owned", "adopted"])
    def test_insert_batch_refuses_where_per_row_inserts_refuse(self, adopted):
        # Every row carries a fresh string, so every insert also charges a
        # new dictionary entry; the bulk path must count those bytes before
        # it admits the rows, whether the table owns its dictionary or
        # adopts the batch's.
        from repro.storage.columns import build_columns, make_dictionaries

        keys = list(range(20))
        values = [f"fresh{k:02d}" for k in keys]
        dictionaries = make_dictionaries(SCHEMA) if adopted else None
        columns = build_columns(SCHEMA, [keys, values], adopted, dictionaries)
        batch = Batch.from_columns(SCHEMA, columns, [0.0] * len(keys))
        key_tuples = batch.key_tuples((0,))
        per_row = make_table(limit_bytes=490)
        refused = next(
            i
            for i, key in enumerate(key_tuples)
            if not per_row.insert_position(bucket_of(key, 8), key, batch.columns, i, 0.0)
        )
        bulk = make_table(limit_bytes=490)
        assert bulk.insert_batch(batch, keys=key_tuples) == refused < len(keys)
        assert bulk.resident_rows == per_row.resident_rows == refused
        assert bulk.budget.used_bytes == per_row.budget.used_bytes
        assert bulk.budget.stats.overflow_events == per_row.budget.stats.overflow_events == 1

    def test_insert_batch_stops_at_stop(self):
        table = make_table()
        batch = make_batch(list(range(10)))
        assert table.insert_batch(batch, start=2, stop=6) == 6
        assert table.resident_rows == 4
        assert table.total_inserted == 4
        assert probe_values(table, (1,)) == [] and len(probe_values(table, (5,))) == 1

    def test_insert_batch_routes_flushed_buckets_to_disk(self):
        table = make_table(buckets=1)
        insert_row(table, make_row(0))
        table.flush_bucket(0)
        batch = make_batch([1, 2, 3])
        assert table.insert_batch(batch) == 3
        assert table.resident_rows == 0
        assert len(spilled_marks(table, 0)) == 4

    def test_gather_matches_returns_columns_and_take(self):
        table = make_table()
        insert_row(table, make_row(1, "a"))
        insert_row(table, make_row(2, "b"))
        insert_row(table, make_row(2, "c"))
        result = table.gather_matches([(1,), (9,), (2,)])
        assert result is not None
        take, columns, arrivals, aligned = result
        assert take == [0, 2, 2]
        assert list(columns[0]) == [1, 2, 2]
        assert sorted(columns[1]) == ["a", "b", "c"]
        assert len(arrivals) == 3
        assert not aligned

    def test_gather_matches_aligned_identity(self):
        table = make_table()
        insert_row(table, make_row(1, "a"))
        insert_row(table, make_row(2, "b"))
        take, _, _, aligned = table.gather_matches([(1,), (2,)])
        assert take == [0, 1]
        assert aligned

    def test_gather_matches_respects_positions_subset(self):
        table = make_table()
        insert_row(table, make_row(1, "a"))
        insert_row(table, make_row(2, "b"))
        take, columns, _, aligned = table.gather_matches([(1,), (2,)], positions=[1])
        assert take == [1]
        assert list(columns[0]) == [2]
        assert not aligned  # a subset probe can never be the identity

    def test_insert_and_probe_box_no_rows(self):
        """Hash-table insert/probe hot paths must not construct Row objects."""
        table = make_table()
        batch = make_batch(list(range(40)))
        keys = batch.key_tuples(table.key_indices_in(SCHEMA))
        with counting_row_constructions() as counter:
            table.insert_batch(batch, keys=keys)
            table.insert_position(bucket_of((99,), 8), (99,), batch.columns, 0, 0.0)
            assert table.gather_matches(keys) is not None
            assert table.gather_matches([(5,)]) is not None
            assert counter.count == 0

    def test_spill_and_flush_box_no_rows(self):
        table = make_table(buckets=1)
        batch = make_batch(list(range(10)))
        table.insert_batch(batch)
        with counting_row_constructions() as counter:
            table.flush_bucket(0)
            table.spill_position(0, batch.columns, 3, 0.0, marked=True)
            for chunk in table.overflow_chunks(0):
                assert len(chunk) > 0
            assert counter.count == 0


class TestAccountingInvariant:
    """budget.used must equal the tables' resident bytes at all times."""

    def test_flush_releases_atomically(self):
        table = make_table(buckets=4)
        for i in range(20):
            insert_row(table, make_row(i))
        assert (
            table.budget.used_bytes
            == table.resident_bytes
            == 20 * ROW_BYTES + DICT_X_BYTES
        )
        table.flush_largest_bucket()
        assert table.budget.used_bytes == table.resident_bytes
        table.flush_all()
        # Rows are all on disk; the table dictionary stays resident (spilled
        # chunks reference it) until release_all.
        assert table.budget.used_bytes == table.resident_bytes == DICT_X_BYTES
        table.check_accounting()
        table.release_all()
        assert table.budget.used_bytes == table.resident_bytes == 0

    def test_shared_budget_across_two_tables(self):
        budget = MemoryBudget(None)
        disk = SimulatedDisk()
        left = BucketedHashTable(["k"], budget, disk, bucket_count=4, schema=SCHEMA)
        right = BucketedHashTable(["k"], budget, disk, bucket_count=4, schema=SCHEMA)
        for i in range(10):
            insert_row(left, make_row(i))
            insert_row(right, make_row(i))
        assert budget.used_bytes == left.resident_bytes + right.resident_bytes
        left.flush_bucket(0)
        right.flush_all()
        assert budget.used_bytes == left.resident_bytes + right.resident_bytes
        left.check_accounting()
        right.check_accounting()

    def test_check_accounting_detects_drift(self):
        table = make_table()
        insert_row(table, make_row(1))
        table.budget.release(ROW_BYTES)  # simulate a lost release
        with pytest.raises(StorageError):
            table.check_accounting()

    def test_release_all_restores_budget(self):
        table = make_table(buckets=2)
        batch = make_batch(list(range(12)))
        table.insert_batch(batch)
        table.flush_bucket(0)
        table.release_all()
        assert table.budget.used_bytes == 0
        assert table.resident_bytes == 0


class TestEncodedHotPaths:
    """Dict-encoded insert/probe and spill write/read paths construct no
    Row objects and no per-row string objects: every string that comes back
    *is* (identity, not equality) a dictionary entry."""

    def make_string_batch(self, keys):
        from repro.storage.columns import build_columns, make_dictionaries

        values = [f"K{k:04d}" for k in keys]
        payload = ["hot" if k % 2 else "cold" for k in keys]
        dictionaries = make_dictionaries(STR_SCHEMA)
        columns = build_columns(
            STR_SCHEMA, [values, payload], encoded=True, dictionaries=dictionaries
        )
        return Batch.from_columns(STR_SCHEMA, columns, [0.0] * len(keys))

    def make_string_table(self, limit_bytes=None, buckets=8):
        return BucketedHashTable(
            ["k"], MemoryBudget(limit_bytes), SimulatedDisk(), bucket_count=buckets,
            name="enc", schema=STR_SCHEMA,
        )

    def all_dictionary_string_ids(self, batch, table):
        ids = set()
        from repro.storage.columns import DictColumn

        for column in batch.columns:
            if isinstance(column, DictColumn):
                ids.update(map(id, column.dictionary.values))
        for dictionary in table._dictionaries or ():
            if dictionary is not None:
                ids.update(map(id, dictionary.values))
        return ids

    def test_insert_probe_and_spill_move_no_rows_and_no_new_strings(self):
        table = self.make_string_table(buckets=4)
        batch = self.make_string_batch(list(range(32)))
        keys = batch.key_tuples(table.key_indices_in(STR_SCHEMA))
        with counting_row_constructions() as counter:
            assert table.insert_batch(batch, keys=keys) == 32
            result = table.gather_matches(keys)
            assert result is not None
            table.flush_bucket(0)
            table.spill_position(0, batch.columns, 3, 0.0, marked=True)
            chunks = list(table.overflow_chunks(0))
            assert chunks
            assert counter.count == 0
        canonical = self.all_dictionary_string_ids(batch, table)
        # Probe results decode to canonical dictionary strings...
        _, match_columns, _, _ = result
        for column in match_columns:
            for value in column:
                if isinstance(value, str):
                    assert id(value) in canonical
        # ...and so do spilled chunks read back from disk.
        for chunk in chunks:
            for column in chunk.columns:
                for value in list(column):
                    if isinstance(value, str):
                        assert id(value) in canonical

    def test_adopted_dictionaries_share_the_batch_dictionary(self):
        table = self.make_string_table()
        batch = self.make_string_batch([1, 2, 3])
        table.insert_batch(batch)
        from repro.storage.columns import DictColumn

        key_column = batch.columns[0]
        assert isinstance(key_column, DictColumn)
        assert table._dictionaries[0] is key_column.dictionary
        # Resident partitions move codes, so their columns share it too.
        for bucket in table.buckets:
            if bucket.partition is not None and len(bucket.partition):
                assert bucket.partition.columns[0].dictionary is key_column.dictionary

    def test_dictionary_growth_is_charged_once_per_value(self):
        budget = MemoryBudget(None)
        table = BucketedHashTable(
            ["k"], budget, SimulatedDisk(), bucket_count=4, schema=STR_SCHEMA
        )
        batch = self.make_string_batch([1, 2, 1, 2])
        table.insert_batch(batch)
        # 4 rows + dictionary entries: 2 distinct keys (5 chars) and the
        # two payload values "hot"/"cold".
        expected_dict = 2 * (5 + 8) + (3 + 8) + (4 + 8)
        assert table.dictionary_bytes == expected_dict
        assert budget.used_bytes == 4 * STR_SCHEMA.encoded_row_size + expected_dict
