"""The columnar wire format (``storage/wire.py``) and stable partition hashing.

Round-trip law: for any batch the engine can hold, ``decode(encode(batch))``
reproduces the identical contents *and the identical representation* — typed
arrays stay typed, dictionary columns stay dictionary-coded against a mirror
dictionary, run-length arrivals stay run-length, row-backed batches stay
row-backed.  Representation matters because operators branch on it.

Delta law: a dictionary entry crosses one encoder/decoder link at most once.
After the first ship, only codes travel.

Routing law: ``stable_bucket_of`` is a pure function of the key *values* —
independent of ``PYTHONHASHSEED``, process, or platform — because the
process backend routes in the parent while lane hash tables consume in
workers.
"""

from __future__ import annotations

import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.batch import Batch
from repro.storage.columns import DictColumn, Dictionary, RunLengthArrivals
from repro.storage.hash_table import stable_bucket_of
from repro.storage.schema import Schema
from repro.storage.tuples import Row
from repro.storage.wire import WireDecoder, WireEncoder, WireFormatError, pack, unpack

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
ARRIVALS = st.lists(st.floats(min_value=0, max_value=1e6), max_size=32)
STRINGS = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=12
)


def roundtrip(batch: Batch) -> Batch:
    encoder, decoder = WireEncoder(), WireDecoder()
    return decoder.decode_batch(unpack(pack(encoder.encode_batch(batch))))


def column_equal(decoded, original) -> bool:
    if type(decoded) is not type(original):
        return False
    if type(original) is array:
        return decoded.typecode == original.typecode and (
            decoded.tobytes() == original.tobytes()
        )
    return list(decoded) == list(original)


class TestColumnRoundTrip:
    @settings(deadline=None)
    @given(values=st.lists(INT64, max_size=64), typecode=st.sampled_from("qd"))
    def test_typed_arrays_ship_byte_for_byte(self, values, typecode):
        if typecode == "d":
            values = [float(v) for v in values]
        column = array(typecode, values)
        schema = Schema.of("a:int" if typecode == "q" else "a:float")
        batch = Batch.from_columns(schema, [column], [0.0] * len(values))
        decoded = roundtrip(batch)
        assert decoded.is_columnar
        out = decoded.wire_parts()[0][0]
        assert column_equal(out, column)

    @settings(deadline=None)
    @given(
        values=st.lists(
            st.one_of(INT64, FLOATS, STRINGS, st.none()), max_size=32
        )
    )
    def test_object_columns_roundtrip(self, values):
        schema = Schema.of("a:str")
        batch = Batch.from_columns(schema, [list(values)], [0.0] * len(values))
        decoded = roundtrip(batch)
        out = decoded.wire_parts()[0][0]
        assert column_equal(out, list(values))

    @settings(deadline=None)
    @given(values=st.lists(STRINGS, max_size=48))
    def test_dict_columns_roundtrip_as_dict_columns(self, values):
        column = DictColumn()
        column.extend(values)
        schema = Schema.of("a:str")
        batch = Batch.from_columns(schema, [column], [0.0] * len(values))
        decoded = roundtrip(batch)
        out = decoded.wire_parts()[0][0]
        assert type(out) is DictColumn
        assert list(out) == values
        # Code vectors align exactly — the mirror assigned identical codes.
        assert out.codes.tobytes() == column.codes.tobytes()

    @settings(deadline=None)
    @given(values=st.lists(STRINGS, min_size=0, max_size=32))
    def test_degraded_string_columns_stay_plain_lists(self, values):
        # A degraded column (dictionary overflow / frozen / misfit values) is
        # a plain list; it must not resurrect as a DictColumn on the far side.
        schema = Schema.of("a:str")
        batch = Batch.from_columns(schema, [list(values)], [0.0] * len(values))
        out = roundtrip(batch).wire_parts()[0][0]
        assert type(out) is list
        assert out == list(values)


class TestArrivalRoundTrip:
    @settings(deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.integers(min_value=1, max_value=5),
            ),
            max_size=16,
        )
    )
    def test_run_length_arrivals_ship_as_runs(self, runs):
        arrivals = RunLengthArrivals()
        for value, count in runs:
            for _ in range(count):
                arrivals.append(value)
        total = len(arrivals)
        schema = Schema.of("a:int")
        batch = Batch.from_columns(schema, [array("q", range(total))], arrivals)
        decoded = roundtrip(batch)
        out = decoded.arrivals
        assert type(out) is RunLengthArrivals
        assert out.to_list() == arrivals.to_list()
        # Representation preserved: runs stay runs (wire_runs not None).
        assert (out.wire_runs() is None) == (arrivals.wire_runs() is None)

    def test_degraded_arrivals_stay_degraded(self):
        # Strictly increasing stamps never merge; past the degrade threshold
        # the container flips to its plain-list form, and the receiver must
        # reconstruct exactly that form.
        arrivals = RunLengthArrivals([float(i) for i in range(200)])
        assert arrivals.wire_runs() is None, "expected the container to degrade"
        schema = Schema.of("a:int")
        batch = Batch.from_columns(schema, [array("q", range(200))], arrivals)
        out = roundtrip(batch).arrivals
        assert type(out) is RunLengthArrivals
        assert out.wire_runs() is None
        assert out.to_list() == arrivals.to_list()


class TestBatchRoundTrip:
    @settings(deadline=None)
    @given(
        rows=st.lists(
            st.tuples(INT64, STRINGS, st.floats(min_value=0, max_value=1e6)),
            max_size=32,
        )
    )
    def test_row_backed_batches_ship_as_columns(self, rows):
        schema = Schema.of("a:int", "b:str")
        batch = Batch.from_rows(
            schema, [Row.make(schema, (a, b), arrival) for a, b, arrival in rows]
        )
        decoded = roundtrip(batch)
        assert decoded.is_columnar
        assert [(r.values, r.arrival) for r in decoded.rows()] == [
            ((a, b), arrival) for a, b, arrival in rows
        ]

    def test_empty_batch_roundtrips(self):
        schema = Schema.of("a:int")
        decoded = roundtrip(Batch.empty(schema))
        assert len(decoded) == 0 and not decoded
        assert decoded.is_columnar

    @settings(deadline=None)
    @given(
        ints=st.lists(INT64, min_size=4, max_size=4),
        strings=st.lists(STRINGS, min_size=4, max_size=4),
    )
    def test_mixed_column_batch_roundtrips(self, ints, strings):
        dict_column = DictColumn()
        dict_column.extend(strings)
        schema = Schema.of("a:int", "b:str", "c:str")
        batch = Batch.from_columns(
            schema,
            [array("q", ints), dict_column, list(strings)],
            [0.0, 0.0, 1.0, 1.0],
        )
        columns = roundtrip(batch).wire_parts()[0]
        assert type(columns[0]) is array and columns[0].tobytes() == array(
            "q", ints
        ).tobytes()
        assert type(columns[1]) is DictColumn and list(columns[1]) == strings
        assert type(columns[2]) is list and columns[2] == strings

    def test_schema_identity_is_preserved_across_batches(self):
        # One schema object crosses once (a ref ever after) and every decoded
        # batch of the stream shares the single decoded schema object.
        encoder, decoder = WireEncoder(), WireDecoder()
        schema = Schema.of("a:int")
        decoded = [
            decoder.decode_batch(
                unpack(pack(encoder.encode_batch(
                    Batch.from_columns(schema, [array("q", [i])], [0.0])
                )))
            )
            for i in range(3)
        ]
        assert decoded[0].schema is decoded[1].schema is decoded[2].schema


class TestDictionaryDeltas:
    @settings(deadline=None)
    @given(
        ships=st.lists(st.lists(STRINGS, max_size=16), min_size=1, max_size=5)
    )
    def test_each_distinct_string_crosses_once(self, ships):
        dictionary = Dictionary()
        schema = Schema.of("a:str")
        encoder, decoder = WireEncoder(), WireDecoder()
        shipped_strings: list[str] = []
        seen: set[str] = set()
        for values in ships:
            column = DictColumn(dictionary)
            column.extend(values)
            encoded = encoder.encode_batch(
                Batch.from_columns(schema, [column], [0.0] * len(values))
            )
            # The dictionary delta of this frame contains exactly the
            # never-before-shipped entries, in first-seen order.
            delta = encoded[2][0][3]
            expected_new = [v for v in values if v not in seen and not seen.add(v)]
            assert delta == expected_new
            shipped_strings.extend(delta)
            decoded = decoder.decode_batch(unpack(pack(encoded)))
            assert list(decoded.wire_parts()[0][0]) == values
        distinct = {v for values in ships for v in values}
        assert sorted(shipped_strings) == sorted(distinct)
        assert encoder.dict_entries_shipped == len(distinct)

    def test_codes_not_strings_after_first_delta(self):
        dictionary = Dictionary()
        schema = Schema.of("a:str")
        encoder = WireEncoder()
        first = DictColumn(dictionary)
        first.extend(["x", "y", "x"])
        encoder.encode_batch(Batch.from_columns(schema, [first], [0.0] * 3))
        repeat = DictColumn(dictionary)
        repeat.extend(["y", "x", "y", "x"])
        encoded = encoder.encode_batch(
            Batch.from_columns(schema, [repeat], [0.0] * 4)
        )
        kind, wire_id, base, delta, frozen, code_buffer = encoded[2][0]
        assert kind == "dict"
        assert delta == []  # nothing new: only the code buffer travels
        assert base == 2
        assert bytes(code_buffer) == repeat.codes.tobytes()
        assert encoder.dict_entries_shipped == 2

    def test_shared_dictionary_ships_once_for_both_columns(self):
        dictionary = Dictionary()
        left = DictColumn(dictionary)
        left.extend(["a", "b"])
        right = DictColumn(dictionary)
        right.extend(["b", "c"])
        schema = Schema.of("l:str", "r:str")
        encoder, decoder = WireEncoder(), WireDecoder()
        decoded = decoder.decode_batch(
            unpack(pack(encoder.encode_batch(
                Batch.from_columns(schema, [left, right], [0.0, 0.0])
            )))
        )
        out_left, out_right = decoded.wire_parts()[0]
        # Columns sharing a dictionary on the sender share its mirror.
        assert out_left.dictionary is out_right.dictionary
        assert encoder.dict_entries_shipped == 3

    def test_misaligned_delta_is_rejected(self):
        dictionary = Dictionary()
        column = DictColumn(dictionary)
        column.extend(["a", "b"])
        schema = Schema.of("a:str")
        encoder, decoder = WireEncoder(), WireDecoder()
        first = encoder.encode_batch(
            Batch.from_columns(schema, [column], [0.0, 0.0])
        )
        second = encoder.encode_batch(
            Batch.from_columns(schema, [column], [0.0, 0.0])
        )
        # Skipping the first frame leaves the mirror empty; the second frame's
        # empty delta then claims 2 existing entries, which must not decode
        # into a silently misaligned dictionary.
        del first
        with pytest.raises(WireFormatError):
            decoder.decode_batch(unpack(pack(second)))


class TestFraming:
    @settings(deadline=None)
    @given(
        message=st.recursive(
            st.one_of(INT64, FLOATS, STRINGS, st.none(), st.binary(max_size=64)),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.tuples(children, children),
            ),
            max_leaves=16,
        )
    )
    def test_pack_unpack_identity(self, message):
        assert unpack(pack(message)) == message

    def test_out_of_band_buffers_roundtrip(self):
        payload = ("frame", array("q", range(1000)), array("d", [0.5] * 1000))
        kind, ints, floats = unpack(pack(payload))
        assert kind == "frame"
        assert array("q", ints).tobytes() == array("q", range(1000)).tobytes()


class TestStablePartitionHashing:
    #: Pinned routing: these exact assignments are part of the on-the-wire
    #: contract between the parent's pump loop and lane workers.  A change
    #: here silently reshuffles every partitioned stream.
    PINNED = {
        ((0,), 2): 1,
        ((1,), 2): 1,
        ((7,), 2): 0,
        (("tag3",), 2): 0,
        ((3.5,), 4): 1,
        ((None,), 4): 2,
        ((True,), 4): 0,
        ((42, "x"), 4): 3,
        ((7,), 8): 6,
        ((1,), 8): 3,
    }

    def test_pinned_assignments(self):
        for (key, lanes), expected in self.PINNED.items():
            assert stable_bucket_of(key, lanes) == expected, (key, lanes)

    @settings(deadline=None)
    @given(
        key=st.tuples(st.one_of(INT64, FLOATS, STRINGS, st.none(), st.booleans())),
        lanes=st.integers(min_value=1, max_value=16),
    )
    def test_bucket_in_range_and_deterministic(self, key, lanes):
        bucket = stable_bucket_of(key, lanes)
        assert 0 <= bucket < lanes
        assert stable_bucket_of(tuple(key), lanes) == bucket

    def test_independent_of_hash_seed(self):
        # The builtin ``hash`` for strings varies per process (PYTHONHASHSEED);
        # routing must not.  Compute assignments under two adversarial seeds
        # in fresh interpreters and require identical results.
        program = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.storage.hash_table import stable_bucket_of;"
            "keys = [(i,) for i in range(32)]"
            " + [(f'tag{i}',) for i in range(32)]"
            " + [(i / 8,) for i in range(32)] + [(None,), (True,), (False,)];"
            "print([stable_bucket_of(k, 4) for k in keys])"
        )
        outputs = set()
        for seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                check=True,
                cwd="/root/repo",
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, "stable_bucket_of varied with PYTHONHASHSEED"
