"""Columnar wire format: how batches cross the lane process boundary.

The process exchange backend ships routed batches to lane workers (and lane
outputs back) without giving up the storage layer's compact representations:

* typed ``array('q')`` / ``array('d')`` columns ship as raw buffers via
  pickle protocol 5's out-of-band :class:`pickle.PickleBuffer` path — no
  per-value boxing, one memcpy per column;
* :class:`~repro.storage.columns.DictColumn` ships its ``array('q')`` code
  buffer plus a dictionary *delta*: the sender tracks how many entries each
  dictionary had at last ship, so each distinct string crosses the boundary
  once per peer, codes ever after.  The receiver adopts deltas into a
  mirror dictionary keyed by the sender's dictionary identity, so columns
  that shared a dictionary on one side share its mirror on the other
  (the code-vs-code fast paths keep working);
* non-degraded :class:`~repro.storage.columns.RunLengthArrivals` ship as
  ``(value, run)`` pairs; degraded ones ship their plain list, so the
  receiver reconstructs the identical internal form.

Every batch ships as columns: a row-backed batch transposes on the way out
and arrives column-backed (operators read columns either way).

One :class:`WireEncoder` / :class:`WireDecoder` pair serves one direction of
one (parent, lane) link for the query's lifetime; the encoder's byte and
dictionary-entry counters feed the benchmark's bounded-shipping assertion.

Framing (:func:`pack` / :func:`unpack`) length-prefixes the pickle payload
and its out-of-band buffers into one ``bytes`` so a message travels as a
single ``Connection.send_bytes`` call.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from typing import Any

from repro.errors import StorageError
from repro.storage.batch import Batch
from repro.storage.columns import DictColumn, Dictionary, RunLengthArrivals
from repro.storage.schema import Schema


class WireFormatError(StorageError):
    """A shipped batch could not be decoded against the receiver's state."""


def pack(message: Any) -> bytes:
    """Serialize ``message`` (protocol 5) with out-of-band buffers, framed."""
    buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    parts: list[Any] = [payload]
    parts.extend(buffer.raw() for buffer in buffers)
    header = [struct.pack("<I", len(parts))]
    header.extend(struct.pack("<Q", memoryview(part).nbytes) for part in parts)
    return b"".join(header) + b"".join(bytes(p) if not isinstance(p, bytes) else p for p in parts)


def unpack(blob: bytes) -> Any:
    """Inverse of :func:`pack`; buffers are zero-copy views into ``blob``."""
    view = memoryview(blob)
    (count,) = struct.unpack_from("<I", view, 0)
    offset = 4 + 8 * count
    sizes = struct.unpack_from(f"<{count}Q", view, 4)
    parts = []
    for size in sizes:
        parts.append(view[offset : offset + size])
        offset += size
    return pickle.loads(parts[0], buffers=parts[1:])


class WireEncoder:
    """Stateful batch encoder for one direction of one inter-process link.

    Tracks per-dictionary ship watermarks (for deltas) and per-schema ship
    state (a schema object crosses once, a small integer ref ever after).
    Counters accumulate for the benchmark's shipping report.
    """

    def __init__(self) -> None:
        #: id(dictionary) -> (wire_id, dictionary) — the reference keeps the
        #: dictionary alive so the id cannot be recycled.
        self._dictionaries: dict[int, tuple[int, Dictionary]] = {}
        #: wire_id -> number of entries already shipped.
        self._shipped: dict[int, int] = {}
        self._schemas: dict[int, tuple[int, Schema]] = {}
        self.payload_bytes = 0
        self.batches = 0
        self.dict_entries_shipped = 0
        self.dict_bytes_shipped = 0

    # -- registries -------------------------------------------------------------

    def _schema_ref(self, schema: Schema) -> tuple[int, Schema | None]:
        known = self._schemas.get(id(schema))
        if known is not None:
            return known[0], None
        ref = len(self._schemas)
        self._schemas[id(schema)] = (ref, schema)
        return ref, schema

    def _dictionary_delta(self, dictionary: Dictionary) -> tuple[int, int, list[str], bool]:
        known = self._dictionaries.get(id(dictionary))
        if known is None:
            wire_id = len(self._dictionaries)
            self._dictionaries[id(dictionary)] = (wire_id, dictionary)
            self._shipped[wire_id] = 0
        else:
            wire_id = known[0]
        base = self._shipped[wire_id]
        delta = dictionary.entries_since(base)
        self._shipped[wire_id] = base + len(delta)
        if delta:
            self.dict_entries_shipped += len(delta)
            self.dict_bytes_shipped += sum(len(value) for value in delta)
        return wire_id, base, delta, dictionary.frozen

    # -- encoding ---------------------------------------------------------------

    def _encode_column(self, column) -> tuple:
        if type(column) is array:
            return ("arr", column.typecode, pickle.PickleBuffer(column))
        if type(column) is DictColumn:
            wire_id, base, delta, frozen = self._dictionary_delta(column.dictionary)
            return ("dict", wire_id, base, delta, frozen, pickle.PickleBuffer(column.codes))
        return ("obj", list(column))

    def _encode_arrivals(self, arrivals) -> tuple:
        if type(arrivals) is RunLengthArrivals:
            runs = arrivals.wire_runs()
            if runs is None:
                return ("rle-plain", arrivals.to_list())
            values, ends = runs
            return (
                "rle",
                pickle.PickleBuffer(array("d", values)),
                pickle.PickleBuffer(array("q", ends)),
            )
        return ("plain", list(arrivals))

    def encode_batch(self, batch: Batch) -> tuple:
        """One batch as a picklable wire structure (pair with :func:`pack`)."""
        columns, arrivals = batch.wire_parts()
        schema_ref = self._schema_ref(batch.schema)
        self.batches += 1
        return (
            "cols",
            schema_ref,
            [self._encode_column(column) for column in columns],
            self._encode_arrivals(arrivals),
        )

    def report(self) -> dict:
        """Shipping counters (consumed by the multicore benchmark)."""
        return {
            "batches": self.batches,
            "payload_bytes": self.payload_bytes,
            "dictionaries": len(self._dictionaries),
            "dict_entries_shipped": self.dict_entries_shipped,
            "dict_bytes_shipped": self.dict_bytes_shipped,
        }


class WireDecoder:
    """Receiving twin of :class:`WireEncoder`: rebuilds batches and mirrors.

    Dictionary mirrors persist across batches (keyed by the sender's wire
    id) so successive ships extend, never re-ship; schema refs resolve to
    the one schema object shipped first, preserving object identity across
    all decoded batches of a stream.
    """

    def __init__(self) -> None:
        self._dictionaries: dict[int, Dictionary] = {}
        self._schemas: dict[int, Schema] = {}

    def _resolve_schema(self, schema_ref: tuple[int, Schema | None]) -> Schema:
        ref, shipped = schema_ref
        if shipped is not None:
            self._schemas[ref] = shipped
        try:
            return self._schemas[ref]
        except KeyError:
            raise WireFormatError(f"unknown schema ref {ref} (out-of-order decode?)") from None

    def _decode_column(self, encoded: tuple):
        kind = encoded[0]
        if kind == "arr":
            column = array(encoded[1])
            column.frombytes(encoded[2])
            return column
        if kind == "dict":
            _, wire_id, base, delta, frozen, code_bytes = encoded
            dictionary = self._dictionaries.get(wire_id)
            if dictionary is None:
                dictionary = self._dictionaries[wire_id] = Dictionary()
            try:
                dictionary.adopt_entries(delta, base)
            except ValueError as exc:
                raise WireFormatError(str(exc)) from None
            dictionary.frozen = frozen
            codes = array("q")
            codes.frombytes(code_bytes)
            return DictColumn(dictionary, codes)
        if kind == "obj":
            return encoded[1]
        raise WireFormatError(f"unknown column encoding {kind!r}")

    def _decode_arrivals(self, encoded: tuple):
        kind = encoded[0]
        if kind == "plain":
            return encoded[1]
        if kind == "rle":
            values = array("d")
            values.frombytes(encoded[1])
            ends = array("q")
            ends.frombytes(encoded[2])
            return RunLengthArrivals.from_wire_runs(values.tolist(), ends.tolist())
        if kind == "rle-plain":
            out = RunLengthArrivals()
            out._plain = list(encoded[1])
            return out
        raise WireFormatError(f"unknown arrival encoding {kind!r}")

    def decode_batch(self, encoded: tuple) -> Batch:
        """Rebuild one column-backed batch."""
        kind = encoded[0]
        schema = self._resolve_schema(encoded[1])
        if kind == "cols":
            columns = [self._decode_column(column) for column in encoded[2]]
            return Batch.from_columns(schema, columns, self._decode_arrivals(encoded[3]))
        raise WireFormatError(f"unknown batch encoding {kind!r}")
